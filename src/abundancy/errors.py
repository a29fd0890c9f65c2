"""Exception types and every work cap, shared across modules; no imports, so no NumPy."""

DEFAULT_MAX_NMAX = 50_000_000  # sieve_b's max_nmax
DEFAULT_MAX_WORK = 26_000_000  # max_work of enumerate_A and exp_series, and of routes without one
MAX_TRIAL_DIVISOR = 10**7  # odd trial divisors factorize may try, about a second
MAX_POWER_COST = 500_000_000  # cost (K + ell) bits(K) of a K-term power-rule series
BUILD_MAX_N = 2**18  # vertices of one torus build_torus lays out
VALIDATE_MAX_N = 2048  # vertices n of a torus whose n x n group table validate fills
EXACT_NMAX_CAP = 20_000  # terms N of error_series' exact-rational partial sums
MAX_BINS = 10**6  # bins of error_series' histogram, each an edge and a Python triple


class BudgetError(Exception):
    """Raised when a request exceeds a configured work or memory budget."""


class VerificationFailure(Exception):
    """Raised when an identity or tolerance check does not hold."""


class TableLoadError(Exception):
    """Base class for failures while loading a stored value table."""


class ChecksumMismatch(TableLoadError):
    pass


class VersionMismatch(TableLoadError):
    pass


class MetadataMismatch(TableLoadError):
    pass


class MalformedTable(TableLoadError):
    pass
