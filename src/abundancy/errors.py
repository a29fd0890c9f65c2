"""Exception types and default budgets, shared across modules; no imports, so no NumPy."""

DEFAULT_MAX_NMAX = 50_000_000  # sieve_b's max_nmax
DEFAULT_MAX_WORK = 26_000_000  # max_work of enumerate_A and exp_series, and the fixed caps


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
