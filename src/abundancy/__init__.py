"""Exact arithmetic of flag-weighted divisor sums B(ell, n), the commuting
permutation tuples they count, and the limit statistics of the generalized
index B(ell, n)/n^{ell-1}.

Submodules load lazily so that importing the package (or running the CLI
--help path) does not pay for NumPy.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULES = {
    "core", "bvalues", "qseries", "sieve", "permtuples",
    "genfunc", "stats", "tori", "cli", "errors", "_kernels",
}

_EXPORTS = {
    # core
    "primes_up_to": "core", "factorize": "core", "divisors": "core",
    "Factorization": "core",
    # three B routes
    "b_via_flags": "bvalues", "b_via_recursion": "bvalues",
    "b_via_multiplicativity": "bvalues", "local_factor": "bvalues",
    "abundancy_index": "bvalues",
    # q-series
    "qpoch": "qseries", "verify_power_rule": "qseries",
    "PowerRuleReport": "qseries",
    # bulk tables
    "ArithTable": "sieve", "sieve_b": "sieve", "save_table": "sieve",
    "load_table": "sieve", "cached_sieve": "sieve",
    # brute-force oracle
    "PermTuple": "permtuples", "ATable": "permtuples",
    "enumerate_A": "permtuples", "bell_transform": "permtuples",
    "b_from_bruteforce": "permtuples", "transitive_tuples": "permtuples",
    # generating series
    "SeriesPoly": "genfunc", "series_L": "genfunc", "exp_series": "genfunc",
    "partition_numbers": "genfunc", "h_point": "genfunc", "h_vector": "genfunc",
    "cauchy_check": "genfunc", "CauchyReport": "genfunc",
    "hr_ratio": "genfunc",
    # limit statistics
    "zeta": "stats", "mu_constant": "stats", "cesaro_mean": "stats",
    "empirical_moment": "stats", "error_series": "stats",
    "ErrorSummary": "stats", "local_moment": "stats",
    "theoretical_moment": "stats", "MomentResult": "stats",
    "EULER_GAMMA": "stats",
    # tori
    "TorusSpec": "tori", "TorusRealization": "tori", "TorusChecks": "tori",
    "build_torus": "tori", "validate": "tori", "double_count_check": "tori",
    "export_dot": "tori", "all_specs": "tori", "spec_count": "tori",
    # errors
    "BudgetError": "errors", "VerificationFailure": "errors",
    "TableLoadError": "errors", "ChecksumMismatch": "errors",
    "VersionMismatch": "errors", "MetadataMismatch": "errors",
    "MalformedTable": "errors",
}

__all__ = sorted(_EXPORTS) + sorted(_SUBMODULES - {"_kernels"})


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name in _EXPORTS:
        return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
