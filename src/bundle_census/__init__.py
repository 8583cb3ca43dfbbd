"""Existence and counting of complex vector bundles on CP^m from Chern classes.

Decides, by exact arbitrary-precision arithmetic, whether integers
(c_1, ..., c_n) occur as the Chern classes of a rank-n topological bundle
on a complex projective space, and how many isomorphism classes share
them.  The integrality conditions are evaluated through symmetric-function
identities (Newton power sums, Stirling expansion of binomial
coefficients of the Chern roots); a floating-point root-finding oracle
cross-checks the exact path.
"""

from importlib import import_module

__version__ = "0.1.0"

# every exported name and the module it lives in: importing the package loads
# none of them, so each command imports only the modules it runs (PEP 562)
_HOMES = {
    "BundleCount": "enumeration",
    "ChernVector": "chern",
    "NumericRoots": "oracle",
    "SchwarzenbergerReport": "enumeration",
    "backend_name": "kernels",
    "binomial_sum": "enumeration",
    "binomial_sum_numeric": "oracle",
    "check_schwarzenberger": "enumeration",
    "compare_exact_numeric": "oracle",
    "count_bundles": "enumeration",
    "dual": "chern",
    "elementary_symmetric": "chern",
    "exists_rank_n_on_cp_n_plus_1": "enumeration",
    "find_roots": "oracle",
    "from_line_bundles": "chern",
    "stirling_first": "kernels",
    "twist_by_line": "chern",
    "CORANK_ONE": "counting",
    "LINE_BUNDLE": "counting",
    "STABLE_RANGE": "counting",
    "UNSUPPORTED": "counting",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value
