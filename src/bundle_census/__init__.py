"""Existence and counting of complex vector bundles on CP^m from Chern classes.

Decides, by exact arbitrary-precision arithmetic, whether integers
(c_1, ..., c_n) occur as the Chern classes of a rank-n topological bundle
on a complex projective space, and how many isomorphism classes share
them.  The integrality conditions are evaluated through symmetric-function
identities (Newton power sums, Stirling expansion of binomial
coefficients of the Chern roots); a floating-point root-finding oracle
cross-checks the exact path.
"""

from .chern import (
    ChernVector,
    dual,
    elementary_symmetric,
    from_line_bundles,
    twist_by_line,
)
from .enumeration import (
    CORANK_ONE,
    LINE_BUNDLE,
    STABLE_RANGE,
    UNSUPPORTED,
    BundleCount,
    SchwarzenbergerReport,
    binomial_sum,
    check_schwarzenberger,
    count_bundles,
    exists_rank_n_on_cp_n_plus_1,
)
from .kernels import backend_name, stirling_first
from .oracle import NumericRoots, binomial_sum_numeric, compare_exact_numeric, find_roots

__version__ = "0.1.0"

__all__ = [
    "BundleCount",
    "ChernVector",
    "NumericRoots",
    "SchwarzenbergerReport",
    "backend_name",
    "binomial_sum",
    "binomial_sum_numeric",
    "check_schwarzenberger",
    "compare_exact_numeric",
    "count_bundles",
    "dual",
    "elementary_symmetric",
    "exists_rank_n_on_cp_n_plus_1",
    "find_roots",
    "from_line_bundles",
    "stirling_first",
    "twist_by_line",
    "CORANK_ONE",
    "LINE_BUNDLE",
    "STABLE_RANGE",
    "UNSUPPORTED",
]
