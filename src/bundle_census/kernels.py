"""The exact arithmetic kernels the library calls.

Re-exports the bignum kernels of ``_kernels_py``.  Callers look the
functions up as attributes of this module (``kernels.schwarz_terms``), so a
profiler or test can wrap one in a single place.
"""

from __future__ import annotations

from ._kernels_py import (
    binomial_sum_num_den,
    power_sums,
    schwarz_terms,
    stirling_first,
    stirling_row,
)

__all__ = [
    "backend_name",
    "binomial_sum_num_den",
    "power_sums",
    "schwarz_terms",
    "stirling_first",
    "stirling_row",
]


def backend_name() -> str:
    """Name of the kernel implementation; always ``"python"``."""
    return "python"
