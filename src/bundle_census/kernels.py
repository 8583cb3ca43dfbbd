"""The exact arithmetic kernels the library calls.

Re-exports the kernels of ``_kernels_py``, all on Python ints, and adds
the certificate that bounds every value they form and ``coefficients``,
which reads class data as the kernels take it.  ``numerators`` forms
every unreduced A_r = r! B_r: a sweep calls it at its heads, a single
tuple reduces them through ``schwarz_terms``.
Callers look the functions up as attributes of this module
(``kernels.schwarz_terms``), so a profiler or test can wrap one in a
single place.
"""

from __future__ import annotations

from operator import index

from ._kernels_py import (
    binomial_sum_num_den,
    numerators,
    schwarz_terms,
    stirling_first,
)

__all__ = [
    "backend_name",
    "binomial_sum_num_den",
    "certificate_bits",
    "coefficients",
    "numerators",
    "schwarz_terms",
    "stirling_first",
]


def coefficients(c) -> tuple[int, ...]:
    """Monic-polynomial coefficients (c_1, ..., c_n) of class data.

    A ChernVector gives its ``full_classes``, zeros restored; a plain
    sequence is taken as-is.
    """
    full = getattr(c, "full_classes", None)
    return full if full is not None else tuple(map(index, c))


def backend_name() -> str:
    """Name of the kernel implementation; always ``"python"``."""
    return "python"


def certificate_bits(order: int, max_abs: int, cap: int) -> int:
    """Bit length of the certificate order * R(R+1)...(R+order-1), R = 1 + max_abs.

    The certificate bounds every value ``schwarz_terms`` forms for S_order
    on classes with |c_i| <= max_abs, reduced B_r included.  Proof: the
    classes are the elementary symmetric functions of the Chern roots, so
    Cauchy's bound gives |d_j| <= R, hence |p_k| <= n R^k (n = order) for
    the power sums and for every partial sum of Newton's identities.  The
    numerator of B_r, sum_k s(r,k) p_k, is then at most
    n R(R+1)...(R+r-1) in absolute value, the unsigned Stirling numbers
    being the coefficients of the rising factorial, and the denominator
    r! is below that too.  Past ``cap`` bits the product stops and the
    answer is ``cap + 1``, so huge classes at a high order cost a few
    multiplications, not the whole product.  The certificate is below 2^k
    exactly when its bit length is at most k.
    """
    bound = order
    for i in range(order):
        if bound.bit_length() > cap:
            break
        bound *= 1 + max_abs + i
    return min(bound.bit_length(), cap + 1)
