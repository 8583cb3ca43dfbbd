"""The exact arithmetic kernels the library calls.

Re-exports the single-tuple kernels of ``_kernels_py`` and adds the batch
kernel that sweeps run on whole chunks of tuples.  The batch kernel reads
the largest |c_i| off the batch it is given and runs on int64 columns
where the overflow certificate holds, on columns of Python ints elsewhere.
numpy loads on the batch kernel's first call, so the single-tuple kernels
run without it.  Callers look the functions up as attributes of this module
(``kernels.schwarz_terms``), so a profiler or test can wrap one in a single
place.
"""

from __future__ import annotations

from functools import cache
from math import factorial
from typing import TYPE_CHECKING

from ._kernels_py import (
    binomial_sum_num_den,
    schwarz_terms,
    stirling_first,
    stirling_row,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "INT64_LIMIT",
    "backend_name",
    "binomial_sum_num_den",
    "certificate_bits",
    "int64_certified",
    "schwarz_terms",
    "schwarz_terms_batch",
    "stirling_first",
    "stirling_row",
]

INT64_LIMIT = 2**62


def backend_name() -> str:
    """Name of the kernel implementation; always ``"python"``."""
    return "python"


def int64_certified(order: int, max_abs: int) -> bool:
    """Whether ``schwarz_terms_batch`` runs S_order in int64 on these classes.

    ``max_abs`` bounds |c_i| over every tuple of the batch.  The batch
    kernel's int64 arithmetic cannot overflow when, with R = 1 + max_abs,

        order * R(R+1)...(R+order-1) < 2^62.

    Proof.  The classes are the elementary symmetric functions of the
    Chern roots d_j, the roots of y^n - c_1 y^(n-1) + c_2 y^(n-2) - ...,
    so Cauchy's bound gives |d_j| <= R, hence |p_k| <= n R^k for the power
    sums (n = order).  Newton's identity forms p_k as a signed sum of the
    terms c_i p_(k-i) (i < k) and k c_k, whose absolute values add up to
    at most n(R-1)(R^(k-1) + ... + R) + k(R-1) <= n R^k; so every partial
    sum and product of the recurrence is at most n R^k <= n R^order.  The
    numerator of B_r is sum_k s(r,k) p_k, whose terms add up in absolute
    value to at most n * sum_k |s(r,k)| R^k = n R(R+1)...(R+r-1), the
    unsigned Stirling numbers being the coefficients of the rising
    factorial; that bounds every partial sum, and it grows with r, so
    r = order bounds them all.  Each |s(r,k)| and the denominator r! are
    at most r! <= R(R+1)...(R+r-1).  Every value the kernel forms thus
    stays below the certificate, and 2^62 leaves a factor of two to the
    int64 range.
    """
    bits = INT64_LIMIT.bit_length() - 1  # c < 2^62 exactly when c has at most 62 bits
    return certificate_bits(order, max_abs, bits) <= bits


def certificate_bits(order: int, max_abs: int, cap: int) -> int:
    """Bit length of the certificate order * R(R+1)...(R+order-1), R = 1 + max_abs.

    The certificate bounds every value ``schwarz_terms`` forms for S_order
    on classes with |c_i| <= max_abs, reduced B_r included (see
    ``int64_certified``).  Past ``cap`` bits the product stops and the
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


@cache
def _weights(order: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    # stirling[r-2, k-1] = (-1)^(k+1) s(r, k) and factorials[r-2] = r!, 2 <= r <= order,
    # built as Python ints and cast: both leave int64 from r = 21, past every
    # order the certificate admits (N <= 19)
    stirling = np.zeros((max(order - 1, 0), order), dtype=object)
    for r in range(2, order + 1):
        stirling[r - 2, :r] = stirling_row(r)[1:]
    stirling[:, 1::2] *= -1
    factorials = np.array([factorial(r) for r in range(2, order + 1)], dtype=object).reshape(-1, 1)
    stirling, factorials = stirling.astype(dtype), factorials.astype(dtype)
    stirling.flags.writeable = factorials.flags.writeable = False
    return stirling, factorials


def schwarz_terms_batch(classes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced B_r, 2 <= r <= N, for every row of a ``(T, N)`` array of classes.

    Returns ``(num, den)``, each ``(T, N-1)`` with column r-2 holding B_r in
    lowest terms, den >= 1: row for row what ``schwarz_terms`` returns.
    The batch's largest |c_i| is read once, whatever the input dtype: where
    it satisfies ``int64_certified`` the column operations run in int64 and
    no operation is checked afterwards; elsewhere they run exactly on
    Python ints, at any size.  The returned dtype, int64 or ``object``,
    says which ran; a C-ordered ``(N, T)`` array's transpose is read with no
    copy.  Newton's identities run on the roots -d_j of y^N + c_1 y^(N-1)
    + ... + c_N itself, u_k = k c_k - sum_(i<k) c_i u_(k-i) = (-1)^(k+1) p_k,
    the sign going into the weights of B_r's numerator sum_k s(r,k) p_k.
    Every term added, k c_k, c_i u_(k-i) or (-1)^(k+1) s(r,k) u_k, thus has
    the absolute value of one that the proof of ``int64_certified`` bounds.
    """
    import numpy as np

    T, order = classes.shape
    max_abs = max(-int(classes.min()), int(classes.max())) if T else 0
    dtype = np.int64 if int64_certified(order, max_abs) else object
    c = np.ascontiguousarray(classes.T, dtype=dtype)
    stirling, factorials = _weights(order, c.dtype)
    # a fixed number of column operations per k, so few tuples of a high order cost little
    u = np.empty_like(c)
    for k in range(1, order + 1):
        u[k - 1] = k * c[k - 1] - (c[: k - 1] * u[: k - 1][::-1]).sum(axis=0)
    num = stirling @ u
    g = np.gcd(num, factorials)
    return (num // g).T, (factorials // g).T
