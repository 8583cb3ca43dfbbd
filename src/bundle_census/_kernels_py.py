"""Pure-Python exact arithmetic kernels.

Reference implementation of the hot inner loops: Stirling numbers of the
first kind, Newton power sums, and the reduced binomial sums of the Chern
roots.  Everything here works on plain Python ints (arbitrary precision,
never floats), so results are exact at any input size.  The library
reaches these functions through ``kernels``.  The module imports nothing
from the package, so it can be loaded on its own as a reference.

All functions are pure and the only shared state is the memoized Stirling
triangle, which is append-only and safe under the GIL.
"""

from __future__ import annotations

import threading
from math import factorial, gcd
from typing import Sequence

# Triangle of signed Stirling numbers of the first kind, row r holding
# (s(r,0), ..., s(r,r)).  Grown on demand under a lock, rows immutable
# once appended, so concurrent readers are safe.
_STIRLING_ROWS: list[tuple[int, ...]] = [(1,)]
_STIRLING_LOCK = threading.Lock()


def stirling_row(r: int) -> tuple[int, ...]:
    """Row ``(s(r,0), ..., s(r,r))`` of the signed Stirling triangle.

    s(r,k) are the coefficients of the falling factorial:
    x(x-1)...(x-r+1) = sum_k s(r,k) x^k, with the recurrence
    s(r,k) = s(r-1,k-1) - (r-1)*s(r-1,k) and s(0,0) = 1.
    """
    if r < 0:
        raise ValueError(f"row index must be nonnegative, got {r}")
    if len(_STIRLING_ROWS) <= r:
        with _STIRLING_LOCK:
            while len(_STIRLING_ROWS) <= r:
                m = len(_STIRLING_ROWS)
                prev = _STIRLING_ROWS[m - 1]
                row = [0] * (m + 1)
                for k in range(1, m + 1):
                    row[k] = prev[k - 1] - (m - 1) * (prev[k] if k <= m - 1 else 0)
                row[0] = -(m - 1) * prev[0]
                _STIRLING_ROWS.append(tuple(row))
    return _STIRLING_ROWS[r]


def stirling_first(r: int, k: int) -> int:
    """Signed Stirling number of the first kind s(r,k), 0 <= k <= r."""
    if r < 0 or k < 0:
        raise ValueError(f"stirling_first requires nonnegative arguments, got ({r}, {k})")
    if k > r:
        raise ValueError(f"stirling_first requires k <= r, got ({r}, {k})")
    return stirling_row(r)[k]


def power_sums(coeffs: Sequence[int], R: int) -> list[int]:
    """Power sums p_1..p_R of the roots of y^n + c_1 y^(n-1) + ... + c_n.

    The coefficients are the elementary symmetric functions of the roots
    (of the delta_j with the sign convention prod (y + delta_j)), so
    Newton's identities give

        p_k = sum_{i=1}^{k-1} (-1)^(i-1) e_i p_{k-i} + (-1)^(k-1) k e_k

    with e_i = c_i for i <= n and e_i = 0 beyond the degree.  Every p_k is
    an integer; no division ever occurs.
    """
    if R < 0:
        raise ValueError(f"power sum count must be nonnegative, got {R}")
    n = len(coeffs)
    p: list[int] = []
    for k in range(1, R + 1):
        acc = 0
        for i in range(1, min(k, n + 1)):
            t = coeffs[i - 1] * p[k - i - 1]
            acc += -t if i % 2 == 0 else t
        if k <= n:
            t = k * coeffs[k - 1]
            acc += -t if k % 2 == 0 else t
        p.append(acc)
    return p


def binomial_sum_num_den(coeffs: Sequence[int], r: int) -> tuple[int, int]:
    """Sum of binomial coefficients C(delta_j, r) over the roots, reduced.

    Returns (num, den) in lowest terms with den >= 1, computed as
    (1/r!) * sum_k s(r,k) p_k without materializing any root.
    """
    if r < 1:
        raise ValueError(f"binomial degree must be >= 1, got {r}")
    p = power_sums(coeffs, r)
    return _reduce_weighted(stirling_row(r), p, r)


def schwarz_terms(coeffs: Sequence[int], N: int) -> list[tuple[int, int, int]]:
    """Reduced values ``(r, num, den)`` of B_r for every r in [2, N].

    B_r = sum_j C(delta_j, r) for the roots delta_j of the degree-N monic
    polynomial with the given coefficients.  ``den == 1`` in every entry is
    exactly the integrality condition S_N.  Power sums are computed once
    and shared across all r.
    """
    if N < 1:
        raise ValueError(f"condition order must be >= 1, got {N}")
    if len(coeffs) != N:
        raise ValueError(f"expected {N} coefficients, got {len(coeffs)}")
    p = power_sums(coeffs, N)
    out = []
    for r in range(2, N + 1):
        num, den = _reduce_weighted(stirling_row(r), p, r)
        out.append((r, num, den))
    return out


def _reduce_weighted(srow: Sequence[int], p: Sequence[int], r: int) -> tuple[int, int]:
    # s(r,0) = 0 for r >= 1, so the k=0 term never contributes
    num = 0
    for k in range(1, r + 1):
        num += srow[k] * p[k - 1]
    den = factorial(r)
    g = gcd(num, den)
    return num // g, den // g
