"""Pure-Python exact arithmetic kernels.

Reference implementation of the exact inner loops: Stirling numbers of
the first kind, Newton power sums, and the binomial sums B_r of the Chern
roots, whose A_r = r! B_r only ``numerators`` forms, for ``schwarz_terms``
and the sweep's heads alike.  All on plain Python ints, never floats, so
exact at any size.  The library reaches these functions through
``kernels``; the module imports nothing from the package, so it can be
loaded on its own as a reference.

All functions are pure and the only shared state is the memoized Stirling
triangle, which only ever grows.
"""

from __future__ import annotations

from itertools import islice
from math import factorial, gcd
from operator import mul
from typing import Sequence

# Triangle of signed Stirling numbers of the first kind, row r holding
# (s(r,0), ..., s(r,r)).  Grown on demand on a local copy and published by
# one rebinding, so a reader, in any thread, always sees a correct prefix.
_STIRLING_ROWS: tuple[tuple[int, ...], ...] = ((1,),)


def stirling_row(r: int) -> tuple[int, ...]:
    """Row ``(s(r,0), ..., s(r,r))`` of the signed Stirling triangle.

    s(r,k) are the coefficients of the falling factorial:
    x(x-1)...(x-r+1) = sum_k s(r,k) x^k, with the recurrence
    s(r,k) = s(r-1,k-1) - (r-1)*s(r-1,k) and s(0,0) = 1.
    """
    global _STIRLING_ROWS
    if r < 0:
        raise ValueError(f"row index must be nonnegative, got {r}")
    rows = _STIRLING_ROWS
    if len(rows) <= r:
        grown = list(rows)
        while len(grown) <= r:
            m, prev = len(grown), grown[-1]
            grown.append(tuple(a - (m - 1) * b for a, b in zip((0, *prev), (*prev, 0))))
        rows = _STIRLING_ROWS = tuple(grown)
    return rows[r]


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

    with e_i = c_i up to the last nonzero class and 0 beyond.  With p_0
    read as k, each p_k is one dot product of the signed e_i with p_(k-1),
    ..., p_0, an integer: no division ever occurs.
    """
    if R < 0:
        raise ValueError(f"power sum count must be nonnegative, got {R}")
    signed = [-c if i % 2 else c for i, c in enumerate(coeffs)]  # (-1)^(i-1) e_i, i from 1
    while signed and not signed[-1]:
        signed.pop()
    p = [0]
    for k in range(1, R + 1):
        p[0] = k
        p.append(sum(map(mul, signed, reversed(p))))
    return p[1:]


def numerators(coeffs: Sequence[int], orders: range) -> list[int]:
    """Unreduced A_r = r! B_r = sum_k s(r,k) p_k for each r >= 1 of ``orders``.

    One ``power_sums`` call, then a dot product per Stirling row from k = 1,
    s(r,0) being 0.
    """
    p = power_sums(coeffs, max(orders, default=0))
    return [sum(map(mul, islice(stirling_row(r), 1, None), p)) for r in orders]


def binomial_sum_num_den(coeffs: Sequence[int], r: int) -> tuple[int, int]:
    """Sum of binomial coefficients C(delta_j, r) over the roots, reduced.

    Returns (num, den) in lowest terms with den >= 1, computed as
    A_r / r! (``numerators``) without materializing any root.
    """
    if r < 1:
        raise ValueError(f"binomial degree must be >= 1, got {r}")
    return _over_factorial(*numerators(coeffs, range(r, r + 1)), r)


def schwarz_terms(coeffs: Sequence[int], N: int) -> list[tuple[int, int, int]]:
    """Reduced values ``(r, num, den)`` of B_r for every r in [2, N].

    B_r = sum_j C(delta_j, r) for the roots delta_j of the degree-N monic
    polynomial with the given coefficients.  ``den == 1`` in every entry is
    exactly the integrality condition S_N.  The A_r come from one
    ``numerators`` call, so the power sums are shared across all r.
    """
    if N < 1:
        raise ValueError(f"condition order must be >= 1, got {N}")
    if len(coeffs) != N:
        raise ValueError(f"expected {N} coefficients, got {len(coeffs)}")
    orders = range(2, N + 1)
    return [(r, *_over_factorial(a, r)) for r, a in zip(orders, numerators(coeffs, orders))]


def _over_factorial(num: int, r: int) -> tuple[int, int]:
    g = gcd(num, den := factorial(r))  # num / r! in lowest terms
    return num // g, den // g
