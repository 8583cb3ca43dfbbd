"""Independent brute-force oracles.

Everything here works directly on explicit integer roots, with no shared
code with the library's symmetric-function route: elementary symmetric
functions by enumerating subsets, power sums by direct powering, binomial
sums as exact falling-factorial fractions.  The one floating-point
reference takes the roots as given and evaluates each binomial sum on its
own, one r at a time.

``schwarz_terms_companion`` is the one oracle that takes classes rather
than roots: it reaches B_r through the integer companion matrix of the
Chern polynomial, with no power sum and no Stirling number, so it checks
the non-integral B_r that integer roots can never produce.
"""

import cmath
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, prod


def elem_sym_brute(roots):
    """(e_1, ..., e_n) by summing products over all k-subsets."""
    n = len(roots)
    return tuple(
        sum(prod(c) for c in combinations(roots, k)) for k in range(1, n + 1)
    )


def power_sum_brute(roots, k):
    return sum(d**k for d in roots)


def binom_sum_brute(roots, r):
    """sum_j C(d_j, r) as an exact Fraction, valid for negative d_j too."""
    return sum(
        (Fraction(prod(d - i for i in range(r)), factorial(r)) for d in roots),
        start=Fraction(0),
    )


def falling_factorial(m, r):
    return prod(m - i for i in range(r))


def binomial_sum_numeric_reference(deltas, r):
    """sum_j C(delta_j, r) in floating point for one r, a root and a factor at a time.

    The falling factorial over r! where r! is a float (r <= 170) and the
    total stays finite; otherwise each term is built one factor
    (delta - i)/(i + 1) at a time.
    """

    def root_sum(stepwise):
        total = 0j
        for delta in deltas:
            term = 1 + 0j
            for i in range(r):
                term *= (delta - i) / (i + 1) if stepwise else delta - i
            total += term
        return total

    if r <= 170:
        total = root_sum(stepwise=False) / float(factorial(r))
        if cmath.isfinite(total):
            return total
    return root_sum(stepwise=True)


def companion_matrix(classes):
    """The integer companion matrix of y^n - c_1 y^(n-1) + c_2 y^(n-2) - ... + (-1)^n c_n.

    Ones below the diagonal and the negated coefficients in the last
    column, so its eigenvalues are the Chern roots of (c_1, ..., c_n).
    """
    n = len(classes)
    a = [[int(i == j + 1) for j in range(n)] for i in range(n)]
    for i in range(n):
        # the coefficient of y^i is (-1)^(n-i) c_(n-i)
        a[i][n - 1] = -((-1) ** (n - i)) * classes[n - i - 1]
    return a


def matmul(x, y):
    return [[sum(p * q for p, q in zip(row, col)) for col in zip(*y)] for row in x]


def schwarz_terms_companion(classes, N):
    """(r, num, den) of B_r in lowest terms, 2 <= r <= N, by the companion matrix A.

    tr(A(A - I)...(A - (r-1)I)) is the sum over the eigenvalues d_j of
    d_j(d_j - 1)...(d_j - r + 1) = r! B_r, an integer; each falling
    factorial is the last times (A - (r-1)I), exactly, in integers.
    """
    classes = tuple(classes)
    if len(classes) != N:
        raise ValueError(f"S_{N} needs exactly {N} classes, got {len(classes)}")
    a = companion_matrix(classes)
    falling, terms = a, []
    for r in range(2, N + 1):
        shifted = [[x - (r - 1) * (i == j) for j, x in enumerate(row)] for i, row in enumerate(a)]
        falling = matmul(falling, shifted)
        trace, den = sum(falling[i][i] for i in range(N)), factorial(r)
        g = gcd(trace, den)
        terms.append((r, trace // g, den // g))
    return terms
