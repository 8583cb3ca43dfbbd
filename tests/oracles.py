"""Independent brute-force oracles.

Everything here works directly on explicit integer roots, with no shared
code with the library's symmetric-function route: elementary symmetric
functions by enumerating subsets, power sums by direct powering, binomial
sums as exact falling-factorial fractions.  The one floating-point
reference takes the roots as given and evaluates each binomial sum on its
own, one r at a time.
"""

import cmath
from fractions import Fraction
from itertools import combinations
from math import factorial, prod


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
