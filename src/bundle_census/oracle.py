"""Floating-point verification path for the exact engine.

Finds the Chern roots delta_j numerically (the Aberth-Ehrlich iteration),
evaluates sum_j C(delta_j, r) directly, every r at once from one
cumulative product over the roots, and compares against the exact
symmetric-function route.  This catches sign-convention and recurrence
bugs, but it never decides integrality: that is exactly the question
floating point cannot answer, so near-integer values are reported with
diagnostics only.

Results carry reliability flags instead of silently degrading: a root
whose backward error |P(z)| / sum |a_k| |z|^k passes BACKWARD_TOL, a
conditioning estimate beyond the trustworthy range, or a non-real value
outside tolerance (B_r is real) marks the value unreliable rather than
letting it masquerade as a disagreement.  The one backward error both
settles each zero of the iteration and judges the roots it returns.

The path is plain Python floats and complex numbers, so ``diagnose``
never loads numpy.  The exact side is ``kernels``, read straight into
``Fraction``s, and the two result records are ``NamedTuple``s, so
``diagnose`` loads none of the single-tuple API (``enumeration`` and its
dataclasses) either.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import accumulate
from operator import add, mul
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from . import kernels

if TYPE_CHECKING:
    from .enumeration import ClassData

    # (coefficients, their sizes) highest degree first, then both reversed
    Forms = tuple[tuple[list[float], list[float]], tuple[list[float], list[float]]]

# the agreement tolerance scales with (1 + max|delta|)^r, the conditioning of
# the falling factorial at the roots
AGREE_TOL = 1e-6
CONDITION_CAP = 1e12
# Aberth sweeps after which a root that has not settled is left as it is
MAX_SWEEPS = 100
EPS = sys.float_info.epsilon
# the largest backward error at which the roots count as reliable
BACKWARD_TOL = 1e3 * EPS
# relative distance within which two zeros count as conjugates, and a zero as real
PAIR_TOL = 1e-8


class NumericRoots(NamedTuple):
    """Numerically computed Chern roots delta_j with a backward-error certificate.

    The roots satisfy prod(y + delta_j) = y^n + c_1 y^(n-1) + ... + c_n,
    i.e. they are the negatives of the polynomial's zeros.  ``residual``
    is the largest backward error |P(z)| / sum |a_k| |z|^k over the
    computed zeros z, P the polynomial without its zero roots: each root
    is an exact root of a polynomial whose coefficients differ from P's by
    at most that relative amount.  ``reliable`` is False when it exceeds
    BACKWARD_TOL, and also when a coefficient exceeds 2^53: past that the
    polynomial being solved is no longer the polynomial that was asked
    about.
    """

    roots: tuple[complex, ...]
    residual: float
    reliable: bool


class AgreementRow(NamedTuple):
    """Exact-vs-numeric comparison of one binomial sum B_r."""

    r: int
    exact: Fraction
    numeric: complex
    difference: float
    tolerance: float
    flagged: bool

    @property
    def agrees(self) -> bool:
        return self.flagged or self.difference < self.tolerance

    @property
    def nearest_integer_distance(self) -> float:
        """How far the numeric value sits from the closest integer.

        Diagnostic only: a small distance never certifies integrality,
        which is decided exclusively by the exact path.
        """
        real = self.numeric.real
        if real != real or abs(real) == float("inf"):
            return float("inf")
        return abs(real - round(real))


def __getattr__(name: str):
    """``enumeration.binomial_sum``, imported on first use, so ``diagnose`` loads none of it."""
    if name != "binomial_sum":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .enumeration import binomial_sum as value

    globals()[name] = value
    return value


def find_roots(c: ClassData) -> NumericRoots:
    """All n roots delta_j of y^n + c_1 y^(n-1) + ... + c_n, with their backward error.

    Trailing zero classes give exact zero roots; the rest come from the
    Aberth-Ehrlich iteration on the deflated polynomial, made real or
    exactly conjugate where they are so up to rounding.  Each final zero
    is then judged by its backward error on the deflated polynomial, which
    the factor y^k of the zero roots does not change.  Non-convergence is
    reported through the ``reliable`` flag, never as a silent answer.
    """
    coeffs = kernels.coefficients(c)
    n = len(coeffs)
    if n < 1:
        raise ValueError("need a polynomial of degree >= 1")
    if any(abs(x) > 2**1000 for x in coeffs):
        # beyond double range there is nothing to compute, only to flag
        return NumericRoots(
            roots=(complex(float("nan"), 0.0),) * n,
            residual=float("inf"),
            reliable=False,
        )
    degree = n
    while degree and not coeffs[degree - 1]:
        degree -= 1
    poly = [1.0, *map(float, coeffs[:degree])]
    sizes = [abs(a) for a in poly]
    forms = (poly, sizes), (poly[::-1], sizes[::-1])
    zeros = _conjugate_pairs(_aberth(forms))
    residual = max([_evaluate(forms, z)[2] for z in zeros], default=0.0)
    representable = all(abs(x) <= 2**53 for x in coeffs)
    deltas = sorted([-z for z in zeros] + [-0j] * (n - degree), key=lambda w: (w.real, w.imag))
    return NumericRoots(
        roots=tuple(deltas),
        residual=residual,
        reliable=representable and residual <= BACKWARD_TOL,
    )


def _aberth(forms: Forms) -> list[complex]:
    """The zeros of a polynomial with nonzero constant term by Aberth-Ehrlich.

    Bini's starting points; every sweep updates each unsettled zero in turn
    against the current others.  A zero settles when its backward error
    falls to eps, the rounding of its own evaluation, or when its step is
    at most a few units in the last place of z: rounding alone can keep a
    zero stepping back and forth by one unit.
    """
    (poly, sizes), _ = forms
    d = len(poly) - 1
    zs = _starting_points(poly)
    # sum |a_k| caps the rounding bound at any argument of at most 1, and is
    # checked first, which spares computing the bound far from a zero
    cutoff = EPS * sum(sizes)
    active = range(d)
    for _ in range(MAX_SWEEPS):
        unsettled = []
        for i in active:
            z = zs[i]
            value, den, error = _evaluate(forms, z, cutoff)
            if error <= EPS:
                continue
            # the Aberth step N / (1 - N sum_j 1/(z - z_j)), N = P/P'
            den -= value * sum([1 / (z - u) for u in zs if u != z])
            if not den:
                unsettled.append(i)
                continue
            step = value / den
            zs[i] = z - step
            if _magnitude(step) > 4 * EPS * _magnitude(z):
                unsettled.append(i)
        active = unsettled
        if not active:
            break
    return zs


def _evaluate(forms: Forms, z: complex, cutoff: float = math.inf) -> tuple[complex, complex, float]:
    """P/P' at z as value / den, and the backward error |P(z)| / sum |a_k| |z|^k.

    Horner's rule runs in z where |z| <= 1 and on the reversed polynomial R
    in w = 1/z where |z| > 1, so no power of z leaves the float range.
    There value = R(w) = w^d P(z) and P/P' = R(w) / (w (d R(w) - w R'(w))),
    and the bound scales by the same |w|^d, so the quotient is the same.
    The bound, sum |a_k| |z|^k, is the scale of the rounding error of the
    evaluation.  It is taken only where |value| <= cutoff: elsewhere, and
    where the value is nan, the error reads inf.
    """
    r = _magnitude(z)
    if r <= 1:
        (poly, sizes), _ = forms
        value, den = _horner(poly, z)
    else:
        _, (poly, sizes) = forms
        z, r = 1 / z, 1 / r
        value, deriv = _horner(poly, z)
        den = z * ((len(poly) - 1) * value - z * deriv)
    size = abs(value)
    if not size <= cutoff:
        return value, den, math.inf
    bound = 0.0
    for a in sizes:
        bound = bound * r + a
    return value, den, size / bound


def _starting_points(poly: list[float]) -> list[complex]:
    """Bini's starting points: circles from the upper convex hull of (k, log|a_k|).

    Each hull edge from k0 to k1 puts k1 - k0 points on the circle of radius
    (|a_k0| / |a_k1|)^(1 / (k1 - k0)), a_k the coefficient of y^k.
    """
    d = len(poly) - 1
    hull: list[tuple[int, float]] = []
    for k in range(d + 1):
        if not poly[d - k]:
            continue
        point = (k, math.log(abs(poly[d - k])))
        while len(hull) > 1 and _turn(hull[-2], hull[-1], point) >= 0:
            hull.pop()
        hull.append(point)
    zs = []
    for edge, ((k0, log0), (k1, log1)) in enumerate(zip(hull, hull[1:]), start=1):
        m = k1 - k0
        radius = math.exp((log0 - log1) / m)
        # Bini's offset 0.7 keeps every circle's points off the real axis
        angles = [2 * math.pi * (j / m + edge / d) + 0.7 for j in range(m)]
        zs += [complex(radius * math.cos(a), radius * math.sin(a)) for a in angles]
    return zs


def _turn(o: tuple[int, float], a: tuple[int, float], b: tuple[int, float]) -> float:
    """Positive when o, a, b turn counter-clockwise: a lies below the chord o-b."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _horner(poly: list[float], z: complex) -> tuple[complex, complex]:
    """P(z) and P'(z) by Horner's rule, poly highest degree first."""
    value = deriv = 0j
    for a in poly:
        deriv = deriv * z + value
        value = value * z + a
    return value, deriv


def _magnitude(z: complex) -> float:
    """|z| as hypot, which reads inf past the float range where abs raises."""
    return math.hypot(z.real, z.imag)


def _conjugate_pairs(zeros: list[complex]) -> list[complex]:
    """The zeros of a real polynomial, closed under conjugation where rounding broke it.

    A zero within PAIR_TOL (relative) of the real axis becomes real: closer
    than that, a pair cannot be told from a double real zero in floating
    point.  The others, upper and lower half-plane each sorted by real part,
    pair up in order, and a pair within PAIR_TOL of conjugate becomes its
    mean and the mean's conjugate; any other zero stays as found.
    Nothing moves the zeros after this, so the imaginary parts of every
    B_r cancel exactly over a symmetric set of roots.
    """
    real, upper, lower = [], [], []
    for z in zeros:
        tol = PAIR_TOL * _magnitude(z)
        if abs(z.imag) <= tol:
            real.append(complex(z.real, 0.0))
        elif z.imag > tol:
            upper.append(z)
        else:  # below the axis, or nan; kept conjugated, so a pair has u near v
            lower.append(z.conjugate())
    if len(upper) != len(lower):
        return real + upper + [v.conjugate() for v in lower]
    upper.sort(key=lambda z: z.real)
    lower.sort(key=lambda z: z.real)
    for u, v in zip(upper, lower):
        if _magnitude(u - v) <= PAIR_TOL * _magnitude(u):
            u = v = (u + v) / 2
        real += [u, v.conjugate()]
    return real


def binomial_sums_numeric(roots: NumericRoots, r_max: int) -> list[complex]:
    """sum_j C(delta_j, r) for r = 1..r_max in floating point; entry r - 1 holds B_r.

    Each C(delta_j, r) is built one factor (delta_j - i)/(i + 1) at a time
    by a cumulative product along r, so r! never forms and a value leaves
    the float range only when the binomial itself does.  B_r is real, so an
    imaginary part is the float path's own error (roots that failed to close
    under conjugation), left in place rather than silently projected away.
    """
    sums = [0j] * r_max
    for delta in roots.roots:
        terms = accumulate([(delta - i) / (i + 1) for i in range(r_max)], mul)
        sums = list(map(add, sums, terms))
    return sums


def binomial_sum_numeric(c: ClassData, r: int, roots: Optional[NumericRoots] = None) -> complex:
    """sum_j delta_j (delta_j - 1) ... (delta_j - r + 1) / r! in floating point."""
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    return binomial_sums_numeric(roots if roots is not None else find_roots(c), r)[r - 1]


def compare_exact_numeric(c: ClassData, r_values: Sequence[int]) -> tuple[NumericRoots, list[AgreementRow]]:
    """Exact and numeric B_r side by side for each requested r."""
    r_values = list(r_values)
    if any(r < 1 for r in r_values):
        raise ValueError(f"need r >= 1, got {min(r_values)}")
    coeffs = kernels.coefficients(c)
    roots = find_roots(coeffs)
    # every B_r with 2 <= r <= n from one pass over the power sums
    terms = {r: Fraction(num, den) for r, num, den in kernels.schwarz_terms(coeffs, len(coeffs))}
    numerics = binomial_sums_numeric(roots, max(r_values, default=0))
    max_root = max((abs(d) for d in roots.roots), default=0.0)
    rows = []
    for r in r_values:
        exact = terms[r] if r in terms else Fraction(*kernels.binomial_sum_num_den(coeffs, r))
        numeric = numerics[r - 1]
        kappa = (1.0 + max_root) ** r
        try:
            difference = abs(numeric - float(exact))
        except OverflowError:
            difference, flagged = float("inf"), True
        else:
            flagged = (
                not roots.reliable
                or kappa > CONDITION_CAP
                or (numeric.imag != 0 and difference >= AGREE_TOL * kappa)
            )
        rows.append(
            AgreementRow(
                r=r,
                exact=exact,
                numeric=numeric,
                difference=difference,
                tolerance=AGREE_TOL * kappa,
                flagged=flagged,
            )
        )
    return roots, rows
