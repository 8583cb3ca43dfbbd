"""Floating-point verification path for the exact engine.

Finds the Chern roots delta_j numerically (the Aberth-Ehrlich iteration,
then Newton polishing), evaluates sum_j C(delta_j, r) directly, every r at
once from one cumulative product over the roots, and compares against the
exact symmetric-function route.  This catches sign-convention and
recurrence bugs, but it never decides integrality: that is exactly the
question floating point cannot answer, so near-integer values are
reported with diagnostics only.

Results carry reliability flags instead of silently degrading: a large
root residual, a conditioning estimate beyond the trustworthy range, or a
non-real value outside tolerance (B_r is real) marks the value unreliable
rather than letting it masquerade as a disagreement.

The path is plain Python floats and complex numbers, so ``diagnose``
never loads numpy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import add, mul
from typing import Optional, Sequence

from .enumeration import ClassData, binomial_sum, check_schwarzenberger, coefficients

# the residual tolerance scales with the coefficient size; the agreement tolerance
# with (1 + max|delta|)^r, the conditioning of the falling factorial at the roots
RESIDUAL_SCALE = 1e-8
AGREE_TOL = 1e-6
CONDITION_CAP = 1e12
# damped Newton steps refining the Aberth roots
POLISH_STEPS = 4
# Aberth sweeps after which a root that has not settled is left as it is
MAX_SWEEPS = 100
EPS = sys.float_info.epsilon
# relative distance within which two zeros count as conjugates, and a zero as real
PAIR_TOL = 1e-8


@dataclass(frozen=True)
class NumericRoots:
    """Numerically computed Chern roots delta_j with a residual certificate.

    The roots satisfy prod(y + delta_j) = y^n + c_1 y^(n-1) + ... + c_n,
    i.e. they are the negatives of the polynomial's zeros.  ``residual``
    is the max absolute value of the polynomial at the computed zeros;
    ``reliable`` is False when it exceeds RESIDUAL_SCALE * (1 + max|c_i|),
    and also when a coefficient exceeds 2^53: past that the polynomial
    being solved is no longer the polynomial that was asked about.
    """

    roots: tuple[complex, ...]
    residual: float
    reliable: bool


@dataclass(frozen=True)
class AgreementRow:
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


def find_roots(c: ClassData) -> NumericRoots:
    """All n roots delta_j of y^n + c_1 y^(n-1) + ... + c_n, with residual.

    Trailing zero classes give exact zero roots; the rest come from the
    Aberth-Ehrlich iteration on the deflated polynomial, made real or
    exactly conjugate where they are so up to rounding, then refined by
    damped Newton steps (a step is kept only when it does not increase |P|),
    so clustered roots cannot make polishing diverge.  Non-convergence is
    reported through the ``reliable`` flag, never as a silent answer.
    """
    coeffs = coefficients(c)
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
    poly = [1.0, *map(float, coeffs)]
    degree = n
    while degree and not coeffs[degree - 1]:
        degree -= 1
    zeros, values = _polish(poly, _conjugate_pairs(_aberth(poly[:degree + 1])))
    # nan if any value is nan, which max alone would not promise
    residual = math.nan if any(v != v for v in values) else max(values, default=0.0)
    limit = RESIDUAL_SCALE * (1.0 + max(abs(x) for x in coeffs))
    representable = all(abs(x) <= 2**53 for x in coeffs)
    deltas = sorted([-z for z in zeros] + [-0j] * (n - degree), key=lambda w: (w.real, w.imag))
    return NumericRoots(
        roots=tuple(deltas),
        residual=residual,
        reliable=representable and residual <= limit,
    )


def _aberth(poly: list[float]) -> list[complex]:
    """The zeros of poly (highest degree first, nonzero constant term) by Aberth-Ehrlich.

    Bini's starting points; every sweep updates each unsettled zero in turn
    against the current others.  P/P' comes from Horner's rule in z where
    |z| <= 1 and in 1/z on the reversed polynomial where |z| > 1, so no
    power of z leaves the float range.  A zero settles when |P| falls to
    the rounding bound of its evaluation, or when its step is at most a few
    units in the last place of z: rounding alone can keep a zero stepping
    back and forth by one unit.
    """
    d = len(poly) - 1
    zs = _starting_points(poly)
    rev = poly[::-1]
    sizes = [abs(a) for a in poly]
    rev_sizes = sizes[::-1]
    # sum |a_k| caps the rounding bound at any argument of at most 1, and is
    # checked first, which spares computing the bound far from a zero
    total = sum(sizes)
    active = range(d)
    for _ in range(MAX_SWEEPS):
        unsettled = []
        for i in active:
            z = zs[i]
            r = _magnitude(z)
            # P/P' = value/den: P'(z) in z, and on the reversed polynomial R
            # in w = 1/z, P/P' = R(w) / (w (d R(w) - w R'(w)))
            if r <= 1:
                value, den = _horner(poly, z)
                rounding = sizes, r
            else:
                w = 1 / z
                value, deriv = _horner(rev, w)
                den = w * (d * value - w * deriv)
                rounding = rev_sizes, 1 / r
            if abs(value) <= EPS * total and abs(value) <= EPS * _horner_bound(*rounding):
                continue
            # the Aberth step N / (1 - N sum_j 1/(z - z_j)), N = P/P'
            den -= value * sum([1 / (z - u) for u in zs if u != z])
            if not den:
                unsettled.append(i)
                continue
            step = value / den
            zs[i] = z - step
            if _magnitude(step) > 4 * EPS * r:
                unsettled.append(i)
        active = unsettled
        if not active:
            break
    return zs


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


def _horner_bound(sizes: list[float], r: float) -> float:
    """sum |a_k| r^k: the scale of the rounding error of Horner's rule at |z| = r."""
    bound = 0.0
    for size in sizes:
        bound = bound * r + size
    return bound


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
    Polishing keeps this symmetry exactly, so the imaginary parts of every
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


def _polish(poly: list[float], zeros: list[complex]) -> tuple[list[complex], list[float]]:
    """The zeros after POLISH_STEPS damped Newton steps on forward Horner, and |P| at each.

    A step is kept only when it does not increase |P|; a refused step would
    be refused again, and so would a step that leaves z as it is, so
    polishing that zero stops there.
    """
    out, values = [], []
    for z in zeros:
        value, deriv = _horner(poly, z)
        size = _magnitude(value)
        for _ in range(POLISH_STEPS):
            if not _magnitude(deriv) > 0:
                break
            candidate = z - value / deriv
            if candidate == z:
                break
            cand_value, cand_deriv = _horner(poly, candidate)
            cand_size = _magnitude(cand_value)
            if not cand_size <= size:
                break
            z, value, deriv, size = candidate, cand_value, cand_deriv, cand_size
        out.append(z)
        values.append(size)
    return out, values


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
    coeffs = coefficients(c)
    roots = find_roots(coeffs)
    # every B_r with 2 <= r <= n from one pass over the power sums
    terms = {t.r: t.value for t in check_schwarzenberger(coeffs, len(coeffs)).values}
    numerics = binomial_sums_numeric(roots, max(r_values, default=0))
    max_root = max((abs(d) for d in roots.roots), default=0.0)
    rows = []
    for r in r_values:
        exact = terms[r] if r in terms else binomial_sum(coeffs, r)
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
