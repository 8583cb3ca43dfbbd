"""Floating-point verification path for the exact engine.

Finds the Chern roots delta_j numerically (companion-matrix eigenvalues
via numpy, then Newton polishing), evaluates sum_j C(delta_j, r) directly,
every r at once from one cumulative product over the roots, and compares
against the exact symmetric-function route.  This catches sign-convention
and recurrence bugs, but it never decides integrality: that is exactly the
question floating point cannot answer, so near-integer values are
reported with diagnostics only.

Results carry reliability flags instead of silently degrading: a large
root residual, a conditioning estimate beyond the trustworthy range, or an
imaginary part above tolerance marks the value unreliable rather than
letting it masquerade as a disagreement.

numpy loads on the first call that computes with it (``find_roots``,
``binomial_sums_numeric``), not when this module is imported.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from .enumeration import ClassData, binomial_sum, check_schwarzenberger, coefficients

if TYPE_CHECKING:
    import numpy as np

# residual / imaginary-part tolerances scale with the coefficient size;
# the agreement tolerance scales with (1 + max|delta|)^r since that is the
# conditioning of the falling factorial at the roots
RESIDUAL_SCALE = 1e-8
IMAG_SCALE = 1e-8
AGREE_TOL = 1e-6
CONDITION_CAP = 1e12
# damped Newton steps refining numpy's roots
POLISH_STEPS = 4


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

    numpy's companion-matrix eigenvalues are refined by damped Newton steps
    (a step is kept only when it does not increase |P|), so clustered roots
    cannot make polishing diverge.  Non-convergence is reported through the
    ``reliable`` flag, never as a silent answer.
    """
    import numpy as np

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
    poly = np.array((1,) + coeffs, dtype=np.float64)
    dpoly = np.polyder(poly)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        zeros = np.roots(poly).astype(np.complex128)
        values = np.polyval(poly, zeros)
        for _ in range(POLISH_STEPS):
            derivs = np.polyval(dpoly, zeros)
            ok = np.abs(derivs) > 0
            step = np.zeros_like(zeros)
            step[ok] = values[ok] / derivs[ok]
            candidate = zeros - step
            cand_values = np.polyval(poly, candidate)
            better = np.abs(cand_values) <= np.abs(values)
            zeros = np.where(better, candidate, zeros)
            values = np.where(better, cand_values, values)
    residual = float(np.max(np.abs(values)))
    limit = RESIDUAL_SCALE * (1.0 + max(abs(x) for x in coeffs))
    representable = all(abs(x) <= 2**53 for x in coeffs)
    deltas = sorted((-z for z in zeros.tolist()), key=lambda w: (w.real, w.imag))
    return NumericRoots(
        roots=tuple(deltas),
        residual=residual,
        reliable=representable and residual <= limit,
    )


def binomial_sums_numeric(roots: NumericRoots, r_max: int) -> np.ndarray:
    """sum_j C(delta_j, r) for r = 1..r_max in floating point; entry r - 1 holds B_r.

    Each C(delta_j, r) is built one factor (delta_j - i)/(i + 1) at a time
    by a cumulative product along r, so r! never forms and a value leaves
    the float range only when the binomial itself does.  The sums are real
    up to rounding (roots come in conjugate pairs); the imaginary parts are
    left in place so callers can check them against tolerance instead of
    trusting a silent projection.
    """
    import numpy as np

    deltas = np.asarray(roots.roots, dtype=np.complex128)
    i = np.arange(r_max, dtype=np.float64)
    factors = deltas[:, None] - i
    factors /= i + 1
    with np.errstate(over="ignore", invalid="ignore"):
        return np.cumprod(factors, axis=1, out=factors).sum(axis=0)


def binomial_sum_numeric(c: ClassData, r: int, roots: Optional[NumericRoots] = None) -> complex:
    """sum_j delta_j (delta_j - 1) ... (delta_j - r + 1) / r! in floating point."""
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    return complex(binomial_sums_numeric(roots if roots is not None else find_roots(c), r)[r - 1])


def _saturating_float(x: int) -> float:
    try:
        return float(x)
    except OverflowError:
        return float("inf")


def compare_exact_numeric(c: ClassData, r_values: Sequence[int]) -> tuple[NumericRoots, list[AgreementRow]]:
    """Exact and numeric B_r side by side for each requested r."""
    r_values = list(r_values)
    if any(r < 1 for r in r_values):
        raise ValueError(f"need r >= 1, got {min(r_values)}")
    coeffs = coefficients(c)
    roots = find_roots(coeffs)
    # every B_r with 2 <= r <= n from one pass over the power sums
    terms = {t.r: t.value for t in check_schwarzenberger(coeffs, len(coeffs)).values}
    numerics = binomial_sums_numeric(roots, max(r_values, default=0)).tolist()
    max_root = max((abs(d) for d in roots.roots), default=0.0)
    imag_limit = IMAG_SCALE * (1.0 + _saturating_float(sum(abs(x) for x in coeffs)))
    rows = []
    for r in r_values:
        exact = terms[r] if r in terms else binomial_sum(coeffs, r)
        numeric = numerics[r - 1]
        kappa = (1.0 + max_root) ** r
        flagged = (
            not roots.reliable
            or kappa > CONDITION_CAP
            or abs(numeric.imag) > imag_limit
        )
        try:
            difference = abs(numeric - float(exact))
        except OverflowError:
            difference = float("inf")
            flagged = True
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
