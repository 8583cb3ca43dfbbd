"""Existence and counting of bundle isomorphism classes.

The decision engine.  Integers (c_1, ..., c_N) are the Chern classes of a
rank-N bundle on CP^N exactly when every binomial sum B_r of their Chern
roots, 2 <= r <= N, is an integer (the Schwarzenberger condition S_N); a
rank-n bundle on CP^(n+1) exists for (c_1, ..., c_n) exactly when
(c_1, ..., c_n, 0) satisfies S_(n+1).  ``counting_rule`` owns every verdict
rule, for ``count_bundles`` and the sweep alike: it names the orders to test
and gives each tuple a count code, 0, 1, 2 or UNKNOWN (3).  The count is
known in full in three regimes:

* rank 1: a unique line bundle for every first Chern class;
* rank >= dim (stable range): a unique bundle when S_dim holds, else none
  (c_i vanishes for i > dim, and B_r for r > dim is no condition on CP^dim);
* dim == rank + 1 (corank one): none unless S_(rank+1) holds for the
  zero-extended classes; one class if rank or c_1 is odd; two if rank and
  c_1 are both even.

Everything else is honestly reported as unknown.

When two classes exist, the paper claims that exactly one of them extends
to the next projective space.  ``count_bundles`` repeats that claim only
where S_(rank+2), the rule's ``extension``, holds on the classes followed
by two zeros, as it does for every bundle on CP^(rank+2); else neither does.

Beneath the predicate sits the typed single-tuple exact API:
``binomial_sum`` gives B_r of the Chern roots of one class vector,
exactly, without forming a root.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

from . import kernels
from .chern import ChernVector

LINE_BUNDLE = "line_bundle"
STABLE_RANGE = "stable_range"
CORANK_ONE = "corank_one"
UNSUPPORTED = "unsupported"
UNKNOWN = 3  # the count code of an unknown count, and the last slot of a sweep's tally

ClassData = Union[ChernVector, Sequence[int]]


def coefficients(c: ClassData) -> tuple[int, ...]:
    """Monic-polynomial coefficients (c_1, ..., c_n) of the class data.

    A ChernVector contributes its full rank-length classes (vanishing
    entries restored as zeros); a plain sequence is taken as-is.
    """
    if isinstance(c, ChernVector):
        return c.full_classes
    return tuple(operator.index(x) for x in c)


def binomial_sum(c: ClassData, r: int) -> Fraction:
    """B_r = sum_j C(delta_j, r) over the Chern roots, as an exact Fraction.

    Computed as (1/r!) sum_{k=1}^{r} s(r,k) p_k, with s(r,k) the signed
    Stirling numbers of the first kind; integrality of these values is the
    content of the Schwarzenberger conditions.
    """
    coeffs = coefficients(c)
    r = operator.index(r)
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    return Fraction(*kernels.binomial_sum_num_den(coeffs, r))


class BinomialTerm(NamedTuple):
    """One tested value B_r with its integrality verdict."""

    r: int
    value: Fraction
    integral: bool


@dataclass(frozen=True)
class SchwarzenbergerReport:
    """Outcome of testing S_N: every B_r for r in [2, N], exactly."""

    n_condition: int
    values: tuple[BinomialTerm, ...]
    satisfied: bool

    def failing(self) -> tuple[BinomialTerm, ...]:
        return tuple(t for t in self.values if not t.integral)


@dataclass(frozen=True)
class BundleCount:
    """Number of isomorphism classes with the given Chern classes.

    ``count`` is 0, 1 or 2 when the regime is resolved, None when the
    (rank, dim) pair is outside the supported regimes.  ``extension_note``
    is set exactly when two classes exist.  It names the first r at which
    S_(rank+2) fails on the classes followed by two zeros, in which case
    neither class extends to CP^(dim+1); otherwise it carries the paper's
    claim that exactly one of them does.
    """

    count: Optional[int]
    regime: str
    extension_note: Optional[str] = None
    report: Optional[SchwarzenbergerReport] = None

    @property
    def known(self) -> bool:
        return self.count is not None


def check_schwarzenberger(classes: Sequence[int], N: int) -> SchwarzenbergerReport:
    """Test S_N for integers (c_1, ..., c_N).

    The classes must already have length N; callers whose rank is smaller
    pad with zeros themselves (zero-extension changes the condition being
    tested, so it is never done implicitly here).
    """
    N = operator.index(N)
    if N < 1:
        raise ValueError(f"condition order must be >= 1, got {N}")
    coeffs = tuple(operator.index(c) for c in classes)
    if len(coeffs) != N:
        raise ValueError(f"S_{N} needs exactly {N} classes, got {len(coeffs)}")
    terms = tuple(
        BinomialTerm(r, Fraction(num, den), den == 1)
        for r, num, den in kernels.schwarz_terms(coeffs, N)
    )
    return SchwarzenbergerReport(
        n_condition=N,
        values=terms,
        satisfied=all(t.integral for t in terms),
    )


def exists_rank_n_on_cp_n_plus_1(v: ChernVector) -> SchwarzenbergerReport:
    """Existence test for a rank-n bundle on CP^(n+1): S_(n+1) on (c, 0)."""
    if v.dim != v.rank + 1:
        raise ValueError(
            f"corank-one test needs dim == rank + 1, got rank {v.rank} on CP^{v.dim}"
        )
    return check_schwarzenberger(v.classes + (0,), v.rank + 1)


@dataclass(frozen=True)
class CountingRule:
    """How the number of isomorphism classes follows from the classes.

    ``order`` is the N of the condition S_N that decides existence, tested
    on the classes zero-extended to length N; it is None when no condition
    is tested.  ``extension``, set exactly when an even c_1 gives two classes,
    is the N of the S_N on (c, 0, 0) that either needs to extend: rank + 2.
    """

    regime: str
    order: Optional[int]
    extension: Optional[int] = None

    def count(self, satisfied, c1):
        """The count code, given the S_N verdict and c_1: 0, 1, 2 or UNKNOWN.

        Works alike on one tuple (a bool and an int) and elementwise on
        numpy arrays of verdicts and first classes.  Pass
        ``satisfied=True`` when ``order`` is None.
        """
        if self.regime == UNSUPPORTED:
            return satisfied * UNKNOWN
        return satisfied * (1 + ((self.extension is not None) & (c1 % 2 == 0)))


def counting_rule(rank: int, dim: int) -> CountingRule:
    """The counting rule for rank-``rank`` bundles on CP^``dim``.

    The one place that knows the regimes: ``count_bundles`` and the sweep
    both classify through it.  Every tested regime runs S_dim: on CP^dim
    only B_r with r <= dim is a condition, so in the stable range the
    order follows the dimension, not the rank.
    """
    if rank == 1:
        # every integer is the first Chern class of exactly one line bundle
        return CountingRule(LINE_BUNDLE, order=None)
    if rank >= dim:
        return CountingRule(STABLE_RANGE, order=dim)
    if dim == rank + 1:
        # two classes exactly when rank and c_1 are both even
        return CountingRule(CORANK_ONE, rank + 1, rank + 2 if rank % 2 == 0 else None)
    return CountingRule(UNSUPPORTED, order=None)


def count_bundles(v: ChernVector) -> BundleCount:
    """Count isomorphism classes of rank-``v.rank`` bundles on CP^``v.dim``."""
    rule = counting_rule(v.rank, v.dim)
    report = None
    if rule.order is not None:
        report = check_schwarzenberger(v.padded(rule.order), rule.order)
    count = rule.count(report is None or report.satisfied, v.classes[0])
    note = None
    if count == 2:
        # a bundle on CP^(dim+1) has c_(n+1) = c_(n+2) = 0 and restricts to one
        # with the same c_1..c_n, so either class extends only if S_(n+2) holds
        # on (c, 0, 0).  S_(n+1) holds on (c, 0), and a further zero root adds
        # C(0, r) = 0 to each B_r, so only B_(n+2) can fail.  Only r is named,
        # since the digit cap admits S_(n+1) only
        N = rule.extension
        if binomial_sum(v, N).denominator != 1:
            note = (f"neither of the two isomorphism classes extends to CP^{v.dim + 1}: "
                    f"S_{N} fails at r = {N} with c_{N - 1} = c_{N} = 0")
        else:
            note = f"exactly one of the two isomorphism classes extends to CP^{v.dim + 1}"
    return BundleCount(None if count == UNKNOWN else count, rule.regime, note, report)
