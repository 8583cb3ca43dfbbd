"""The single-tuple API: Chern class data, and existence and counting of bundles.

``ChernVector`` is the library's representation of a bundle's class
data; the classes it stores are those of ``counting.stored_classes``.
``twist_by_line``, ``dual`` and ``from_line_bundles`` give the classes of
the bundles built from it or from line bundles; the tests generate their
inputs with them.

Integers (c_1, ..., c_N) are the Chern classes of a rank-N bundle on
CP^N exactly when every binomial sum B_r of their Chern roots,
2 <= r <= N, is an integer (the Schwarzenberger condition S_N); a
rank-n bundle on CP^(n+1) exists for (c_1, ..., c_n) exactly when
(c_1, ..., c_n, 0) satisfies S_(n+1).  ``counting`` owns every verdict
rule and the extension note; ``count_bundles`` and
``check_schwarzenberger`` wrap them in this module's records.
``binomial_sum`` gives B_r of the Chern roots of one class vector,
exactly, without forming a root.  No command loads this module:
``check`` and ``count`` print ``kernels`` and ``counting`` directly.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from . import kernels
from .counting import UNKNOWN, stored_classes, verdict
from .kernels import coefficients


@dataclass(frozen=True)
class ChernVector:
    """Chern classes (c_1, ..., c_n) of a rank-n bundle on CP^dim.

    Only classes up to min(rank, dim) are stored, by the rule of
    ``counting.stored_classes``: a full rank-length tuple is accepted and
    its vanishing tail dropped.
    """

    rank: int
    dim: int
    classes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "classes", stored_classes(self.rank, self.dim, self.classes))

    def padded(self, length: int) -> tuple[int, ...]:
        """Classes zero-extended to the given length."""
        if length < len(self.classes):
            raise ValueError(f"cannot pad {len(self.classes)} classes to length {length}")
        return self.classes + (0,) * (length - len(self.classes))

    @property
    def full_classes(self) -> tuple[int, ...]:
        """All rank-many classes (c_1, ..., c_n), zeros where they vanish."""
        return self.padded(self.rank)


def twist_by_line(v: ChernVector, d: int) -> ChernVector:
    """Chern classes of E tensor O(d) for E with the classes of ``v``.

    c_k' = sum_{i=0}^{k} C(rank - i, k - i) c_i d^(k-i), with c_0 = 1.
    Twisting shifts every Chern root by d.
    """
    d = operator.index(d)
    n = v.rank
    c = (1,) + v.classes
    new = []
    for k in range(1, len(v.classes) + 1):
        acc = 0
        for i in range(0, k + 1):
            w = comb(n - i, k - i)
            if w:
                acc += w * c[i] * d ** (k - i)
        new.append(acc)
    return ChernVector(v.rank, v.dim, tuple(new))


def dual(v: ChernVector) -> ChernVector:
    """Chern classes of the dual bundle: c_i -> (-1)^i c_i."""
    return ChernVector(
        v.rank, v.dim, tuple(-c if i % 2 == 0 else c for i, c in enumerate(v.classes))
    )


def from_line_bundles(degrees: Iterable[int], dim: int) -> ChernVector:
    """Class vector of O(d_1) + ... + O(d_n) on CP^dim."""
    ds = [operator.index(d) for d in degrees]
    if not ds:
        raise ValueError("need at least one line bundle")
    return ChernVector(len(ds), dim, elementary_symmetric(ds))


def elementary_symmetric(values: Sequence[int]) -> tuple[int, ...]:
    """(e_1, ..., e_n) of the given integers, by incremental expansion."""
    e = [1]
    for d in values:
        e.append(0)
        for k in range(len(e) - 1, 0, -1):
            e[k] += d * e[k - 1]
    return tuple(e[1:])


ClassData = Union[ChernVector, Sequence[int]]


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
    is the note of ``counting.verdict``, set exactly when two classes exist.
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
    return _report(N, kernels.schwarz_terms(coeffs, N))


def _report(N: int, terms: Sequence[tuple[int, int, int]]) -> SchwarzenbergerReport:
    """The report on S_N from its ``(r, num, den)`` terms."""
    values = tuple(BinomialTerm(r, Fraction(num, den), den == 1) for r, num, den in terms)
    return SchwarzenbergerReport(N, values, all(t.integral for t in values))


def exists_rank_n_on_cp_n_plus_1(v: ChernVector) -> SchwarzenbergerReport:
    """Existence test for a rank-n bundle on CP^(n+1): S_(n+1) on (c, 0)."""
    if v.dim != v.rank + 1:
        raise ValueError(
            f"corank-one test needs dim == rank + 1, got rank {v.rank} on CP^{v.dim}"
        )
    return check_schwarzenberger(v.classes + (0,), v.rank + 1)


def count_bundles(v: ChernVector) -> BundleCount:
    """Count isomorphism classes of rank-``v.rank`` bundles on CP^``v.dim``."""
    rule, count, terms, note = verdict(v.rank, v.dim, v.classes)
    report = None if terms is None else _report(rule.order, terms)
    return BundleCount(None if count == UNKNOWN else count, rule.regime, note, report)
