"""The counting rule: how many isomorphism classes the Chern classes give.

``counting_rule`` owns every verdict rule, for ``count`` and the sweep
alike: it names the orders to test and gives each tuple a count code,
0, 1, 2 or UNKNOWN (3).  The count is known in full in three regimes:

* rank 1: a unique line bundle for every first Chern class;
* rank >= dim (stable range): a unique bundle when S_dim holds, else none
  (c_i vanishes for i > dim, and B_r for r > dim is no condition on CP^dim);
* dim == rank + 1 (corank one): none unless S_(rank+1) holds for the
  zero-extended classes; one class if rank or c_1 is odd; two if rank and
  c_1 are both even.

Everything else is honestly reported as unknown.

``stored_classes`` and ``verdict``, which ``ChernVector`` and
``count_bundles`` (``enumeration``) wrap, give ``count`` the whole answer
for one tuple without the dataclasses and Fractions of the single-tuple API.
"""

from __future__ import annotations

from operator import index
from typing import NamedTuple, Optional, Sequence

from . import kernels

LINE_BUNDLE = "line_bundle"
STABLE_RANGE = "stable_range"
CORANK_ONE = "corank_one"
UNSUPPORTED = "unsupported"
UNKNOWN = 3  # the count code of an unknown count, and the last slot of a sweep's tally


class CountingRule(NamedTuple):
    """How the number of isomorphism classes follows from the classes.

    ``order`` is the N of the condition S_N that decides existence, tested
    on the classes zero-extended to length N; it is None when no condition
    is tested.  ``extension``, set exactly when an even c_1 gives two classes,
    is the N of the S_N on (c, 0, 0) that either needs to extend: rank + 2.
    """

    regime: str
    order: Optional[int]
    extension: Optional[int] = None

    def count(self, satisfied: bool, c1: int) -> int:
        """The count code, given the S_N verdict and c_1: 0, 1, 2 or UNKNOWN.

        ``satisfied`` is a bool and ``c1`` an int; pass ``satisfied=True``
        when ``order`` is None.  It reads c_1 only mod 2, so a sweep
        tabulates it once per chunk.
        """
        if self.regime == UNSUPPORTED:
            return satisfied * UNKNOWN
        return satisfied * (1 + (self.extension is not None and c1 % 2 == 0))


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


def stored_classes(rank: int, dim: int, classes: Sequence[int]) -> tuple[int, ...]:
    """The min(rank, dim) classes stored of ``classes``, or all ``rank`` less their tail.

    c_i = 0 for i > rank (no higher Chern classes) and for i > dim
    (H^(2i)(CP^dim) vanishes).  Any other length raises ValueError.
    """
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if dim < 1:
        raise ValueError(f"ambient dimension must be >= 1, got {dim}")
    stored = min(rank, dim)
    entries = tuple(map(index, classes))
    if len(entries) == rank:
        return entries[:stored]
    if len(entries) != stored:
        also = f" (or all {rank})" if rank > stored else ""
        raise ValueError(f"expected {stored} classes for rank {rank} on CP^{dim}{also}, got {len(entries)}")
    return entries


def verdict(rank: int, dim: int, classes: tuple[int, ...]
            ) -> tuple[CountingRule, int, Optional[list[tuple[int, int, int]]], Optional[str]]:
    """``(rule, count code, S_order terms, extension note)`` for the stored ``classes``.

    The terms are ``kernels.schwarz_terms`` on the zero-extended classes,
    None when no condition is tested.  The note, set exactly when two
    classes exist, carries the paper's claim that exactly one of them
    extends to CP^(dim+1), or names the r at which S_(rank+2) refutes it.
    """
    rule = counting_rule(rank, dim)
    terms = None
    if rule.order is not None:
        terms = kernels.schwarz_terms(classes + (0,) * (rule.order - len(classes)), rule.order)
    count = rule.count(terms is None or all(den == 1 for _, _, den in terms), classes[0])
    note = None
    if count == 2:
        # a bundle on CP^(dim+1) has c_(n+1) = c_(n+2) = 0 and restricts to one
        # with the same c_1..c_n, so either class extends only if S_(n+2) holds
        # on (c, 0, 0).  S_(n+1) holds on (c, 0), and a further zero root adds
        # C(0, r) = 0 to each B_r, so only B_(n+2) can fail.  Only r is named,
        # since the digit cap admits S_(n+1) only
        N = rule.extension
        note = f"exactly one of the two isomorphism classes extends to CP^{dim + 1}"
        if kernels.binomial_sum_num_den(classes, N)[1] != 1:
            note = (f"neither of the two isomorphism classes extends to CP^{dim + 1}: "
                    f"S_{N} fails at r = {N} with c_{N - 1} = c_{N} = 0")
    return rule, count, terms, note
