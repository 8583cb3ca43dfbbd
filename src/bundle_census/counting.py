"""The counting rule: how many isomorphism classes the Chern classes give.

``counting_rule`` owns every verdict rule, for ``count_bundles`` and the
sweep alike: it names the orders to test and gives each tuple a count code,
0, 1, 2 or UNKNOWN (3).  The count is known in full in three regimes:

* rank 1: a unique line bundle for every first Chern class;
* rank >= dim (stable range): a unique bundle when S_dim holds, else none
  (c_i vanishes for i > dim, and B_r for r > dim is no condition on CP^dim);
* dim == rank + 1 (corank one): none unless S_(rank+1) holds for the
  zero-extended classes; one class if rank or c_1 is odd; two if rank and
  c_1 are both even.

Everything else is honestly reported as unknown.

The module imports nothing heavier than ``typing``, so a sweep, which
needs the rule and none of the single-tuple API, loads it alone.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

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
