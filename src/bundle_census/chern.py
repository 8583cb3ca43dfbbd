"""Chern class data of bundles on CP^m.

``ChernVector`` is the library's representation of a bundle's class
data; the classes it stores are those of ``counting.stored_classes``.
``twist_by_line``, ``dual`` and ``from_line_bundles`` give the classes of
the bundles built from it or from line bundles; the tests generate their
inputs with them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

from .counting import stored_classes


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
