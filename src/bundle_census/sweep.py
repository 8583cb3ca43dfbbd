"""Exhaustive sweeps over boxes of Chern classes.

Enumerates every integer tuple in a product of intervals in lexicographic
order, classifies each through the counting engine, and streams one record
per tuple.  Evaluation may fan out over a process pool; records are always
emitted in input order, so output is deterministic and independent of the
worker count.
"""

from __future__ import annotations

import itertools
import multiprocessing
import operator
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .chern import ChernVector
from .enumeration import count_bundles

DEFAULT_MAX_TUPLES = 10_000_000
MAX_TUPLES_ENV = "BUNDLE_CENSUS_MAX_TUPLES"
# ceiling on --jobs: each worker is a whole interpreter, and a typo such as
# 1000 must not start a thousand of them
MAX_JOBS = 16
_CHUNK = 512

# largest integer JSON readers with double-precision parsers keep exact
_SAFE_JSON_INT = 2**53 - 1


class BoxTooLarge(ValueError):
    """Sweep box exceeds the tuple cap and no override was given."""


@dataclass(frozen=True)
class SweepSpec:
    """A sweep request: one inclusive integer interval per stored class."""

    rank: int
    dim: int
    bounds: tuple[tuple[int, int], ...]
    jobs: int = 1
    max_tuples: Optional[int] = None

    def __post_init__(self):
        if self.rank < 1 or self.dim < 1:
            raise ValueError("rank and dim must be >= 1")
        expected = min(self.rank, self.dim)
        if len(self.bounds) != expected:
            raise ValueError(
                f"rank {self.rank} on CP^{self.dim} stores {expected} classes; "
                f"got {len(self.bounds)} intervals"
            )
        for lo, hi in self.bounds:
            if lo > hi:
                raise ValueError(f"empty interval [{lo}, {hi}]")
        if not 1 <= self.jobs <= MAX_JOBS:
            raise ValueError(f"jobs must be between 1 and {MAX_JOBS}, got {self.jobs}")

    def tuple_count(self) -> int:
        total = 1
        for lo, hi in self.bounds:
            total *= hi - lo + 1
        return total

    def cap(self) -> int:
        if self.max_tuples is not None:
            return self.max_tuples
        env = os.environ.get(MAX_TUPLES_ENV)
        if env is not None:
            try:
                return int(env)
            except ValueError:
                raise ValueError(f"{MAX_TUPLES_ENV} must be an integer, got {env!r}")
        return DEFAULT_MAX_TUPLES


@dataclass(frozen=True)
class ResultRecord:
    """One classified tuple: count summary plus the non-integral B_r values."""

    classes: tuple[int, ...]
    count: Optional[int]
    regime: str
    failing: tuple[tuple[int, str], ...]
    extension: bool

    def to_json_dict(self) -> dict:
        return {
            "classes": [_json_int(c) for c in self.classes],
            "count": self.count,
            "regime": self.regime,
            "failing_r": [{"r": r, "value": value} for r, value in self.failing],
            "extension": self.extension,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ResultRecord":
        return cls(
            classes=tuple(int(c) for c in data["classes"]),
            count=data["count"],
            regime=data["regime"],
            failing=tuple((int(f["r"]), str(f["value"])) for f in data["failing_r"]),
            extension=bool(data["extension"]),
        )


def _json_int(x: int):
    # beyond 53 bits a double-based JSON parser would silently round
    return x if abs(x) <= _SAFE_JSON_INT else str(x)


def evaluate_classes(rank: int, dim: int, classes: tuple[int, ...]) -> ResultRecord:
    """Classify one tuple; the per-tuple unit of sweep work."""
    result = count_bundles(ChernVector(rank, dim, classes))
    failing: tuple[tuple[int, str], ...] = ()
    if result.report is not None:
        failing = tuple(
            (t.r, f"{t.value.numerator}/{t.value.denominator}")
            for t in result.report.values
            if not t.integral
        )
    return ResultRecord(
        classes=tuple(classes),
        count=result.count,
        regime=result.regime,
        failing=failing,
        extension=result.extension_note is not None,
    )


def _evaluate_chunk(args) -> list[ResultRecord]:
    rank, dim, chunk = args
    return [evaluate_classes(rank, dim, classes) for classes in chunk]


def iter_box(bounds: tuple[tuple[int, int], ...]) -> Iterator[tuple[int, ...]]:
    """All tuples of the box in lexicographic order."""
    return itertools.product(*(range(lo, hi + 1) for lo, hi in bounds))


def _chunked(seq: Iterable, size: int) -> Iterator[list]:
    it = iter(seq)
    while chunk := list(itertools.islice(it, size)):
        yield chunk


def run_sweep(spec: SweepSpec) -> Iterator[ResultRecord]:
    """Stream records for every tuple in the box, in input order.

    Raises BoxTooLarge before doing any work if the box exceeds the cap.
    """
    total = spec.tuple_count()
    cap = spec.cap()
    if total > cap:
        raise BoxTooLarge(
            f"box holds {total} tuples, above the cap of {cap}; "
            f"raise --max-tuples or {MAX_TUPLES_ENV} to proceed"
        )
    boxes = iter_box(spec.bounds)
    if spec.jobs == 1:
        for classes in boxes:
            yield evaluate_classes(spec.rank, spec.dim, classes)
        return
    tasks = ((spec.rank, spec.dim, chunk) for chunk in _chunked(boxes, _CHUNK))
    with multiprocessing.Pool(spec.jobs) as pool:
        for records in pool.imap(_evaluate_chunk, tasks):
            yield from records


def parse_bounds(text: str) -> tuple[tuple[int, int], ...]:
    """Parse "lo:hi,lo:hi,..." into interval pairs."""
    out = []
    for piece in text.split(","):
        lo_text, sep, hi_text = piece.partition(":")
        if not sep:
            raise ValueError(f"interval {piece!r} is not of the form lo:hi")
        lo, hi = int(lo_text), int(hi_text)
        out.append((operator.index(lo), operator.index(hi)))
    return tuple(out)
