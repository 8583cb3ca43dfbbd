"""The benchmark's workloads and the inputs each one derives from a seed.

Three sweep workloads run ``bundle-census sweep`` over a box of Chern
classes; ``diagnose-calls`` runs a closed loop of ``bundle-census diagnose``
calls.  The seed moves every sweep box by a multiple of a fixed step, which
keeps the box size and its ``int64_safe_share``, so every seed costs the
program about the same work.  Where the step is a multiple of N! (rank2-box,
bignum) the pattern of S_N verdicts is kept too, since it depends only on
c mod N!.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# ROADMAP item 2's certificate: a tuple whose bound n*R(R+1)...(R+N-1)
# stays below this can take an int64 fast path
INT64_LIMIT = 2**62

DEFAULT_SEED = 0


@dataclass(frozen=True)
class SweepWorkload:
    """A box of classes for one rank on one projective space.

    ``base`` holds one inclusive interval per stored class.  The seed adds
    ``step * k`` to the coordinates listed in ``shifted``, with ``k`` drawn
    from ``[0, shift_steps]``.
    """

    name: str
    why: str
    rank: int
    dim: int
    base: tuple[tuple[int, int], ...]
    fmt: str
    step: int
    shift_steps: int
    shifted: tuple[int, ...]

    def bounds(self, seed: int) -> tuple[tuple[int, int], ...]:
        rng = random.Random(f"{self.name}:{seed}")
        out = []
        for i, (lo, hi) in enumerate(self.base):
            off = 0
            if i in self.shifted:
                off = self.step * rng.randint(0, self.shift_steps)
            out.append((lo + off, hi + off))
        return tuple(out)

    def tuples(self, bounds) -> int:
        return math.prod(hi - lo + 1 for lo, hi in bounds)

    def argv(self, bounds, jobs: int) -> list[str]:
        text = ",".join(f"{lo}:{hi}" for lo, hi in bounds)
        return ["sweep", "--rank", str(self.rank), "--dim", str(self.dim),
                f"--bounds={text}", "--format", self.fmt, "--jobs", str(jobs)]

    def condition_order(self) -> int:
        """N of the S_N test each tuple runs (corank one: rank + 1)."""
        return self.rank + 1 if self.dim == self.rank + 1 else self.rank


@dataclass(frozen=True)
class DiagnoseWorkload:
    """Rounds of ``calls`` diagnose invocations, one at a time.

    N is drawn from [n_min, n_max] and M log-uniformly from [1, m_max];
    every class is uniform in [-M, M].  Both draws are stratified, one per
    equal-width stratum, and which N stratum meets which M stratum is fixed
    across seeds.  The seed draws the point within each stratum, the classes
    and the call order, so the mix of call costs, and hence the per-run
    medians, barely depend on it.
    """

    name: str
    why: str
    calls: int
    n_min: int
    n_max: int
    m_max: int

    def inputs(self, seed: int) -> list[tuple[int, ...]]:
        rng = random.Random(f"{self.name}:{seed}")
        pairing = random.Random(self.name).sample(range(self.calls), self.calls)
        out = []
        for i, j in enumerate(pairing):
            n = self.n_min + int((i + rng.random()) / self.calls * (self.n_max - self.n_min + 1))
            m = round(self.m_max ** ((j + rng.random()) / self.calls))
            out.append(tuple(rng.randint(-m, m) for _ in range(n)))
        rng.shuffle(out)
        return out

    @staticmethod
    def argv(classes) -> list[str]:
        return ["diagnose", "--classes=" + ",".join(map(str, classes))]


SWEEPS = (
    SweepWorkload(
        name="rank2-box",
        why="rank 2 on CP^3 over a 301x301 box, json: the headline corank-one case, "
            "kernel a small share, closed-form totals",
        rank=2, dim=3, base=((-150, 150), (-150, 150)), fmt="json",
        step=6, shift_steps=8, shifted=(0, 1),
    ),
    SweepWorkload(
        name="rank6-spine",
        why="rank 6 on CP^7, c1..c3 over +-15, json: S_7 per tuple gives the kernel "
            "its largest share and long records load the formatter",
        rank=6, dim=7, base=((-15, 15),) * 3 + ((0, 0),) * 3, fmt="json",
        step=2, shift_steps=5, shifted=(0, 1, 2),
    ),
    SweepWorkload(
        name="bignum",
        why="rank 3 on CP^4 with classes near 1e25, csv: no tuple is int64-safe, so "
            "every fast path is bypassed; exercises the csv writer",
        rank=3, dim=4,
        base=((10**25, 10**25 + 199), (-2 * 10**25, -2 * 10**25 + 99),
              (10**25 // 7, 10**25 // 7)),
        fmt="csv", step=24, shift_steps=10**18, shifted=(0, 1),
    ),
)

DIAGNOSE = DiagnoseWorkload(
    name="diagnose-calls",
    why="fixed rounds of 44 sequential diagnose calls, N in [20,150], |c_i|<=M, M "
        "log-uniform in [1,1e3]: the only path through symfun and oracle; setup dominates",
    calls=44, n_min=20, n_max=150, m_max=1000,
)

WORKLOADS = {w.name: w for w in SWEEPS + (DIAGNOSE,)}


def certificate(classes) -> int:
    """n*R(R+1)...(R+n-1) with R = 1 + max|c_i|, n = len(classes).

    By Cauchy's root bound every |p_k| <= n*R^k, so this bounds every
    Stirling-weighted sum the S_n kernel forms from these classes.
    """
    n = len(classes)
    r = 1 + max((abs(c) for c in classes), default=0)
    out = n
    for i in range(n):
        out *= r + i
    return out


def is_int64_safe(classes) -> bool:
    return certificate(classes) < INT64_LIMIT


def int64_safe_share(workload: SweepWorkload, bounds) -> float:
    """Share of the box's tuples (zero-padded to length N) that are int64-safe.

    The certificate grows with max|c_i| alone, so the safe tuples are those
    with max|c_i| <= m for the largest safe m, counted per coordinate.
    """
    n = workload.condition_order()

    def safe(m):
        return is_int64_safe((m,) + (0,) * (n - 1))

    top = max(abs(v) for b in bounds for v in b)
    if safe(top):
        return 1.0
    if not safe(0):
        return 0.0
    lo, hi = 0, top  # safe(lo) and not safe(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if safe(mid) else (lo, mid)
    inside = math.prod(max(0, min(b_hi, lo) - max(b_lo, -lo) + 1) for b_lo, b_hi in bounds)
    return inside / workload.tuples(bounds)
