"""Exhaustive sweeps over boxes of Chern classes.

Enumerates every integer tuple in a product of intervals in lexicographic
order and classifies each by the counting rule.  The bulk path,
``sweep_chunks``, cuts the box's linear (mixed-radix) index into ranges of
``chunk_tuples`` tuples, at most CHUNK and fewer where long B_r would make
a chunk large; a box holds at most 2^62 tuples, so every index is an int64.
Each range goes through two stages.  ``classify`` walks the range on
Python ints, exact at any size, along its fastest varying class by exact
forward differences, and applies the counting rule: verdicts as count
codes 0 to 3, no text.
``render`` writes them to bytes, every format alike: one ``%`` over the
chunk's failing B_r, then one over its records.
With more than one job the ranges are dealt round-robin to lanes: the
calling process renders its own share and each worker lane, a bare
``os.fork`` child, streams its finished chunks down one raw pipe, each
as a ``struct`` header (the data's length, then the chunk's tally)
followed by the data.  Ranges are always yielded in index order, so
output is deterministic and independent of the worker count.
``write`` writes a whole sweep: header, chunks, and totals from their tallies.
``evaluate_classes`` and ``run_sweep`` are the single-tuple path: only they
load ``chern`` and ``enumeration``, on first use, so the bulk path runs
without the dataclasses and Fractions of the single-tuple API.
"""

from __future__ import annotations

import itertools
import operator
import os
import struct
import sys
from contextlib import closing
from math import factorial, gcd
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator, NamedTuple, TextIO

from . import kernels
from .counting import UNKNOWN, counting_rule

if TYPE_CHECKING:
    from .enumeration import BundleCount

DEFAULT_MAX_TUPLES = 10_000_000
# ceiling on --jobs: each worker is a whole interpreter, and a typo such as
# 1000 must not start a thousand of them
MAX_JOBS = 16
# the most tuples per chunk: few enough that the first records reach stdout
# at once, enough that a chunk's kernel calls, at the heads of its first runs
# and after each wrap of the next slower class, are spread over many tuples
CHUNK = 1024
# a chunk's budget of order * bits per tuple, bits being the certificate's
# bit length (see chunk_tuples): at order 400 it holds a single tuple
_CHUNK_BITS = 2**19
FORMATS = ("json", "csv", "table")

# a worker lane's frame header: the chunk's data length, then its tally
_FRAME = struct.Struct("5Q")

# largest integer JSON readers with double-precision parsers keep exact
_SAFE_JSON_INT = 2**53 - 1


class BoxTooLarge(ValueError):
    """Sweep box holds more tuples than its cap."""


class LaneDied(RuntimeError):
    """A worker lane closed its pipe before sending its last chunk."""


class _SweepFields(NamedTuple):
    # SweepSpec's fields: a NamedTuple cannot define __new__, so SweepSpec,
    # which validates on construction, is a subclass
    rank: int
    dim: int
    bounds: tuple[tuple[int, int], ...]
    jobs: int = 1
    max_tuples: int = DEFAULT_MAX_TUPLES


class SweepSpec(_SweepFields):
    """A sweep request: one inclusive integer interval per stored class.

    Construction raises BoxTooLarge if the box holds over ``max_tuples``
    tuples, or over 2^62, past which an index would leave int64, whatever the cap.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
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
        if self.max_tuples < 1:
            raise ValueError(f"max_tuples must be >= 1, got {self.max_tuples}")
        total = self.tuple_count()
        if total > kernels.INT64_LIMIT:
            raise BoxTooLarge(f"box holds {total} tuples, above the 2^62 a sweep can index")
        if total > self.max_tuples:
            raise BoxTooLarge(
                f"box holds {total} tuples, above the cap of {self.max_tuples}; "
                "raise --max-tuples to proceed"
            )
        return self

    @classmethod
    def _make(cls, iterable) -> SweepSpec:
        return cls(*iterable)  # so that _replace validates too

    def tuple_count(self) -> int:
        total = 1
        for lo, hi in self.bounds:
            total *= hi - lo + 1
        return total

    def max_abs(self) -> int:
        """The box's largest |end|, which bounds every |c_i| in it."""
        return max(abs(end) for ends in self.bounds for end in ends)


def __getattr__(name: str):
    """The single-tuple path's ``ChernVector`` and ``count_bundles``, imported on first use."""
    if name == "ChernVector":
        from .chern import ChernVector as value
    elif name == "count_bundles":
        from .enumeration import count_bundles as value
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def evaluate_classes(rank: int, dim: int, classes: tuple[int, ...]) -> BundleCount:
    """Classify one tuple; the per-tuple unit of sweep work."""
    this = sys.modules[__name__]  # through the module, which imports both on first use
    return this.count_bundles(this.ChernVector(rank, dim, classes))


def iter_box(bounds: tuple[tuple[int, int], ...]) -> Iterator[tuple[int, ...]]:
    """All tuples of the box in lexicographic order."""
    return itertools.product(*(range(lo, hi + 1) for lo, hi in bounds))


def run_sweep(spec: SweepSpec) -> Iterator[BundleCount]:
    """The verdict on every tuple in the box, in input order, one at a time.

    The single-tuple path: ``evaluate_classes`` on each tuple, in this
    process whatever ``spec.jobs`` says; the reference that tests hold
    ``sweep_chunks``, the bulk path, to.
    """
    for classes in iter_box(spec.bounds):
        yield evaluate_classes(spec.rank, spec.dim, classes)


class Chunk(NamedTuple):
    """The rendered records of one index range of the box, and its ``Verdicts.tally``."""

    data: bytes
    tally: tuple


def write(spec: SweepSpec, fmt: str, out: BinaryIO, err: TextIO) -> None:
    """Write the sweep of ``spec`` in ``fmt``: its output to ``out``, its notes to ``err``.

    ``err`` takes the ``sweep:`` line, ``out`` the header, every chunk in
    index order and the totals, summed from the chunks' tallies; csv's
    totals go to ``err``.  An unknown ``fmt`` raises ValueError first.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    total = spec.tuple_count()
    err.write(f"sweep: {total} tuples, rank {spec.rank} on CP^{spec.dim}, jobs={spec.jobs}\n")
    if fmt == "csv":
        out.write(b"classes,count,regime,failing_r,extension\n")
    elif fmt == "table":
        width = table_width(len(spec.bounds))
        out.write(f"{'classes':<{width}} {'count':>7} {'regime':<13} {'failing':<20} ext\n".encode())
    tally = [0, 0, 0, 0]
    with closing(sweep_chunks(spec, fmt)) as chunks:  # a failed write stops the lanes at once
        for chunk in chunks:
            out.write(chunk.data)
            tally = [a + b for a, b in zip(tally, chunk.tally)]
    fields = zip(("total", "count_0", "count_1", "count_2", "unknown"), (total, *tally))
    if fmt == "json":
        out.write(('{"summary":{' + ",".join(f'"{k}":{v}' for k, v in fields) + "}}\n").encode())
    else:
        text = " ".join(f"{k}={v}" for k, v in fields) + "\n"
        if fmt == "csv":
            err.write("summary: " + text)
        else:
            out.write(text.encode())
    out.flush()


def sweep_chunks(spec: SweepSpec, fmt: str) -> Iterator[Chunk]:
    """Every record of the box rendered in ``fmt``, one chunk at a time.

    The box's linear index is cut into ranges of ``chunk_tuples(spec)``
    tuples, sized once here and passed to every lane, and chunk k is
    rendered by lane k mod L, L being ``spec.jobs`` or the number of
    chunks if that is smaller.  Lane 0 is this process, rendering inline;
    every other lane is one forked process writing its chunks, in index
    order, to its own pipe.  A lane blocks once its pipe is full, so
    what is in flight stays bounded by one pipe per worker lane however
    slowly the chunks are consumed.  Chunks are yielded in index order,
    so the bytes do not depend on the worker count.  Every worker lane is
    killed and reaped on the way out: after the last chunk, on close by
    the consumer, and on error.  Raises LaneDied if a worker lane stops
    early.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    total, size = spec.tuple_count(), chunk_tuples(spec)
    starts = range(0, total, size)
    lanes = min(spec.jobs, len(starts))
    workers = []
    try:
        for lane in range(1, lanes):
            workers.append(_Lane(_lane_main, spec, fmt, starts[lane::lanes], size))
        own = (render_chunk(spec, fmt, start, start + size) for start in starts[::lanes])
        for k in range(len(starts)):
            lane = k % lanes
            yield next(own) if lane == 0 else workers[lane - 1].receive(lane, lanes)
    finally:
        for worker in workers:
            worker.close()


def chunk_tuples(spec: SweepSpec) -> int:
    """Tuples per chunk of the box: CHUNK, or fewer where the B_r are long.

    Every numerator and denominator of S_N on the box is below the
    certificate N R(R+1)...(R+N-1), R = 1 + the largest |end| of the box,
    so a tuple's N - 1 fractions take at most about 2 N bits, bits being
    its bit length (``kernels.certificate_bits``).  A chunk holds
    _CHUNK_BITS // (N bits) tuples, at least one and at most CHUNK; a box
    tested by no condition takes CHUNK.  Past _CHUNK_BITS // N bits a
    chunk holds one tuple anyway, so the product stops there.
    """
    order = counting_rule(spec.rank, spec.dim).order
    if order is None:
        return CHUNK
    bits = kernels.certificate_bits(order, spec.max_abs(), _CHUNK_BITS // order)
    return max(1, min(CHUNK, _CHUNK_BITS // (order * bits)))


def _lane_main(writer: int, spec: SweepSpec, fmt: str, starts: range, size: int) -> None:
    """A worker lane: render the chunks of ``size`` tuples at ``starts`` and write them in order.

    Each chunk goes to the pipe ``writer`` as one frame, its _FRAME header
    followed by its data.  A write blocks while the pipe is full.
    """
    for start in starts:
        data, tally = render_chunk(spec, fmt, start, start + size)
        frame = memoryview(_FRAME.pack(len(data), *tally) + data)
        while frame:
            frame = frame[os.write(writer, frame):]


class _Lane:
    """A forked child running ``target(writer, *args)``.

    ``writer`` is the write end of a pipe that this process reads.  The
    child ends with ``os._exit``: code 0 once ``target`` returns, else 1
    after printing the exception's traceback.
    """

    def __init__(self, target, *args):
        # what the streams hold so far is written once, by this process
        for stream in filter(None, (sys.stdout, sys.stderr)):
            stream.flush()
        self.exitcode = None
        reader, writer = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(reader)
            os.close(writer)
            raise
        if self.pid == 0:  # the child, which must never return into its caller
            code = 1
            try:
                os.close(reader)
                target(writer, *args)
                code = 0
            except BaseException:  # printed as an uncaught exception would be; exit 1
                sys.excepthook(*sys.exc_info())
            finally:
                os._exit(code)
        os.close(writer)  # so the reader sees end of file once the lane exits
        self.reader = open(reader, "rb")

    def receive(self, lane: int, lanes: int) -> Chunk:
        """The next chunk from the lane; LaneDied if its pipe ends before the chunk does."""
        head = self.reader.read(_FRAME.size)
        if len(head) == _FRAME.size:
            length, *tally = _FRAME.unpack(head)
            data = self.reader.read(length)
            if len(data) == length:
                return Chunk(data, tuple(tally))
        self._reap()
        raise LaneDied(
            f"sweep lane {lane} of {lanes} stopped before its last chunk "
            f"(exit code {self.exitcode})"
        )

    def close(self) -> None:
        """Kill the lane unless it has been reaped, reap it, and close the pipe."""
        if self.exitcode is None:
            import signal  # only a sweep with worker lanes needs it

            os.kill(self.pid, signal.SIGKILL)
            self._reap()
        self.reader.close()

    def _reap(self) -> None:
        self.exitcode = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])


class Verdicts(NamedTuple):
    """The classification of one index range of the box, before any text.

    ``columns`` holds the stored classes, one list per class, and
    ``counts`` the count code of each tuple: 0, 1, 2, or UNKNOWN (3).
    ``failing`` gives the number of B_r of each tuple that are not
    integers, and ``terms`` those B_r row-major, each tuple's in r order,
    as flat triples r, num, den with B_r = num/den in lowest terms.
    ``tally`` is the number of tuples of each code, 0 to UNKNOWN.
    """

    columns: list
    counts: list
    failing: list
    terms: list
    tally: tuple


def render_chunk(spec: SweepSpec, fmt: str, start: int, stop: int) -> Chunk:
    """Records of the tuples with linear index in [start, stop), as bytes, and their tally."""
    verdicts = classify(spec, start, stop)
    return Chunk(render(spec, fmt, verdicts), verdicts.tally)


def classify(spec: SweepSpec, start: int, stop: int) -> Verdicts:
    """Verdicts on the tuples with linear index in [start, stop), on Python ints.

    ``start`` and ``stop`` may run past the box's end and are clipped to
    it, so a range that begins there, or ends before it begins, is an
    empty chunk.

    The range is cut into runs along the fastest varying class c_j, the
    last with more than one value: within a run only c_j moves, by one per
    tuple.  The unreduced A_r = r! B_r = sum_k s(r,k) p_k is a polynomial
    in c_j of degree at most r // j, since each term of p_k is a product
    of classes whose indices add up to k.  So its forward differences at
    a run's first tuple, its head, up to the (order // j)-th, give A_r
    along the whole run (``_extend``).  A head's differences are in turn
    polynomials of degree at most D = order // i in the next slower class
    c_i: once D + 1 heads consecutive in c_i are known, each next one
    follows from the table of their backward differences (``_advance``).
    The other heads, after c_i wraps or at the range's start, take theirs
    from the power sums (``_differences``).  Each A_r is then reduced by
    r! (``_reduce``).
    """
    rule = counting_rule(spec.rank, spec.dim)
    bounds, order = spec.bounds, rule.order or 1
    stop = min(stop, spec.tuple_count())
    start = min(start, stop)
    size = stop - start
    radices = [hi - lo + 1 for lo, hi in bounds]
    moving = [i for i, radix in enumerate(radices) if radix > 1] or [len(bounds) - 1]
    j, slower = moving[-1], moving[-2:-1]
    digits, index = [], start
    for radix in reversed(radices):
        index, digit = divmod(index, radix)
        digits.append(digit)
    digits.reverse()
    # B_2 = C(c_1, 2) - c_2 is an integer whatever the classes: r runs from 3
    orders = range(3, order + 1)
    m = len(orders)
    rows = [kernels.stirling_row(r) for r in orders]
    width = min(radices[j], order // (j + 1) + 1)  # differences per head
    # A_r's differences in a head's point-major list: every m-th from r - 3
    cuts = [slice(r - 3, r - 3 + m * min(width, r // (j + 1) + 1), m) for r in orders]
    depth = order // (slower[0] + 1) if slower else 0
    columns = [[] if i in moving else [lo] * size for i, (lo, _) in enumerate(bounds)]
    values = [[] for _ in orders]  # A_r of every tuple, one list per r
    table, expect = [], None
    left = size
    while left:
        head = [lo + digit for (lo, _), digit in zip(bounds, digits)]
        run = min(radices[j] - digits[j], left)
        for i in moving:
            columns[i] += range(head[j], head[j] + run) if i == j else [head[i]] * run
        if m:
            if head == expect and len(table) > depth:
                diffs = _advance(table)
            else:
                diffs = _differences(head, j, min(run, width), rows, order)
                whole = slower and run >= width  # every difference, so the table may use it
                table = _push(table if head == expect else [], diffs, depth) if whole else []
            if table:
                expect = head.copy()
                expect[slower[0]] += 1
            for cut, column in zip(cuts, values):
                column += _extend(diffs[cut][:run], run)
        left -= run
        digits[j] += run - 1  # the run's last tuple, whose successor opens the next run
        for i in range(j, -1, -1):
            digits[i] = (digits[i] + 1) % radices[i]
            if digits[i]:
                break
    failing, terms = _reduce(values, orders, size) if m else ([0] * size, [])
    code = [rule.count(satisfied, c1) for satisfied in (False, True) for c1 in (0, 1)]
    counts = [code[2 * (not n) + (c1 & 1)] for n, c1 in zip(failing, columns[0])]
    tally = tuple(map(counts.count, range(UNKNOWN + 1)))
    return Verdicts(columns, counts, failing, terms, tally)


def _reduce(values: list, orders: range, size: int) -> tuple[list, list]:
    """Each tuple's number of failing B_r, and those B_r as flat triples r, num, den.

    ``values`` holds A_r = r! B_r of the ``size`` tuples, one list per r
    of ``orders``.  B_r fails where A_r mod r! is not zero, and only there
    takes a gcd.  The lists are laid out tuple-major, each tuple's A_r in
    r order, so the failing B_r come out in the order ``Verdicts`` keeps.
    """
    m, orders = len(orders), list(orders)
    flat, rests = [0] * (m * size), [0] * (m * size)
    for i, r, column in zip(range(m), orders, values):
        flat[i::m] = column
        rests[i::m] = map(operator.mod, column, itertools.repeat(factorial(r)))
    dens = list(itertools.compress(list(map(factorial, orders)) * size, rests))
    gcds = list(map(gcd, filter(None, rests), dens))
    terms = [0] * (3 * len(gcds))
    terms[::3] = itertools.compress(orders * size, rests)
    terms[1::3] = map(operator.floordiv, itertools.compress(flat, rests), gcds)
    terms[2::3] = map(operator.floordiv, dens, gcds)
    failing = [m - group.count(0) for group in zip(*[iter(rests)] * m)]
    return failing, terms


def _differences(head: list, j: int, width: int, rows: list, order: int) -> list:
    """Forward differences 0 to width - 1 along c_j at ``head`` of every A_r, point-major.

    A_r = sum_k s(r,k) p_k for each row s(r, .) of ``rows``, from the
    power sums p_1 to p_order of the classes with trailing zeros dropped,
    since e_i = 0 past the degree gives the same p_k.
    """
    points = []
    for t in range(width):
        classes = [*head[:j], head[j] + t, *head[j + 1:]]
        while classes and not classes[-1]:
            classes.pop()
        p = [0, *kernels.power_sums(classes, order)]
        points.append([sum(map(operator.mul, row, p)) for row in rows])
    for q in range(1, width):
        for t in range(width - 1, q - 1, -1):
            points[t] = list(map(operator.sub, points[t], points[t - 1]))
    return list(itertools.chain.from_iterable(points))


def _push(table: list, values: list, depth: int) -> list:
    """The backward difference table at a head, from the table at the head before and its values.

    ``table[i]`` holds the i-th backward differences at the last head, up
    to the ``depth``-th.
    """
    new = [values]
    for old in table[:depth]:
        new.append(list(map(operator.sub, new[-1], old)))
    return new


def _advance(table: list) -> list:
    """The values at the next head, from a full difference table, which it moves there.

    The values are polynomials of degree at most len(table) - 1 in the
    head's class, so the top difference is constant.
    """
    for i in range(len(table) - 2, -1, -1):
        table[i] = list(map(operator.add, table[i], table[i + 1]))
    return table[0]


def _extend(diffs: list, n: int) -> Iterable[int]:
    """Values at 0, ..., n - 1 of the polynomial whose forward differences at 0 are ``diffs``.

    ``n`` is at least len(diffs).  The last difference but one runs in
    steps of the last, and each lower one is accumulated from the one
    above, starting from its value at 0.
    """
    if len(diffs) == 1:
        return diffs * n
    *lower, first, step = diffs
    count = n - len(lower)
    values = range(first, first + step * count, step) if step else itertools.repeat(first, count)
    for first in reversed(lower):
        values = itertools.accumulate(values, initial=first)
    return values


# per format: a failing B_r's template, led by its one-character separator;
# a record's, whose {fields} str.format fills per count and whose %s take the
# classes and failing text; the words for an unknown count, and for no and yes
_FORMAT = {
    "json": (',{"r":%d,"value":"%s/%s"}',
             '{{"classes":[{classes}],"count":{count},"regime":"{regime}",'
             '"failing_r":[%s],"extension":{ext}}}\n',
             "null", "false", "true"),
    "csv": (";%d=%s/%s", "{classes},{count},{regime},%s,{ext}\n", "unknown", "false", "true"),
    "table": (";%d=%s/%s", "{classes} {count:>7} {regime:<13} %-20s {ext}\n",
              "unknown", "no", "yes"),
}


def render(spec: SweepSpec, fmt: str, verdicts: Verdicts) -> bytes:
    """The records of a chunk's verdicts in ``fmt``, as bytes.

    One ``%`` writes every failing B_r of the chunk.  Each failing tuple's
    terms open with a newline in place of their first separator, so the
    text splits into the failing tuples' texts.  A second ``%`` fills the
    chunk's records, each the template of its count, with every tuple's
    classes and failing text.
    """
    columns, counts, failing, terms, _ = verdicts
    term, record, unknown, no, yes = _FORMAT[fmt]
    lead = {k: "\n" + (term * k)[1:] for k in set(failing)}
    text = "".join(map(lead.__getitem__, filter(None, failing))) % tuple(terms)
    texts = [""] * len(counts)
    rows = itertools.compress(itertools.count(), failing)
    for row, row_text in zip(rows, text.split("\n")[1:]):
        texts[row] = row_text
    n = len(columns)
    if fmt == "table":
        columns, classes = [list(map(str, zip(*columns)))], f"%-{table_width(n)}s"
    else:
        classes = ("," if fmt == "json" else ";").join(["%s"] * n)
    # beyond 53 bits a double-based JSON parser would silently round, so such
    # a class is written as a string, the bytes json.dumps gives its digits;
    # every class lies between the box's ends, so small ends make every class small
    if fmt == "json" and spec.max_abs() > _SAFE_JSON_INT:
        columns = [[c if abs(c) <= _SAFE_JSON_INT else f'"{c}"' for c in col] for col in columns]
    regime = counting_rule(spec.rank, spec.dim).regime
    records = {c: record.format(classes=classes, count=unknown if c == UNKNOWN else c,
                                regime=regime, ext=yes if c == 2 else no)
               for c in set(counts)}
    args = itertools.chain.from_iterable(zip(*columns, texts))
    text = "".join(map(records.__getitem__, counts)) % tuple(args)
    return text.encode()


def table_width(n_classes: int) -> int:
    """Width of the classes column of ``--format table``."""
    return max(20, 9 * n_classes)


def parse_bounds(text: str) -> tuple[tuple[int, int], ...]:
    """Parse "lo:hi,lo:hi,..." into interval pairs."""
    out = []
    for piece in text.split(","):
        lo_text, _, hi_text = piece.partition(":")
        try:  # a missing ":" leaves hi_text empty, and a second one stays in it
            out.append((int(lo_text), int(hi_text)))
        except ValueError:
            raise ValueError(f"interval {piece!r} is not of the form lo:hi") from None
    return tuple(out)
