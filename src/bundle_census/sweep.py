"""Exhaustive sweeps over boxes of Chern classes.

Enumerates every integer tuple in a product of intervals in lexicographic
order and classifies each by the counting rule.  The bulk path,
``sweep_chunks``, cuts the box's linear (mixed-radix) index into ranges of
``chunk_tuples`` tuples, at most CHUNK and fewer where long B_r would make
a chunk large; a box holds at most INDEX_LIMIT = 2^62 tuples.
Each range goes through two stages.  ``classify`` walks the range on
Python ints, exact at any size, by exact forward differences along its
fastest varying class, and the runs' heads by the same along the next
slower class, each stretch of runs found from its linear index, whose
first heads take A_r = r! B_r from ``kernels.numerators``.  It applies
the counting rule: a key per tuple, its c_1 parity and failing B_r, and
one list of its classes and B_r, no text.
``render`` writes them to bytes, every format alike: one bytes ``%`` over
a template per key, with every fixed word and one-value class written in.
With more than one job the ranges are dealt round-robin to lanes: the
calling process renders its own share and each worker lane, a bare
``os.fork`` child, streams its finished chunks down one raw pipe, each
as a ``struct`` header (the data's length, then the chunk's tally)
followed by the data.  Ranges are always yielded in index order, so
output is deterministic and independent of the worker count.
``write`` writes a whole sweep: header, chunks, and totals from their tallies.
``evaluate_classes`` and ``run_sweep`` are the single-tuple path: only they
load ``enumeration``, on first use, so the bulk path runs without the
dataclasses and Fractions of the single-tuple API.
"""

from __future__ import annotations

import itertools
import operator
import os
import struct
import sys
from contextlib import closing, suppress
from math import factorial, gcd
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator, NamedTuple, TextIO

from . import kernels
from .counting import UNKNOWN, counting_rule

if TYPE_CHECKING:
    from .enumeration import BundleCount

# the most tuples a box holds: sweep_chunks takes len() of its range of
# chunk starts, which must stay below sys.maxsize at one tuple a chunk
INDEX_LIMIT = 2**62
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


class LaneDied(RuntimeError):
    """A worker lane closed its pipe before sending its last chunk."""


class _SweepFields(NamedTuple):
    # SweepSpec's fields: a NamedTuple cannot define __new__, so SweepSpec,
    # which validates on construction, is a subclass
    rank: int
    dim: int
    bounds: tuple[tuple[int, int], ...]
    jobs: int = 1


class SweepSpec(_SweepFields):
    """A sweep request: one inclusive integer interval per stored class, and its lanes.

    Construction raises ValueError on a malformed box, on ``jobs`` outside 1
    to MAX_JOBS and on a box of over INDEX_LIMIT tuples; any lower cap is the caller's.
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
        if self.tuple_count() > INDEX_LIMIT:
            raise ValueError(f"box holds {self.tuple_count()} tuples, above the 2^62 a sweep can index")
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
    if name not in ("ChernVector", "count_bundles"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import enumeration

    value = globals()[name] = getattr(enumeration, name)
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
    with suppress(BrokenPipeError):  # a reader of err that has gone stops nothing
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
            with suppress(BrokenPipeError):
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
        # what the streams hold so far is written once, by this process, or lost with its reader
        for stream in filter(None, (sys.stdout, sys.stderr)):
            with suppress(BrokenPipeError):
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

    Each tuple's key in ``keys`` is bytes: c_1 mod 2 where the count reads
    it, else 0, then 1 for each B_r, r = 3 to the order, that is not an
    integer, else 0; its count code is ``rule.count(not any(key[1:]), key[0])``.
    ``args`` holds, tuple by tuple, the classes of ``moving`` (those with more
    than one value, or else the last), then the failing B_r's num and den in
    lowest terms.  ``tally`` counts the tuples of each code, 0 to 3.
    """

    moving: tuple
    keys: list
    args: list
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
    c_i.  So a stretch of runs, which opens at c_j's first value and steps
    through c_i until c_i wraps or the range ends, takes its first D + 1
    heads' differences from ``kernels.numerators`` (``_differences``), the
    rest by the same two steps again: their forward differences along c_i
    (``_forward``), extended (``_extend``).  A run that opens part way
    through c_j is a stretch of its own.  Each stretch decodes its first
    tuple from its linear index, the walk's one cursor.  B_r fails where
    A_r mod r! is not zero, and a key per tuple records where.
    """
    rule = counting_rule(spec.rank, spec.dim)
    bounds, order = spec.bounds, rule.order or 1
    stop = min(stop, spec.tuple_count())
    start = min(start, stop)
    size = stop - start
    radices = [hi - lo + 1 for lo, hi in bounds]
    moving = [i for i, radix in enumerate(radices) if radix > 1] or [len(bounds) - 1]
    j = moving[-1]
    i = moving[-2] if len(moving) > 1 else j  # where c_j alone moves, the box is one run
    # B_2 = C(c_1, 2) - c_2 is an integer whatever the classes: r runs from 3
    orders = range(3, order + 1)
    m = len(orders)
    width = min(radices[j], order // (j + 1) + 1)  # differences per head
    # A_r's differences in a head's point-major list: every m-th from r - 3
    cuts = [slice(r - 3, r - 3 + m * min(width, r // (j + 1) + 1), m) for r in orders]
    columns = [[] for _ in moving]
    parity, odd = [], rule.extension is not None  # c_1 & 1 where the count reads it
    values = [[] for _ in orders]  # A_r of every tuple, one list per r
    index = start
    while index < stop:
        digits, rest = [], index
        for radix in reversed(radices):
            rest, digit = divmod(rest, radix)
            digits.append(digit)
        digits.reverse()
        left = stop - index
        # a stretch of runs whose heads step through c_i: a run that opens past c_j's
        # first value stands alone, the others go on until c_i wraps or the range ends
        count = 1 if digits[j] else min(radices[i] - digits[i], -(-left // radices[j]))
        runs = [min(radices[j] - digits[j], left - radices[j] * k) for k in range(count)]
        first = [lo + digit for (lo, _), digit in zip(bounds, digits)]
        heads = [[*first[:i], first[i] + k, *first[i + 1:]] for k in range(count)]
        diffs = [()] * count  # no B_r to test where m is 0
        if m:  # D + 1 heads from kernels.numerators, D = order // (i + 1), the others extended
            diffs = [_differences(head, j, min(run, width), orders)
                     for head, run in zip(heads[:order // (i + 1) + 1], runs)]
            if count > len(diffs):
                diffs = list(zip(*(_extend(d, count) for d in zip(*_forward(diffs)))))
        for head, run, diff in zip(heads, runs, diffs):
            for c, column in zip(moving, columns):
                column += range(head[j], head[j] + run) if c == j else [head[c]] * run
            parity += [head[0] & odd] * run if j else [c1 & odd for c1 in range(head[0], head[0] + run)]
            for cut, column in zip(cuts, values):
                column += _extend(diff[cut][:run], run)
        index += sum(runs)
    # each tuple's key, a line of ``keys``, and tuple-major in ``flat`` its moving
    # classes and every B_r's num and den, of which one compress keeps the failing
    stride = len(moving) + 2 * m
    keys = bytearray(b"\n") * ((m + 2) * size)
    keys[::m + 2] = parity
    flat, picks = [0] * (stride * size), [1] * (stride * size)
    for i, column in enumerate(columns):
        flat[i::stride] = column
    for i, r, column in zip(range(len(moving), stride, 2), orders, values):
        rest = list(map(operator.mod, column, itertools.repeat(factorial(r))))
        keys[r - 2::m + 2] = map(bool, rest)
        gcds = list(map(gcd, rest, itertools.repeat(factorial(r))))
        flat[i::stride] = map(operator.floordiv, column, gcds)
        flat[i + 1::stride] = map(operator.floordiv, itertools.repeat(factorial(r)), gcds)
        picks[i::stride] = picks[i + 1::stride] = rest
    keys, tally = bytes(keys), [0] * (UNKNOWN + 1)
    for c1 in (0, 1):  # the keys failing no B_r, each counted as itself and a newline
        tally[rule.count(True, c1)] += keys.count(bytes([c1, *[0] * m]) + b"\n")
    tally[0] = size - sum(tally[1:])
    args = list(itertools.compress(flat, picks))
    return Verdicts(tuple(moving), keys.split(b"\n")[:-1], args, tuple(tally))


def _differences(head: list, j: int, width: int, orders: range) -> list:
    """Forward differences 0 to width - 1 along c_j at ``head`` of ``kernels.numerators``, point-major."""
    points = [kernels.numerators([*head[:j], head[j] + t, *head[j + 1:]], orders)
              for t in range(width)]
    return list(itertools.chain.from_iterable(_forward(points)))


def _forward(points: list) -> list:
    """Forward differences 0 to len(points) - 1 at the first of ``points``, in place.

    ``points`` holds equally long vectors, the values at consecutive steps.
    """
    for q in range(1, len(points)):
        for t in range(len(points) - 1, q - 1, -1):
            points[t] = list(map(operator.sub, points[t], points[t - 1]))
    return points


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


# per format: a failing B_r's template, led by its one-character separator,
# which % fills with r; the classes' separator; a record's template, which
# str.format fills per key; the words for count codes 0 to 3, and for no and yes
_FORMAT = {
    "json": (',{"r":%d,"value":"%%d/%%d"}', ",",
             '{{"classes":[{classes}],"count":{count},"regime":"{regime}",'
             '"failing_r":[{failing}],"extension":{ext}}}\n',
             ("0", "1", "2", "null"), ("false", "true")),
    "csv": (";%d=%%d/%%d", ";", "{classes},{count},{regime},{failing},{ext}\n",
            ("0", "1", "2", "unknown"), ("false", "true")),
    "table": (";%d=%%d/%%d", ", ", "{classes} {count:>7} {regime:<13} {failing} {ext}\n",
              ("0", "1", "2", "unknown"), ("no", "yes")),
}


def render(spec: SweepSpec, fmt: str, verdicts: Verdicts) -> bytes:
    """The records of a chunk's verdicts in ``fmt``, as bytes.

    Each key has a template, its record with every word, one-value class
    and failing r written in, and one bytes ``%`` over the chunk's
    templates fills in its args.  The table first writes the texts it pads.
    """
    moving, keys, args, _ = verdicts
    term, sep, record, counts, exts = _FORMAT[fmt]
    rule = counting_rule(spec.rank, spec.dim)
    terms = [term % r for r in range(3, (rule.order or 1) + 1)]
    failing = {key: "".join(itertools.compress(terms, key[1:]))[1:] for key in dict.fromkeys(keys)}
    classes = ["%d" if i in moving else str(lo) for i, (lo, _) in enumerate(spec.bounds)]
    # a double-based JSON parser would round a class past 2^53 - 1, so such a
    # class is a string; every class lies between the box's ends
    if fmt == "json" and spec.max_abs() > _SAFE_JSON_INT:
        quote = [b"%d", b'"%d"']  # by whether the class is past 2^53 - 1
        classes = ["%s" if i in moving else (quote[abs(lo) > _SAFE_JSON_INT] % lo).decode()
                   for i, (lo, _) in enumerate(spec.bounds)]
        marks = {key: [True] * len(moving) + [False] * 2 * sum(key[1:]) for key in failing}
        flags = itertools.chain.from_iterable(map(marks.__getitem__, keys))
        args = [quote[abs(a) > _SAFE_JSON_INT] % a if mark else a for a, mark in zip(args, flags)]
    classes = sep.join(classes)
    if fmt == "table":
        padded = {key: f"\n({classes}{',' * (len(spec.bounds) == 1)})\n{text}".encode()
                  for key, text in failing.items()}
        args = (b"".join(map(padded.__getitem__, keys)) % tuple(args)).split(b"\n")[1:]
        classes, failing = f"%-{table_width(len(spec.bounds))}s", dict.fromkeys(failing, "%-20s")
    templates = {}
    for key, text in failing.items():
        c = rule.count(not any(key[1:]), key[0])
        templates[key] = record.format(classes=classes, count=counts[c], regime=rule.regime,
                                       failing=text, ext=exts[c == 2]).encode()
    return b"".join(map(templates.__getitem__, keys)) % tuple(args)


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
