"""Exhaustive sweeps over boxes of Chern classes.

Enumerates every integer tuple in a product of intervals in lexicographic
order and classifies each by the counting rule.  The bulk path,
``sweep_chunks``, cuts the box's linear (mixed-radix) index into ranges of
``chunk_tuples`` tuples, at most CHUNK and fewer where long B_r would make
a chunk large; a box holds at most 2^62 tuples, so every index is an int64.
Each range goes through two stages.  ``classify`` decodes it once, one row
per class (int64 when the box's ends are below 2^62, else Python ints),
hands its transpose to the batch kernel, which reads the largest |c_i| off
it and runs in int64 where its overflow certificate holds, else on Python
ints, and applies the counting rule: verdicts as count codes 0 to 3, no text.
``render`` writes them to bytes, every format alike: one ``%`` over the
chunk's failing B_r, then one over its records.
With more than one job the ranges are dealt round-robin to lanes: the
calling process renders its own share and each worker lane, a bare
``os.fork`` child, streams its finished chunks down one raw pipe, each
as a ``struct`` header (the data's length, then the chunk's tally)
followed by the data.  Ranges are always yielded in index order, so
output is deterministic and independent of the worker count.
numpy loads before the first worker lane forks, so every lane inherits it.
``write`` writes a whole sweep: header, chunks, and totals from their tallies.
``evaluate_classes`` and ``run_sweep`` are the single-tuple path.
"""

from __future__ import annotations

import itertools
import os
import signal
import struct
import sys
from contextlib import closing
from dataclasses import dataclass
from typing import BinaryIO, Iterator, NamedTuple, TextIO

from . import kernels
from .chern import ChernVector
from .enumeration import UNKNOWN, BundleCount, count_bundles, counting_rule

DEFAULT_MAX_TUPLES = 10_000_000
# ceiling on --jobs: each worker is a whole interpreter, and a typo such as
# 1000 must not start a thousand of them
MAX_JOBS = 16
# the most tuples per chunk: few enough that the first records reach stdout
# at once, enough that numpy's cost per call is spread over many tuples
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


@dataclass(frozen=True)
class SweepSpec:
    """A sweep request: one inclusive integer interval per stored class.

    Construction raises BoxTooLarge if the box holds over ``max_tuples``
    tuples, or over 2^62, past which an index would leave int64, whatever the cap.
    """

    rank: int
    dim: int
    bounds: tuple[tuple[int, int], ...]
    jobs: int = 1
    max_tuples: int = DEFAULT_MAX_TUPLES

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

    def tuple_count(self) -> int:
        total = 1
        for lo, hi in self.bounds:
            total *= hi - lo + 1
        return total

    def max_abs(self) -> int:
        """The box's largest |end|, which bounds every |c_i| in it."""
        return max(abs(end) for ends in self.bounds for end in ends)


def evaluate_classes(rank: int, dim: int, classes: tuple[int, ...]) -> BundleCount:
    """Classify one tuple; the per-tuple unit of sweep work."""
    return count_bundles(ChernVector(rank, dim, classes))


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
    if lanes > 1:
        import numpy  # noqa: F401  loaded before the first fork, so every worker lane inherits it
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
    """Verdicts on the tuples with linear index in [start, stop).

    ``start`` and ``stop`` may run past the box's end and are clipped to
    it, so a range that begins there, or ends before it begins, is an
    empty chunk.  The range is decoded once, class-major, into an
    ``(order, T)`` array whose row j holds class j + 1 of every tuple, rows
    past the stored classes zero: int64 when every end of the box is below
    2^62, else Python ints.  The batch kernel reads its transpose with no
    copy and picks its own arithmetic from the decoded classes.
    """
    import numpy as np

    bounds, rule = spec.bounds, counting_rule(spec.rank, spec.dim)
    stop = min(stop, spec.tuple_count())
    start = min(start, stop)
    index = np.arange(start, stop, dtype=np.int64)  # a box holds at most 2^62 tuples
    dtype = np.int64 if spec.max_abs() < kernels.INT64_LIMIT else object
    classes = np.zeros((rule.order or len(bounds), len(index)), dtype=dtype)
    for j in range(len(bounds) - 1, -1, -1):
        lo, hi = bounds[j]
        np.divmod(index, hi - lo + 1, out=(index, classes[j]))
        classes[j] += lo
    failing, terms = np.zeros(len(index), dtype=np.int64), []
    if rule.order is not None:
        num, den = kernels.schwarz_terms_batch(classes.T)
        fails = den != 1
        failing = fails.sum(axis=1)
        rows, cols = np.nonzero(fails)  # row-major, so each row's terms come out in r order
        cells = (cols + 2, num[rows, cols], den[rows, cols])
        terms = np.stack(cells, axis=1).ravel().tolist()
    counts = rule.count(failing == 0, classes[0])
    tally = tuple(np.bincount(counts, minlength=UNKNOWN + 1).tolist())
    columns = classes[: len(bounds)].tolist()
    return Verdicts(columns, counts.tolist(), failing.tolist(), terms, tally)


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
