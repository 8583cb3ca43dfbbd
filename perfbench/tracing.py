"""In-process traced runs: spans around calls into each module's functions.

The harness replaces module attributes of the program (``cli.run_sweep``,
``sweep.evaluate_classes``, ``kernels.schwarz_terms`` ...) with wrappers
that record a span per call, so nothing inside the program changes.  Spans
are kept in memory as (name, start, end, parent) columns and written out
when the run ends.  A layer's self time is the total duration of its spans
minus the durations of the child spans they contain.
"""

from __future__ import annotations

import contextlib
import io
import time
from array import array
from dataclasses import dataclass

import numpy as np


class Tracer:
    """Append-only span store.

    A span is appended when its call returns, so the store holds spans in
    the order they end; each span's parent is recovered from nesting alone
    (the traced program is single-threaded), which keeps the per-call cost
    to two clock reads and three appends.
    """

    def __init__(self):
        self.names: list[str] = []
        self.iterates: list[bool] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")

    def _id(self, name: str, iterates: bool) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.iterates.append(iterates)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """``fn`` with one span per call."""
        nid = self._id(name, False)
        names, start, end = self.name, self.start, self.end
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end.append(clock())
                start.append(t0)
                names.append(nid)

        return traced

    def wrap_iter(self, name: str, fn):
        """``fn`` returning an iterable: one span per ``next`` on the result.

        Work done lazily inside a generator is attributed to the step that
        runs it, and the consumer's own work between steps stays outside.
        """
        nid = self._id(name, True)
        names, start, end = self.name, self.start, self.end
        clock = time.perf_counter_ns

        def steps(it):
            while True:
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    end.append(clock())
                    start.append(t0)
                    names.append(nid)
                yield item

        def traced(*args, **kwargs):
            return steps(iter(fn(*args, **kwargs)))

        return traced

    def columns(self):
        """(names, name_ids, starts, ends, parents) of every span recorded."""
        starts = np.frombuffer(self.start, dtype=np.int64)
        ends = np.frombuffer(self.end, dtype=np.int64)
        return (self.names, np.frombuffer(self.name, dtype=np.int32), starts, ends,
                parents_of(starts, ends))

    def self_ns(self, overhead=None) -> dict[str, float]:
        """Self time per span name; ``overhead`` as returned by ``calibrate``."""
        inner = outer = None
        if overhead is not None:
            inner = [overhead[it][0] for it in self.iterates]
            outer = [overhead[it][1] for it in self.iterates]
        return self_times(*self.columns(), inner=inner, outer=outer)

    def save(self, path) -> None:
        names, ids, starts, ends, parents = self.columns()
        np.savez(path, names=np.array(names), name=ids, start=starts, end=ends, parent=parents)


def parents_of(starts, ends) -> np.ndarray:
    """Index of the innermost span enclosing each span, -1 for a root."""
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    order = np.lexsort((-ends, starts))  # outer spans before the spans they hold
    parent = np.full(len(starts), -1, dtype=np.int64)
    end_of = ends.tolist()
    stack: list[int] = []
    for i, s in zip(order.tolist(), starts[order].tolist()):
        while stack and end_of[stack[-1]] <= s:
            stack.pop()
        if stack:
            parent[i] = stack[-1]
        stack.append(i)
    return parent


def self_times(names, name_ids, starts, ends, parents, inner=None, outer=None) -> dict[str, float]:
    """Self time per span name, in the clock's units.

    Span i has name ``names[name_ids[i]]``, runs from ``starts[i]`` to
    ``ends[i]``, and was opened inside span ``parents[i]`` (-1 for a root).
    A span's self time is its duration minus the durations of its children,
    so the self times of all names add up to the roots' spans.  With
    ``inner``/``outer`` (per name) the tracer's own cost is taken out too:
    ``inner`` from the span that pays it, ``outer`` from its parent.
    """
    ids = np.asarray(name_ids, dtype=np.int64)
    dur = np.asarray(ends, dtype=np.int64) - np.asarray(starts, dtype=np.int64)
    par = np.asarray(parents, dtype=np.int64)
    own = dur.astype(np.float64)
    charged = own.copy()
    if inner is not None:
        own -= np.asarray(inner, dtype=np.float64)[ids]
        charged += np.asarray(outer, dtype=np.float64)[ids]
    child = par >= 0
    np.subtract.at(own, par[child], charged[child])
    per_name = np.bincount(ids, weights=own, minlength=len(names))
    return {n: float(per_name[i]) for i, n in enumerate(names)}


def calibrate(reps: int = 20000, rounds: int = 5) -> dict[bool, tuple[float, float]]:
    """The tracer's cost per span in ns, as (inner, outer), for calls and steps.

    ``inner`` is what a span's recorded duration holds beyond the wrapped
    work; ``outer`` is the rest of the wrapper's cost, which lands in the
    caller.  Both are medians over ``rounds`` loops of ``reps`` spans around
    a no-op.
    """
    out = {}
    for iterates in (False, True):
        inner, total = [], []
        for _ in range(rounds):
            tracer = Tracer()
            if iterates:
                plain = _time_loop(lambda: sum(1 for _ in range(reps)))
                wrapped = tracer.wrap_iter("noop", range)
                traced = _time_loop(lambda: sum(1 for _ in wrapped(reps)))
            else:
                plain = _time_loop(lambda: _call_loop(_noop, reps))
                wrapped = tracer.wrap("noop", _noop)
                traced = _time_loop(lambda: _call_loop(wrapped, reps))
            _, _, starts, ends, _ = tracer.columns()
            spans = len(starts)
            inner.append(float(np.mean(ends - starts)) - plain / reps)
            total.append((traced - plain) / spans)
        i, t = float(np.median(inner)), float(np.median(total))
        out[iterates] = (i, t - i)
    return out


def _noop(x):
    return x


def _call_loop(fn, reps):
    for i in range(reps):
        fn(i)


def _time_loop(body) -> float:
    t0 = time.perf_counter_ns()
    body()
    return time.perf_counter_ns() - t0


@contextlib.contextmanager
def patched(tracer: Tracer, points):
    """Install span wrappers at ``(module, attribute, span name, iterates)`` points."""
    saved = []
    try:
        for module, attr, name, iterates in points:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, (tracer.wrap_iter if iterates else tracer.wrap)(name, fn))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


@dataclass
class Captured:
    """What one in-process ``cli.main`` call wrote, and how long it took."""

    stdout: bytes
    stderr: str
    wall_s: float
    code: int | None
    exc: Exception | None


def call_main(main, argv) -> Captured:
    """Run ``main(argv)`` with stdout sent to a block-buffered byte sink.

    The sink encodes and buffers like a pipe-backed stdout, so formatting
    and writing cost what they cost in a subprocess.  An exception escaping
    ``main`` is returned, not raised: the CLI would print it as a traceback.
    """
    raw = io.BytesIO()
    out = io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8", newline="\n")
    err = io.StringIO()
    code = exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except Exception as e:  # the CLI's own crash, counted as a failed call
            exc = e
        finally:
            out.flush()
            wall = time.perf_counter() - t0
    return Captured(raw.getvalue(), err.getvalue(), wall, code, exc)
