"""Sweep output against a reference built one tuple at a time.

The reference, ``run_sweep``, runs ``count_bundles`` on every tuple of
``itertools.product``; each (classes, BundleCount) pair is rendered here
exactly as the record-at-a-time CLI did, sharing no code with the sweep's
renderer: JSON by ``json.dumps`` of a dict built here, with classes past
2^53 - 1 as strings, CSV by ``csv.writer`` and the table by its format
string.  The chunked sweep must give the same bytes for every format,
chunk size, kernel path and worker count.  Its verdict stage,
``sweep.classify``, is also held to ``count_bundles`` field by field.
"""

import contextlib
import csv
import fcntl
import io
import itertools
import json
import os
import signal
import subprocess
import sys
import termios
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bundle_census import cli, kernels, sweep
from bundle_census.chern import ChernVector
from bundle_census.enumeration import UNKNOWN, count_bundles, counting_rule
from bundle_census.sweep import SweepSpec, iter_box, run_sweep, sweep_chunks
from conftest import child_env
from oracles import schwarz_terms_companion


def reference_records(rank, dim, bounds, fmt):
    # run_sweep: count_bundles on each tuple of itertools.product
    pairs = list(zip(iter_box(bounds), run_sweep(SweepSpec(rank, dim, bounds))))
    totals = {k: sum(result.count == k for _, result in pairs) for k in (0, 1, 2)}
    totals[None] = sum(result.count is None for _, result in pairs)
    return render_reference(pairs, len(bounds), fmt), totals


def render_reference(pairs, n_classes, fmt):
    """The records of (classes, BundleCount) pairs, one at a time."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    width = max(20, 3 * n_classes * 3)
    for classes, result in pairs:
        failing = [(t.r, str(t.value)) for t in (result.report.failing() if result.report else ())]
        extension = result.extension_note is not None
        count = result.count if result.count is not None else "unknown"
        if fmt == "json":
            record = {
                # past 2^53 - 1 a double-based JSON parser would round: a string
                "classes": [c if abs(c) <= 2**53 - 1 else str(c) for c in classes],
                "count": result.count,
                "regime": result.regime,
                "failing_r": [{"r": r, "value": v} for r, v in failing],
                "extension": extension,
            }
            out.write(json.dumps(record, separators=(",", ":")) + "\n")
        elif fmt == "csv":
            writer.writerow([
                ";".join(str(c) for c in classes),
                str(count),
                result.regime,
                ";".join(f"{r}={v}" for r, v in failing),
                "true" if extension else "false",
            ])
        else:
            text = ";".join(f"{r}={v}" for r, v in failing)
            out.write(f"{str(classes):<{width}} {count!s:>7} {result.regime:<13} "
                      f"{text:<20} {'yes' if extension else 'no'}\n")
    return out.getvalue().encode()


def swept(spec, fmt):
    chunks = list(sweep_chunks(spec, fmt))
    tally = [sum(column) for column in zip(*(chunk.tally for chunk in chunks))]
    return b"".join(chunk.data for chunk in chunks), dict(zip((0, 1, 2, None), tally))


def tally(counts):
    """The tuples of each count code, 0, 1, 2 and UNKNOWN, among ``counts``."""
    return tuple(counts.count(k) for k in range(UNKNOWN + 1))


EDGE3 = 1154105  # the largest |c_i| int64_certified admits for S_3
BIG = 2**53      # beyond it JSON writes a class as a string

BOXES = {
    "line_bundle": (1, 4, ((-300, 300),)),
    "stable_range": (3, 2, ((-9, 9), (-9, 9))),
    "corank_one_rank2": (2, 3, ((-12, 12), (-12, 12))),
    "corank_one_rank4": (4, 5, ((-5, 5), (-5, 5), (-2, 2), (0, 2))),
    # most tuples fail S_7 at several r
    "corank_one_rank6": (6, 7, ((-3, 3),) * 3 + ((0, 0),) * 2 + ((0, 1),)),
    "unsupported": (3, 6, ((-4, 4), (-4, 4), (0, 3))),
    "straddles_certificate": (2, 3, ((EDGE3 - 2, EDGE3 + 2), (-60, 60))),
    "straddles_negative": (2, 3, ((-EDGE3 - 1, -EDGE3 + 1), (-90, 90))),
    "big_line_bundle": (1, 2, ((BIG - 300, BIG + 300),)),
    "big_negative_line_bundle": (1, 2, ((-BIG - 3, -BIG + 3),)),
    # ends either side of the int64 decoding limit
    "line_bundle_at_2_62": (1, 2, ((2**62 - 3, 2**62 + 3),)),
    "line_bundle_at_minus_2_62": (1, 2, ((-(2**62) - 3, -(2**62) + 3),)),
    "big_classes": (2, 3, ((BIG - 4, BIG + 4), (-(2**70), -(2**70) + 5))),
    # S_21, whose Stirling weights and 21! leave int64
    "order_21": (20, 21, ((-2, 2), (-1, 1), (0, 1)) + ((0, 0),) * 16 + ((-1, 1),)),
    "classes_near_1e40": (3, 4, ((10**40 - 3, 10**40 + 3), (-(10**40) - 2, -(10**40) + 2),
                                 (7 * 10**39, 7 * 10**39 + 1))),
}


@pytest.mark.parametrize("fmt", sweep.FORMATS)
@pytest.mark.parametrize("box", BOXES)
# CHUNK at 256: a ceiling that cuts most of these boxes into several chunks
@pytest.mark.parametrize("chunk", [1, 7, 256])
def test_matches_reference(box, fmt, chunk, monkeypatch):
    monkeypatch.setattr(sweep, "CHUNK", chunk)
    rank, dim, bounds = BOXES[box]
    assert swept(SweepSpec(rank, dim, bounds), fmt) == reference_records(rank, dim, bounds, fmt)


@pytest.mark.parametrize("box", BOXES)
@pytest.mark.parametrize("chunk", [1, 7, None])
def test_verdicts_match_count_bundles(box, chunk, monkeypatch):
    # the verdict stage alone, field by field, so that a wrong verdict and a
    # wrong text fail different tests; chunk None keeps the computed size
    if chunk is not None:
        monkeypatch.setattr(sweep, "CHUNK", chunk)
    rank, dim, bounds = BOXES[box]
    spec = SweepSpec(rank, dim, bounds)
    size = sweep.chunk_tuples(spec)
    got = []
    for start in range(0, spec.tuple_count(), size):
        columns, counts, failing, terms, chunk_tally = sweep.classify(spec, start, start + size)
        assert chunk_tally == tally(counts)
        cells = zip(terms[::3], terms[1::3], terms[2::3])
        got += [(classes, count, list(itertools.islice(cells, k)))
                for classes, count, k in zip(zip(*columns), counts, failing)]
        assert next(cells, None) is None
    want = []
    for classes, result in zip(iter_box(bounds), run_sweep(spec)):
        failing = result.report.failing() if result.report else ()
        want.append((classes, UNKNOWN if result.count is None else result.count,
                     [(t.r, t.value.numerator, t.value.denominator) for t in failing]))
    assert [g[0] for g in got] == [w[0] for w in want]
    assert [g[1] for g in got] == [w[1] for w in want]
    assert [g[2] for g in got] == [w[2] for w in want]


def spy_on_kernel(patch):
    """Wrap the batch kernel to record the dtype of each call's output, the one it ran on."""
    dtypes = []
    batch = kernels.schwarz_terms_batch

    def spy(classes):
        num, den = batch(classes)
        dtypes.append(num.dtype)
        return num, den

    patch.setattr(kernels, "schwarz_terms_batch", spy)
    return dtypes


def test_boxes_cover_both_paths_and_several_chunks(monkeypatch):
    monkeypatch.setattr(sweep, "CHUNK", 256)
    dtypes = spy_on_kernel(monkeypatch)
    for box in ("straddles_certificate", "straddles_negative"):
        rank, dim, bounds = BOXES[box]
        spec = SweepSpec(rank, dim, bounds)
        assert spec.tuple_count() > 2 * sweep.CHUNK
        dtypes.clear()
        swept(spec, "json")
        assert len(dtypes) == -(-spec.tuple_count() // sweep.CHUNK), box
        assert set(dtypes) == {np.dtype(np.int64), np.dtype(object)}, box


# rank 6 on CP^7: B_r is not an integer for any r in 3..7.  B_2 = C(c_1, 2) - c_2
# is always one, so N - 2 failing terms is the most a tuple of S_N can have.
FAILS_EVERY_R = (-3, -3, -2, -3, 0, 0)


@pytest.mark.parametrize("fmt", sweep.FORMATS)
@pytest.mark.parametrize("dtype", [np.int64, object])
def test_tuple_failing_at_every_r_renders_every_term_in_order(fmt, dtype, monkeypatch):
    if dtype is object:
        monkeypatch.setattr(kernels, "int64_certified", lambda order, max_abs: False)
    dtypes = spy_on_kernel(monkeypatch)
    spec = SweepSpec(6, 7, tuple((c, c) for c in FAILS_EVERY_R))
    got = sweep.render_chunk(spec, fmt, 0, 1).data.decode()
    assert dtypes == [np.dtype(dtype)]
    terms = [(r, f"{n}/{d}") for r, n, d in kernels.schwarz_terms(FAILS_EVERY_R + (0,), 7)
             if d != 1]
    assert [r for r, _ in terms] == [3, 4, 5, 6, 7]
    if fmt == "json":
        field = '"failing_r":' + json.dumps([{"r": r, "value": v} for r, v in terms],
                                            separators=(",", ":"))
    else:
        field = ";".join(f"{r}={v}" for r, v in terms)
    assert field in got
    pair = (FAILS_EVERY_R, sweep.evaluate_classes(6, 7, FAILS_EVERY_R))
    assert got.encode() == render_reference([pair], len(FAILS_EVERY_R), fmt)


# a chunk whose every row fails S_7 at every r from 3 to 7, and one whose
# every row passes S_3 (c_1 c_2 even)
FAILS_EVERY_R_BOX = (6, 7, ((-4, -4), (-5, -4), (-3, -3), (-5, -4), (-2, -2), (-2, -2)))
PASSES_EVERY_R_BOX = (2, 3, ((0, 0), (-9, 9)))


def test_every_row_fails_every_r_or_none():
    for (rank, dim, bounds), failing in ((FAILS_EVERY_R_BOX, [3, 4, 5, 6, 7]), (PASSES_EVERY_R_BOX, [])):
        results = list(run_sweep(SweepSpec(rank, dim, bounds)))
        assert len(results) > 1
        assert all([t.r for t in result.report.failing()] == failing for result in results)


@st.composite
def small_boxes(draw):
    """Rank 1 to 6 on CP^1 to CP^(rank+2), every counting regime, some classes past 2^53."""
    rank = draw(st.integers(1, 6))
    dim = draw(st.integers(1, rank + 2))
    bounds = []
    for width in ((4, 2) + (1,) * 4)[:min(rank, dim)]:
        lo = draw(st.sampled_from([0, 0, 0, BIG, -BIG - 2])) + draw(st.integers(-4, 4))
        bounds.append((lo, lo + draw(st.integers(0, width))))
    return rank, dim, tuple(bounds)


@given(box=st.one_of(st.just(FAILS_EVERY_R_BOX), st.just(PASSES_EVERY_R_BOX), small_boxes()),
       fmt=st.sampled_from(sweep.FORMATS), chunk=st.sampled_from([1, 7, None]), int64=st.booleans())
@example(box=FAILS_EVERY_R_BOX, fmt="json", chunk=None, int64=True)
@example(box=FAILS_EVERY_R_BOX, fmt="csv", chunk=None, int64=False)
@example(box=FAILS_EVERY_R_BOX, fmt="table", chunk=1, int64=True)
@example(box=PASSES_EVERY_R_BOX, fmt="json", chunk=7, int64=False)
@example(box=PASSES_EVERY_R_BOX, fmt="csv", chunk=None, int64=True)
@settings(max_examples=120, deadline=None)
def test_random_boxes_match_reference(box, fmt, chunk, int64):
    # chunk None keeps CHUNK, so the computed size applies; int64 False
    # refuses the certificate, so every chunk runs on Python ints
    rank, dim, bounds = box
    spec = SweepSpec(rank, dim, bounds)
    with pytest.MonkeyPatch.context() as patch:
        if chunk is not None:
            patch.setattr(sweep, "CHUNK", chunk)
        if not int64:
            patch.setattr(kernels, "int64_certified", lambda order, max_abs: False)
        size = sweep.chunk_tuples(spec)
        dtypes = spy_on_kernel(patch)
        got = swept(spec, fmt)
    assert got == reference_records(rank, dim, bounds, fmt)
    if counting_rule(rank, dim).order is not None:
        assert len(dtypes) == -(-spec.tuple_count() // size)
        assert int64 or set(dtypes) == {np.dtype(object)}


def test_chunk_size_follows_the_certificate():
    # at the order cap one tuple's B_r alone pass the bit budget
    assert sweep.chunk_tuples(SweepSpec(399, 400, ((-3, 3),) + ((-3, -3),) * 398)) == 1
    # boxes shaped like rank2-box and rank6-spine, and one tested by no condition
    assert sweep.chunk_tuples(SweepSpec(2, 3, ((-150, 150),) * 2)) == sweep.CHUNK
    assert sweep.chunk_tuples(SweepSpec(6, 7, ((-15, 15),) * 3 + ((0, 0),) * 3)) == sweep.CHUNK
    assert sweep.chunk_tuples(SweepSpec(1, 4, ((-300, 300),))) == sweep.CHUNK
    # bignum's classes near 2e25: a 339-bit certificate, 2^19 // (4 * 339)
    bignum = ((10**25, 10**25 + 199), (-2 * 10**25, -2 * 10**25 + 99), (10**25 // 7, 10**25 // 7))
    assert sweep.chunk_tuples(SweepSpec(3, 4, bignum)) == 386


def test_chunk_size_at_the_order_cap_on_long_classes_is_quick():
    # the full certificate of S_400 on 5,000-digit classes took seconds;
    # its product stops once past the chunk's bit budget
    big = 10**5000
    spec = SweepSpec(399, 400, ((big, big + 1),) + ((-big, -big),) * 398, max_tuples=2)
    with deadline(5):
        assert sweep.chunk_tuples(spec) == 1


def test_sweep_at_the_order_cap_holds_one_tuple_per_chunk():
    bounds = ((0, 2),) + ((3, 3), (-3, -3)) * 199  # 399 classes, 3 tuples
    chunks = list(sweep_chunks(SweepSpec(399, 400, bounds), "csv"))
    assert [sum(chunk.tally) for chunk in chunks] == [1, 1, 1]
    assert [chunk.data.count(b"\n") for chunk in chunks] == [1, 1, 1]


@pytest.mark.parametrize("fmt", sweep.FORMATS)
def test_decodes_indices_past_int64(fmt):
    # no index passes int64: a box holds at most 2^62 tuples.  The last
    # tuples of a box of exactly 2^62, decoded in int64, are those that
    # Python-int divmod gives
    bounds = ((0, 2**31 - 1), (0, 2**31 - 1))
    spec = SweepSpec(2, 3, bounds, max_tuples=2**62)
    total = spec.tuple_count()
    assert total == kernels.INT64_LIMIT
    start = total - 5
    tuples = [divmod(index, 2**31) for index in range(start, total)]
    assert tuples[-1] == (2**31 - 1, 2**31 - 1)
    pairs = [(t, sweep.evaluate_classes(2, 3, t)) for t in tuples]
    got = sweep.render_chunk(spec, fmt, start, total)
    assert got.data == render_reference(pairs, 2, fmt)
    assert got.tally == tally([result.count for _, result in pairs])


@pytest.mark.parametrize("start, stop", [(40960, 41984), (29791, 29792), (100, 50)],
                         ids=["past_the_end", "at_the_end", "reversed"])
def test_range_outside_the_box_is_an_empty_chunk(start, stop):
    spec = SweepSpec(6, 7, ((-15, 15),) * 3 + ((0, 0),) * 3)  # 29,791 tuples
    assert sweep.classify(spec, start, stop) == sweep.Verdicts([[]] * 6, [], [], [], (0, 0, 0, 0))
    for fmt in sweep.FORMATS:
        assert sweep.render_chunk(spec, fmt, start, stop) == sweep.Chunk(b"", (0, 0, 0, 0))


def decode(index, bounds):
    """The tuple at linear ``index`` of the box, by Python integer arithmetic."""
    digits = []
    for lo, hi in reversed(bounds):
        index, digit = divmod(index, hi - lo + 1)
        digits.append(lo + digit)
    return tuple(reversed(digits))


@pytest.mark.parametrize("fmt", sweep.FORMATS)
@pytest.mark.parametrize("bounds, kernel_dtypes", [
    # an end past int64: decoded on Python ints
    (((2**63, 2**63 + 4), (-5, 5)), (object, object)),
    # the widest interval a box admits, its radix 2^62, decoded in int64:
    # its small classes at the start run the int64 kernel
    (((0, 0), (-5, 2**62 - 6)), (np.int64, object)),
])
def test_ranges_at_the_int64_decoding_limit(bounds, kernel_dtypes, fmt, monkeypatch):
    spec = SweepSpec(2, 3, bounds, max_tuples=2**62)
    total = spec.tuple_count()
    assert total <= kernels.INT64_LIMIT
    dtypes = spy_on_kernel(monkeypatch)
    for (start, stop), dtype in zip(((0, 40), (total - 30, total)), kernel_dtypes):
        tuples = [decode(i, bounds) for i in range(start, stop)]
        pairs = [(t, sweep.evaluate_classes(2, 3, t)) for t in tuples]
        dtypes.clear()
        got = sweep.render_chunk(spec, fmt, start, stop)
        assert dtypes == [np.dtype(dtype)]
        assert got.data == render_reference(pairs, 2, fmt)
        assert got.tally == tally([result.count for _, result in pairs])
    assert tuples[-1] == tuple(hi for lo, hi in bounds)


@pytest.mark.parametrize("bounds", [
    ((-2, 2**63), (-5, 5)),
    ((-5, 5), (1 - 2**62, 2**62 - 1)),
    ((0, 2**40), (0, 2**40)),
])
def test_box_past_2_62_tuples_is_refused(bounds):
    # whatever the cap: past 2^62 tuples a linear index would leave int64
    for cap in (sweep.DEFAULT_MAX_TUPLES, 2**62, 2**200):
        with pytest.raises(sweep.BoxTooLarge, match=r"above the 2\^62 a sweep can index"):
            SweepSpec(2, 3, bounds, max_tuples=cap)


@pytest.mark.parametrize("box", ["corank_one_rank2", "straddles_certificate", "big_classes"])
def test_two_workers_give_identical_bytes(box, monkeypatch):
    monkeypatch.setattr(sweep, "CHUNK", 16)
    rank, dim, bounds = BOXES[box]
    fmt = "csv" if box == "big_classes" else "json"
    one = list(sweep_chunks(SweepSpec(rank, dim, bounds, jobs=1), fmt))
    two = list(sweep_chunks(SweepSpec(rank, dim, bounds, jobs=2), fmt))
    assert len(one) > 1
    assert one == two


def spy_on_fork(monkeypatch):
    """The pids of the children that ``os.fork`` starts from now on in this process."""
    pids, fork = [], os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


def assert_no_child_left():
    # waitpid raises only once this process has no child, running or unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_lanes_start_no_more_workers_than_chunks(monkeypatch):
    forked = spy_on_fork(monkeypatch)
    monkeypatch.setattr(sweep, "CHUNK", 16)
    bounds = ((0, 5), (0, 5))  # 36 tuples: 3 chunks
    one = list(sweep_chunks(SweepSpec(2, 3, bounds, jobs=1), "table"))
    many = list(sweep_chunks(SweepSpec(2, 3, bounds, jobs=sweep.MAX_JOBS), "table"))
    assert len(one) == 3 and many == one
    assert len(forked) == 2
    assert_no_child_left()


def sweep_argv(rank, dim, bounds, fmt, jobs):
    text = ",".join(f"{lo}:{hi}" for lo, hi in bounds)
    return ["sweep", "--rank", str(rank), "--dim", str(dim), f"--bounds={text}",
            "--format", fmt, "--jobs", str(jobs)]


@pytest.mark.parametrize("fmt", sweep.FORMATS)
@pytest.mark.parametrize("bounds", [((-20, 20), (-20, 20)), ((0, 24), (0, 11))],
                         ids=["many_chunks", "fewer_chunks_than_lanes"])
def test_three_lanes_match_one_job(bounds, fmt):
    # a real stdout pipe is block-buffered, so the csv and table header is
    # still buffered when the lanes fork; it must reach stdout exactly once
    runs = [subprocess.run([sys.executable, "-m", "bundle_census", *sweep_argv(2, 3, bounds, fmt, jobs)],
                           capture_output=True, env=child_env(), timeout=120) for jobs in (1, 3)]
    assert [run.returncode for run in runs] == [0, 0], runs[1].stderr
    assert runs[1].stdout == runs[0].stdout
    if fmt != "json":
        assert runs[1].stdout.count(b"classes") == 1


@contextlib.contextmanager
def deadline(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_killed_lane_raises_and_leaves_no_process(monkeypatch):
    # each lane's share is far above a pipe's capacity, so lane 1 cannot
    # have sent all of it before the kill
    spec = SweepSpec(2, 3, ((-100, 100), (-100, 100)), jobs=2)
    forked = spy_on_fork(monkeypatch)
    with deadline(60):
        chunks = sweep_chunks(spec, "json")
        next(chunks)
        (lane,) = forked
        os.kill(lane, signal.SIGKILL)
        with pytest.raises(sweep.LaneDied, match=r"lane 1 of 2 .*exit code -9"):
            for _ in chunks:
                pass
    assert_no_child_left()


def test_lane_that_raises_is_reported(monkeypatch, capfd):
    spec = SweepSpec(2, 3, ((-100, 100), (-100, 100)), jobs=2)
    forked = spy_on_fork(monkeypatch)
    # the lane inherits this handler even where the tests were started
    # with SIGINT ignored
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with deadline(60):
            chunks = sweep_chunks(spec, "json")
            next(chunks)
            next(chunks)  # lane 1's first chunk: the lane is running Python
            (lane,) = forked
            os.kill(lane, signal.SIGINT)  # KeyboardInterrupt inside the lane
            with pytest.raises(sweep.LaneDied, match=r"lane 1 of 2 .*exit code 1"):
                for _ in chunks:
                    pass
    finally:
        signal.signal(signal.SIGINT, previous)
    assert_no_child_left()
    err = capfd.readouterr().err
    assert "Traceback" in err and err.rstrip().endswith("KeyboardInterrupt"), err


def pipe_bytes(reader):
    """Bytes waiting to be read from a pipe."""
    waiting = bytearray(4)
    fcntl.ioctl(reader.fileno(), termios.FIONREAD, waiting)
    return int.from_bytes(waiting, sys.byteorder)


def write_long_frame(writer):
    # a frame four pipes long, of one count-0 tuple per byte
    length = 4 * fcntl.fcntl(writer, fcntl.F_GETPIPE_SZ)
    frame = memoryview(sweep._FRAME.pack(length, length, 0, 0, 0) + bytes(length))
    while frame:
        frame = frame[os.write(writer, frame):]


def test_lane_killed_inside_a_chunk_is_reported():
    # once more than its header is in the pipe, the lane has sent part of
    # the frame and can never send the rest
    lane = sweep._Lane(write_long_frame)
    try:
        with deadline(60):
            while pipe_bytes(lane.reader) <= sweep._FRAME.size:
                time.sleep(0.01)
            os.kill(lane.pid, signal.SIGKILL)
            with pytest.raises(sweep.LaneDied, match=r"lane 1 of 2 .*exit code -9"):
                lane.receive(1, 2)
    finally:
        lane.close()
    assert_no_child_left()


def test_cli_reports_a_killed_lane(monkeypatch, capsys):
    # this process kills the worker lane once it has rendered its own
    # first chunk; the lane's share is far above a pipe's capacity
    parent, render = os.getpid(), sweep.render_chunk
    forked = spy_on_fork(monkeypatch)

    def render_then_kill_lanes(*task):
        chunk = render(*task)
        if os.getpid() == parent:
            for lane in forked:
                os.kill(lane, signal.SIGKILL)
        return chunk

    monkeypatch.setattr(sweep, "render_chunk", render_then_kill_lanes)
    with deadline(60):
        code = cli.main(sweep_argv(2, 3, ((-100, 100), (-100, 100)), "json", 2))
    err = capsys.readouterr().err
    assert code == 1
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == ["error: sweep lane 1 of 2 stopped before its last chunk (exit code -9)"]
    assert "Traceback" not in err
    assert_no_child_left()


def test_box_of_more_chunks_than_sys_maxsize_starts_lanes():
    # no box has that many chunks: the largest a box admits, of 2^62
    # tuples, starts its worker lane
    bounds = ((0, 2**31 - 1), (0, 2**31 - 1))
    first = sweep.render_chunk(SweepSpec(2, 3, bounds, max_tuples=2**62), "csv", 0, sweep.CHUNK)
    with deadline(60):
        chunks = sweep_chunks(SweepSpec(2, 3, bounds, jobs=2, max_tuples=2**62), "csv")
        assert next(chunks) == first
        chunks.close()
    assert_no_child_left()


# "xml" goes to sweep.write itself, since argparse refuses it before a sweep starts
OUTPUT_CASES = [(fmt, jobs) for jobs in (1, 2) for fmt in sweep.FORMATS] + [("xml", 1)]


@pytest.mark.parametrize("fmt, jobs", OUTPUT_CASES,
                         ids=[fmt if jobs == 1 else f"{fmt}-jobs{jobs}" for fmt, jobs in OUTPUT_CASES])
def test_cli_output_matches_reference(fmt, jobs, capsysbinary, monkeypatch):
    monkeypatch.setattr(sweep, "CHUNK", 64)  # 10 chunks, so --jobs 2 forks a lane
    rank, dim, bounds = BOXES["straddles_certificate"]
    if fmt not in sweep.FORMATS:  # refused before either stream is written
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            sweep.write(SweepSpec(rank, dim, bounds), fmt, sys.stdout.buffer, sys.stderr)
        assert capsysbinary.readouterr() == (b"", b"")
        return
    text = ",".join(f"{lo}:{hi}" for lo, hi in bounds)
    assert cli.main(["sweep", "--rank", str(rank), "--dim", str(dim),
                     f"--bounds={text}", "--format", fmt, "--jobs", str(jobs)]) == 0
    out, err = capsysbinary.readouterr()
    records, totals = reference_records(rank, dim, bounds, fmt)
    total = sum(totals.values())
    summary = (f"total={total} count_0={totals[0]} count_1={totals[1]} "
               f"count_2={totals[2]} unknown={totals[None]}")
    banner = f"sweep: {total} tuples, rank {rank} on CP^{dim}, jobs={jobs}\n"
    if fmt == "json":
        want = records + json.dumps({"summary": {
            "total": total, "count_0": totals[0], "count_1": totals[1],
            "count_2": totals[2], "unknown": totals[None]}}, separators=(",", ":")).encode() + b"\n"
    elif fmt == "csv":  # csv's totals go to stderr alone
        want = b"classes,count,regime,failing_r,extension\n" + records
        banner += f"summary: {summary}\n"
    else:
        head = f"{'classes':<20} {'count':>7} {'regime':<13} {'failing':<20} ext\n"
        want = head.encode() + records + summary.encode() + b"\n"
    assert out == want
    assert err == banner.encode()


def csv_terms(data):
    """The classes and failing (r, num, den) of every record of ``sweep --format csv``, parsed back."""
    lines = data.decode().splitlines()
    assert lines[0] == "classes,count,regime,failing_r,extension"
    for line in lines[1:]:
        classes, _, _, failing, _ = line.split(",")
        terms = [tuple(map(int, term.replace("=", "/").split("/"))) for term in failing.split(";") if term]
        yield tuple(map(int, classes.split(";"))), terms


def csv_terms_by_companion_route(rank, dim, data):
    """Assert that every failing B_r of ``data``, a csv sweep, is the companion route's; their number."""
    order, failing = counting_rule(rank, dim).order, 0
    for classes, terms in csv_terms(data):
        padded = classes + (0,) * (order - len(classes))
        assert terms == [t for t in schwarz_terms_companion(padded, order) if t[2] != 1], classes
        failing += len(terms)
    return failing


@st.composite
def csv_boxes(draw):
    """A few tuples of rank 2 to 8 on CP^(rank-1) to CP^(rank+1), near 0, the int64 edge or past 2^62."""
    rank = draw(st.integers(2, 8))
    dim = draw(st.integers(max(2, rank - 1), rank + 1))
    bounds = []
    for width in ((2, 1) + (0,) * 6)[:min(rank, dim)]:
        centre = draw(st.sampled_from([0, 0, EDGE3, -EDGE3, 2**62, -(2**62), 10**25]))
        lo = centre + draw(st.integers(-4, 4))
        bounds.append((lo, lo + draw(st.integers(0, width))))
    return rank, dim, tuple(bounds)


@given(box=csv_boxes())
@settings(max_examples=60, deadline=None)
def test_csv_failing_terms_follow_the_companion_route(box):
    # what ``sweep --format csv`` prints, written by the function it calls
    rank, dim, bounds = box
    out = io.BytesIO()
    sweep.write(SweepSpec(rank, dim, bounds), "csv", out, io.StringIO())
    assume(csv_terms_by_companion_route(rank, dim, out.getvalue()))


@pytest.mark.parametrize("rank, dim, bounds", [
    (2, 3, ((EDGE3 - 2, EDGE3 + 2), (-3, 3))),
    (4, 5, ((2**62 - 2, 2**62 + 1), (-3, 3), (0, 1), (10**20, 10**20))),
], ids=["int64_edge", "past_2_62"])
def test_cli_csv_failing_terms_follow_the_companion_route(rank, dim, bounds):
    run = subprocess.run([sys.executable, "-m", "bundle_census", *sweep_argv(rank, dim, bounds, "csv", 1)],
                         capture_output=True, env=child_env(), timeout=120)
    assert run.returncode == 0, run.stderr
    assert csv_terms_by_companion_route(rank, dim, run.stdout) > 0


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: the sweep's extension field is count == 2 and does not yet apply the "
    "S_(rank+2) test that count applies; mending it changes the bytes that the seed-0 md5s of "
    "rank2-box and rank6-spine in perfbench/expected_md5.json hold"))
def test_sweep_extension_agrees_with_count(capsysbinary):
    # (0, 1) on CP^3 has two classes, but B_4 of (0, 1, 0, 0) is -5/6, so
    # count says that neither extends to CP^4
    assert "neither" in count_bundles(ChernVector(2, 3, (0, 1))).extension_note
    assert cli.main(["sweep", "--rank", "2", "--dim", "3", "--bounds=0:0,1:1", "--format", "json"]) == 0
    record = json.loads(capsysbinary.readouterr().out.splitlines()[0])
    assert (record["classes"], record["count"]) == ([0, 1], 2)
    assert record["extension"] is False


@given(
    bounds=st.lists(
        st.tuples(st.sampled_from([-EDGE3, 0, EDGE3]), st.integers(-4, 4), st.integers(0, 5)),
        min_size=2, max_size=2),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_kernel_dtype_follows_the_certificate_on_the_range(bounds, data):
    # the largest |c_i| of the decoded range alone picks the kernel's dtype
    bounds = tuple((centre + offset, centre + offset + width) for centre, offset, width in bounds)
    tuples = list(iter_box(bounds))
    start = data.draw(st.integers(0, len(tuples) - 1))
    stop = data.draw(st.integers(start + 1, len(tuples)))
    with pytest.MonkeyPatch.context() as patch:
        dtypes = spy_on_kernel(patch)
        got = sweep.render_chunk(SweepSpec(2, 3, bounds), "json", start, stop)
    extent = max(abs(c) for t in tuples[start:stop] for c in t)
    assert dtypes == [np.dtype(np.int64 if kernels.int64_certified(3, extent) else object)]
    pairs = [(t, sweep.evaluate_classes(2, 3, t)) for t in tuples[start:stop]]
    assert got.data == render_reference(pairs, 2, "json")
