"""Tests of the benchmark itself: span arithmetic, the int64 certificate and
the output gates on boxes small enough to run in seconds.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import dataclasses
import itertools
import json
import time

import numpy as np
import pytest

import gates
import procs
import run
import tracing
import workloads as wl

RANK2 = wl.WORKLOADS["rank2-box"]
BIGNUM = wl.WORKLOADS["bignum"]


# ------------------------------------------------------------ span arithmetic

# root [0,100] holds a [10,40] (which holds b [15,25]) and a second a [50,70]
SPANS = [("root", 0, 100), ("a", 10, 40), ("b", 15, 25), ("a", 50, 70)]


def _columns(spans):
    names = sorted({n for n, _, _ in spans})
    ids = [names.index(n) for n, _, _ in spans]
    starts = [s for _, s, _ in spans]
    ends = [e for _, _, e in spans]
    return names, ids, starts, ends


def test_parents_from_nesting():
    _, _, starts, ends = _columns(SPANS)
    assert tracing.parents_of(starts, ends).tolist() == [-1, 0, 1, 0]
    # the order spans were stored in does not matter
    perm = [2, 1, 3, 0]
    got = tracing.parents_of([starts[i] for i in perm], [ends[i] for i in perm]).tolist()
    assert got == [1, 3, 3, -1]


def test_self_time_subtracts_children():
    names, ids, starts, ends = _columns(SPANS)
    own = tracing.self_times(names, ids, starts, ends, tracing.parents_of(starts, ends))
    assert own == {"root": 50, "a": 40, "b": 10}
    assert sum(own.values()) == 100


def test_self_time_takes_out_tracer_cost():
    names, ids, starts, ends = _columns(SPANS)
    parents = tracing.parents_of(starts, ends)
    inner = [1.0 if n == "b" else 2.0 for n in names]
    outer = [3.0 if n == "b" else 4.0 for n in names]
    own = tracing.self_times(names, ids, starts, ends, parents, inner=inner, outer=outer)
    # each span loses its inner cost, each parent its children's outer cost
    assert own == {"root": 50 - 2 - 4 - 4, "a": 40 - 2 * 2 - 3, "b": 10 - 1}
    assert sum(own.values()) == 100 - (2 + 2 + 2 + 1) - (4 + 4 + 3)


def test_tracer_spans_nest_like_the_calls():
    tracer = tracing.Tracer()

    def leaf(x):
        time.sleep(0.001)
        return x

    leaf_t = tracer.wrap("leaf", leaf)
    gen_t = tracer.wrap_iter("gen", lambda n: (leaf_t(i) for i in range(n)))
    root = tracer.wrap("root", lambda: sum(gen_t(3)))
    assert root() == 3
    names, ids, starts, ends, parents = tracer.columns()
    by_name = [names[i] for i in ids]
    # three steps that each call leaf, one final step that stops, then root
    assert sorted(by_name) == ["gen"] * 4 + ["leaf"] * 3 + ["root"]
    for i, p in enumerate(parents.tolist()):
        want = {"leaf": "gen", "gen": "root", "root": None}[by_name[i]]
        assert (by_name[p] if p >= 0 else None) == want
    own = tracer.self_ns()
    root_span = int(ends[by_name.index("root")] - starts[by_name.index("root")])
    assert sum(own.values()) == pytest.approx(root_span)
    assert own["leaf"] >= 3e6  # three 1 ms sleeps


def test_tracer_closes_span_on_exception():
    tracer = tracing.Tracer()

    def boom():
        raise OverflowError("x")

    with pytest.raises(OverflowError):
        tracer.wrap("boom", boom)()
    assert len(tracer.start) == 1 and tracer.end[0] >= tracer.start[0]


# --------------------------------------------------------- int64 certificate

def test_certificate_threshold_at_2_62():
    # n = 1: the certificate is R = 1 + |c|
    assert wl.certificate((2**62 - 2,)) == 2**62 - 1
    assert wl.is_int64_safe((2**62 - 2,))
    assert wl.certificate((2**62 - 1,)) == 2**62
    assert not wl.is_int64_safe((2**62 - 1,))
    assert wl.certificate((0, 0, 0)) == 3 * 1 * 2 * 3


def test_int64_safe_share_counts_the_straddling_box():
    n = RANK2.condition_order()
    m = int(round((2**62 / n) ** (1 / n)))
    while wl.is_int64_safe((m + 1,) + (0,) * (n - 1)):
        m += 1
    while not wl.is_int64_safe((m,) + (0,) * (n - 1)):
        m -= 1
    box = ((m - 1, m + 1), (0, 0))
    brute = sum(wl.is_int64_safe(c + (0,)) for c in itertools.product(
        *(range(lo, hi + 1) for lo, hi in box))) / 3
    assert brute == pytest.approx(2 / 3)
    assert wl.int64_safe_share(RANK2, box) == pytest.approx(brute)


def test_workload_shares_hold_for_every_seed():
    for seed in range(5):
        assert wl.int64_safe_share(RANK2, RANK2.bounds(seed)) == 1.0
        assert wl.int64_safe_share(BIGNUM, BIGNUM.bounds(seed)) == 0.0
        for w in wl.SWEEPS:
            assert w.tuples(w.bounds(seed)) == w.tuples(w.base)


def test_seed_fixes_the_inputs():
    assert RANK2.bounds(7) == RANK2.bounds(7)
    assert wl.DIAGNOSE.inputs(3) == wl.DIAGNOSE.inputs(3)
    assert wl.DIAGNOSE.inputs(3) != wl.DIAGNOSE.inputs(4)
    for classes in wl.DIAGNOSE.inputs(3):
        assert wl.DIAGNOSE.n_min <= len(classes) <= wl.DIAGNOSE.n_max
        assert max(map(abs, classes)) <= wl.DIAGNOSE.m_max


# ------------------------------------------------------------------- gates

TINY = dataclasses.replace(RANK2, base=((-3, 4), (-2, 5)))


def _sweep(workload, bounds, jobs):
    deadline = time.perf_counter() + 60
    return procs.invoke(workload.argv(bounds, jobs), procs.clean_env(), deadline, keep=True)


def _check(workload, bounds, stdout, stderr, seed=0):
    tap = gates.sweep_tap(workload, bounds, seed)
    for i in range(0, len(stdout), 1000):  # chunk edges fall inside lines
        tap.feed(stdout[i:i + 1000])
    return gates.check_sweep(workload, bounds, tap, stderr)


def test_closed_form_matches_the_counting_table():
    bounds = ((-3, 4), (-2, 5))
    counts = {0: 0, 1: 0, 2: 0}
    for c in itertools.product(*(range(lo, hi + 1) for lo, hi in bounds)):
        counts[gates.reference_record(2, 3, c)[0]] += 1
    want = gates.rank2_closed_form(bounds)
    assert want == {"count_0": counts[0], "count_1": counts[1], "count_2": counts[2], "unknown": 0}


def test_gates_pass_on_a_tiny_box_and_md5_agrees_across_jobs():
    bounds = TINY.bounds(5)
    j1, j2 = _sweep(TINY, bounds, 1), _sweep(TINY, bounds, 2)
    assert not j1.failed({0}) and not j2.failed({0})
    assert j1.md5 == j2.md5
    assert _check(TINY, bounds, j1.stdout, j1.stderr, seed=5) == []


def test_gates_catch_wrong_totals_and_wrong_records():
    bounds = TINY.bounds(0)
    out = _sweep(TINY, bounds, 1)
    lines = out.stdout.decode().split("\n")
    summary = json.loads(lines[-2])
    summary["summary"]["count_2"] += 1
    summary["summary"]["count_1"] -= 1
    bad_total = "\n".join(lines[:-2] + [json.dumps(summary), ""]).encode()
    problems = _check(TINY, bounds, bad_total, b"")
    assert any("closed form" in p for p in problems)

    record = json.loads(lines[0])
    record["count"] = 2 if record["count"] != 2 else 1
    bad_record = "\n".join([json.dumps(record)] + lines[1:]).encode()
    problems = _check(TINY, bounds, bad_record, b"")
    assert any("record 0" in p for p in problems)

    res = run.Result()
    run._gate_default_md5(res, "rank2-box", wl.DEFAULT_SEED, out.md5)
    assert res.problems  # a tiny box cannot carry the full box's recorded md5


def test_csv_gate_on_big_integers():
    bounds = ((10**25, 10**25 + 3), (-2 * 10**25, -2 * 10**25 + 2), (10**25 // 7,) * 2)
    out = _sweep(BIGNUM, bounds, 1)
    assert not out.failed({0})
    assert _check(BIGNUM, bounds, out.stdout, out.stderr) == []
    corrupted = out.stdout.replace(b"corank_one", b"stable_range", 1)
    assert _check(BIGNUM, bounds, corrupted, out.stderr)


def test_tap_keeps_wanted_lines_count_and_tail():
    tap = procs.LineTap({0, 2})
    for chunk in (b"a\nb", b"b\nc", b"c\nd\n"):
        tap.feed(chunk)
    assert (tap.lines, tap.count, tap.tail, tap.unterminated) == (
        {0: b"a", 2: b"cc"}, 4, [b"cc", b"d"], b"")


def test_gate_reports_truncated_output():
    out = _sweep(TINY, TINY.bounds(0), 1)
    assert _check(TINY, TINY.bounds(0), out.stdout[:-1], b"")
    assert _check(TINY, TINY.bounds(0), out.stdout[:len(out.stdout) // 2], b"")


def test_box_tuple_is_lexicographic():
    bounds = ((-1, 1), (2, 3), (0, 1))
    box = list(itertools.product(*(range(lo, hi + 1) for lo, hi in bounds)))
    assert [gates.box_tuple(bounds, i) for i in range(len(box))] == box


def test_diagnose_gate_and_crash_is_a_counted_failure():
    deadline = time.perf_counter() + 60
    env = procs.clean_env()
    ok = procs.invoke(wl.DIAGNOSE.argv((5, 6, 0)), env, deadline, keep=True)
    assert not ok.failed({0, 1})
    assert gates.check_diagnose((5, 6, 0), ok.stdout) == []
    assert gates.check_diagnose((5, 6, 0), ok.stdout.replace(b"\n  3 ", b"\n  3 7", 1))
    # the known overflow in oracle.compare_exact_numeric
    crash = procs.invoke(wl.DIAGNOSE.argv((1000,) * 110), env, deadline)
    assert crash.traceback and crash.failed({0, 1})


def test_environment_is_cleaned(monkeypatch):
    monkeypatch.setenv("BUNDLE_CENSUS_BACKEND", "c")
    monkeypatch.setenv("BUNDLE_CENSUS_MAX_TUPLES", "1")
    monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    env = procs.clean_env()
    assert not [k for k in env if k.startswith("BUNDLE_CENSUS_")]
    assert "PYTHONUNBUFFERED" not in env
    assert env["PYTHONPATH"] == str(procs.SRC)


def test_benchmark_json_is_the_manifest():
    on_disk = json.loads((procs.ROOT / "BENCHMARK.json").read_text())
    assert on_disk == run.manifest()


def test_calibration_is_positive():
    cost = tracing.calibrate(reps=2000, rounds=3)
    for inner, outer in cost.values():
        assert inner > 0 and outer > 0


def test_machine_scale_halves_times_on_a_host_twice_as_slow():
    res = run.Result()
    res.metrics = {k: 1.0 for k in run.TIMINGS}
    res.metrics["peak_rss_mb"] = 40.0
    slow = 2 * run.REFERENCE_NOMINAL_S
    run.machine_scale(res, [slow, slow, 9.9, slow, 0.01])
    for k in run.TIMINGS:
        want = 2.0 if k.startswith("tuples_per_s") else 0.5
        assert res.metrics[k] == pytest.approx(want)
        assert res.raw["unscaled"][k] == 1.0
    assert res.metrics["peak_rss_mb"] == 40.0


def test_diagnose_work_is_fixed_by_seconds_not_by_the_clock():
    assert run.diagnose_rounds(30) == 2
    assert run.diagnose_rounds(1) == 1
    assert run.diagnose_rounds(60) == 4


def test_median_p75():
    assert run.median_p75([3.0]) == (3.0, 3.0)
    p50, p75 = run.median_p75([float(v) for v in range(1, 42)])
    assert (p50, p75) == (21.0, 31.0)  # 10 of 41 values lie beyond p75
    assert np.isclose(p50, np.median(range(1, 42)))
