"""bundle-census benchmark: argv-to-stdout throughput and per-layer cost.

Usage, from the repository root:

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without ``--workload`` every workload runs in turn.  ``--trace 0`` runs the
real CLI as subprocesses (``python -m bundle_census`` with PYTHONPATH=src),
one invocation at a time, gates every output and reports the end-to-end
metrics.  ``--trace 1`` runs the same work in-process with span wrappers
around each module's functions and reports per-layer self times.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
``--manifest`` prints the BENCHMARK.json this file defines.  NOTES.md
explains the workloads, the metrics and the known diagnose crash.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import gates
import procs
import workloads as wl

RUN_SECONDS = 30
HARD_LIMIT_S = 170    # a workload run exits well inside 180 s
SETUP_SAMPLES = 7     # at least this many --version runs per run
DIAGNOSE_SETUP_EVERY = 6
# A diagnose run repeats its seed's round of calls a fixed number of times,
# one round per DIAGNOSE_ROUND_NOMINAL_S of --seconds, so a seed always gives
# the same invocations and the same crashes, however fast the host is.
DIAGNOSE_ROUND_NOMINAL_S = 15
IMPORT_SAMPLES = 5
TRACE_TOLERANCE = 0.15  # allowed |sum of self times / untraced cli.main - 1|
# Timings are scaled to a host on which a fresh ``python -c "import numpy"``
# takes REFERENCE_NOMINAL_S; see machine_scale and NOTES.md.
REFERENCE_CODE = "import numpy"
REFERENCE_NOMINAL_S = 0.15
TIMINGS = ("tuples_per_s_j1", "tuples_per_s_j2", "ttfr_s", "setup_s", "call_s_p50", "call_s_p75")
OUT = Path(__file__).resolve().parent / "out"

# name, unit, better, bound (share of the parent's median it may worsen by).
# The reference VM's host alternates between fast and slow episodes of
# several seconds, up to 1.5x apart, so every timing gets the largest bound
# allowed; NOTES.md has the measurements.
END_TO_END = (
    ("tuples_per_s_j1", "tuples/s", "higher", 0.25),
    ("tuples_per_s_j2", "tuples/s", "higher", 0.25),
    ("ttfr_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("call_s_p50", "s", "lower", 0.25),
    ("call_s_p75", "s", "lower", 0.25),
)

PER_LAYER = (
    ("sweep.iter_box_us", "us/tuple", "lower"),
    ("chern.vector_us", "us/tuple", "lower"),
    ("kernels.schwarz_terms_us", "us/tuple", "lower"),
    ("enumeration.check_self_us", "us/tuple", "lower"),
    ("enumeration.count_self_us", "us/tuple", "lower"),
    ("sweep.evaluate_self_us", "us/tuple", "lower"),
    ("sweep.run_sweep_self_us", "us/tuple", "lower"),
    ("cli.format_write_us", "us/tuple", "lower"),
    ("cli.out_bytes_per_tuple", "bytes/tuple", "lower"),
    ("sweep.parent_cpu_us_j2", "us/tuple", "lower"),
    ("sweep.worker_cpu_us_j2", "us/tuple", "lower"),
    ("sweep.speedup_j2", "ratio", "higher"),
    ("kernels.int64_safe_share", "fraction", "higher"),
    ("enumeration.count0_share", "fraction", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("oracle.numpy_import_ms", "ms", "lower"),
    ("oracle.find_roots_ms", "ms/call", "lower"),
    ("oracle.numeric_ms", "ms/call", "lower"),
    ("symfun.binomial_sum_ms", "ms/call", "lower"),
    ("oracle.compare_self_ms", "ms/call", "lower"),
    ("cli.diagnose_self_ms", "ms/call", "lower"),
    ("trace.overhead_share", "fraction", "lower"),
)
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

# span name -> per-layer metric, self time per tuple
SWEEP_LAYERS = {
    "sweep.iter_box": "sweep.iter_box_us",
    "chern.ChernVector": "chern.vector_us",
    "kernels.schwarz_terms": "kernels.schwarz_terms_us",
    "enumeration.check_schwarzenberger": "enumeration.check_self_us",
    "enumeration.count_bundles": "enumeration.count_self_us",
    "sweep.evaluate_classes": "sweep.evaluate_self_us",
    "sweep.run_sweep": "sweep.run_sweep_self_us",
    "cli.main": "cli.format_write_us",
}
# span name -> per-layer metric, self time per call
DIAGNOSE_LAYERS = {
    "oracle.find_roots": "oracle.find_roots_ms",
    "oracle.binomial_sum_numeric": "oracle.numeric_ms",
    "symfun.binomial_sum": "symfun.binomial_sum_ms",
    "oracle.compare_exact_numeric": "oracle.compare_self_ms",
    "cli.main": "cli.diagnose_self_ms",
}


def manifest() -> dict:
    """The BENCHMARK.json this benchmark defines."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in wl.WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": x}
                       for n, u, b, x in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


class Result:
    """Metrics, invocation counts and gate problems of one run."""

    def __init__(self):
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.raw: dict = {}

    def count(self, invocations, ok_codes) -> list:
        """Tally invocations; return the failed ones."""
        bad = [inv for inv in invocations if inv.failed(ok_codes)]
        self.attempted += len(invocations)
        self.failed += len(bad)
        return bad


def median_p75(values) -> tuple[float, float]:
    """(median, 75th percentile), inclusive method; one value gives it twice."""
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[1], q[2]


# ---------------------------------------------------------------- untraced

def run_sweep_e2e(w, seed, seconds, env, hard) -> Result:
    res = Result()
    bounds = w.bounds(seed)
    total = w.tuples(bounds)
    tap = gates.sweep_tap(w, bounds, seed)
    t_end = time.perf_counter() + seconds
    setups, runs, refs = [], {1: [], 2: []}, []
    order = (1, 2)
    while True:  # reference, --version, then a sweep, at j1 and j2 in alternating order
        t_pair = time.perf_counter()
        for jobs in order:
            refs.append(procs.python_wall(REFERENCE_CODE, env))
            setups.append(procs.invoke(["--version"], env, hard))
            first_j1 = jobs == 1 and not runs[1]
            runs[jobs].append(procs.invoke(w.argv(bounds, jobs), env, hard,
                                           tap=tap if first_j1 else None))
        order = order[::-1]
        if time.perf_counter() + (time.perf_counter() - t_pair) > t_end:
            break
    while len(setups) < SETUP_SAMPLES:
        refs.append(procs.python_wall(REFERENCE_CODE, env))
        setups.append(procs.invoke(["--version"], env, hard))
    sweeps = runs[1] + runs[2]
    _note_failures(res, res.count(setups, {0}) + res.count(sweeps, {0}))
    md5s = Counter(inv.md5 for inv in sweeps)
    if len(md5s) != 1:
        res.problems.append(f"stdout md5 differs across --jobs 1/2: {dict(md5s)}")
    md5 = sweeps[0].md5
    _gate_default_md5(res, w.name, seed, md5)
    res.problems += gates.check_sweep(w, bounds, tap, runs[1][0].stderr)

    j1 = [inv.wall_s for inv in runs[1]]
    p50, p75 = median_p75(j1)
    res.metrics.update({
        "tuples_per_s_j1": total / statistics.mean(j1),
        "tuples_per_s_j2": total / statistics.mean(inv.wall_s for inv in runs[2]),
        "ttfr_s": statistics.mean(inv.first_byte_s for inv in runs[1]),
        "setup_s": statistics.median(inv.wall_s for inv in setups),
        "peak_rss_mb": max(inv.maxrss_kb for inv in setups + sweeps) / 1024,
        "call_s_p50": p50,
        "call_s_p75": p75,
    })
    res.notes.append(f"box {total} tuples, bounds {_short(bounds)}, stdout md5 {md5}")
    res.notes.append(f"invocations: {len(runs[1])} at --jobs 1, {len(runs[2])} at --jobs 2, "
                     f"{len(setups)} of --version; call_s_* over the {len(j1)} at --jobs 1")
    res.raw = {"bounds": [list(map(str, b)) for b in bounds], "md5": md5,
               "wall_j1": j1, "wall_j2": [inv.wall_s for inv in runs[2]],
               "ttfr_j1": [inv.first_byte_s for inv in runs[1]],
               "setup": [inv.wall_s for inv in setups],
               "maxrss_kb_j1": [inv.maxrss_kb for inv in runs[1]],
               "maxrss_kb_j2": [inv.maxrss_kb for inv in runs[2]]}
    machine_scale(res, refs)
    return res


def run_diagnose_e2e(seed, seconds, env, hard) -> Result:
    res = Result()
    inputs = wl.DIAGNOSE.inputs(seed)
    rounds = diagnose_rounds(seconds)
    setups, calls, refs = [], [], []
    for _ in range(rounds):  # the seed's calls, a reference and --version every few
        for i, c in enumerate(inputs):
            if i % DIAGNOSE_SETUP_EVERY == 0:
                refs.append(procs.python_wall(REFERENCE_CODE, env))
                setups.append(procs.invoke(["--version"], env, hard))
            calls.append((c, procs.invoke(wl.DIAGNOSE.argv(c), env, hard, keep=True)))
    _note_failures(res, res.count(setups, {0}) + res.count([inv for _, inv in calls], {0, 1}))
    ok = [(c, inv) for c, inv in calls if not inv.failed({0, 1})]
    for c, inv in ok:
        res.problems += gates.check_diagnose(c, inv.stdout)
    walls = [inv.wall_s for _, inv in ok]
    loop_s = sum(inv.wall_s for _, inv in calls)
    p50, p75 = median_p75(walls)
    rate = len(ok) / loop_s
    res.metrics.update({
        "tuples_per_s_j1": rate,
        "tuples_per_s_j2": rate,
        "ttfr_s": statistics.mean(inv.first_byte_s for _, inv in ok),
        "setup_s": statistics.median(inv.wall_s for inv in setups),
        "peak_rss_mb": max(inv.maxrss_kb for inv in setups + [i for _, i in calls]) / 1024,
        "call_s_p50": p50,
        "call_s_p75": p75,
    })
    res.notes.append(f"{rounds} rounds, {len(calls)} calls, {len(ok)} completed; call_s_* over those {len(ok)}; "
                     "diagnose has no --jobs, so tuples_per_s_j2 reads the same loop as _j1")
    res.raw = {"n": [len(c) for c, _ in calls], "wall": [inv.wall_s for _, inv in calls],
               "ttfr": [inv.first_byte_s for _, inv in calls],
               "failed": [inv.failed({0, 1}) for _, inv in calls],
               "setup": [inv.wall_s for inv in setups]}
    machine_scale(res, refs)
    return res


def diagnose_rounds(seconds: float) -> int:
    """Rounds of diagnose calls a run of ``seconds`` makes; fixed, not timed."""
    return max(1, round(seconds / DIAGNOSE_ROUND_NOMINAL_S))


def machine_scale(res: Result, refs) -> None:
    """Scale every timing of the run to a host of nominal speed.

    The reference VM's host speeds up and slows down by up to 1.5x over
    minutes, which moves every timing of a run together.  A fresh
    ``python -c "import numpy"``, sampled next to each ``--version``, runs
    none of the program's code and moves with the host: times are scaled
    by REFERENCE_NOMINAL_S / median(reference), rates by its inverse.  The
    unscaled values stay in the notes and the results file.
    """
    ref = statistics.median(refs)
    factor = REFERENCE_NOMINAL_S / ref
    res.raw["reference_s"] = refs
    res.raw["unscaled"] = {k: res.metrics[k] for k in TIMINGS}
    res.notes.append(f"reference {REFERENCE_CODE!r}: median {ref:.4f} s of {len(refs)}; "
                     f"timings scaled by {factor:.4f}; unscaled: "
                     + ", ".join(f"{k} {res.metrics[k]:.6g}" for k in TIMINGS))
    for k in TIMINGS:
        res.metrics[k] *= 1 / factor if k.startswith("tuples_per_s") else factor


def _note_failures(res: Result, bad) -> None:
    causes = Counter(_cause(inv.stderr) for inv in bad)
    for cause, n in causes.items():
        res.notes.append(f"failed x{n}: {cause}")


def _cause(stderr: bytes) -> str:
    lines = stderr.decode(errors="replace").strip().splitlines()
    return lines[-1] if lines else "no message"


def _gate_default_md5(res: Result, name: str, seed: int, md5: str) -> None:
    if seed != wl.DEFAULT_SEED:
        return
    want = gates.expected_md5(name)
    if want != md5:
        res.problems.append(f"default-seed stdout md5 {md5} differs from the recorded {want}")


def _short(bounds) -> str:
    return ",".join(f"{lo}:{hi}" for lo, hi in bounds)


# ------------------------------------------------------------------ traced

def import_costs(env) -> dict:
    """Fresh-interpreter import times, each minus a bare ``python -c pass``."""
    samples = {"pass": [], "import bundle_census.cli": [], "import numpy": []}
    for _ in range(IMPORT_SAMPLES):
        for code in samples:
            samples[code].append(procs.python_wall(code, env))
    med = {code: statistics.median(v) for code, v in samples.items()}
    return {"cli.import_ms": (med["import bundle_census.cli"] - med["pass"]) * 1e3,
            "oracle.numpy_import_ms": (med["import numpy"] - med["pass"]) * 1e3}


def trace_sweep(w, seed, env, hard) -> Result:
    from bundle_census import cli, enumeration, kernels, sweep
    import tracing

    res = Result()
    bounds = w.bounds(seed)
    total = w.tuples(bounds)
    argv = w.argv(bounds, 1)
    res.metrics.update(import_costs(env))

    plain = tracing.call_main(cli.main, argv)
    timings = {}
    for jobs in (1, 2):
        spec = sweep.SweepSpec(w.rank, w.dim, bounds, jobs=jobs)
        self0 = resource.getrusage(resource.RUSAGE_SELF)
        kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        count0 = sum(rec.count == 0 for rec in sweep.run_sweep(spec))
        timings[jobs] = (time.perf_counter() - t0, count0,
                         _cpu(resource.getrusage(resource.RUSAGE_SELF)) - _cpu(self0),
                         _cpu(resource.getrusage(resource.RUSAGE_CHILDREN)) - _cpu(kids0))

    overhead = tracing.calibrate()
    tracer = tracing.Tracer()
    points = [(cli, "run_sweep", "sweep.run_sweep", True),
              (sweep, "iter_box", "sweep.iter_box", True),
              (sweep, "evaluate_classes", "sweep.evaluate_classes", False),
              (sweep, "ChernVector", "chern.ChernVector", False),
              (sweep, "count_bundles", "enumeration.count_bundles", False),
              (enumeration, "check_schwarzenberger", "enumeration.check_schwarzenberger", False),
              (kernels, "schwarz_terms", "kernels.schwarz_terms", False)]
    with tracing.patched(tracer, points):
        traced = tracing.call_main(tracer.wrap("cli.main", cli.main), argv)
    after = tracing.call_main(cli.main, argv)  # brackets the traced call against drift

    calls = (plain, traced, after)
    res.attempted, res.failed = 3, sum(c.code != 0 or c.exc is not None for c in calls)
    tap = gates.sweep_tap(w, bounds, seed)
    tap.feed(plain.stdout)
    res.problems += gates.check_sweep(w, bounds, tap, plain.stderr.encode())
    if not plain.stdout == traced.stdout == after.stdout:
        res.problems.append("traced stdout differs from the untraced stdout")
    _gate_default_md5(res, w.name, seed, hashlib.md5(plain.stdout).hexdigest())

    own = tracer.self_ns(overhead)
    for span, metric in SWEEP_LAYERS.items():
        res.metrics[metric] = own[span] / total / 1e3
    (wall1, count0, _, _), (wall2, _, parent_cpu, worker_cpu) = timings[1], timings[2]
    res.metrics.update({
        "cli.out_bytes_per_tuple": len(plain.stdout) / total,
        "sweep.parent_cpu_us_j2": parent_cpu / total * 1e6,
        "sweep.worker_cpu_us_j2": worker_cpu / total * 1e6,
        "sweep.speedup_j2": wall1 / wall2,
        "kernels.int64_safe_share": wl.int64_safe_share(w, bounds),
        "enumeration.count0_share": count0 / total,
    })
    _trace_check(res, tracer, own, (plain.wall_s + after.wall_s) / 2, traced.wall_s)
    res.notes.append(f"in-process run_sweep: {wall1:.3f} s at jobs 1, {wall2:.3f} s at jobs 2")
    _save_spans(tracer, w.name)
    return res


def trace_diagnose(seed, env, hard) -> Result:
    from bundle_census import cli, oracle
    import tracing

    res = Result()
    inputs = wl.DIAGNOSE.inputs(seed)
    argvs = [wl.DIAGNOSE.argv(c) for c in inputs]
    res.metrics.update(import_costs(env))

    overhead = tracing.calibrate()
    tracer = tracing.Tracer()
    root = tracer.wrap("cli.main", cli.main)
    points = [(cli, "compare_exact_numeric", "oracle.compare_exact_numeric", False),
              (oracle, "find_roots", "oracle.find_roots", False),
              (oracle, "binomial_sum_numeric", "oracle.binomial_sum_numeric", False),
              (oracle, "binomial_sum", "symfun.binomial_sum", False)]
    plain, traced = [], []
    for a in argvs:  # untraced and traced calls alternate, so drift hits both alike
        plain.append(tracing.call_main(cli.main, a))
        with tracing.patched(tracer, points):
            traced.append(tracing.call_main(root, a))

    calls = len(inputs)
    res.attempted = 2 * calls
    crashed = [c for c in plain + traced if c.exc is not None or c.code not in (0, 1)]
    res.failed = len(crashed)
    for cause, n in Counter(f"{type(c.exc).__name__}: {c.exc}" for c in crashed).items():
        res.notes.append(f"failed x{n}: {cause}")
    ok_bytes = []
    for classes, p, t in zip(inputs, plain, traced):
        if p.exc is None:
            res.problems += gates.check_diagnose(classes, p.stdout)
            ok_bytes.append(len(p.stdout))
        if p.stdout != t.stdout:
            res.problems.append("traced diagnose output differs from the untraced output")

    own = tracer.self_ns(overhead)
    for span, metric in DIAGNOSE_LAYERS.items():
        res.metrics[metric] = own[span] / calls / 1e6
    res.metrics.update({
        "cli.out_bytes_per_tuple": statistics.mean(ok_bytes),
        "kernels.int64_safe_share": sum(map(wl.is_int64_safe, inputs)) / calls,
    })
    _trace_check(res, tracer, own, sum(p.wall_s for p in plain), sum(t.wall_s for t in traced))
    res.notes.append("ms/call averages over all calls, crashed ones included")
    _save_spans(tracer, wl.DIAGNOSE.name)
    return res


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _trace_check(res: Result, tracer, own: dict, plain_s: float, traced_s: float) -> None:
    """Note whether the self times add up to the untraced cli.main time.

    A note, not a gate: it judges the tracer, not the program's output.
    """
    summed = sum(own.values()) / 1e9
    share = summed / plain_s - 1
    res.metrics["trace.overhead_share"] = traced_s / plain_s - 1
    verdict = "within" if abs(share) <= TRACE_TOLERANCE else "OUTSIDE"
    res.notes.append(f"self times sum to {summed:.3f} s against {plain_s:.3f} s untraced "
                     f"cli.main ({share:+.1%}, {verdict} the {TRACE_TOLERANCE:.0%} tolerance); "
                     f"{len(tracer.start)} spans, tracer cost per span taken out")


def _save_spans(tracer, name: str) -> None:
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{name}.npz")


# -------------------------------------------------------------------- main

def machine() -> dict:
    env = procs.clean_env()
    info = {"cores": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine()}
    info.update(procs.program_info(env, time.perf_counter() + 60))
    return info


def run_one(name: str, seed: int, seconds: float, trace: int) -> Result:
    hard = time.perf_counter() + HARD_LIMIT_S
    env = procs.clean_env()
    w = wl.WORKLOADS[name]
    # unmeasured: fills the bytecode cache, which an installed package ships with
    procs.invoke(["--version"], env, hard)
    if trace:
        res = trace_diagnose(seed, env, hard) if w is wl.DIAGNOSE else trace_sweep(w, seed, env, hard)
        wanted = [n for n, *_ in PER_LAYER]
    else:
        res = (run_diagnose_e2e(seed, seconds, env, hard) if w is wl.DIAGNOSE
               else run_sweep_e2e(w, seed, seconds, env, hard))
        wanted = [n for n, *_ in END_TO_END]
    # a layer this workload never enters spends no time there
    res.metrics = {n: float(res.metrics.get(n, 0.0)) for n in wanted}
    return res


def report(name: str, seed: int, trace: int, res: Result, info: dict) -> None:
    print(f"== {name}  seed={seed}  trace={trace}")
    for metric, value in res.metrics.items():
        print(f"  {metric:<28} {value:>14.6g} {UNITS[metric]}")
    share = res.failed / res.attempted if res.attempted else 0.0
    print(f"  {'failed_share':<28} {share:>14.6g} fraction "
          f"({res.failed} of {res.attempted} invocations)")
    for note in res.notes:
        print(f"  note: {note}")
    for problem in res.problems:
        print(f"  GATE FAILED: {problem}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps({
        "machine": info, "workload": name, "seed": seed, "trace": trace,
        "metrics": res.metrics, "attempted": res.attempted, "failed": res.failed,
        "problems": res.problems, "notes": res.notes, "raw": res.raw}, indent=1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS),
                        help="run one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--manifest", action="store_true",
                        help="print the BENCHMARK.json this benchmark defines and exit")
    args = parser.parse_args(argv)
    if args.manifest:
        print(json.dumps(manifest(), indent=2))
        return 0
    if not (procs.SRC / "bundle_census" / "__init__.py").is_file():
        print(f"error: no program source at {procs.SRC}", file=sys.stderr)
        return 2
    # the harness imports the program for reference checks and traced runs;
    # it sees the same environment as the subprocesses
    for key in [k for k in os.environ if k.startswith("BUNDLE_CENSUS_")]:
        del os.environ[key]
    sys.path.insert(0, str(procs.SRC))

    names = [args.workload] if args.workload else list(wl.WORKLOADS)
    info = machine()
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    results = {}
    try:
        for name in names:
            results[name] = run_one(name, args.seed, args.seconds, args.trace)
            report(name, args.seed, args.trace, results[name], info)
    except procs.RunAborted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    correct = all(not r.problems for r in results.values())
    if len(names) == 1:
        metrics = {m: {"value": v, "unit": UNITS[m]} for m, v in results[names[0]].metrics.items()}
    else:
        metrics = {f"{n}/{m}": {"value": v, "unit": UNITS[m]}
                   for n, r in results.items() for m, v in r.metrics.items()}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r.attempted for r in results.values()),
                      "failed": sum(r.failed for r in results.values()),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
