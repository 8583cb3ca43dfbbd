"""Output-correctness gates.  Any problem found fails the run.

Sweep output is checked four ways: one md5 across ``--jobs 1`` and
``--jobs 2`` (and, for the default seed, the md5 recorded in
``expected_md5.json``), summary totals against the box size and, on the
rank-2 box, against the closed form, and a seeded sample of records
against a recomputation with the bignum reference kernel and the README's
counting table.  Diagnose output has every exact B_r recomputed.
"""

from __future__ import annotations

import csv
import json
import random
from fractions import Fraction
from pathlib import Path

from procs import LineTap, reference_kernels

EXPECTED_MD5 = Path(__file__).resolve().parent / "expected_md5.json"
SAMPLE = 300


def reference_record(rank: int, dim: int, classes: tuple[int, ...]):
    """(count, regime, failing, extension) by the README's counting table."""
    if rank == 1:
        return 1, "line_bundle", (), False
    if rank >= dim:
        n, coeffs = rank, classes + (0,) * (rank - len(classes))
    elif dim == rank + 1:
        n, coeffs = rank + 1, classes + (0,)
    else:
        return None, "unsupported", (), False
    failing = tuple((r, f"{num}/{den}")
                    for r, num, den in reference_kernels().schwarz_terms(coeffs, n) if den != 1)
    if rank >= dim:
        return (0 if failing else 1), "stable_range", failing, False
    if failing:
        return 0, "corank_one", failing, False
    if rank % 2 == 1 or classes[0] % 2 == 1:
        return 1, "corank_one", failing, False
    return 2, "corank_one", failing, True


def rank2_closed_form(bounds) -> dict:
    """Totals for rank 2 on CP^3: 0 if c1, c2 both odd; 2 if c1 even; else 1."""
    (a1, b1), (a2, b2) = bounds
    odd1, odd2 = _odd_count(a1, b1), _odd_count(a2, b2)
    n1, n2 = b1 - a1 + 1, b2 - a2 + 1
    return {"count_0": odd1 * odd2, "count_1": odd1 * (n2 - odd2),
            "count_2": (n1 - odd1) * n2, "unknown": 0}


def _odd_count(lo: int, hi: int) -> int:
    return (hi + 1) // 2 - lo // 2


def box_tuple(bounds, index: int) -> tuple[int, ...]:
    """The index-th tuple of the box in lexicographic order."""
    out = []
    for lo, hi in reversed(bounds):
        index, digit = divmod(index, hi - lo + 1)
        out.append(lo + digit)
    return tuple(reversed(out))


def _parse_json(line: str):
    d = json.loads(line)
    failing = tuple((int(f["r"]), f["value"]) for f in d["failing_r"])
    return (tuple(int(c) for c in d["classes"]),
            (d["count"], d["regime"], failing, d["extension"]))


def _parse_csv(line: str):
    classes, count, regime, failing, ext = next(csv.reader([line]))
    pairs = tuple((int(r), v) for r, v in (p.split("=") for p in failing.split(";") if p))
    count = None if count == "unknown" else int(count)
    return (tuple(int(c) for c in classes.split(";")),
            (count, regime, pairs, ext == "true"))


def sweep_tap(workload, bounds, seed: int) -> LineTap:
    """A LineTap that keeps the seeded sample of records to recompute."""
    total = workload.tuples(bounds)
    rng = random.Random(f"sample:{workload.name}:{seed}")
    picks = {0, total - 1, *rng.sample(range(total), min(SAMPLE, total))}
    header = 1 if workload.fmt == "csv" else 0
    return LineTap(i + header for i in picks)


def check_sweep(workload, bounds, tap, stderr: bytes) -> list[str]:
    """Problems in one sweep's output, seen through ``sweep_tap`` (empty if correct)."""
    total = workload.tuples(bounds)
    if tap.unterminated:
        return ["stdout does not end with a newline"]
    try:
        return _check_sweep(workload, bounds, total, tap, stderr)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"unparseable sweep output: {exc!r}"]


def _check_sweep(workload, bounds, total, tap, stderr) -> list[str]:
    if workload.fmt == "json":
        header, parse = 0, _parse_json
        summary = json.loads(tap.tail[-1]).get("summary") if tap.tail else None
    else:
        header, parse = 1, _parse_csv
        summary = _stderr_summary(stderr)
    records = tap.count - 1  # less the json summary line or the csv header
    if records != total:
        return [f"{records} records for a box of {total} tuples"]
    problems = []
    if not summary or summary.get("total") != total:
        problems.append(f"summary {summary} does not report total={total}")
    elif workload.name == "rank2-box":
        want = rank2_closed_form(bounds)
        got = {k: summary.get(k) for k in want}
        if got != want:
            problems.append(f"totals {got} differ from the closed form {want}")
    for line_no in sorted(tap.wanted):
        i = line_no - header
        classes, fields = parse(tap.lines[line_no].decode())
        want_classes = box_tuple(bounds, i)
        if classes != want_classes:
            problems.append(f"record {i} has classes {classes}, expected {want_classes}")
            continue
        want = reference_record(workload.rank, workload.dim, want_classes)
        if fields != want:
            problems.append(f"record {i} {classes}: got {fields}, reference {want}")
    return problems[:5]


def _stderr_summary(stderr: bytes):
    for line in stderr.decode(errors="replace").splitlines():
        if line.startswith("summary: "):
            return {k: int(v) for k, v in (p.split("=") for p in line[9:].split())}
    return None


def check_diagnose(classes: tuple[int, ...], stdout: bytes) -> list[str]:
    """Every exact B_r printed by diagnose against the bignum reference."""
    n = len(classes)
    terms = reference_kernels().schwarz_terms(classes, n)
    want = {r: str(Fraction(num, den)) for r, num, den in terms}
    try:
        got = {int(row.split()[0]): row.split()[1] for row in stdout.decode().splitlines()[2:-1]}
    except (ValueError, IndexError) as exc:
        return [f"unparseable diagnose output: {exc!r}"]
    if got != want:
        bad = sorted(r for r in want.keys() | got.keys() if got.get(r) != want.get(r))
        return [f"diagnose N={n}: exact B_r differs from the reference at r={bad[:5]}"]
    return []


def expected_md5(workload_name: str):
    return json.loads(EXPECTED_MD5.read_text()).get(workload_name)
