"""Acceptance suite.

One test per acceptance criterion; each prints a single pass/fail line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them).  Bounds,
sample sizes, tolerances and time budgets are pinned here and nowhere
else.
"""

import json
import random
import subprocess
import sys
import time

from bundle_census import (
    ChernVector,
    binomial_sum_numeric,
    compare_exact_numeric,
    count_bundles,
    dual,
    exists_rank_n_on_cp_n_plus_1,
    find_roots,
    from_line_bundles,
    twist_by_line,
)
from bundle_census.sweep import SweepSpec, chunk_tuples
from conftest import child_env


def report(number, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def test_criterion_1_rank_two_existence_parity():
    """Existence for rank 2 on CP^3 is exactly 'c1*c2 even' on the +-20 box."""
    start = time.perf_counter()
    mismatches = 0
    for index, (c1, c2) in enumerate(
        (a, b) for a in range(-20, 21) for b in range(-20, 21)
    ):
        verdict = exists_rank_n_on_cp_n_plus_1(ChernVector(2, 3, (c1, c2))).satisfied
        if verdict != (c1 * c2 % 2 == 0):
            mismatches += 1
        if index % 37 == 0:
            # numeric cross-check on a subsample: near-integrality of the
            # floating B_r values must tell the same story (denominators
            # here are at most 6, far beyond float noise)
            roots = find_roots((c1, c2, 0))
            numeric = all(
                abs((v := binomial_sum_numeric((c1, c2, 0), r, roots)).real - round(v.real)) < 1e-6
                for r in (2, 3)
            )
            if roots.reliable and numeric != verdict:
                mismatches += 1
    elapsed = time.perf_counter() - start
    report(
        1,
        "rank-2 existence matches the parity closed form on 1681 tuples",
        mismatches == 0 and elapsed < 5.0,
        f"mismatches={mismatches}, {elapsed:.2f}s",
    )


def test_criterion_2_count_table():
    """Counts: 2 iff c1 even for n=2; always 1 for n=3 satisfying tuples."""
    bad = 0
    for c1 in range(-20, 21):
        for c2 in range(-20, 21):
            result = count_bundles(ChernVector(2, 3, (c1, c2)))
            if result.count == 0:
                continue
            if (result.count == 2) != (c1 % 2 == 0):
                bad += 1
    rng = random.Random(1731)
    found = 0
    while found < 500:
        classes = tuple(rng.randint(-20, 20) for _ in range(3))
        vector = ChernVector(3, 4, classes)
        if not exists_rank_n_on_cp_n_plus_1(vector).satisfied:
            continue
        found += 1
        if count_bundles(vector).count != 1:
            bad += 1
    report(2, "count table: 2 iff both parities even (n=2), 1 for n=3", bad == 0,
           f"violations={bad}")


def test_criterion_3_line_bundle_sums_exist():
    """1000 random sums of line bundles always satisfy the condition."""
    rng = random.Random(8128)
    start = time.perf_counter()
    failures = 0
    for _ in range(1000):
        n = rng.randint(2, 10)
        degrees = [rng.randint(-10, 10) for _ in range(n)]
        vector = from_line_bundles(degrees, n + 1)
        result = count_bundles(vector)
        if not exists_rank_n_on_cp_n_plus_1(vector).satisfied:
            failures += 1
        elif result.count is None or result.count < 1:
            failures += 1
    elapsed = time.perf_counter() - start
    report(3, "1000 line-bundle sums all exist with count >= 1",
           failures == 0 and elapsed < 10.0, f"failures={failures}, {elapsed:.2f}s")


def test_criterion_4_twist_dual_invariance():
    """Existence verdict never changes under twisting or dualizing."""
    rng = random.Random(65537)
    violations = 0
    for _ in range(1000):
        n = rng.randint(1, 8)
        classes = tuple(rng.randint(-6, 6) for _ in range(n))
        d = rng.randint(-4, 4)
        vector = ChernVector(n, n + 1, classes)
        base = exists_rank_n_on_cp_n_plus_1(vector).satisfied
        if exists_rank_n_on_cp_n_plus_1(twist_by_line(vector, d)).satisfied != base:
            violations += 1
        if exists_rank_n_on_cp_n_plus_1(dual(vector)).satisfied != base:
            violations += 1
    report(4, "twist and dual invariance of existence on 1000 samples",
           violations == 0, f"violations={violations}")


def test_criterion_5_exact_vs_numeric():
    """Exact and numeric binomial sums agree within scaled 1e-6."""
    rng = random.Random(424242)
    disagreements = 0
    flagged = 0
    compared = 0
    for _ in range(5000):
        n = rng.randint(1, 8)
        coeffs = tuple(rng.randint(-8, 8) for _ in range(n))
        _, rows = compare_exact_numeric(coeffs, range(1, n + 2))
        for row in rows:
            if row.flagged:
                flagged += 1
                continue
            compared += 1
            if row.difference >= row.tolerance:
                disagreements += 1
    total = compared + flagged
    ok = disagreements == 0 and flagged < total * 0.01
    report(5, "exact vs numeric agreement on 5000 sampled tuples", ok,
           f"disagreements={disagreements}, flagged={flagged}/{total}")


def test_criterion_6_vanishing_classes():
    """Zero Chern classes: two bundles for even rank, one for odd."""
    bad = []
    for n in (2, 4, 6, 8):
        result = count_bundles(ChernVector(n, n + 1, (0,) * n))
        if result.count != 2 or not result.report.satisfied:
            bad.append(n)
    for n in (1, 3, 5, 7):
        result = count_bundles(ChernVector(n, n + 1, (0,) * n))
        if result.count != 1 or (result.report is not None and not result.report.satisfied):
            bad.append(n)
    report(6, "vanishing classes give counts 2/1 by rank parity", not bad,
           f"bad ranks={bad}" if bad else "")


def test_criterion_7_sweep_determinism():
    """Sweep output is byte-identical at 1 and 8 workers."""
    # at least one chunk per lane, so that --jobs 8 runs all 8 lanes
    spec = SweepSpec(2, 3, ((-50, 50), (-50, 50)))
    chunks = len(range(0, spec.tuple_count(), chunk_tuples(spec)))
    assert chunks >= 8, f"{chunks} chunks start fewer than 8 lanes"
    args = [sys.executable, "-m", "bundle_census", "sweep",
            "--rank", "2", "--dim", "3", "--bounds", "-50:50,-50:50",
            "--format", "json"]
    single = subprocess.run(args + ["--jobs", "1"], capture_output=True, env=child_env(), timeout=300)
    multi = subprocess.run(args + ["--jobs", "8"], capture_output=True, env=child_env(), timeout=300)
    identical = single.stdout == multi.stdout
    ran = single.returncode == 0 and multi.returncode == 0
    lines = single.stdout.decode().splitlines()
    summary = json.loads(lines[-1])["summary"] if lines else {}
    report(7, "sweep byte-identical at 1 and 8 workers", ran and identical,
           f"records={summary.get('total', '?')}, chunks={chunks}")
