"""Sweep output against a reference built one tuple at a time.

The reference, ``run_sweep``, runs ``evaluate_classes`` on every tuple of
``itertools.product``; it is rendered here exactly as the record-at-a-time
CLI did: JSON by ``json.dumps`` of the record's dict, CSV by ``csv.writer``
and the table by its format string.  The chunked sweep must give the same bytes for every
format, chunk size, kernel path and worker count.
"""

import csv
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundle_census import cli, kernels, sweep
from bundle_census.sweep import SweepSpec, iter_box, run_sweep, sweep_chunks


def reference_records(rank, dim, bounds, fmt):
    # run_sweep: evaluate_classes on each tuple of itertools.product
    records = list(run_sweep(SweepSpec(rank, dim, bounds)))
    out = io.StringIO()
    if fmt == "json":
        for rec in records:
            out.write(json.dumps(rec.to_json_dict(), separators=(",", ":")) + "\n")
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        for rec in records:
            writer.writerow([
                ";".join(str(c) for c in rec.classes),
                str(rec.count) if rec.count is not None else "unknown",
                rec.regime,
                ";".join(f"{r}={v}" for r, v in rec.failing),
                "true" if rec.extension else "false",
            ])
    else:
        width = max(20, 3 * len(bounds) * 3)
        for rec in records:
            failing = ";".join(f"{r}={v}" for r, v in rec.failing)
            count = rec.count if rec.count is not None else "unknown"
            out.write(f"{str(rec.classes):<{width}} {count!s:>7} {rec.regime:<13} "
                      f"{failing:<20} {'yes' if rec.extension else 'no'}\n")
    totals = {k: sum(rec.count == k for rec in records) for k in (0, 1, 2)}
    totals[None] = sum(rec.count is None for rec in records)
    return out.getvalue().encode(), totals


def swept(spec, fmt):
    chunks = list(sweep_chunks(spec, fmt))
    totals = {k: sum(chunk.counts[k] for chunk in chunks) for k in (0, 1, 2, None)}
    return b"".join(chunk.data for chunk in chunks), totals


EDGE3 = 1154105  # the largest |c_i| int64_certified admits for S_3
BIG = 2**53      # beyond it JSON writes a class as a string

BOXES = {
    "line_bundle": (1, 4, ((-300, 300),)),
    "stable_range": (3, 2, ((-9, 9), (-9, 9))),
    "corank_one_rank2": (2, 3, ((-12, 12), (-12, 12))),
    "corank_one_rank4": (4, 5, ((-5, 5), (-5, 5), (-2, 2), (0, 2))),
    "unsupported": (3, 6, ((-4, 4), (-4, 4), (0, 3))),
    "straddles_certificate": (2, 3, ((EDGE3 - 2, EDGE3 + 2), (-60, 60))),
    "straddles_negative": (2, 3, ((-EDGE3 - 1, -EDGE3 + 1), (-90, 90))),
    "big_line_bundle": (1, 2, ((BIG - 300, BIG + 300),)),
    "big_classes": (2, 3, ((BIG - 4, BIG + 4), (-(2**70), -(2**70) + 5))),
}


@pytest.mark.parametrize("fmt", sweep.FORMATS)
@pytest.mark.parametrize("box", BOXES)
@pytest.mark.parametrize("chunk", [1, 7, sweep.CHUNK])
def test_matches_reference(box, fmt, chunk, monkeypatch):
    monkeypatch.setattr(sweep, "CHUNK", chunk)
    rank, dim, bounds = BOXES[box]
    assert swept(SweepSpec(rank, dim, bounds), fmt) == reference_records(rank, dim, bounds, fmt)


def test_boxes_cover_both_paths_and_several_chunks(monkeypatch):
    paths = {"batch": 0, "bignum": 0}

    def spy(name, fn):
        def wrapped(*args):
            paths[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(kernels, "schwarz_terms_batch", spy("batch", kernels.schwarz_terms_batch))
    monkeypatch.setattr(kernels, "schwarz_terms", spy("bignum", kernels.schwarz_terms))
    for box in ("straddles_certificate", "straddles_negative"):
        rank, dim, bounds = BOXES[box]
        spec = SweepSpec(rank, dim, bounds)
        assert spec.tuple_count() > 2 * sweep.CHUNK
        before = dict(paths)
        swept(spec, "json")
        assert paths["batch"] > before["batch"] and paths["bignum"] > before["bignum"], box


@pytest.mark.parametrize("box", ["corank_one_rank2", "straddles_certificate", "big_classes"])
def test_two_workers_give_identical_bytes(box, monkeypatch):
    monkeypatch.setattr(sweep, "CHUNK", 16)
    rank, dim, bounds = BOXES[box]
    fmt = "csv" if box == "big_classes" else "json"
    one = list(sweep_chunks(SweepSpec(rank, dim, bounds, jobs=1), fmt))
    two = list(sweep_chunks(SweepSpec(rank, dim, bounds, jobs=2), fmt))
    assert len(one) > 1
    assert one == two


@pytest.mark.parametrize("fmt", sweep.FORMATS)
def test_cli_output_matches_reference(fmt, capsysbinary):
    rank, dim, bounds = BOXES["straddles_certificate"]
    text = ",".join(f"{lo}:{hi}" for lo, hi in bounds)
    assert cli.main(["sweep", "--rank", str(rank), "--dim", str(dim),
                     f"--bounds={text}", "--format", fmt]) == 0
    out, err = capsysbinary.readouterr()
    records, totals = reference_records(rank, dim, bounds, fmt)
    total = sum(totals.values())
    summary = (f"total={total} count_0={totals[0]} count_1={totals[1]} "
               f"count_2={totals[2]} unknown={totals[None]}")
    if fmt == "json":
        want = records + json.dumps({"summary": {
            "total": total, "count_0": totals[0], "count_1": totals[1],
            "count_2": totals[2], "unknown": totals[None]}}, separators=(",", ":")).encode() + b"\n"
    elif fmt == "csv":
        want = b"classes,count,regime,failing_r,extension\n" + records
        assert f"summary: {summary}".encode() in err
    else:
        head = f"{'classes':<20} {'count':>7} {'regime':<13} {'failing':<20} ext\n"
        want = head.encode() + records + summary.encode() + b"\n"
    assert out == want


@given(
    bounds=st.lists(st.tuples(st.integers(-40, 40), st.integers(0, 6)), min_size=1, max_size=4),
    data=st.data(),
)
@settings(max_examples=300)
def test_extent_is_the_largest_class_of_the_range(bounds, data):
    # the int64 path is chosen from this bound, so it must never fall short
    bounds = tuple((lo, lo + width) for lo, width in bounds)
    tuples = list(iter_box(bounds))
    start = data.draw(st.integers(0, len(tuples) - 1))
    stop = data.draw(st.integers(start + 1, len(tuples)))
    want = max(abs(c) for t in tuples[start:stop] for c in t)
    assert sweep._extent(bounds, start, stop) == want
