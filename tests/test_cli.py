"""CLI contract: exit codes, formats, determinism, malformed argv."""

import contextlib
import errno
import fcntl
import io
import json
import os
import random
import signal
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bundle_census
from bundle_census import (
    ChernVector,
    check_schwarzenberger,
    cli,
    count_bundles,
    elementary_symmetric,
    sweep,
)
from bundle_census.sweep import (
    MAX_JOBS,
    SweepSpec,
    parse_bounds,
    sweep_chunks,
)
from conftest import child_env


def run_cli(*args, env=None, stdout=subprocess.PIPE, text=True):
    return subprocess.run(
        [sys.executable, "-m", "bundle_census", *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=text,
        env=child_env(env),
        timeout=120,
    )


class TestCheckCommand:
    def test_satisfied_exits_zero(self):
        proc = run_cli("check", "--classes", "0,0,0", "--N", "3")
        assert proc.returncode == 0
        assert "satisfied" in proc.stdout

    def test_unsatisfied_exits_one(self):
        proc = run_cli("check", "--classes", "1,1,0", "--N", "3")
        assert proc.returncode == 1
        assert "1/2" in proc.stdout
        assert "NOT integral" in proc.stdout

    def test_integer_root_construction(self):
        proc = run_cli("check", "--classes", "5,6,0", "--N", "3")
        assert proc.returncode == 0

    def test_malformed_classes(self):
        proc = run_cli("check", "--classes", "1,x,3")
        assert proc.returncode == 2
        assert "error" in proc.stderr.lower()

    def test_no_implicit_padding(self):
        proc = run_cli("check", "--classes", "1,1", "--N", "3")
        assert proc.returncode == 2

    def test_defaults_to_length(self):
        proc = run_cli("check", "--classes", "5,6")
        assert proc.returncode == 0


class TestCountCommand:
    def test_count_two_with_note(self):
        proc = run_cli("count", "--rank", "2", "--dim", "3", "--classes", "0,0")
        assert proc.returncode == 0
        assert "count: 2" in proc.stdout
        assert "exactly one" in proc.stdout and "CP^4" in proc.stdout

    def test_count_two_where_neither_class_extends(self):
        proc = run_cli("count", "--rank", "2", "--dim", "3", "--classes", "0,1")
        assert proc.returncode == 0
        assert "count: 2" in proc.stdout
        (note,) = [line for line in proc.stdout.splitlines() if line.startswith("note: ")]
        assert "neither" in note and "CP^4" in note and "r = 4" in note
        assert "exactly one" not in note and "B_" not in note

    def test_odd_first_class(self):
        proc = run_cli("count", "--rank", "4", "--dim", "5", "--classes", "1,0,0,0")
        assert proc.returncode == 0
        assert "count: 1" in proc.stdout

    def test_unsupported_regime(self):
        proc = run_cli("count", "--rank", "3", "--dim", "6", "--classes", "1,2,3")
        assert proc.returncode == 0
        assert "count: unknown" in proc.stdout
        assert "unsupported" in proc.stdout

    def test_stable_range_tests_the_condition_of_the_dimension(self):
        # rank 2 on CP^2 with classes (1, 1) exists, and so does its sum with O
        proc = run_cli("count", "--rank", "3", "--dim", "2", "--classes", "1,1")
        assert proc.returncode == 0
        assert "count: 1" in proc.stdout.splitlines()

    def test_nonexistent_tuple_shows_failure(self):
        proc = run_cli("count", "--rank", "2", "--dim", "3", "--classes", "1,1")
        assert proc.returncode == 0
        assert "count: 0" in proc.stdout
        assert "1/2" in proc.stdout

    def test_wrong_class_count(self):
        proc = run_cli("count", "--rank", "2", "--dim", "3", "--classes", "1,2,3,4")
        assert proc.returncode == 2

    @pytest.mark.parametrize("rank, dim, message", [
        (2, 3, "expected 2 classes for rank 2 on CP^3, got 1"),
        (4, 3, "expected 3 classes for rank 4 on CP^3 (or all 4), got 1"),
    ], ids=["stores_every_class", "stores_fewer_than_rank"])
    def test_wrong_class_count_is_named(self, rank, dim, message, capsys):
        # all rank classes are accepted too only where the dimension drops some
        assert cli.main(["count", "--rank", str(rank), "--dim", str(dim), "--classes", "1"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


# the CLI prints from ``counting`` and ``kernels`` directly; these render the
# same lines from the dataclass API, so that the two cannot drift apart
def count_text(rank, dim, classes):
    v = ChernVector(rank, dim, classes)
    result = count_bundles(v)
    lines = [f"rank {rank} bundle on CP^{dim} with classes {v.classes}",
             f"count: {result.count if result.known else 'unknown'}",
             f"regime: {result.regime}"]
    if result.count == 0 and result.report is not None:
        lines += [f"  fails at r = {t.r}: B_r = {t.value}" for t in result.report.failing()]
    if result.extension_note:
        lines.append(f"note: {result.extension_note}")
    return "".join(line + "\n" for line in lines).encode()


def check_text(classes, N):
    report = check_schwarzenberger(classes, N)
    lines = [f"S_{N} for classes {tuple(classes)}"]
    lines += [f"  r = {t.r:<3d} B_r = {str(t.value):<12s} "
              f"{'integral' if t.integral else 'NOT integral'}" for t in report.values]
    lines.append(f"S_{N} {'satisfied' if report.satisfied else 'not satisfied'}")
    return "".join(line + "\n" for line in lines).encode(), 0 if report.satisfied else 1


# (rank, dim) in each regime: line bundle, stable range, corank one, unsupported
REGIMES = st.one_of(
    st.tuples(st.just(1), st.integers(1, 7)),
    st.integers(1, 6).flatmap(lambda dim: st.tuples(st.integers(dim, 7), st.just(dim))),
    st.integers(2, 6).map(lambda rank: (rank, rank + 1)),
    st.integers(2, 4).flatmap(lambda rank: st.tuples(st.just(rank), st.integers(rank + 2, 7))),
)


def classes_of(length):
    """Small classes, those of a sum of line bundles (which exist), or classes up to 10^30."""
    return st.one_of(
        st.lists(st.integers(-9, 9), min_size=length, max_size=length),
        st.lists(st.integers(-4, 4), min_size=length, max_size=length).map(elementary_symmetric),
        st.lists(st.integers(-10**30, 10**30), min_size=length, max_size=length),
    ).map(tuple)


@given(data=st.data())
@settings(max_examples=300)
def test_count_prints_what_the_dataclass_api_gives(data):
    rank, dim = data.draw(REGIMES)
    # a rank-2 bundle on CP^3 with even c_1 has two classes, which S_4 lets
    # extend for some c_2 and not for others
    if data.draw(st.integers(0, 3)) == 0:
        rank, dim = 2, 3
        classes = (2 * data.draw(st.integers(-9, 9)), data.draw(st.integers(-9, 9)))
    else:  # all rank classes are accepted too, their tail dropped
        length = data.draw(st.sampled_from(sorted({min(rank, dim), rank})))
        classes = data.draw(classes_of(length))
    argv = ["count", "--rank", str(rank), "--dim", str(dim),
            "--classes", ",".join(map(str, classes))]
    assert run_main(argv) == (0, count_text(rank, dim, classes), "")


@given(N=st.integers(1, 7), data=st.data())
@settings(max_examples=300)
def test_check_prints_what_the_dataclass_api_gives(N, data):
    classes = data.draw(classes_of(N))
    text, code = check_text(classes, N)
    argv = ["check", "--classes", ",".join(map(str, classes)), "--N", str(N)]
    assert run_main(argv) == (code, text, "")


class TestSweepCommand:
    def test_rank_two_parity_pattern(self):
        proc = run_cli("sweep", "--rank", "2", "--dim", "3",
                       "--bounds", "-2:2,-2:2", "--format", "json")
        assert proc.returncode == 0
        *records, summary = [json.loads(line) for line in proc.stdout.splitlines()]
        assert summary["summary"]["total"] == 25
        for rec in records:
            c1, c2 = rec["classes"]
            assert (rec["count"] == 0) == (c1 * c2 % 2 == 1)

    def test_line_bundle_sweep_all_one(self):
        proc = run_cli("sweep", "--rank", "1", "--dim", "4",
                       "--bounds", "-3:3", "--format", "json")
        *records, summary = [json.loads(line) for line in proc.stdout.splitlines()]
        assert len(records) == 7
        assert all(rec["count"] == 1 for rec in records)
        assert summary["summary"]["count_1"] == 7

    def test_lexicographic_order(self):
        proc = run_cli("sweep", "--rank", "2", "--dim", "3",
                       "--bounds", "0:1,0:1", "--format", "json")
        *records, _ = [json.loads(line) for line in proc.stdout.splitlines()]
        assert [rec["classes"] for rec in records] == [[0, 0], [0, 1], [1, 0], [1, 1]]

    def test_empty_interval_rejected(self, capsys):
        assert cli.main(["sweep", "--rank", "2", "--dim", "3", "--bounds", "2:1,0:1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: empty interval [2, 1]\n"

    def test_malformed_bounds_rejected(self):
        proc = run_cli("sweep", "--rank", "2", "--dim", "3", "--bounds", "1,2")
        assert proc.returncode == 2

    @pytest.mark.parametrize("piece", ["1:2:3", "a:1"])
    def test_malformed_interval_is_named(self, piece, capsys):
        assert cli.main(["sweep", "--rank", "2", "--dim", "3", "--bounds", f"{piece},0:1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: interval '{piece}' is not of the form lo:hi\n"

    def test_oversize_box_refused(self):
        proc = run_cli("sweep", "--rank", "2", "--dim", "3",
                       "--bounds", "-2:2,-2:2", "--max-tuples", "10")
        assert proc.returncode == 2
        assert "cap" in proc.stderr

    @pytest.mark.parametrize("fmt", sweep.FORMATS)
    def test_oversize_box_writes_nothing(self, fmt, capsysbinary):
        # refused before the header line, like every other usage error
        assert cli.main(["sweep", "--rank", "2", "--dim", "3", "--bounds", "-2:2,-2:2",
                         "--max-tuples", "10", "--format", fmt]) == 2
        out, err = capsysbinary.readouterr()
        assert out == b""
        assert err.decode().startswith("error: box holds 25 tuples, above the cap of 10")

    @pytest.mark.parametrize("cap", [None, "10", str(2**62), str(2**70)])
    def test_box_past_2_62_tuples_is_refused_at_any_cap(self, cap, capsysbinary):
        # 2^62 + 1 tuples: past them a linear index would leave int64
        argv = ["sweep", "--rank", "1", "--dim", "2", "--bounds", f"0:{2**62}"]
        assert cli.main(argv + (["--max-tuples", cap] if cap else [])) == 2
        out, err = capsysbinary.readouterr()
        assert out == b""
        assert err == f"error: box holds {2**62 + 1} tuples, above the 2^62 a sweep can index\n".encode()

    def test_too_many_jobs_rejected(self, capsys):
        # in-process: the spec is refused before any worker could start
        code = cli.main(["sweep", "--rank", "2", "--dim", "3",
                         "--bounds", "0:1,0:1", "--jobs", str(MAX_JOBS + 1)])
        assert code == 2
        assert f"between 1 and {MAX_JOBS}" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_max_tuples_below_one_is_named(self, cap, capsysbinary):
        assert cli.main(["sweep", "--rank", "2", "--dim", "3", "--bounds", "-2:2,-2:2",
                         "--max-tuples", cap]) == 2
        out, err = capsysbinary.readouterr()
        assert out == b""
        assert err == f"error: max_tuples must be >= 1, got {cap}\n".encode()

    def test_csv_shape(self):
        proc = run_cli("sweep", "--rank", "2", "--dim", "3",
                       "--bounds", "1:1,1:1", "--format", "csv")
        lines = proc.stdout.splitlines()
        assert lines[0] == "classes,count,regime,failing_r,extension"
        assert lines[1] == "1;1,0,corank_one,3=1/2,false"

    def test_deterministic_across_workers(self):
        # 7 chunks, so every one of the 4 lanes has work
        args = ("sweep", "--rank", "2", "--dim", "3",
                "--bounds", "-20:20,-20:20", "--format", "json")
        single = run_cli(*args, "--jobs", "1")
        multi = run_cli(*args, "--jobs", "4")
        assert single.returncode == multi.returncode == 0
        assert single.stdout == multi.stdout

    def test_table_shape(self):
        proc = run_cli("sweep", "--rank", "2", "--dim", "3",
                       "--bounds", "0:1,1:1", "--format", "table")
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == [
            "classes                count regime        failing              ext",
            "(0, 1)                     2 corank_one                         yes",
            "(1, 1)                     0 corank_one    3=1/2                no",
            "total=2 count_0=1 count_1=0 count_2=1 unknown=0",
        ]

    def test_reader_closing_early_exits_cleanly(self):
        # enough output to fill the pipe, so writes fail once the reader is gone
        for jobs in ("1", "2"):
            with subprocess.Popen(
                [sys.executable, "-m", "bundle_census", "sweep", "--rank", "2", "--dim", "3",
                 "--bounds=-100:100,-100:100", "--format", "json", "--jobs", jobs],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
            ) as proc:
                assert proc.stdout.readline().startswith(b'{"classes":[-100,-100]')
                proc.stdout.close()
                err = proc.stderr.read()
                assert proc.wait(timeout=120) == 0
            assert b"Traceback" not in err and b"Exception" not in err, err

    def test_stable_range_sweep(self):
        proc = run_cli("sweep", "--rank", "3", "--dim", "2",
                       "--bounds", "0:1,0:1", "--format", "json")
        *records, _ = [json.loads(line) for line in proc.stdout.splitlines()]
        assert {rec["regime"] for rec in records} == {"stable_range"}


class TestDiagnoseCommand:
    def test_integer_roots_agree(self):
        proc = run_cli("diagnose", "--classes", "5,6,0", "--N", "3")
        assert proc.returncode == 0
        assert "agree" in proc.stdout

    def test_half_value_agrees(self):
        proc = run_cli("diagnose", "--classes", "1,1,0")
        assert proc.returncode == 0
        assert "1/2" in proc.stdout

    def test_zero_case(self):
        proc = run_cli("diagnose", "--classes", "0,0,0")
        assert proc.returncode == 0

    @pytest.mark.parametrize("classes", ["11,45,81,54", "5,10,10,5,1,0"])
    def test_repeated_roots_agree(self, classes):
        # O(2) + O(3)^3 on CP^4 and O + O(1)^5: S_N holds, and the float
        # error of a repeated root shows as an imaginary part in B_r, while
        # each root's backward error stays near eps, so the roots read reliable
        proc = run_cli("diagnose", "--classes", classes)
        assert proc.returncode == 0, proc.stdout
        assert proc.stdout.splitlines()[0].endswith("(reliable)"), proc.stdout
        assert "DISAGREE" not in proc.stdout

    def test_disagreement_fails(self, monkeypatch, capsys):
        # the numeric path pushed half a unit off, with an imaginary part
        compare = cli.compare_exact_numeric

        def skewed(classes, r_values):
            roots, rows = compare(classes, r_values)
            row = rows[0]
            rows[0] = row._replace(numeric=row.numeric + 0.5 + 1e-3j, difference=0.5)
            return roots, rows

        monkeypatch.setattr(cli, "compare_exact_numeric", skewed)
        assert cli.main(["diagnose", "--classes", "5,6,0"]) == 1
        lines = capsys.readouterr().out.splitlines()
        (row,) = [line for line in lines if line.split()[0] == "2"]
        assert row.split()[-1] == "DISAGREE"
        assert "+1.0e-03j" in row
        assert [line for line in lines if line.split()[0] == "3"][0].endswith("agree")
        assert lines[-1] == "exact and numeric paths DISAGREE"

    @pytest.mark.xfail(raises=OverflowError, strict=True,
                       reason="kappa = (1 + max|delta_j|)^r overflows a float")
    def test_classes_past_the_float_range_read_unreliable(self):
        # a root near -10^300: float(B_r) and the row's condition estimate
        # (1 + 10^300)^r leave the float range, which must read unreliable
        big = str(10**300)
        code, out, err = run_main(["diagnose", "--classes", ",".join([big] * 3)])
        assert code == 0, err
        rows = [line for line in out.decode().splitlines() if line.split()[:1] in (["2"], ["3"])]
        assert len(rows) == 2 and all(line.endswith(" unreliable") for line in rows), out


# run in a fresh interpreter: cli.main on argv, then which of PROBED it
# loaded, as the last line of stderr; ``patch`` runs before cli is imported.
# cli.main returns on every argv, --version and --help included
STARTUP_PROBE = """
import json, sys
{patch}
from bundle_census import cli
cli.main(sys.argv[1:])
print(json.dumps([name in sys.modules for name in {probed}]), file=sys.stderr)
"""
PROBED = ("numpy", "multiprocessing", "dataclasses", "inspect", "fractions",
          "bundle_census.enumeration", "bundle_census.oracle", "argparse",
          "bundle_census.sweep")


def probe_startup(argv, patch="", env=None):
    code = STARTUP_PROBE.format(patch=patch, probed=PROBED)
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=env or child_env(), timeout=120)
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc.stderr.splitlines()


# 861 tuples near 10^25, 3 chunks, all past the int64 certificate
BIG_BOUNDS = ("--bounds=10000000000000000000000000:10000000000000000000000040,"
              "-20000000000000000000000000:-19999999999999999999999980,"
              "1428571428571428571428571:1428571428571428571428571")


class TestStartUp:
    """Each command loads only what it runs.

    numpy, multiprocessing and argparse never load, nor does any command
    load the single-tuple API (``enumeration``, with its dataclasses,
    which import ``inspect``, and Fractions): ``check`` and ``count``
    print ``kernels`` and ``counting`` directly.  The
    floating-point oracle loads on ``diagnose`` only, with Fractions.  The
    sweep module loads on ``sweep`` only.
    """

    # per argv, whether each of PROBED loads: numpy, multiprocessing,
    # dataclasses, inspect, fractions, bundle_census.enumeration,
    # bundle_census.oracle, argparse, bundle_census.sweep
    @pytest.mark.parametrize("argv, loaded", [
        (["--version"], [False, False, False, False, False, False, False, False, False]),
        (["check", "--classes", "5,6,0"],
         [False, False, False, False, False, False, False, False, False]),
        (["count", "--rank", "2", "--dim", "3", "--classes", "0,1"],
         [False, False, False, False, False, False, False, False, False]),
        (["diagnose", "--classes", "5,6,0"],
         [False, False, False, False, True, False, True, False, False]),
        (["sweep", "--rank", "2", "--dim", "3", "--bounds", "0:1,0:1", "--jobs", "1"],
         [False, False, False, False, False, False, False, False, True]),
        (["sweep", "--rank", "2", "--dim", "3", "--bounds=-150:150,-150:150", "--jobs", "2"],
         [False, False, False, False, False, False, False, False, True]),
        (["sweep", "--rank", "3", "--dim", "4", BIG_BOUNDS, "--format", "csv", "--jobs", "1"],
         [False, False, False, False, False, False, False, False, True]),
        (["sweep", "--rank", "3", "--dim", "4", BIG_BOUNDS, "--format", "csv", "--jobs", "2"],
         [False, False, False, False, False, False, False, False, True]),
    ], ids=["version", "check", "count", "diagnose", "sweep_one_job", "sweep_rank2_150_two_jobs",
            "sweep_python_ints_one_job", "sweep_python_ints_two_jobs"])
    def test_modules_loaded(self, argv, loaded):
        assert json.loads(probe_startup(argv)[-1]) == loaded


# argv and exit code of each command run with no reader on stdout
READER_GONE = {
    "check_satisfied": (["check", "--classes", "0,0,0", "--N", "3"], 0),
    "check_not_satisfied": (["check", "--classes", "1,1,0", "--N", "3"], 1),
    "count": (["count", "--rank", "2", "--dim", "3", "--classes", "0,1"], 0),
    "diagnose": (["diagnose", "--classes", "5,6,0"], 0),
    "version": (["--version"], 0),
    "sweep": (["sweep", "--rank", "2", "--dim", "3", "--bounds=0:3,0:3", "--format", "json"], 0),
}


class TestExitPath:
    """A run ends through ``cli.run``: ``os._exit`` with the code and bytes of ``cli.main``."""

    @pytest.mark.parametrize("argv, code", [
        (["check", "--classes", "0,0,0", "--N", "3"], 0),
        (["check", "--classes", "1,1,0", "--N", "3"], 1),
        (["check", "--classes", "1,x,0"], 2),
        (["--version"], 0),
        (["--help"], 0),
        (["check", "--N", "3"], 2),  # --classes is required
        ([], 2),
    ], ids=["satisfied", "not_satisfied", "malformed_classes", "version", "help", "missing_option",
            "no_command"])
    def test_exit_code(self, argv, code):
        proc = run_cli(*argv)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["check", "--classes", "1,1,0", "--N", "3"],
        ["count", "--rank", "2", "--dim", "3", "--classes", "0,1"],
        ["diagnose", "--classes", "5,6,0"],
        # 6561 tuples in 7 chunks, so a worker lane sends some of them
        ["sweep", "--rank", "2", "--dim", "3", "--bounds=-40:40,-40:40", "--format", "csv",
         "--jobs", "2"],
    ], ids=["check", "count", "diagnose", "sweep"])
    def test_no_byte_is_lost(self, argv):
        proc = run_cli(*argv, text=False)
        code, out, _ = run_main(argv)
        assert proc.returncode == code
        assert proc.stdout == out

    @pytest.mark.parametrize("argv, code, unbuffered", [
        pytest.param(argv, code, unbuffered, id=name + suffix)
        for unbuffered, suffix in (("", ""), ("1", "_unbuffered"))
        for name, (argv, code) in READER_GONE.items()
    ])
    def test_reader_gone_before_the_first_byte(self, argv, code, unbuffered):
        # stdout is a pipe whose reader has closed: the output is lost in
        # silence, and the command keeps its own exit code.  Block-buffered,
        # as Python makes a pipe by default, stdout fails in the last flush;
        # with PYTHONUNBUFFERED it fails in the command's first print
        reader, writer = os.pipe()
        os.close(reader)
        try:
            proc = run_cli(*argv, env={"PYTHONUNBUFFERED": unbuffered}, stdout=writer)
        finally:
            os.close(writer)
        assert proc.returncode == code, proc.stderr
        # sweep names its box on stderr before any record
        assert [line for line in proc.stderr.splitlines() if not line.startswith("sweep:")] == []

    # cli.run, its os._exit made to exit 99 instead while this process has a child
    CHILDLESS_EXIT = """
import os
from bundle_census import cli
exit = os._exit
def childless_exit(code):
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        exit(code)
    exit(99)
os._exit = childless_exit
cli.run()
"""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv, unbuffered", [
        (["check", "--classes", "5,6,0"], ""),
        (["check", "--classes", "5,6,0"], "1"),
        (["count", "--rank", "2", "--dim", "3", "--classes", "0,1"], ""),
        (["diagnose", "--classes", "5,6,0"], ""),
        (["--version"], ""),
        # 6561 tuples in 7 chunks, and json has no header to flush before the
        # worker lane starts: the first chunk's write fails while the lane runs
        (["sweep", "--rank", "2", "--dim", "3", "--bounds=-40:40,-40:40", "--format", "json",
          "--jobs", "2"], ""),
    ], ids=["check_satisfied", "check_unbuffered", "count", "diagnose", "version", "sweep"])
    def test_full_disk_is_an_output_error(self, argv, unbuffered):
        # a write to stdout fails with ENOSPC: not a verdict, so neither 0 nor 1
        # but 74, with one error line and no child process left behind
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-c", self.CHILDLESS_EXIT, *argv], stdout=full,
                stderr=subprocess.PIPE, text=True,
                env=child_env({"PYTHONUNBUFFERED": unbuffered}), timeout=120)
        assert proc.returncode == 74, proc.stderr
        errors = [line for line in proc.stderr.splitlines() if not line.startswith("sweep:")]
        assert errors == [f"error: {os.strerror(errno.ENOSPC)}"]

    @staticmethod
    def run_with_stderr_gone(argv, unbuffered):
        """``cli.run`` on argv, its stderr a pipe whose reader has closed, as CHILDLESS_EXIT runs it.

        Line-buffered, as Python makes stderr by default, a failed note stays
        buffered and fails every later flush; with PYTHONUNBUFFERED it does not.
        """
        reader, writer = os.pipe()
        os.close(reader)
        try:
            return subprocess.run([sys.executable, "-c", TestExitPath.CHILDLESS_EXIT, *argv],
                                  stdout=subprocess.PIPE, stderr=writer,
                                  env=child_env({"PYTHONUNBUFFERED": unbuffered}), timeout=120)
        finally:
            os.close(writer)

    @pytest.mark.skipif(not hasattr(os, "pipe"), reason="no pipes")
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_sweep_with_stderr_gone_writes_every_record(self, fmt, unbuffered):
        # 6561 tuples in 7 chunks over 2 lanes; the sweep: line, and csv's
        # summary: line, find no reader, and the records are all written
        argv = ["sweep", "--rank", "2", "--dim", "3", "--bounds=-40:40,-40:40", "--format", fmt,
                "--jobs", "2"]
        proc = self.run_with_stderr_gone(argv, unbuffered)
        code, out, _ = run_main(argv)
        assert (proc.returncode, code) == (0, 0)
        assert proc.stdout == out

    @pytest.mark.skipif(not hasattr(os, "pipe"), reason="no pipes")
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [
        ["check", "--classes", "x"],
        ["sweep", "--rank", "2", "--dim", "3", "--bounds", "0:2"],
    ], ids=["check", "sweep"])
    def test_usage_error_with_stderr_gone_exits_two(self, argv, unbuffered):
        proc = self.run_with_stderr_gone(argv, unbuffered)
        assert (proc.returncode, proc.stdout) == (2, b"")

    def test_killed_lane_with_stderr_gone_exits_one(self, monkeypatch, capsys):
        # as test_cli_reports_a_killed_lane, with a stderr whose every write fails
        class GoneStderr(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        parent, render, fork, forked = os.getpid(), sweep.render_chunk, os.fork, []

        def spy():
            pid = fork()
            forked.append(pid)
            return pid

        def render_then_kill_lanes(*task):
            chunk = render(*task)
            if os.getpid() == parent:
                for lane in forked:
                    os.kill(lane, signal.SIGKILL)
            return chunk

        monkeypatch.setattr(os, "fork", spy)
        monkeypatch.setattr(sweep, "render_chunk", render_then_kill_lanes)
        monkeypatch.setattr(sys, "stderr", GoneStderr())
        code = cli.main(["sweep", "--rank", "2", "--dim", "3", "--bounds=-100:100,-100:100",
                         "--format", "json", "--jobs", "2"])
        assert code == 1
        assert forked and capsys.readouterr().err == ""
        with pytest.raises(ChildProcessError):  # no child is left, running or unreaped
            os.waitpid(-1, os.WNOHANG)

    DISAGREE = """
from bundle_census import cli, oracle
def compare(classes, rs):
    roots, rows = oracle.compare_exact_numeric(classes, rs)
    return roots, [row._replace(flagged=False, tolerance=-1.0) for row in rows]
cli.compare_exact_numeric = compare
cli.run()
"""

    @pytest.mark.parametrize("reader_gone", [False, True], ids=["read", "reader_gone"])
    def test_diagnose_disagreement_exits_one(self, reader_gone):
        # every row made to disagree; the verdict holds with no reader too
        reader, writer = os.pipe()
        if reader_gone:
            os.close(reader)
        try:
            proc = subprocess.run(
                [sys.executable, "-c", self.DISAGREE, "diagnose", "--classes", "5,6,0"],
                stdout=writer, stderr=subprocess.PIPE, text=True,
                env=child_env({"PYTHONUNBUFFERED": "1"}), timeout=120)
        finally:
            os.close(writer)
        if not reader_gone:
            with open(reader, "rb") as out:
                assert out.read().endswith(b"exact and numeric paths DISAGREE\n")
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == ""

    IN_PROCESS = """
import os, sys
from bundle_census import cli
reader, writer = os.pipe()
os.close(reader)
os.dup2(writer, 1)
os.close(writer)
before = os.fstat(1)
code = cli.main(["sweep", "--rank", "2", "--dim", "3", "--bounds=0:3,0:3"])
after = os.fstat(1)
print(code, (before.st_dev, before.st_ino) == (after.st_dev, after.st_ino), file=sys.stderr)
os._exit(0)  # the reader has gone: no flush at exit
"""

    def test_in_process_main_leaves_stdout_where_it_was(self):
        # cli.main, called in-process on a sweep whose reader has gone,
        # returns 0 and leaves the caller's fd 1 alone
        proc = subprocess.run([sys.executable, "-c", self.IN_PROCESS], capture_output=True,
                              text=True, env=child_env(), timeout=120)
        assert proc.stderr.splitlines()[-1] == "0 True", proc.stderr

    ESCAPE = """
from bundle_census import cli
def main():
    raise RuntimeError("escaped from main")
cli.main = main
cli.run()
"""

    def test_exception_escaping_main_prints_its_traceback(self):
        proc = subprocess.run([sys.executable, "-c", self.ESCAPE], capture_output=True,
                              text=True, env=child_env(), timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.startswith("Traceback (most recent call last):\n"), proc.stderr
        assert proc.stderr.endswith("RuntimeError: escaped from main\n")


HUGE = 10**4000 + 1  # B_2 = (c_1^2 - c_1)/2 - c_2 has 8000 digits
DIGITS = {"PYTHONINTMAXSTRDIGITS": "4300"}  # Python's default limit


def order_argv(command, N):
    """argv running ``command`` at condition order N on zero classes."""
    zeros = ",".join(["0"] * N)
    if command in ("check", "diagnose"):
        return [command, "--classes", zeros]
    if command == "count":  # rank N on CP^N: S_N
        return [command, "--rank", str(N), "--dim", str(N), "--classes", zeros]
    bounds = ",".join(["0:0"] * N)
    return [command, "--rank", str(N), "--dim", str(N), "--bounds", bounds, "--format", "csv"]


class TestIntegerGrammar:
    """Classes and bounds read as Python's ``int()`` reads them, on purpose.

    That takes any Unicode decimal digits and ``_`` between digits; the
    digit limit counts the same digits (``str.isdecimal``).
    """

    def test_non_ascii_digits_read_as_their_values(self):
        code, out, err = run_main(["check", "--classes", "١,٢,0", "--N", "3"])
        assert (code, out, err) == run_main(["check", "--classes", "1,2,0", "--N", "3"])
        assert code == 0 and out.startswith(b"S_3 for classes (1, 2, 0)\n")

    def test_underscores_separate_digits(self):
        code, _, err = run_main(["sweep", "--rank", "2", "--dim", "3", "--bounds", "0:1_0,0:0"])
        assert code == 0
        assert err.startswith("sweep: 11 tuples,")


class TestIntegersPastTheDigitLimit:
    """A class or bound longer than Python reads exits 2, naming the limit in a short line."""

    LONG = "9" * 5000

    @pytest.mark.parametrize("argv", [
        ["check", "--classes", f"{LONG},0"],
        ["count", "--rank", "2", "--dim", "3", "--classes", f"0,-{LONG}"],
        ["sweep", "--rank", "2", "--dim", "3", "--bounds", f"0:{LONG},0:1"],
        ["diagnose", "--classes", f"{LONG}x,0"],
    ], ids=["check", "count", "sweep", "diagnose"])
    def test_names_the_limit(self, argv):
        proc = run_cli(*argv, env=DIGITS)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: --")
        assert "5000 digits" in proc.stderr and "limit of 4300 digits" in proc.stderr
        assert "PYTHONINTMAXSTRDIGITS" in proc.stderr
        assert len(proc.stderr) < 300

    def test_an_int_option_names_the_limit(self):
        proc = run_cli("count", "--rank", "9" * 4301, "--dim", "3", "--classes", "0,0", env=DIGITS)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            "error: --rank holds an integer of 4301 digits (999999999999...), above Python's "
            "limit of 4300 digits for reading an integer; set PYTHONINTMAXSTRDIGITS to raise it\n")

    def test_at_the_limit_reads(self):
        proc = run_cli("check", "--classes", f"-{'9' * 4300},0", env=DIGITS)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: B_r of S_2")


class TestInputsOutOfReach:
    """Orders above the cap and unprintable B_r exit 2 before any output."""

    @pytest.mark.parametrize("argv", [
        ["check", "--classes", f"{HUGE},0"],
        ["count", "--rank", "2", "--dim", "3", "--classes", f"{HUGE},1"],
        ["sweep", "--rank", "2", "--dim", "3", "--bounds", f"{HUGE}:{HUGE},0:1", "--format", "json"],
        ["sweep", "--rank", "2", "--dim", "3", "--bounds", f"{HUGE}:{HUGE},0:1", "--format", "csv"],
        ["sweep", "--rank", "2", "--dim", "3", "--bounds", f"{HUGE}:{HUGE},0:1", "--format", "table"],
        ["diagnose", "--classes", f"{HUGE},0"],
    ], ids=["check", "count", "sweep_json", "sweep_csv", "sweep_table", "diagnose"])
    def test_unprintable_b_r_is_a_usage_error(self, argv):
        proc = run_cli(*argv, env=DIGITS)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: B_r of S_")
        assert "4300 digits" in proc.stderr and "Traceback" not in proc.stderr

    def test_without_a_digit_limit_huge_b_r_prints(self):
        proc = run_cli("check", "--classes", f"{HUGE},0", env={"PYTHONINTMAXSTRDIGITS": "0"})
        assert proc.returncode in (0, 1) and proc.stderr == ""
        (b2,) = [line for line in proc.stdout.splitlines() if line.lstrip().startswith("r = 2")]
        assert len(b2) > 8000

    def test_printable_classes_beyond_int64_pass(self):
        proc = run_cli("check", "--classes", f"{10**40},0", env=DIGITS)
        assert proc.returncode == 0

    @pytest.mark.parametrize("command", ["check", "count", "sweep", "diagnose"])
    def test_order_cap(self, command, capsysbinary):
        assert cli.main(order_argv(command, cli.MAX_ORDER)) == 0
        out, err = capsysbinary.readouterr()
        assert out and b"error" not in err
        assert cli.main(order_argv(command, cli.MAX_ORDER + 1)) == 2
        out, err = capsysbinary.readouterr()
        assert out == b""
        assert err.decode().splitlines()[-1] == (
            f"error: condition order {cli.MAX_ORDER + 1} is above the cap of {cli.MAX_ORDER}")

    def test_diagnose_searches_roots_at_the_cap(self, capsys):
        # zero classes are all exact zero roots, so the order-cap run above
        # never iterates; these make the root search run at degree MAX_ORDER
        rng = random.Random(400)
        classes = ",".join(str(rng.randint(-3, 3)) for _ in range(cli.MAX_ORDER))
        assert cli.main(["diagnose", "--classes", classes]) == 0
        rows = capsys.readouterr().out.splitlines()[2:-1]
        assert [int(row.split()[0]) for row in rows] == list(range(2, cli.MAX_ORDER + 1))

    def test_extension_test_fits_under_the_cap(self, capsys):
        # two classes need an even rank, at most 398 under the cap, and its
        # extension test S_(rank+2) is then S_400
        rank = cli.MAX_ORDER - 2
        assert cli.main(["count", "--rank", str(rank), "--dim", str(rank + 1),
                         "--classes", ",".join(["0"] * rank)]) == 0
        out = capsys.readouterr().out
        assert "count: 2" in out
        assert f"note: exactly one of the two isomorphism classes extends to CP^{rank + 2}" in out

    def test_count_and_sweep_derive_the_order_from_the_rank(self, capsys):
        # corank one tests S_(rank+1)
        N = cli.MAX_ORDER
        assert cli.main(["count", "--rank", str(N - 1), "--dim", str(N),
                         "--classes", ",".join(["0"] * (N - 1))]) == 0
        assert cli.main(["count", "--rank", str(N), "--dim", str(N + 1),
                         "--classes", ",".join(["0"] * N)]) == 2
        assert cli.main(["sweep", "--rank", str(N), "--dim", str(N + 1),
                         "--bounds", ",".join(["0:0"] * N)]) == 2
        # no condition is tested above rank + 1, so no order is capped
        assert cli.main(["count", "--rank", str(N + 1), "--dim", str(N + 3),
                         "--classes", ",".join(["0"] * (N + 1))]) == 0
        assert "above the cap" in capsys.readouterr().err

    def test_stable_range_order_follows_the_dimension(self, capsys):
        # rank 1000 on CP^3 tests S_3, far below the cap
        assert cli.main(["sweep", "--rank", "1000", "--dim", "3",
                         "--bounds", "0:0,0:0,0:0"]) == 0
        out, err = capsys.readouterr()
        assert "stable_range" in out and "error" not in err


def test_admit_sizes_classes_past_the_digit_limit_without_printing_them():
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the least Python allows, below the class's 701 digits
    try:
        with pytest.raises(cli.UsageError, match="limit of 640 digits.*PYTHONINTMAXSTRDIGITS"):
            cli._admit(2, [10**700])
    finally:
        sys.set_int_max_str_digits(previous)


class TestSweepModule:
    def test_tuple_count(self):
        spec = SweepSpec(2, 3, ((-2, 2), (-2, 2)))
        assert spec.tuple_count() == 25

    def test_copies_are_checked_and_no_cap_is_held(self, capsys):
        with pytest.raises(ValueError):  # a copy with new fields is checked as well
            SweepSpec(2, 3, ((-2, 2), (-2, 2)))._replace(jobs=MAX_JOBS + 1)
        # the cap is the command line's: the spec of a box it refuses still builds
        assert cli.main(["sweep", "--rank", "2", "--dim", "3", "--bounds", "-2:2,-2:2",
                         "--max-tuples", "24"]) == 2
        assert "above the cap of 24" in capsys.readouterr().err
        assert SweepSpec(2, 3, ((-2, 2), (-2, 2))).tuple_count() == 25

    def test_parse_bounds(self):
        assert parse_bounds("-1:2,0:0") == ((-1, 2), (0, 0))
        with pytest.raises(ValueError):
            parse_bounds("1-2")

    def test_jobs_bounded(self):
        assert MAX_JOBS == 16  # the limit the README states
        SweepSpec(2, 3, ((0, 1), (0, 1)), jobs=MAX_JOBS)
        for jobs in (0, MAX_JOBS + 1):
            with pytest.raises(ValueError):
                SweepSpec(2, 3, ((0, 1), (0, 1)), jobs=jobs)

    def test_wrong_interval_count(self):
        with pytest.raises(ValueError):
            SweepSpec(2, 3, ((-1, 1),))

    def test_parallel_matches_serial(self):
        spec1 = SweepSpec(2, 3, ((-20, 20), (-20, 20)), jobs=1)
        spec4 = SweepSpec(2, 3, ((-20, 20), (-20, 20)), jobs=4)
        assert list(sweep_chunks(spec1, "json")) == list(sweep_chunks(spec4, "json"))

    def test_worker_lane_backlog_is_bounded(self, monkeypatch):
        # a lane writing to a pipe nobody reads: with the write end made
        # non-blocking, the point where a lane would block raises instead
        rendered, real_render = [], sweep.render_chunk

        def render(*task):
            chunk = real_render(*task)
            rendered.append(len(chunk.data))
            return chunk

        monkeypatch.setattr(sweep, "render_chunk", render)
        # chunks of 256 short records, several to a pipe, so some are sent
        # before one blocks
        monkeypatch.setattr(sweep, "CHUNK", 256)
        spec = SweepSpec(2, 3, ((-100, 100), (-100, 100)), jobs=2)
        size = sweep.chunk_tuples(spec)
        reader, writer = os.pipe()
        try:
            capacity = fcntl.fcntl(writer, fcntl.F_GETPIPE_SZ)
            os.set_blocking(writer, False)
            with pytest.raises(BlockingIOError):
                sweep._lane_main(writer, spec, "json", range(0, spec.tuple_count(), size), size)
        finally:
            os.close(reader)
            os.close(writer)
        sent = rendered[:-1]  # the last chunk rendered is the one that did not fit
        assert sent and sum(sent) + len(sent) * sweep._FRAME.size <= capacity


def run_main(argv):
    """``cli.main`` in this process: (exit code, stdout bytes, stderr text)."""
    err = io.StringIO()
    with io.TextIOWrapper(io.BytesIO()) as out:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)  # returns on every argv: no SystemExit
        out.flush()
        return code, out.buffer.getvalue(), err.getvalue()


# the option that takes the command's classes or box, after the required rest
VALUE_FLAG = {
    "check": ["check", "--classes"],
    "count": ["count", "--rank", "2", "--dim", "3", "--classes"],
    "sweep": ["sweep", "--rank", "2", "--dim", "3", "--bounds"],
    "diagnose": ["diagnose", "--classes"],
}


@pytest.mark.parametrize("joined", [False, True], ids=["separate", "joined"])
@pytest.mark.parametrize("command", VALUE_FLAG)
def test_double_dash_as_a_value_is_a_usage_error(command, joined):
    # "--" is refused as a value, so it never reads as "end of options"
    *argv, flag = VALUE_FLAG[command]
    argv += [f"{flag}=--"] if joined else [flag, "--"]
    code, out, err = run_main(argv)
    assert code == 2 and out == b""
    assert len([line for line in err.splitlines() if "error:" in line]) == 1, err


@pytest.mark.parametrize("argv", [
    ["check", "--clas", "1,2"],
    ["check", "--clas", "-1,2"],
    ["sweep", "--rank", "1", "--dim", "2", "--bound", "-1:1"],
])
def test_abbreviated_options_are_usage_errors(argv):
    # only the full spelling keeps a leading minus sign, so no option is abbreviated
    code, out, err = run_main(argv)
    assert code == 2 and out == b""
    assert len([line for line in err.splitlines() if "error:" in line]) == 1, err
    assert run_main(["check", "--classes", "-1,2"])[0] == 0


@pytest.mark.parametrize("argv, error", [
    ([], "expected a command (check, count, sweep, diagnose)"),
    (["census"], "expected a command (check, count, sweep, diagnose), got 'census'"),
    (["--classes", "1,2"], "expected a command (check, count, sweep, diagnose), got '--classes'"),
    (["check", "--classes", "1,2", "--order", "2"], "check has no option --order"),
    (["check", "--classes", "1,2", "--N"], "--N expects a value"),
    (["check", "--classes", "1,2", "2"], "unexpected argument '2'"),
    (["count", "--rank", "2", "--dim", "3", "0,0"], "unexpected argument '0,0'"),
    (["count", "--rank", "2"], "count needs --dim, --classes"),
    (["count", "--rank", "two", "--dim", "3", "--classes", "0,0"],
     "--rank expects an integer, got 'two'"),
    (["sweep", "--rank", "2", "--dim", "3", "--bounds", "0:1,0:1", "--format", "xml"],
     "--format must be one of json, csv, table, got 'xml'"),
], ids=["no_command", "unknown_command", "option_before_command", "unknown_option",
        "missing_value_at_end", "stray_positional", "stray_classes", "missing_options",
        "malformed_int", "unknown_format"])
def test_usage_errors_are_one_line(argv, error):
    assert run_main(argv) == (2, b"", f"error: {error}\n")


def test_a_repeated_option_keeps_its_last_value():
    last = run_main(["check", "--classes", "1,1,0", "--N", "3"])
    assert last[0] == 1  # S_3 fails at B_3 = 1/2
    assert run_main(["check", "--classes", "1,1,0", "--N", "2", "--N", "3"]) == last
    assert run_main(["check", "--classes=0,0,0", "--N=2", "--classes", "1,1,0", "--N=3"]) == last


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", [None, *cli.COMMANDS], ids=lambda command: command or "top")
def test_help_goes_to_stdout(command, flag):
    code, out, err = run_main([flag] if command is None else [command, flag])
    assert (code, err) == (0, "")
    text = out.decode()
    assert text.startswith(f"usage: bundle-census {command or 'COMMAND'} ")
    for name in cli.COMMANDS[command][2] if command else cli.COMMANDS:
        assert f"  {name} " in text


@pytest.mark.parametrize("argv", [
    ["--version"],
    *([command, "--version"] for command in cli.COMMANDS),
    ["sweep", "--rank", "2", "--help"],
], ids=["top", *(f"{command}_version" for command in cli.COMMANDS), "sweep_help_after_an_option"])
def test_version_and_help_after_options(argv):
    code, out, err = run_main(argv)
    assert (code, err) == (0, "") and out
    if argv[-1] == "--version":
        assert out == f"bundle-census {bundle_census.__version__}\n".encode()


def test_option_table_copies_the_sweep_limits():
    # written out in cli, so that only sweep imports the sweep module
    options = cli.COMMANDS["sweep"][2]
    assert f"1 to {MAX_JOBS}:" in options["--jobs"][2]
    assert options["--format"][1] in sweep.FORMATS
    assert options["--format"][2] == f"{', '.join(sweep.FORMATS[:-1])} or {sweep.FORMATS[-1]}"


@pytest.mark.parametrize("argv, error", [
    (["sweep", "--rank", "0", "--dim", "3", "--bounds", "0:1"], "rank and dim must be >= 1"),
    (["count", "--rank", "0", "--dim", "3", "--classes", "0"], "rank must be >= 1, got 0"),
    (["count", "--rank", "2", "--dim", "0", "--classes", "0"],
     "ambient dimension must be >= 1, got 0"),
    (["check", "--classes", "0", "--N", "0"], "--N must be >= 1, got 0"),
    (["diagnose", "--classes", "0", "--N", "0"], "--N must be >= 1, got 0"),
], ids=["sweep_rank", "count_rank", "count_dim", "check_n", "diagnose_n"])
def test_sizes_below_one_are_named(argv, error):
    assert run_main(argv) == (2, b"", f"error: {error}\n")


LONG = "9" * 4301  # past Python's default limit of 4300 digits for int()
CLASS = st.one_of(st.integers(-3, 6), st.sampled_from([2**63, -(2**63)]))
ODD = st.sampled_from(["", "1.5", "0x10", "1_0", ":", "2:1", "--", "0", "-3",
                      str(2**63), LONG, f"-{LONG}"])


def draw_value(data, good, odd=ODD):
    """A value drawn from ``good`` seven times in eight, else from ``odd``."""
    return data.draw(odd) if data.draw(st.integers(0, 7)) == 0 else str(data.draw(good))


def add_option(data, argv, flag, value):
    """Append the option as "--flag value" or as "--flag=value"."""
    argv += [f"{flag}={value}"] if data.draw(st.booleans()) else [flag, value]


@given(data=st.data())
@settings(max_examples=300)
def test_any_argv_exits_with_a_documented_code(data):
    command = data.draw(st.sampled_from(sorted(VALUE_FLAG)))
    argv = [command]
    if command in ("count", "sweep"):
        # rank and dim at most 6, so no condition above S_6 is tested
        rank, dim = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        add_option(data, argv, "--rank", draw_value(data, st.just(rank)))
        add_option(data, argv, "--dim", draw_value(data, st.just(dim)))
        n = min(rank, dim)
    else:
        n = data.draw(st.integers(1, 6))
        if data.draw(st.booleans()):
            add_option(data, argv, "--N", draw_value(data, st.just(n)))
    if data.draw(st.integers(0, 7)) == 0:
        n = data.draw(st.integers(1, 6))  # most likely the wrong number of classes
    if command != "sweep":
        add_option(data, argv, "--classes", ",".join(draw_value(data, CLASS) for _ in range(n)))
    else:
        # at most 3 values an interval: 3^6 tuples whatever the cap
        interval = st.tuples(CLASS, st.integers(0, 2)).map(lambda p: f"{p[0]}:{p[0] + p[1]}")
        odd = st.one_of(ODD, st.just(f"{LONG}:{LONG}"))
        add_option(data, argv, "--bounds",
                   ",".join(draw_value(data, interval, odd) for _ in range(n)))
        # --jobs is never above 1: no worker process starts
        for flag, values in (("--format", sweep.FORMATS + ("xml",)),
                             ("--jobs", ("1", "0", "17", "-3", "x")),
                             ("--max-tuples", ("-1", "0", "5", "100", "x"))):
            if data.draw(st.booleans()):
                add_option(data, argv, flag, data.draw(st.sampled_from(values)))
    code, out, err = run_main(argv)
    assert code in (0, 1, 2), (argv, err)
    if code == 2:  # usage errors come before any output, as one line
        assert out == b"", argv
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)
