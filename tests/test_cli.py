"""CLI contract: exit codes, formats, determinism, malformed argv."""

import contextlib
import dataclasses
import fcntl
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundle_census import cli, sweep
from bundle_census.sweep import (
    MAX_JOBS,
    BoxTooLarge,
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

    def test_empty_interval_rejected(self):
        proc = run_cli("sweep", "--rank", "2", "--dim", "3", "--bounds", "2:1,0:1")
        assert proc.returncode == 2

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

    def test_disagreement_fails(self, monkeypatch, capsys):
        # the numeric path pushed half a unit off, with an imaginary part
        compare = cli.compare_exact_numeric

        def skewed(classes, r_values):
            roots, rows = compare(classes, r_values)
            row = rows[0]
            rows[0] = dataclasses.replace(row, numeric=row.numeric + 0.5 + 1e-3j, difference=0.5)
            return roots, rows

        monkeypatch.setattr(cli, "compare_exact_numeric", skewed)
        assert cli.main(["diagnose", "--classes", "5,6,0"]) == 1
        lines = capsys.readouterr().out.splitlines()
        (row,) = [line for line in lines if line.split()[0] == "2"]
        assert row.split()[-1] == "DISAGREE"
        assert "+1.0e-03j" in row
        assert [line for line in lines if line.split()[0] == "3"][0].endswith("agree")
        assert lines[-1] == "exact and numeric paths DISAGREE"


# run in a fresh interpreter: cli.main on argv, then which heavy modules it
# loaded, as the last line of stderr; ``patch`` runs before cli is imported
STARTUP_PROBE = """
import contextlib, json, sys
{patch}
from bundle_census import cli
with contextlib.suppress(SystemExit):  # --version exits through argparse
    cli.main(sys.argv[1:])
print(json.dumps([name in sys.modules for name in ("numpy", "multiprocessing")]), file=sys.stderr)
"""


def probe_startup(argv, patch="", env=None):
    proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE.format(patch=patch), *argv],
                          capture_output=True, text=True, env=env or child_env(), timeout=120)
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc.stderr.splitlines()


class TestStartUp:
    """numpy loads only on the paths that compute with it; multiprocessing never loads."""

    @pytest.mark.parametrize("argv, loaded", [
        (["--version"], [False, False]),
        (["check", "--classes", "5,6,0"], [False, False]),
        (["count", "--rank", "2", "--dim", "3", "--classes", "0,1"], [False, False]),
        (["sweep", "--rank", "2", "--dim", "3", "--bounds", "0:1,0:1", "--jobs", "1"], [True, False]),
    ], ids=["version", "check", "count", "sweep_one_job"])
    def test_modules_loaded(self, argv, loaded):
        assert json.loads(probe_startup(argv)[-1]) == loaded

    # before each worker lane starts: whether numpy is loaded, and the
    # threads of the forking process, which fork leaves behind in the lane
    LANE_SPY = """
import os
fork = os.fork
def spy():
    print("numpy loaded at start:", "numpy" in sys.modules, file=sys.stderr)
    if os.path.isdir("/proc/self/task"):
        print("threads at start:", len(os.listdir("/proc/self/task")), file=sys.stderr)
    return fork()
os.fork = spy
"""
    # 6561 tuples: several chunks, so one worker lane starts
    LANE_ARGV = ["sweep", "--rank", "2", "--dim", "3", "--bounds=-40:40,-40:40", "--jobs", "2"]

    def probe_lane_start(self, blas_threads):
        env = child_env()
        env.pop("OPENBLAS_NUM_THREADS", None)
        if blas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = blas_threads
        *lines, loaded = probe_startup(self.LANE_ARGV, self.LANE_SPY, env)
        assert json.loads(loaded) == [True, False]
        return [line for line in lines if line.startswith(("numpy loaded", "threads at start"))]

    def test_worker_lanes_fork_after_numpy_loads(self):
        # each lane must inherit the parent's numpy, not import its own, and
        # fork from a process whose only thread is the one fork copies
        lines = self.probe_lane_start(None)
        assert lines[0] == "numpy loaded at start: True"
        if os.path.isdir("/proc/self/task"):
            assert lines == ["numpy loaded at start: True", "threads at start: 1"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
    def test_lane_probe_counts_blas_threads(self):
        # a thread count the caller sets is kept, and the probe above sees it
        assert self.probe_lane_start("2")[-1] == "threads at start: 2"


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
    ], ids=["satisfied", "not_satisfied", "malformed_classes", "version", "help", "missing_option"])
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

    DISAGREE = """
import dataclasses
from bundle_census import cli, oracle
def compare(classes, rs):
    roots, rows = oracle.compare_exact_numeric(classes, rs)
    return roots, [dataclasses.replace(row, flagged=False, tolerance=-1.0) for row in rows]
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

    def test_box_too_large(self):
        with pytest.raises(BoxTooLarge):
            SweepSpec(2, 3, ((-2, 2), (-2, 2)), max_tuples=3)

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
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
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
    # argparse in Python 3.11 hands "--" over as [] rather than as text
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
    if code == 2:  # usage errors come before any output
        assert out == b"", argv
