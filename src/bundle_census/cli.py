"""Command-line surface: check, count, sweep, diagnose.

Machine-readable output goes to stdout (JSON lines or CSV for sweeps),
diagnostics to stderr.  Exit codes: 0 success / condition satisfied,
1 condition failed, exact-numeric disagreement or a sweep worker lane that
died before its last chunk (one ``error:`` line, no traceback), 2 usage
error, including a condition order above MAX_ORDER and classes whose B_r
could be too long for Python to print.

``run`` is the console entry point: it calls ``main``, flushes stdout and
stderr and ends the process with ``os._exit``, skipping the interpreter's
teardown, which costs more than a ``check`` does.  ``main`` returns its
exit code and is safe to call in-process.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import closing, suppress
from typing import NoReturn, Optional, Sequence

from . import __version__, kernels
from .chern import ChernVector
from .enumeration import check_schwarzenberger, count_bundles, counting_rule
from .oracle import compare_exact_numeric
from .sweep import (DEFAULT_MAX_TUPLES, FORMATS, MAX_JOBS, LaneDied, SweepSpec, header, parse_bounds,
                    summary, sweep_chunks)
from .sweep import run_sweep  # noqa: F401  the traced benchmark run wraps cli.run_sweep


# largest condition order S_N a command runs: the memoized Stirling triangle
# up to S_400 holds about 22 MB
MAX_ORDER = 400


class UsageError(Exception):
    pass


def _admit(order: Optional[int], classes: Sequence[int]) -> None:
    """Refuse S_order on these classes before any output, if it is out of reach.

    Out of reach is an order above MAX_ORDER, or a B_r that could pass
    Python's limit on the digits of a printed integer.  The certificate
    N R(R+1)...(R+N-1), R = 1 + max|c_i|, bounds every numerator and
    denominator (``kernels.int64_certified``), so the input decides.
    """
    if order is None:
        return
    if order > MAX_ORDER:
        raise UsageError(f"condition order {order} is above the cap of {MAX_ORDER}")
    digits = _digit_limit()
    max_abs = max(map(abs, classes), default=0)
    # below 2^bits <= 10^digits, bits = floor(digits log2 10), without computing 10^digits
    bits = int(digits * math.log2(10))
    if digits and kernels.certificate_bits(order, max_abs, bits) > bits:
        raise UsageError(
            f"B_r of S_{order} on classes of up to {len(str(max_abs))} digits may pass "
            f"Python's limit of {digits} digits for printing an integer; "
            "set PYTHONINTMAXSTRDIGITS to raise it"
        )


def _digit_limit() -> int:
    """Python's limit on the digits of an integer it reads or prints; 0 for none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _readable(option: str, text: str) -> str:
    """``text``, refused if one of its integers has more digits than Python reads."""
    digits = _digit_limit()
    n, piece = max((sum(map(str.isdecimal, p)), p) for p in text.replace(":", ",").split(","))
    if digits and n > digits:
        raise UsageError(f"{option} holds an integer of {n} digits ({piece[:12]}...), above "
                         f"Python's limit of {digits} digits for reading an integer; "
                         "set PYTHONINTMAXSTRDIGITS to raise it")
    return text


def parse_classes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(piece) for piece in _readable("--classes", text).split(","))
    except ValueError:
        raise UsageError(f"--classes expects comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    # no abbreviated options: _merge_value_flags rewrites only the full
    # spellings, so an abbreviation would lose a leading minus sign
    parser = argparse.ArgumentParser(
        prog="bundle-census",
        allow_abbrev=False,
        description=(
            "Decide which integer tuples occur as Chern classes of complex "
            "bundles on projective spaces, and count the isomorphism classes."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="test the integrality condition S_N", allow_abbrev=False)
    p_check.add_argument("--classes", required=True, help="comma-separated integers c_1,...,c_N")
    p_check.add_argument("--N", type=int, default=None,
                         help="condition order (default: number of classes)")

    p_count = sub.add_parser("count", help="count isomorphism classes for one tuple",
                             allow_abbrev=False)
    p_count.add_argument("--rank", type=int, required=True)
    p_count.add_argument("--dim", type=int, required=True)
    p_count.add_argument("--classes", required=True)

    p_sweep = sub.add_parser("sweep", help="classify every tuple in a box", allow_abbrev=False)
    p_sweep.add_argument("--rank", type=int, required=True)
    p_sweep.add_argument("--dim", type=int, required=True)
    p_sweep.add_argument("--bounds", required=True,
                         help='one interval per class: "lo:hi,lo:hi,..."')
    p_sweep.add_argument("--format", choices=FORMATS, default="table")
    p_sweep.add_argument("--max-tuples", type=int, default=DEFAULT_MAX_TUPLES,
                         help="the most tuples a box may hold (default: %(default)s)")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help=f"lanes, 1 to {MAX_JOBS}: this process and N-1 worker processes")

    p_diag = sub.add_parser("diagnose", help="exact vs numeric values side by side",
                            allow_abbrev=False)
    p_diag.add_argument("--classes", required=True)
    p_diag.add_argument("--N", type=int, default=None)

    return parser


def _condition_input(args) -> tuple[tuple[int, ...], int]:
    """The classes and order N of ``check`` and ``diagnose``, refused if unusable."""
    classes = parse_classes(args.classes)
    N = args.N if args.N is not None else len(classes)
    if N < 1:
        raise UsageError(f"--N must be >= 1, got {N}")
    if len(classes) != N:
        raise UsageError(
            f"S_{N} needs exactly {N} classes, got {len(classes)}; "
            "pad with explicit zeros if your rank is smaller"
        )
    _admit(N, classes)
    return classes, N


def cmd_check(args) -> int:
    classes, N = _condition_input(args)
    report = check_schwarzenberger(classes, N)
    # the verdict is the exit code, even when stdout's reader has gone
    with suppress(BrokenPipeError):
        print(f"S_{N} for classes {classes}")
        for term in report.values:
            verdict = "integral" if term.integral else "NOT integral"
            print(f"  r = {term.r:<3d} B_r = {str(term.value):<12s} {verdict}")
        print(f"S_{N} {'satisfied' if report.satisfied else 'not satisfied'}")
    return 0 if report.satisfied else 1


def cmd_count(args) -> int:
    classes = parse_classes(args.classes)
    vector = _vector(args.rank, args.dim, classes)
    _admit(counting_rule(vector.rank, vector.dim).order, vector.classes)
    result = count_bundles(vector)
    print(f"rank {vector.rank} bundle on CP^{vector.dim} with classes {vector.classes}")
    print(f"count: {result.count if result.known else 'unknown'}")
    print(f"regime: {result.regime}")
    if result.count == 0 and result.report is not None:
        for term in result.report.failing():
            print(f"  fails at r = {term.r}: B_r = {term.value}")
    if result.extension_note:
        print(f"note: {result.extension_note}")
    return 0


def cmd_sweep(args) -> int:
    try:  # an oversize box too, before any output
        spec = SweepSpec(
            rank=args.rank,
            dim=args.dim,
            bounds=parse_bounds(_readable("--bounds", args.bounds)),
            jobs=args.jobs,
            max_tuples=args.max_tuples,
        )
    except ValueError as exc:
        raise UsageError(str(exc))
    total = spec.tuple_count()
    _admit(counting_rule(spec.rank, spec.dim).order, [x for bound in spec.bounds for x in bound])
    print(f"sweep: {total} tuples, rank {spec.rank} on CP^{spec.dim}, "
          f"jobs={spec.jobs}", file=sys.stderr)
    out = sys.stdout.buffer
    tally = [0, 0, 0, 0]
    out.write(header(args.format, len(spec.bounds)).encode())
    # closing: a failed write stops the worker lanes at once
    with closing(sweep_chunks(spec, args.format)) as chunks:
        for chunk in chunks:
            out.write(chunk.data)
            tally = [a + b for a, b in zip(tally, chunk.tally)]
    tail, note = summary(args.format, total, tally)
    out.write(tail.encode())
    sys.stderr.write(note)
    out.flush()
    return 0


def cmd_diagnose(args) -> int:
    classes, N = _condition_input(args)
    roots, rows = compare_exact_numeric(classes, range(2, N + 1))
    # the verdict is the exit code, even when stdout's reader has gone
    failed = not all(row.agrees for row in rows)
    with suppress(BrokenPipeError):
        print(f"root residual: {roots.residual:.3e} "
              f"({'reliable' if roots.reliable else 'UNRELIABLE'})")
        print(f"{'r':>3} {'exact':<14} {'numeric':<22} {'|diff|':<12} {'dist_to_Z':<12} status")
        for row in rows:
            status = "unreliable" if row.flagged else "agree" if row.agrees else "DISAGREE"
            numeric = f"{row.numeric.real:.12g}"
            if abs(row.numeric.imag) > 0:
                numeric += f"{row.numeric.imag:+.1e}j"
            print(f"{row.r:>3} {str(row.exact):<14} {numeric:<22} "
                  f"{row.difference:<12.3e} {row.nearest_integer_distance:<12.3e} {status}")
        print("all values agree" if not failed else "exact and numeric paths DISAGREE")
    return 1 if failed else 0


def _vector(rank: int, dim: int, classes: tuple[int, ...]) -> ChernVector:
    try:
        return ChernVector(rank, dim, classes)
    except ValueError as exc:
        raise UsageError(str(exc))


def _merge_value_flags(argv: Sequence[str]) -> list[str]:
    # "--classes -1,2" parses as a flag followed by an unknown option;
    # rewrite to "--classes=-1,2" so leading minus signs survive argparse
    merged, rest = [], iter(argv)
    for arg in rest:
        value = next(rest, None) if arg in ("--classes", "--bounds") else None
        merged.append(arg if value is None else f"{arg}={value}")
    return merged


def main(argv: Optional[Sequence[str]] = None) -> int:
    # before numpy loads: its OpenBLAS would start a thread pool, which the
    # fork of each sweep worker lane leaves behind in an unknown state; a
    # value the caller sets is kept
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_value_flags(argv))
    # argparse in Python 3.11 and earlier stores [] for an option given "--"
    # as its value, bypassing the option's type
    dashed = [name for name, value in vars(args).items() if value == []]
    if dashed:
        parser.error(f"argument --{dashed[0].replace('_', '-')}: expected one argument")
    handler = {
        "check": cmd_check,
        "count": cmd_count,
        "sweep": cmd_sweep,
        "diagnose": cmd_diagnose,
    }[args.command]
    try:
        return handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LaneDied as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # a sweep's reader closed (e.g. piped into head)
        return 0


def run() -> NoReturn:
    """Run ``main`` on ``sys.argv`` and exit with its code, without interpreter teardown.

    argparse's exit (``--help``, ``--version``, a usage error) gives its
    code too; any other exception escapes with its traceback, as from a
    plain script.  A reader of stdout or stderr that has gone loses what
    is still buffered, silently, and the exit code stays the command's.
    """
    try:
        code = main()
    except SystemExit as exc:
        if exc.code is not None and not isinstance(exc.code, int):
            raise
        code = exc.code or 0
    for stream in filter(None, (sys.stdout, sys.stderr)):
        with suppress(BrokenPipeError):
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
