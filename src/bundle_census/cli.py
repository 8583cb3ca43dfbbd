"""Command-line surface: check, count, sweep, diagnose.

Machine-readable output goes to stdout, diagnostics to stderr; ``sweep``
parses and admits its box and leaves all its output to ``sweep.write``.
``parse_argv`` reads argv by one table, ``COMMANDS``: ``--opt value`` or
``--opt=value``, the value verbatim (``--classes -1,2`` reads as typed), each
option spelled in full, a repeated option's last value kept.
Each command imports only the modules it runs: ``check`` and ``count``
print ``kernels`` and ``counting`` without the single-tuple API
(``enumeration``), ``diagnose`` imports only the floating-point ``oracle``,
``sweep`` only ``sweep``, and ``--version`` none of them.
Exit codes: 0 success / condition satisfied, 1 condition failed,
exact-numeric disagreement or a sweep worker lane that died before its last
chunk (one ``error:`` line, no traceback), 2 usage error (one ``error:``
line, nothing on stdout), including a condition order above MAX_ORDER and
classes whose B_r Python might not print, 74 (EX_IOERR) output that could
not be written, such as to a full disk (one ``error:`` line, no traceback).
A reader of stderr that has gone changes no output byte and no code.

``run`` is the console entry point: it calls ``main``, flushes stdout and
stderr and ends the process with ``os._exit``, skipping the interpreter's
teardown, which costs more than a ``check`` does.  ``main`` returns its
exit code, for ``--help`` and ``--version`` too, and is safe to call in-process.
"""

from __future__ import annotations

import math
import os
import sys
from contextlib import suppress
from types import SimpleNamespace
from typing import NoReturn, Optional, Sequence

from . import __version__, kernels
from .counting import UNKNOWN, counting_rule, stored_classes, verdict

PROG = "bundle-census"
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
    denominator (``kernels.certificate_bits``), so the input decides.
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
        raise UsageError(f"B_r of S_{order} on classes of up to {max_abs.bit_length()} bits "
                         f"may pass Python's limit of {digits} digits for printing an integer; "
                         "set PYTHONINTMAXSTRDIGITS to raise it")


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


def _condition_input(args) -> tuple[tuple[int, ...], int]:
    """The classes and order N of ``check`` and ``diagnose``, refused if unusable."""
    classes = parse_classes(args.classes)
    N = args.N if args.N is not None else len(classes)
    if N < 1:
        raise UsageError(f"--N must be >= 1, got {N}")
    if len(classes) != N:
        raise UsageError(f"S_{N} needs exactly {N} classes, got {len(classes)}; "
                         "pad with explicit zeros if your rank is smaller")
    _admit(N, classes)
    return classes, N


def _fraction(num: int, den: int) -> str:
    """A reduced B_r as ``str(Fraction(num, den))`` prints it."""
    return str(num) if den == 1 else f"{num}/{den}"


def cmd_check(args) -> int:
    classes, N = _condition_input(args)
    terms = kernels.schwarz_terms(classes, N)
    satisfied = all(den == 1 for _, _, den in terms)
    # the verdict is the exit code, even when stdout's reader has gone
    with suppress(BrokenPipeError):
        print(f"S_{N} for classes {classes}")
        for r, num, den in terms:
            verdict = "integral" if den == 1 else "NOT integral"
            print(f"  r = {r:<3d} B_r = {_fraction(num, den):<12s} {verdict}")
        print(f"S_{N} {'satisfied' if satisfied else 'not satisfied'}")
    return 0 if satisfied else 1


def cmd_count(args) -> int:
    rank, dim = args.rank, args.dim
    try:  # --classes is read, and may be refused, first
        classes = stored_classes(rank, dim, parse_classes(args.classes))
    except ValueError as exc:
        raise UsageError(str(exc))
    _admit(counting_rule(rank, dim).order, classes)
    rule, count, terms, note = verdict(rank, dim, classes)
    print(f"rank {rank} bundle on CP^{dim} with classes {classes}")
    print(f"count: {'unknown' if count == UNKNOWN else count}")
    print(f"regime: {rule.regime}")
    if count == 0 and terms is not None:
        for r, num, den in terms:
            if den != 1:
                print(f"  fails at r = {r}: B_r = {_fraction(num, den)}")
    if note:
        print(f"note: {note}")
    return 0


def cmd_sweep(args) -> int:
    from . import sweep

    if args.format not in sweep.FORMATS:
        raise UsageError(f"--format must be one of {', '.join(sweep.FORMATS)}, "
                         f"got {args.format!r}")
    try:  # a box past the 2^62 a sweep can index too, before any output
        spec = sweep.SweepSpec(args.rank, args.dim,
                               sweep.parse_bounds(_readable("--bounds", args.bounds)),
                               jobs=args.jobs)
    except ValueError as exc:
        raise UsageError(str(exc))
    if args.max_tuples < 1:
        raise UsageError(f"max_tuples must be >= 1, got {args.max_tuples}")
    if spec.tuple_count() > args.max_tuples:
        raise UsageError(f"box holds {spec.tuple_count()} tuples, above the cap of "
                         f"{args.max_tuples}; raise --max-tuples to proceed")
    _admit(counting_rule(spec.rank, spec.dim).order, [spec.max_abs()])
    try:
        sweep.write(spec, args.format, sys.stdout.buffer, sys.stderr)
    except sweep.LaneDied as exc:
        with suppress(BrokenPipeError):  # the code stays 1 with no reader of stderr
            print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def compare_exact_numeric(classes, orders):
    """``oracle.compare_exact_numeric``, importing the oracle on the first call."""
    from .oracle import compare_exact_numeric as compare

    return compare(classes, orders)


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


REQUIRED = object()  # the default of an option that must be given
CONDITION = {
    "--classes": (str, REQUIRED, "comma-separated integers c_1,...,c_N"),
    "--N": (int, None, "condition order (default: the number of classes)"),
}
# per command: handler, help line, and per option its type (int, or str for text), its
# default or REQUIRED and help line; sweep's limits are copies, so only sweep imports sweep
COMMANDS = {
    "check": (cmd_check, "test the integrality condition S_N", CONDITION),
    "count": (cmd_count, "count isomorphism classes for one tuple", {
        "--rank": (int, REQUIRED, "rank of the bundle"),
        "--dim": (int, REQUIRED, "dimension m of CP^m"),
        "--classes": (str, REQUIRED, "comma-separated integers c_1,...,c_min(rank,dim)"),
    }),
    "sweep": (cmd_sweep, "classify every tuple in a box", {
        "--rank": (int, REQUIRED, "rank of the bundles"),
        "--dim": (int, REQUIRED, "dimension m of CP^m"),
        "--bounds": (str, REQUIRED, 'one interval per class: "lo:hi,lo:hi,..."'),
        "--format": (str, "table", "json, csv or table"),
        "--max-tuples": (int, 10_000_000, "the most tuples a box may hold"),
        "--jobs": (int, 1, "lanes, 1 to 16: this process and N-1 worker processes"),
    }),
    "diagnose": (cmd_diagnose, "exact vs numeric values side by side", CONDITION),
}


def usage(command: Optional[str] = None) -> str:
    """The ``--help`` text of ``command``, or of the program."""
    if command is None:
        lines = [f"usage: {PROG} COMMAND [--OPTION VALUE ...] | --version | --help", "",
                 f"commands ({PROG} COMMAND --help for its options):"]
        lines += [f"  {name:<10}{summary}" for name, (_, summary, _) in COMMANDS.items()]
    else:
        _, summary, options = COMMANDS[command]
        lines = [f"usage: {PROG} {command} [--OPTION VALUE ...]", "", summary, "", "options:"]
        lines += [f"  {flag + (' INT' if kind is int else ' TEXT'):<18}{text}"
                  + {None: "", REQUIRED: " (required)"}.get(default, f" (default: {default})")
                  for flag, (kind, default, text) in options.items()]
    return "\n".join(lines)


def parse_argv(argv: Sequence[str]) -> tuple[Optional[str], object]:
    """``(command, its options by attribute)``, read from argv by COMMANDS.

    ``--help`` and ``--version``, first or after the command, give
    ``(None, the text to print)``; any other departure raises UsageError.
    """
    if not argv or argv[0] not in (*COMMANDS, "-h", "--help", "--version"):
        got = f", got {argv[0]!r}" if argv else ""
        raise UsageError(f"expected a command ({', '.join(COMMANDS)}){got}")
    command = argv[0] if argv[0] in COMMANDS else None
    options = COMMANDS[command][2] if command else {}
    values = {flag: default for flag, (_, default, _) in options.items()}
    rest = iter(argv[1:] if command else argv[:1])  # without a command, --help or --version
    for arg in rest:
        if arg in ("-h", "--help", "--version"):
            return None, f"{PROG} {__version__}" if arg == "--version" else usage(command)
        flag, joined, value = arg.partition("=")
        if flag not in options:
            raise UsageError(f"{command} has no option {flag}" if arg.startswith("-")
                             else f"unexpected argument {arg!r}")
        value = value if joined else next(rest, None)
        if value is None or value == "--":
            raise UsageError(f"{flag} expects a value")
        try:
            values[flag] = int(_readable(flag, value)) if options[flag][0] is int else value
        except ValueError:
            raise UsageError(f"{flag} expects an integer, got {value!r}")
    missing = [flag for flag, value in values.items() if value is REQUIRED]
    if missing:
        raise UsageError(f"{command} needs {', '.join(missing)}")
    return command, SimpleNamespace(**{flag[2:].replace("-", "_"): value
                                       for flag, value in values.items()})


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        command, args = parse_argv(sys.argv[1:] if argv is None else argv)
        if command is None:
            print(args)
            return 0
        return COMMANDS[command][0](args)
    except UsageError as exc:
        with suppress(BrokenPipeError):  # the code stays 2 with no reader of stderr
            print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # a sweep's reader closed (e.g. piped into head)
        return 0


def __getattr__(name: str):
    """``sweep.run_sweep``, imported on first use: the traced benchmark run wraps it here."""
    if name != "run_sweep":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .sweep import run_sweep

    return run_sweep


def run() -> NoReturn:
    """Run ``main`` on ``sys.argv`` and exit with its code, without interpreter teardown.

    A reader of stdout or stderr that has gone loses what is still
    buffered, silently, and the exit code stays the command's.  Any other
    failed write, such as to a full disk, is no verdict: it ends the run
    with one ``error:`` line on stderr and code 74 (EX_IOERR).
    """
    try:
        code = main()
        for stream in filter(None, (sys.stdout, sys.stderr)):
            with suppress(BrokenPipeError):
                stream.flush()
    except OSError as exc:  # main's own handlers have taken BrokenPipeError
        with suppress(OSError):
            os.write(2, f"error: {exc.strerror or exc}\n".encode())
        code = 74
    os._exit(code)


if __name__ == "__main__":
    run()
