"""Run the real CLI as a subprocess and time it from spawn to EOF on stdout."""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import json
import os
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACEBACK = b"Traceback (most recent call last)"


class RunAborted(RuntimeError):
    """An invocation outlived the run's hard deadline and was killed."""


def clean_env() -> dict:
    """The caller's environment without BUNDLE_CENSUS_* and PYTHON*, plus PYTHONPATH=src.

    Interpreter variables change what is measured: PYTHONUNBUFFERED turns
    every record into its own write to the pipe, PYTHONDONTWRITEBYTECODE
    recompiles the package on every start.  Without them the program runs
    as an installed CLI does.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("BUNDLE_CENSUS_", "PYTHON"))}
    env["PYTHONPATH"] = str(SRC)
    return env


@functools.cache
def reference_kernels():
    """The program's bignum reference kernel, ``_kernels_py``, loaded by path.

    Importing it through the package would run ``bundle_census/__init__``,
    which imports numpy into the harness; see LineTap for why the harness
    stays small.
    """
    path = SRC / "bundle_census" / "_kernels_py.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference_kernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def program_info(env: dict, deadline: float) -> dict:
    """Kernel backend and numpy version as the program's own interpreter sees them."""
    code = ("import json, numpy, bundle_census; print(json.dumps("
            "{'backend': bundle_census.backend_name(), 'numpy': numpy.__version__}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                         text=True, timeout=max(1.0, deadline - time.perf_counter()))
    return json.loads(out.stdout) if out.returncode == 0 else {"backend": "unknown"}


class LineTap:
    """Keeps the stdout lines whose 0-based index is in ``wanted``, plus the
    last two lines, and counts lines, without holding the whole output.

    A harness holding whole outputs would grow, and a child spawned from it
    starts with the harness's peak RSS as its own (the exec'd image inherits
    the spawner's high-water mark), which would inflate every later
    child's ``ru_maxrss``.
    """

    def __init__(self, wanted=()):
        self.wanted = set(wanted)
        self.lines: dict[int, bytes] = {}
        self.count = 0          # complete lines seen
        self.tail: list[bytes] = []
        self._partial = b""

    def feed(self, data: bytes) -> None:
        parts = (self._partial + data).split(b"\n")
        self._partial = parts.pop()
        for line in parts:
            if self.count in self.wanted:
                self.lines[self.count] = line
            self.count += 1
        self.tail = (self.tail + parts)[-2:]

    @property
    def unterminated(self) -> bytes:
        return self._partial


@dataclass
class Invocation:
    """One finished program run: timings, exit status, output digest."""

    wall_s: float          # spawn to EOF on stdout
    first_byte_s: float    # spawn to the first stdout byte (wall_s if none)
    returncode: int
    maxrss_kb: int         # wait4 rusage: the child and every child it reaped
    md5: str
    stdout: bytes          # the whole output when kept, else b""
    stderr: bytes

    @property
    def traceback(self) -> bool:
        return TRACEBACK in self.stderr

    def failed(self, ok_codes) -> bool:
        return self.returncode not in ok_codes or self.traceback


def invoke(args, env: dict, deadline: float, tap: LineTap | None = None,
           keep: bool = False) -> Invocation:
    """Run ``python -m bundle_census *args`` and wait for it to exit.

    Stdout is hashed as it arrives and fed to ``tap``; it is kept whole only
    with ``keep``.  Both pipes are drained together so neither can fill and
    stall the child.  Past ``deadline`` (a ``time.perf_counter`` value) the
    child is killed, reaped, and RunAborted raised.
    """
    argv = [sys.executable, "-m", "bundle_census", *args]
    digest = hashlib.md5()
    kept, err = bytearray(), bytearray()
    first = eof = None
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT)
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ, "out")
        sel.register(proc.stderr, selectors.EVENT_READ, "err")
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            events = sel.select(timeout=remaining) if remaining > 0 else []
            if not events:
                proc.kill()
                proc.wait()
                proc.stdout.close()
                proc.stderr.close()
                raise RunAborted(f"{' '.join(args[:1])} still running at the deadline")
            for key, _ in events:
                data = os.read(key.fd, 1 << 16)
                if not data:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
                    if key.data == "out":
                        eof = time.perf_counter()
                elif key.data == "err":
                    err.extend(data)
                else:
                    if first is None:
                        first = time.perf_counter()
                    digest.update(data)
                    if tap is not None:
                        tap.feed(data)
                    if keep:
                        kept.extend(data)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        wall_s=eof - t0,
        first_byte_s=(first if first is not None else eof) - t0,
        returncode=proc.returncode,
        maxrss_kb=usage.ru_maxrss,
        md5=digest.hexdigest(),
        stdout=bytes(kept),
        stderr=bytes(err),
    )


def python_wall(code: str, env: dict) -> float:
    """Wall time of a fresh ``python -c code`` (used for import costs).

    Waits with a blocking ``wait4``: ``Popen.wait(timeout=...)`` polls with
    sleeps of up to 50 ms, which would swamp the times measured.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], env=env, cwd=ROOT,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, _ = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"python -c {code!r} exited {proc.returncode}")
    return wall
