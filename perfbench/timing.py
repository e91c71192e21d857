"""Drift-normalised timing: a reference loop that shares the CPU with the
measured code, and the measured CLI child.

On a shared 2-vCPU machine the speed of each vCPU swings by a factor of two
within seconds, and the two vCPUs swing independently (see README).  A raw
duration therefore says as much about the machine as about the code, and so
does a reference loop timed before and after a call, or one running on the
other vCPU.  Instead, the benchmark and every process it starts are pinned to
one CPU, and a helper process pinned to the same CPU runs a fixed reference
loop for the whole run, writing a timestamp after every round of it.  The
scheduler shares the CPU evenly between the helper and the measured code, so
the number of loop rounds the helper completes while a call runs is the
call's CPU work in units of the loop, whatever the CPU's speed at that moment.
The loop also scans objects spread over its heap, so that it slows, as calls
that walk a large model do, when the caches are contended.
``REF_SECONDS`` converts rounds back to seconds, so metrics read as seconds.

The CLI children are started by a small launcher process (see
:class:`Launcher`), so that their peak RSS is their own.

Nothing here imports ``maa``.  Run as a script, this module is the reference
loop helper (``clock PATH``) or the launcher (``launch``).
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import statistics
import struct
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

LOOP_ITERATIONS = 5_000
SCAN_ITEMS = 5_000
SCANS = 3
# Time of one reference_loop() running alone on a vCPU of a 2-vCPU x86-64
# sandbox under CPython 3.11.7: the lower decile of 10 s of rounds was 1.81 ms
# (see README).  Fixed, so that one commit's seconds and the next's are on
# the same scale.
REF_SECONDS = 0.0018

# A measured sample repeats its call until at least this much wall time has
# passed, so that millisecond calls are not timed one at a time.
MIN_SAMPLE_S = 0.5

_STAMP = struct.Struct("d")


class _Item:
    def __init__(self, key: str):
        self.key = key


def scan_items(n: int = SCAN_ITEMS) -> tuple[list[_Item], list]:
    """``n`` small objects, each allocated after about 3 KB of other live
    objects, as the transitions of a parsed model lie among their syntax
    trees.  Returns the objects and the padding that keeps them apart."""
    items, padding = [], []
    for i in range(n):
        padding.append([(i, j, str(j)) for j in range(25)])
        items.append(_Item(f"S{i % 50}"))
    return items, padding


def reference_loop(items: list[_Item], n: int = LOOP_ITERATIONS) -> int:
    """Interpreter-bound work (dict lookups and stores, calls, string
    building), then ``SCANS`` passes over ``items`` comparing an attribute,
    as the engine scans an automaton's transitions.  The first part runs at
    the CPU's speed; the scans also slow down when the caches the items sit
    in are contended, as calls that walk a large model do."""
    table: dict[int, int] = {}
    total = 0
    for i in range(n):
        key = i % 251
        table[key] = table.get(key, 0) + 1
        total += len(str(i)) + _step(key)
    for r in range(SCANS):
        key = f"S{r}"
        for item in items:
            if item.key == key:
                total += 1
    return total


def _step(k: int) -> int:
    return k & 3


def _helper(path: str) -> None:
    """Run reference_loop() until the parent goes away or stops us, appending
    the perf_counter() value at the end of every round to ``path``."""
    parent = os.getppid()
    items, _padding = scan_items()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        while os.getppid() == parent:
            reference_loop(items)
            os.write(fd, _STAMP.pack(time.perf_counter()))
    finally:
        os.close(fd)


def pin_to_one_cpu() -> None:
    """Pin this process, and so every process it starts from now on, to one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class RefClock:
    """The co-scheduled reference loop.  Use as a context manager; intervals
    are converted to reference seconds after it has stopped."""

    def __init__(self, path: Path):
        self.path = path
        self.stamps: list[float] = []
        self._proc = None

    def __enter__(self) -> "RefClock":
        self.path.unlink(missing_ok=True)
        self._proc = subprocess.Popen(
            [sys.executable, __file__, "clock", str(self.path)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        deadline = time.perf_counter() + 30
        while not self.path.exists() or self.path.stat().st_size < 2 * _STAMP.size:
            if self._proc.poll() is not None or time.perf_counter() > deadline:
                self._proc.kill()
                self._proc.wait()
                raise RuntimeError("the reference-loop helper did not start")
            time.sleep(0.01)
        return self

    def __exit__(self, *exc) -> None:
        try:
            # Let the helper finish a round after the last measured interval.
            stop = time.perf_counter()
            while (self._read()[-1] <= stop and self._proc.poll() is None
                   and time.perf_counter() < stop + 30):
                time.sleep(0.005)
        finally:
            self._proc.terminate()
            self._proc.wait()
        self.stamps = self._read()

    def _read(self) -> list[float]:
        data = self.path.read_bytes()
        data = data[:len(data) - len(data) % _STAMP.size]
        return [s for (s,) in _STAMP.iter_unpack(data)]

    def rounds(self, start: float, end: float) -> float:
        """Reference-loop rounds completed between two perf_counter() values,
        interpolated within the rounds at either end."""
        return self._position(end) - self._position(start)

    def seconds(self, start: float, end: float) -> float:
        return self.rounds(start, end) * REF_SECONDS

    def _position(self, t: float) -> float:
        stamps = self.stamps
        k = bisect.bisect_right(stamps, t)
        if k == 0 or k == len(stamps):
            raise ValueError("interval outside the reference clock's run")
        before, after = stamps[k - 1], stamps[k]
        return k - 1 + (t - before) / (after - before)


@dataclass
class Sampler:
    """Times calls on a :class:`RefClock`."""

    clock: RefClock
    intervals: dict[str, list[tuple[float, float, int]]] = field(default_factory=dict)

    def measure(self, name: str, call: Callable[[], object]):
        """Run ``call`` repeatedly for one sample; returns its last result and
        the number of calls made."""
        gc.collect()   # garbage of the previous sample is not this one's cost
        calls = 0
        start = time.perf_counter()
        while True:
            result = call()
            calls += 1
            end = time.perf_counter()
            if end - start >= MIN_SAMPLE_S:
                break
        self.intervals.setdefault(name, []).append((start, end, calls))
        return result, calls

    def seconds(self, name: str) -> float:
        """Median reference seconds per call; valid once the clock has stopped."""
        return statistics.median(self.samples(name))

    def samples(self, name: str) -> list[float]:
        return [self.clock.seconds(a, b) / n for a, b, n in self.intervals[name]]

    def raw(self, name: str) -> float:
        """Median wall seconds per call, slowed by sharing the CPU."""
        return statistics.median((b - a) / n for a, b, n in self.intervals[name])


@dataclass
class ChildResult:
    code: int
    start: float
    end: float
    peak_rss_mb: float
    stderr: str


def run_child(argv: list[str], env: dict[str, str], cwd: str, stdout_path: str) -> ChildResult:
    """Run one process to its end, stdout to a file; its interval comes from
    the parent's clock and its peak RSS from its ``wait4`` rusage."""
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out,
                                stderr=subprocess.PIPE, stdin=subprocess.DEVNULL)
        # Read stderr before reaping; the child could block on a full pipe.
        err = proc.stderr.read()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return ChildResult(proc.returncode, start, end, usage.ru_maxrss / 1024,
                       err.decode("utf-8", "replace"))


class Launcher:
    """A small process that starts the measured children and reports on them.

    A child's ``ru_maxrss`` starts from the peak RSS of the process that
    forked it, and the benchmark holds large models and traces.  The launcher
    is started while the benchmark is still small and stays small, so the
    peak it passes on is below that of any child it starts."""

    def __enter__(self) -> "Launcher":
        self._proc = subprocess.Popen([sys.executable, __file__, "launch"], text=True,
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()

    def run(self, argv: list[str], env: dict[str, str], cwd: str,
            stdout_path: str) -> ChildResult:
        self._proc.stdin.write(json.dumps([argv, env, cwd, stdout_path]) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher exited")
        return ChildResult(**json.loads(reply))


def _launch() -> None:
    for line in sys.stdin:
        result = run_child(*json.loads(line))
        print(json.dumps(asdict(result)), flush=True)


if __name__ == "__main__":
    if sys.argv[1] == "clock":
        _helper(sys.argv[2])
    else:
        _launch()
