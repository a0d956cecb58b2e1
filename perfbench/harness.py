"""Shared plumbing: paths, timing, statistics, provenance, results.

Nothing here imports :mod:`repro`; ``run.py`` points the interpreter at
the checkout's ``src/`` first, and the set-up probe times the import of
the program itself.  Run as a script, this module is the child process
of :class:`SpeedProbe`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
#: everything a run writes lives here (git-ignored)
BUILD = ROOT / ".bench_build"
KERNEL_CACHE = BUILD / "repro-kernels"
RESULTS = BUILD / "results"

#: fewer samples than this beyond a percentile and the tail is not
#: reported at that percentile (see :func:`tail`)
TAIL_SAMPLES = 10


class Clock:
    """Accumulates only the intervals spent inside ``with clock:``.

    Verification, reference computation and bookkeeping run outside
    the ``with`` blocks, so they never count as measured time.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start = 0.0

    def __enter__(self) -> "Clock":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.last = time.perf_counter() - self._start
        self.seconds += self.last


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def quartiles(values: Sequence[float]) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them — the spread rule compare mode applies."""
    if len(values) < 2:
        v = float(values[0]) if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def tail(samples: Sequence[float], q: float = 0.99) -> tuple:
    """``(value, q_used)``: the ``q`` percentile, or — when fewer than
    :data:`TAIL_SAMPLES` samples would lie beyond it — the highest
    percentile that still has that many beyond it."""
    n = len(samples)
    if n == 0:
        return 0.0, q
    q_used = min(q, max(0.5, 1.0 - TAIL_SAMPLES / n))
    ordered = sorted(samples)
    index = min(n - 1, int(round(q_used * (n - 1))))
    return float(ordered[index]), q_used


#: iterations of the host-speed loop (see :class:`SpeedProbe`)
SPEED_LOOP = 100_000
#: seconds :data:`SPEED_LOOP` iterations take on the reference host
#: (2-core shared VM, CPython 3.11) in a quiet spell
SPEED_REFERENCE_S = 0.006


def speed_loop_s(repeats: int) -> float:
    """Median seconds of ``repeats`` passes of a fixed pure-Python loop."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(SPEED_LOOP):
            total += i * i
        times.append(time.perf_counter() - start)
    return median(times)


class SpeedProbe:
    """How much slower the host runs right now than the reference host.

    A shared VM's speed moves with its neighbours' load for minutes at a
    time, every kind of work alike, by up to 45%, so two runs of the same
    code can read far apart.  The gated timings are divided by the
    slowness sampled next to the operations they time (rates
    multiplied), which reports them at the reference host's speed.

    The loop runs in a child process: in the program's process it would
    share the interpreter lock with the program's threads (an idle
    ``PartitionService`` alone makes it 30% slower), so a program change
    that adds a thread would read as a faster program.  The loop is the
    benchmark's own code and calls nothing of the program.  The child
    ends when its input closes, also when this process dies.
    """

    def __init__(self) -> None:
        self._child = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def __call__(self, repeats: int = 1) -> float:
        """The loop's median time over ``repeats`` passes, over
        :data:`SPEED_REFERENCE_S`."""
        self._child.stdin.write(f"{repeats}\n")
        self._child.stdin.flush()
        return float(self._child.stdout.readline()) / SPEED_REFERENCE_S

    def close(self) -> None:
        self._child.stdin.close()
        try:
            self._child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._child.kill()
            self._child.wait()
        self._child.stdout.close()


def _serve_speed_loop() -> None:
    """The probe's child: one median loop time per requested line."""
    for line in sys.stdin:
        print(speed_loop_s(int(line)), flush=True)


def reset_peak_rss() -> bool:
    """Lower this process's resident high-water mark to its current
    resident set (Linux ``clear_refs``), so a later
    :func:`peak_rss_mib` sees only what came after.  False where the
    kernel does not offer it."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def peak_rss_mib() -> float:
    """Peak resident set of this process since the last
    :func:`reset_peak_rss` (``VmHWM``; no allocation tracing), or over
    its whole life (``ru_maxrss``) where ``/proc`` has no ``VmHWM``."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_times() -> tuple:
    """(steal, total) jiffies of the whole host so far, from
    ``/proc/stat``; (0, 0) where that is unavailable."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def thread_bytes_written() -> int:
    """Bytes this thread has passed to ``write()``-family calls."""
    try:
        with open("/proc/thread-self/io") as handle:
            for line in handle:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------

def _git(*args: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(seed: int) -> dict:
    """Where and from what a result came.  ``commit`` is ``None`` when
    the checkout is not a git repository."""
    import numpy as np

    from repro import kernels
    from repro.kernels import build

    # a checkout that is not itself a git work tree has no commit, even
    # when it sits inside some other repository
    in_tree = _git("rev-parse", "--show-toplevel") == str(ROOT)
    commit = _git("rev-parse", "HEAD") if in_tree else None
    status = (_git("status", "--porcelain", "--untracked-files=no")
              if in_tree else None)
    # the build module's flag lists are private; read them defensively
    base = getattr(build, "_BASE_FLAGS", [])
    arch = getattr(build, "_ARCH_FLAGS", [[]])
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "kernel_backend": kernels.backend_name(),
        "library": str(kernels.library_path().name),
        # the flags tried first; the build drops the arch flags only if
        # the compiler rejects them
        "compiler_flags": list(base) + list(arch[0]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
    }


#: provenance fields that must agree before two results are compared
#: (the Python version sets the host-speed loop's time)
HOST_FIELDS = ("nproc", "cpu_model", "kernel_backend", "compiler_flags",
               "python")


def host_mismatch(a: dict, b: dict) -> List[str]:
    """Host/backend fields on which two provenance blocks differ."""
    return [f for f in HOST_FIELDS if a.get(f) != b.get(f)]


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------

@dataclasses.dataclass
class Metric:
    value: float
    unit: str
    #: samples behind a timing (0 when the metric is not a timing)
    samples: int = 0
    note: str = ""


@dataclasses.dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, Metric] = dataclasses.field(default_factory=dict)
    details: dict = dataclasses.field(default_factory=dict)
    provenance: dict = dataclasses.field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0

    def put(self, name: str, value: float, unit: str, samples: int = 0,
            note: str = "") -> None:
        self.metrics[name] = Metric(float(value), unit, samples, note)

    def contract_line(self, names: Sequence[str]) -> str:
        """The one-line JSON result: exactly the named metrics."""
        return json.dumps({
            "correct": self.correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {
                name: {
                    "value": self.metrics[name].value,
                    "unit": self.metrics[name].unit,
                }
                for name in names
            },
        })

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "trace": self.trace,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_frac": self.failed / max(1, self.attempted),
            "metrics": {
                name: dataclasses.asdict(m) for name, m in self.metrics.items()
            },
            "details": self.details,
            "provenance": self.provenance,
        }

    def report(self, out=sys.stdout) -> None:
        """Human-readable table: every metric with its unit."""
        print(
            f"[{self.workload}] seed={self.seed} trace={int(self.trace)} "
            f"attempted={self.attempted} failed={self.failed} "
            f"failed_frac={self.failed / max(1, self.attempted):.6f}",
            file=out,
        )
        for name, m in self.metrics.items():
            extra = f"  (n={m.samples})" if m.samples else ""
            note = f"  [{m.note}]" if m.note else ""
            print(f"  {name:<40} {m.value:>14.6g} {m.unit}{extra}{note}",
                  file=out)


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


if __name__ == "__main__":
    _serve_speed_loop()
