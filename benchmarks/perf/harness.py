"""Shared pieces of the perf benchmark: spans, statistics, run tallies,
the host-speed probe and the environment fingerprint.

Nothing here imports :mod:`repro`; ``bench.py`` sets up the environment
(kernel cache, temp dir) before the program is imported, and
``compare.py`` never imports it at all.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: everything a run writes: records, traces, the compiled-kernel cache,
#: temp files and stream inputs (listed in the root .gitignore)
OUT = HERE / "out"

#: fingerprint fields two comparable records must share; commit, dirty
#: flag, source digest and seed legitimately differ between the sides
COMPARABLE = ("nproc", "affinity", "workers", "native", "python", "numpy",
              "machine", "scale", "seconds")


def load_spec() -> dict:
    """The benchmark definition (metric names, units, bounds)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- statistics ---------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: int) -> float:
    """The ``q``-th percentile (1..99), interpolated between order
    statistics; one sample is its own percentile."""
    values = list(values)
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


# -- spans ----------------------------------------------------------------------


class Recorder:
    """Spans (name, start, end, parent, trace id) kept in memory.

    The benchmark places them around its own calls into the program's
    layers; :meth:`add` records a span the program reported itself
    (a :class:`repro.obs.stats.StatsCollector` span delta), which has a
    duration but no exact start, so it is placed at its parent's start.
    """

    def __init__(self):
        self._t0 = time.perf_counter()
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _open(self, name: str, trace: int, start: float) -> dict:
        span = {
            "id": len(self.spans),
            "trace": trace,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": start,
            "end": start,
        }
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, trace: int):
        span = self._open(name, trace, time.perf_counter() - self._t0)
        self._stack.append(span["id"])
        try:
            yield span
        finally:
            span["end"] = time.perf_counter() - self._t0
            self._stack.pop()

    def add(self, name: str, parent: dict, duration: float) -> None:
        """A program-reported child span of ``parent``."""
        span = self._open(name, parent["trace"], parent["start"])
        span["parent"] = parent["id"]
        span["end"] = span["start"] + duration

    def timed(self, name: str, trace: int, iterable):
        """Yield from ``iterable``, one span per ``next()`` — time spent
        inside the producer, not in the consumer between items."""
        it = iter(iterable)
        while True:
            with self.span(name, trace):
                try:
                    item = next(it)
                except StopIteration:
                    return
            yield item

    @staticmethod
    def duration(span: dict) -> float:
        return span["end"] - span["start"]

    def total(self, name: str, trace: int | None = None, parent=None) -> float:
        """Summed duration of the spans called ``name`` (optionally of one
        trace, or children of one span)."""
        return sum(
            self.duration(s)
            for s in self.spans
            if s["name"] == name
            and (trace is None or s["trace"] == trace)
            and (parent is None or s["parent"] == parent["id"])
        )

    def as_list(self) -> list[dict]:
        """Every span with its self time: its duration minus the part
        its children cover."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (
                    child_time.get(s["parent"], 0.0) + self.duration(s)
                )
        return [
            dict(s, self=self.duration(s) - child_time.get(s["id"], 0.0))
            for s in self.spans
        ]


# -- operation tallies ----------------------------------------------------------


class Tally:
    """Attempted and failed operations plus correctness checks.

    A failed operation is an exception or a failed check; both count in
    the result line's ``failed``.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: list[dict] = []
        self.errors: list[str] = []

    def error(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(f"{what}\n{traceback.format_exc()}")

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        return ok


def run_n(count: int, op, tally: Tally, what: str, between):
    """Call ``op()`` ``count`` times, and ``between()`` after each call,
    outside its timing; returns the per-call durations and results of
    the calls that succeeded."""
    durations: list[float] = []
    results: list = []
    for call in range(count):
        t0 = time.perf_counter()
        try:
            result = op()
        except Exception:
            tally.error(f"{what} #{call} raised")
            continue
        durations.append(time.perf_counter() - t0)
        tally.ok()
        results.append(result)
        between()
    if not durations:
        raise RuntimeError(f"every {what} failed:\n{tally.errors[-1]}")
    return durations, results


def time_setups(setup, reps: int, between):
    """Run ``setup()`` ``reps`` times, dropping the previous state first
    and calling ``between()`` after each; returns the last state and
    every duration."""
    durations: list[float] = []
    state = None
    for _ in range(reps):
        state = None
        t0 = time.perf_counter()
        state = setup()
        durations.append(time.perf_counter() - t0)
        between()
    return state, durations


# -- environment ----------------------------------------------------------------


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "--no-optional-locks", "-C", str(ROOT), *args],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


class HostSpeed:
    """How fast the host runs during one run, from a fixed probe — a
    single-threaded NumPy sort plus a Python loop, code of the
    benchmark's own — timed between the timed operations.

    A shared host's speed drifts by 25-40% in phases that last minutes,
    which moves every time a run measures by the same factor.  Times
    are reported at the reference speed: divided by :attr:`factor`, the
    run's median probe over :data:`PROBE_REFERENCE_S`.
    """

    #: seconds one probe takes on the reference host (2-vCPU x86_64
    #: virtual machine, Python 3.11, NumPy 2.4, in a quiet stretch)
    PROBE_REFERENCE_S = 0.014
    #: probes per :meth:`probe` call; the stream workload makes only
    #: five timed passes, and its factor was the noisiest with one
    REPS = 3

    def __init__(self):
        import numpy as np

        self._values = np.random.default_rng(0).integers(
            0, 1 << 62, size=1 << 18
        )
        self._sort = np.sort
        self.samples: list[float] = []

    def probe(self) -> None:
        for _ in range(self.REPS):
            t0 = time.perf_counter()
            self._sort(self._values)
            sum(i * i for i in range(200_000))
            self.samples.append(time.perf_counter() - t0)

    @property
    def factor(self) -> float:
        return median(self.samples) / self.PROBE_REFERENCE_S


def source_digest() -> str:
    """sha256 over the program's sources: identifies the code under test
    even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(*, seed: int, scale: str, seconds: float, workers: int) -> dict:
    import numpy

    from repro.native import native_status

    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "workers": workers,
        "native": native_status(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "commit": commit.strip() if commit else None,
        "dirty": None if status is None else bool(status.strip()),
        "source_digest": source_digest(),
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
    }
