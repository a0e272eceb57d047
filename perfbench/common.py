"""Helpers shared by the benchmark's workloads.

Everything here is independent of the program under test, so a change
to the program cannot change how the benchmark measures it:

* :class:`Tracer` keeps spans (name, start, end, parent, id) in memory;
  :func:`self_times` and :func:`busy_by_name` turn them into per-layer
  busy time;
* :func:`nearest_rank` is the percentile every latency figure uses;
* :class:`OpenLoop` does the due-time and lateness accounting of the
  serve workload's open-loop client;
* :func:`environment` stamps versions, CPU count, code identity and a
  journal-directory fsync probe into the output.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

#: Repository root of the checkout the benchmark runs in.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run leaves behind (ignored by git).
OUT = Path(__file__).resolve().parent / "out"


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def nearest_rank(samples: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank ``q``-th percentile of *samples* and the sample count.

    The value is an actual sample: the smallest one with at least ``q``
    percent of the samples at or below it.  Empty input gives
    ``(nan, 0)`` so a missing figure cannot pass for a fast one.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    n = len(samples)
    if n == 0:
        return float("nan"), 0
    ordered = sorted(samples)
    rank = max(1, -(-n * q // 100))
    return ordered[int(rank) - 1], n


def median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else float("nan")


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: index of the enclosing span in :attr:`Tracer.spans`, -1 for a root.
    parent: int
    #: cell seed or offer sequence number this span belongs to.
    ident: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, ident: Any = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, time.perf_counter(), float("nan"), parent, ident)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, ident: Any = None) -> None:
        """Record a span measured elsewhere (e.g. by the load generator)."""
        if self.enabled:
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(Span(name, start, end, parent, ident))

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def to_rows(self) -> list[list[Any]]:
        """Compact form for the trace file: [name, start, end, parent, id]."""
        return [[s.name, s.start, s.end, s.parent, s.ident] for s in self.spans]


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to the parent's interval and overlapping
    children are counted once, so self time is never negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        clipped = [
            (max(lo, span.start), min(hi, span.end))
            for lo, hi in children.get(i, [])
            if min(hi, span.end) > max(lo, span.start)
        ]
        out.append(span.duration - _union_length(clipped))
    return out


def busy_by_name(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name, in seconds."""
    busy: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        busy[span.name] = busy.get(span.name, 0.0) + own
    return busy


# ---------------------------------------------------------------------------
# open-loop accounting
# ---------------------------------------------------------------------------


@dataclass
class OpenLoop:
    """Due-time, lateness and backlog ledger of an open-loop client.

    Offer ``i`` is due at ``due[i]`` (seconds after the loop's start) and
    belongs to ladder step ``step[i]``.  Latency runs from the due time,
    not the send time, so a client or server stall is charged to every
    offer it delays; lateness (send minus due) says how far behind the
    generator itself ran.
    """

    due: list[float]
    step: list[int]
    sent: list[float] = field(default_factory=list)
    received: dict[int, float] = field(default_factory=dict)
    #: outstanding offers (sent, not answered) seen at each send.
    backlog: list[int] = field(default_factory=list)
    errors: set[int] = field(default_factory=set)

    def on_send(self, i: int, t: float) -> None:
        if i != len(self.sent):
            raise ValueError(f"offer {i} sent out of order")
        self.sent.append(t)
        self.backlog.append(len(self.sent) - len(self.received))

    def on_reply(self, i: int, t: float, ok: bool = True) -> None:
        if i >= len(self.sent) or i in self.received:
            raise ValueError(f"reply for offer {i} that is not outstanding")
        self.received[i] = t
        if not ok:
            self.errors.add(i)

    def latencies(self, step: int | None = None) -> list[float]:
        """Due-to-reply seconds of every answered, non-error offer."""
        return [
            t - self.due[i]
            for i, t in self.received.items()
            if i not in self.errors and (step is None or self.step[i] == step)
        ]

    def lateness(self) -> list[float]:
        return [t - d for t, d in zip(self.sent, self.due)]

    def missing(self, step: int | None = None) -> int:
        """Offers of *step* that got no reply or an error reply."""
        return sum(
            1
            for i in range(len(self.due))
            if (step is None or self.step[i] == step)
            and (i not in self.received or i in self.errors)
        )

    def backlog_max(self, step: int) -> int:
        return max(
            (b for b, s in zip(self.backlog, self.step) if s == step), default=0
        )

    def delivered_rate(self, step: int) -> float:
        """Answered offers of *step* per second, first due to last reply."""
        members = [i for i, s in enumerate(self.step) if s == step]
        done = [self.received[i] for i in members if i in self.received]
        if not done:
            return 0.0
        span = max(done) - self.due[members[0]]
        return len(done) / span if span > 0 else 0.0


def poisson_schedule(
    plan: list[tuple[float, float, float]], rng: Any
) -> tuple[list[float], list[int]]:
    """Due times of Poisson arrivals over *plan*'s (start, end, rate) steps.

    Offer labels are the index of their step in *plan*; the time between
    one step's end and the next one's start stays empty.
    """
    due: list[float] = []
    step: list[int] = []
    for k, (lo, hi, rate) in enumerate(plan):
        t = lo + float(rng.exponential(1.0 / rate))
        while t < hi:
            due.append(t)
            step.append(k)
            t += float(rng.exponential(1.0 / rate))
    return due, step


# ---------------------------------------------------------------------------
# process and environment
# ---------------------------------------------------------------------------


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and check it is used."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"imported repro from {repro.__file__}, not {SRC}")


def program_env() -> dict[str, str]:
    """Environment for program subprocesses: this checkout's source only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_NUMBA", None)
    return env


def peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped children, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def import_seconds(module: str) -> float:
    """Wall time of a fresh interpreter that imports *module* and exits."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=program_env(),
        check=True,
        timeout=120,
    )
    return time.perf_counter() - t0


def fsync_probe(directory: Path, appends: int = 200) -> list[float]:
    """Seconds per append+flush+fsync of a journal-sized line in *directory*."""
    path = directory / "fsync-probe.jsonl"
    line = '{"kind":"probe","payload":"' + "x" * 160 + '"}\n'
    out = []
    with open(path, "w", encoding="utf-8") as fh:
        for _ in range(appends):
            t0 = time.perf_counter()
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())
            out.append(time.perf_counter() - t0)
    path.unlink()
    return out


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_rev() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(journal_dir: Path) -> dict[str, Any]:
    """Versions, CPU count, code identity and an fsync-latency probe."""
    import numpy
    import scipy

    fsyncs = [1e6 * s for s in fsync_probe(journal_dir)]
    p50, n = nearest_rank(fsyncs, 50)
    p99, _ = nearest_rank(fsyncs, 99)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": _git_rev(),
        "src_sha256": _source_digest(),
        "fsync_us": {"p50": p50, "p99": p99, "n": n},
    }
