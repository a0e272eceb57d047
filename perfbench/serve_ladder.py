"""The serve workload: a journaled ``repro serve`` up an open-loop rate ladder.

One client process, one asyncio thread, one connection.  Offers follow a
Poisson schedule that climbs the rate ladder several times inside one
long session, so cost that grows with session length shows in the later
climbs.  Each offer is timed from its due time.  The traced run replays
the same offers in-process, once through ``AdmissionServer.offer_payload`` and
once through its parts, and checks that every replay decides exactly
what the live server decided.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from common import (
    ROOT,
    OpenLoop,
    Tracer,
    median,
    nearest_rank,
    poisson_schedule,
    program_env,
)
from repro.engine.controller import open_session
from repro.serve.protocol import decode_line, encode_line, job_from_message
from repro.serve.server import AdmissionServer, ServeConfig
from repro.serve.snapshotter import (
    DecisionJournal,
    load_decision_journal,
    service_fingerprint,
    verify_decision_log,
)
from repro.workloads.arrivals import mmpp_instance

ALGORITHM = "threshold"
MACHINES = 4
EPSILON = 0.5
#: Offers per second at each ladder step.  The top step offers more than
#: the journaled server takes, so its delivered rate is the capacity.
RATES = (250, 500, 800, 3000)
#: The session climbs the ladder this many times; each climb is followed
#: by a quiet slot that drains the top step's backlog.  The capacity is
#: the median over climbs, so one stall of the machine moves one climb.
CYCLES = 4
#: A step passes when its p99 is within this limit and no offer is lost.
LIMIT_MS = 50.0
#: Server starts per run (median is the set-up time).
SETUP_PROBES = 3
#: Seconds to wait for the last replies after the last offer is due.
DRAIN_SECONDS = 30.0


def label(cycle: int, k: int) -> int:
    """Step label of ladder step *k* in climb *cycle*."""
    return cycle * len(RATES) + k


@dataclass
class Ladder:
    setups: list[float]
    ledger: OpenLoop
    log: Path
    rss_mb: float
    problems: list[str] = field(default_factory=list)

    def step_stats(self, k: int) -> dict[str, Any]:
        """Ladder step *k* pooled over every climb."""
        labels = [label(c, k) for c in range(CYCLES)]
        millis = [1000.0 * s for c in labels for s in self.ledger.latencies(c)]
        p50, n = nearest_rank(millis, 50)
        p99, _ = nearest_rank(millis, 99)
        return {"p50": p50, "p99": p99, "n": n,
                "missing": sum(self.ledger.missing(c) for c in labels),
                "backlog_max": max(self.ledger.backlog_max(c) for c in labels),
                "rate": median([self.ledger.delivered_rate(c) for c in labels])}

    def max_rate(self) -> tuple[float, int]:
        """Delivered rate of the highest step that meets the limit."""
        best, n = 0.0, 0
        for k in range(len(RATES)):
            stats = self.step_stats(k)
            if stats["n"] and not stats["missing"] and stats["p99"] <= LIMIT_MS:
                best, n = stats["rate"], stats["n"]
        return best, n

    def e2e(self) -> dict[str, tuple[float, str, int]]:
        top = len(RATES) - 1
        return {
            "setup_s": (median(self.setups), "s", len(self.setups)),
            "throughput_per_s": (
                median([self.ledger.delivered_rate(label(c, top)) for c in range(CYCLES)]),
                "1/s", CYCLES),
            "peak_rss_mb": (self.rss_mb, "MiB", 1),
        }


def offers(seed: int, seconds: float) -> tuple[list[bytes], OpenLoop]:
    """Request lines and their due times, all drawn from *seed*."""
    slot = seconds / CYCLES / (len(RATES) + 1)
    plan = [
        (start, start + slot, rate)
        for c in range(CYCLES)
        for k, rate in enumerate(RATES)
        for start in [(c * (len(RATES) + 1) + k) * slot]
    ]
    due, step = poisson_schedule(plan, np.random.default_rng([seed, 1]))
    instance = mmpp_instance(len(due), MACHINES, EPSILON, seed=[seed, 2])
    lines = [
        (json.dumps({"op": "offer", "tag": i, "job": {
            "release": job.release, "processing": job.processing,
            "deadline": job.deadline}}) + "\n").encode()
        for i, job in enumerate(instance.jobs)
    ]
    return lines, OpenLoop(due, step)


def start_server(log: Path) -> tuple[subprocess.Popen, int, float]:
    """Spawn ``repro serve``; returns it, its port and seconds to listening."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--algorithm", ALGORITHM,
         "--m", str(MACHINES), "--eps", str(EPSILON), "--decision-log", str(log)],
        cwd=ROOT, env=program_env(), stdout=subprocess.PIPE,
    )
    deadline = t0 + 60.0
    buf = b""
    while b"\n" not in buf:
        left = deadline - time.perf_counter()
        if left <= 0:
            stop_server(proc)
            raise RuntimeError("repro serve did not announce a listening port")
        ready, _, _ = select.select([proc.stdout], [], [], left)
        if ready:
            chunk = os.read(proc.stdout.fileno(), 4096)
            if not chunk:
                stop_server(proc)
                raise RuntimeError("repro serve exited before listening")
            buf += chunk
    announce = json.loads(buf.split(b"\n", 1)[0])
    return proc, int(announce["socket_port"]), time.perf_counter() - t0


def stop_server(proc: subprocess.Popen, grace: float = 30.0) -> float:
    """SIGTERM, wait (SIGKILL after *grace*); returns peak RSS in MiB.

    The child is reaped here with ``wait4`` (never ``Popen.poll``), so its
    pid stays ours until then and its resource usage is read exactly once.
    """
    os.kill(proc.pid, signal.SIGTERM)
    deadline = time.monotonic() + grace
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            break
        if time.monotonic() > deadline:
            os.kill(proc.pid, signal.SIGKILL)
            deadline = float("inf")
        time.sleep(0.01)
    proc.stdout.close()
    return usage.ru_maxrss / 1024.0


async def drive(port: int, lines: list[bytes], ledger: OpenLoop, tracer: Tracer) -> None:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    n = len(lines)
    t0 = time.perf_counter()

    async def send() -> None:
        i = 0
        while i < n:
            now = time.perf_counter() - t0
            if ledger.due[i] > now:
                # Spin, yielding to the loop so replies are read, rather
                # than sleep: an epoll timeout rounds up to whole
                # milliseconds and an idle vCPU wakes late, both of which
                # would be charged to the server as latency.
                await asyncio.sleep(0)
                continue
            first = i
            while i < n and ledger.due[i] <= now:
                ledger.on_send(i, now)
                i += 1
            writer.write(b"".join(lines[first:i]))
            await writer.drain()

    async def receive() -> None:
        for _ in range(n):
            raw = await reader.readline()
            if not raw:
                return
            t = time.perf_counter() - t0
            reply = json.loads(raw)
            i = reply.get("tag")
            if not isinstance(i, int):
                raise RuntimeError(f"reply without an offer tag: {raw!r}")
            ok = reply.get("ok") is True and reply.get("seq") == i
            ledger.on_reply(i, t, ok)
            tracer.add("loadgen.offer", t0 + ledger.due[i], t0 + t, i)

    sender = asyncio.create_task(send())
    try:
        await asyncio.wait_for(receive(), ledger.due[-1] + DRAIN_SECONDS)
    except asyncio.TimeoutError:
        pass  # unanswered offers are counted as missing
    finally:
        sender.cancel()
        await asyncio.gather(sender, return_exceptions=True)
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


def ladder(seed: int, seconds: float, work: Path, tag: str, tracer: Tracer) -> Ladder:
    lines, ledger = offers(seed, seconds)
    setups = []
    for k in range(SETUP_PROBES):
        log = work / f"{tag}-decisions{k}.jsonl"
        proc, port, took = start_server(log)
        setups.append(took)
        if k < SETUP_PROBES - 1:
            stop_server(proc)
    try:
        with tracer.span("loadgen.ladder"):
            asyncio.run(drive(port, lines, ledger, tracer))
    finally:
        rss = stop_server(proc)
    result = Ladder(setups, ledger, log, rss)
    if proc.returncode != 0:
        result.problems.append(f"repro serve exited {proc.returncode}")
    ok, detail = verify_decision_log(log)
    if not ok:
        result.problems.append(f"decision log does not replay: {detail}")
    logged = len(load_decision_journal(log).decisions)
    answered = len(ledger.received) - len(ledger.errors)
    if not answered <= logged <= len(lines):
        result.problems.append(
            f"{logged} decisions logged for {answered} answered of {len(lines)} offers")
    return result


# ---------------------------------------------------------------------------
# traced replay
# ---------------------------------------------------------------------------


async def replay_server(lines: list[bytes], log: Path, tracer: Tracer) -> None:
    """decode -> ``offer_payload`` -> encode, as the socket handler does."""
    server = AdmissionServer(ServeConfig(
        ALGORITHM, MACHINES, EPSILON, decision_log=str(log)))
    await server.start()
    try:
        for i, raw in enumerate(lines):
            with tracer.span("serve.protocol.decode", i):
                message = decode_line(raw)
            with tracer.span("serve.server.offer", i):
                reply = server.offer_payload(message.get("job"), message.get("tag"))
            with tracer.span("serve.protocol.encode", i):
                encode_line(reply)
    finally:
        server.request_shutdown()
        await server.serve_until_shutdown()


def replay_parts(lines: list[bytes], log: Path, tracer: Tracer) -> None:
    """The two layers ``offer_payload`` wraps, on a twin session."""
    session = open_session(ALGORITHM, machines=MACHINES, epsilon=EPSILON)
    service = service_fingerprint(ALGORITHM, MACHINES, EPSILON, {}, "")
    journal = DecisionJournal.create(log, service)
    try:
        for i, raw in enumerate(lines):
            job = job_from_message(json.loads(raw)["job"], clock=session.now,
                                   epsilon=session.epsilon)
            with tracer.span("engine.controller.offer", i):
                decision = session.offer(job)
            stamped = session.jobs[i]
            with tracer.span("serve.snapshotter.record", i):
                journal.record_decision(i, stamped, decision)
        journal.seal()
    finally:
        journal.close()


def _us(tracer: Tracer, name: str) -> list[float]:
    return [1e6 * d for d in tracer.durations(name)]


def load_metrics(live: Ladder) -> dict[str, tuple[float, str, int]]:
    """What the client saw at each ladder step (free in every run)."""
    out: dict[str, tuple[float, str, int]] = {}
    value, n = live.max_rate()
    out["serve.max_rate"] = (value, "1/s", n)
    late = [1000.0 * s for s in live.ledger.lateness()]
    value, n = nearest_rank(late, 99)
    out["loadgen.late_p99_ms"] = (value, "ms", n)
    for k, rate in enumerate(RATES):
        stats = live.step_stats(k)
        out[f"loadgen.r{rate}.p50_ms"] = (stats["p50"], "ms", stats["n"])
        out[f"loadgen.r{rate}.p99_ms"] = (stats["p99"], "ms", stats["n"])
        out[f"loadgen.r{rate}.backlog_max"] = (float(stats["backlog_max"]), "count", stats["n"])
    return out


def layer_metrics(live: Ladder, tracer: Tracer) -> dict[str, tuple[float, str, int]]:
    out = load_metrics(live)
    for metric, name in (("serve.protocol.decode_us", "serve.protocol.decode"),
                         ("serve.protocol.encode_us", "serve.protocol.encode")):
        value, n = nearest_rank(_us(tracer, name), 50)
        out[metric] = (value, "us", n)
    for metric, name in (("engine.controller.offer_us", "engine.controller.offer"),
                         ("serve.snapshotter.record_us", "serve.snapshotter.record")):
        samples = _us(tracer, name)
        for q in (50, 99):
            value, n = nearest_rank(samples, q)
            out[f"{metric}.p{q}"] = (value, "us", n)
    whole = _us(tracer, "serve.server.offer")
    tenth = max(1, len(whole) // 10)
    for label, part in (("first", whole[:tenth]), ("last", whole[-tenth:])):
        value, n = nearest_rank(part, 50)
        out[f"serve.server.offer_us.{label}"] = (value, "us", n)
    glue = [w - c - r for w, c, r in zip(
        whole, _us(tracer, "engine.controller.offer"), _us(tracer, "serve.snapshotter.record"))]
    value, n = nearest_rank(glue, 50)
    out["serve.server.glue_us"] = (value, "us", n)
    return out


def _agree(a: list[Any], b: list[Any]) -> bool:
    """Same decisions on the offers both logs hold (an unanswered tail
    after the drain deadline may be missing from one of them)."""
    n = min(len(a), len(b))
    return n > 0 and a[:n] == b[:n]


def run(seed: int, seconds: float, trace: bool, work: Path) -> dict[str, Any]:
    untraced = ladder(seed, seconds, work, "u", Tracer(False))
    problems = list(untraced.problems)
    report: dict[str, Any] = {"e2e": untraced.e2e(), "layers": load_metrics(untraced)}
    if trace:
        tracer = Tracer(True)
        traced = ladder(seed, seconds, work, "t", tracer)
        problems += traced.problems
        served = load_decision_journal(traced.log).decisions
        if not _agree(load_decision_journal(untraced.log).decisions, served):
            problems.append("traced ladder decided differently from the untraced one")
        lines, _ = offers(seed, seconds)
        replay_tracer = Tracer(True)
        asyncio.run(replay_server(lines, work / "r-server.jsonl", replay_tracer))
        replay_parts(lines, work / "r-parts.jsonl", replay_tracer)
        for name in ("r-server.jsonl", "r-parts.jsonl"):
            if not _agree(load_decision_journal(work / name).decisions, served):
                problems.append(f"replay {name} decided differently from the live server")
        layers = layer_metrics(traced, replay_tracer)
        u_e2e, t_e2e = untraced.e2e(), traced.e2e()
        for name in ("setup_s", "throughput_per_s", "peak_rss_mb"):
            layers[f"trace.overhead.{name}"] = (
                t_e2e[name][0] - u_e2e[name][0], u_e2e[name][1], t_e2e[name][2])
        layers["trace.spans"] = (float(len(tracer.spans) + len(replay_tracer.spans)), "count", 1)
        report["layers"] = layers
        report["spans"] = tracer.to_rows() + replay_tracer.to_rows()
    report.update(attempted=len(untraced.ledger.due),
                  failed=untraced.ledger.missing(), problems=problems)
    return report
