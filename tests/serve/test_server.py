"""The asyncio admission server: transports, streaming, crash recovery.

In-process tests drive :class:`AdmissionServer` inside ``asyncio.run``
(the suite has no async test runner, deliberately — each test owns its
loop).  The chaos half of the file spawns real ``repro serve``
subprocesses, SIGKILLs one mid-stream, resumes from the decision journal
and proves the post-resume decisions are bit-identical to an
uninterrupted run.
"""

import asyncio
import json
import os
import signal
import socket
import struct
import subprocess
import sys
import urllib.request

import pytest

from repro.serve.loadgen import drive_instance, percentile, run_bench
from repro.serve.protocol import decode_line, encode_line
from repro.serve.server import AdmissionServer, ServeConfig
from repro.serve.snapshotter import (
    load_decision_journal,
    verify_decision_log,
)
from repro.workloads.arrivals import mmpp_instance
from repro.workloads.random_instances import random_instance


async def _request(host: str, port: int, *messages: dict) -> list[dict]:
    """One socket connection, n request lines, n reply lines."""
    reader, writer = await asyncio.open_connection(host, port)
    replies = []
    try:
        for message in messages:
            writer.write(encode_line(message))
            await writer.drain()
            replies.append(json.loads(await reader.readline()))
    finally:
        writer.close()
        await writer.wait_closed()
    return replies


def _with_server(config: ServeConfig, body) -> AdmissionServer:
    """Start a server, run ``await body(server)``, drain gracefully."""

    async def main() -> AdmissionServer:
        server = AdmissionServer(config)
        await server.start()
        try:
            await body(server)
        finally:
            server.request_shutdown()
            await server.serve_until_shutdown()
        return server

    return asyncio.run(main())


class TestSocketTransport:
    def test_offer_stats_ping_round_trip(self):
        async def body(server):
            replies = await _request(
                "127.0.0.1", server.socket_port,
                {"op": "ping"},
                {"op": "offer", "tag": "a",
                 "job": {"release": 0.0, "processing": 1.0, "deadline": 2.0}},
                {"op": "offer", "job": {"processing": 1.0, "slack": 1.0}},
                {"op": "stats"},
            )
            pong, first, relative, stats = replies
            assert pong["kind"] == "pong"
            assert first["ok"] and first["seq"] == 0 and first["tag"] == "a"
            assert first["accepted"] is True and len(first["loads"]) == 2
            # relative job was stamped at the session clock (0.0)
            assert relative["t"] == 0.0
            assert stats["jobs"] == 2 and stats["machines"] == 2

        _with_server(ServeConfig(machines=2, epsilon=0.5), body)

    def test_bad_requests_keep_the_connection_alive(self):
        async def body(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.socket_port
            )
            try:
                writer.write(b"this is not json\n")
                writer.write(encode_line({"op": "offer", "job": {}}))
                writer.write(encode_line(
                    {"op": "offer",
                     "job": {"release": 0.0, "processing": 1.0,
                             "deadline": 2.0}},
                ))
                await writer.drain()
                garbage = json.loads(await reader.readline())
                badjob = json.loads(await reader.readline())
                good = json.loads(await reader.readline())
            finally:
                writer.close()
                await writer.wait_closed()
            assert not garbage["ok"] and "JSON" in garbage["error"]
            assert not badjob["ok"] and "processing" in badjob["error"]
            assert good["ok"] and good["seq"] == 0

        _with_server(ServeConfig(machines=1, epsilon=0.5), body)

    def test_stale_release_is_an_error_not_a_crash(self):
        async def body(server):
            replies = await _request(
                "127.0.0.1", server.socket_port,
                {"op": "offer",
                 "job": {"release": 5.0, "processing": 1.0, "deadline": 7.0}},
                {"op": "offer",
                 "job": {"release": 1.0, "processing": 1.0, "deadline": 3.0}},
                {"op": "stats"},
            )
            assert replies[0]["ok"]
            assert not replies[1]["ok"]
            assert replies[2]["jobs"] == 1  # the stale offer left no trace

        _with_server(ServeConfig(machines=1, epsilon=0.5), body)

    def test_watch_streams_decisions_to_subscribers(self):
        events = []

        async def body(server):
            watch_reader, watch_writer = await asyncio.open_connection(
                "127.0.0.1", server.socket_port
            )
            watch_writer.write(encode_line({"op": "watch"}))
            await watch_writer.drain()
            ack = json.loads(await watch_reader.readline())
            assert ack["kind"] == "watch"
            await _request(
                "127.0.0.1", server.socket_port,
                {"op": "offer",
                 "job": {"release": 0.0, "processing": 1.0, "deadline": 2.0}},
                {"op": "offer",
                 "job": {"release": 1.0, "processing": 1.0, "deadline": 3.0}},
            )
            for _ in range(2):
                events.append(
                    json.loads(await asyncio.wait_for(
                        watch_reader.readline(), timeout=5.0))
                )
            watch_writer.close()
            await watch_writer.wait_closed()

        _with_server(ServeConfig(machines=1, epsilon=0.5), body)
        assert [e["seq"] for e in events] == [0, 1]
        assert all(e["kind"] == "decision" for e in events)


class TestHttpTransport:
    def test_routes(self):
        async def body(server):
            base = f"http://127.0.0.1:{server.http_port}"

            def fetch(path, data=None, method=None):
                req = urllib.request.Request(
                    base + path, data=data, method=method
                )
                try:
                    with urllib.request.urlopen(req, timeout=5) as response:
                        return response.status, json.loads(response.read())
                except urllib.error.HTTPError as err:
                    return err.code, json.loads(err.read())

            loop = asyncio.get_running_loop()
            status, health = await loop.run_in_executor(
                None, fetch, "/healthz"
            )
            assert status == 200 and health["ok"]
            offer = json.dumps({
                "job": {"release": 0.0, "processing": 1.0, "deadline": 2.0},
                "tag": "http-1",
            }).encode()
            status, decision = await loop.run_in_executor(
                None, lambda: fetch("/offer", offer, "POST")
            )
            assert status == 200 and decision["accepted"]
            assert decision["tag"] == "http-1"
            status, bad = await loop.run_in_executor(
                None, lambda: fetch("/offer", b'{"job": {}}', "POST")
            )
            assert status == 400 and not bad["ok"]
            status, stats = await loop.run_in_executor(None, fetch, "/stats")
            assert status == 200 and stats["jobs"] == 1
            status, missing = await loop.run_in_executor(
                None, fetch, "/nowhere"
            )
            assert status == 404

        _with_server(ServeConfig(machines=1, epsilon=0.5), body)


class TestLoadGenerator:
    def test_run_bench_measures_and_journals(self, tmp_path):
        log = tmp_path / "bench.jsonl"
        inst = mmpp_instance(120, machines=2, epsilon=0.5, seed=20)
        config = ServeConfig(
            machines=2, epsilon=0.5, name=inst.name, decision_log=str(log)
        )
        report, server = run_bench(config, inst, window=16)
        assert report.jobs == 120 and report.errors == 0
        assert report.accepted + report.rejected == 120
        assert report.decisions_per_second > 0
        assert 0.0 < report.latency_p50_ms <= report.latency_p99_ms
        assert report.latency_p99_ms <= report.latency_p999_ms
        assert report.drain_seconds is not None
        assert len(report.final_loads) == 2
        ok, detail = verify_decision_log(log)
        assert ok, detail
        assert load_decision_journal(log).sealed

    def test_percentile_is_nearest_rank(self):
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 50) == 50.0
        assert percentile(samples, 99) == 99.0
        assert percentile(samples, 100) == 100.0
        assert percentile([], 50) == 0.0

    def test_drive_instance_against_plain_server(self):
        inst = random_instance(30, 2, 0.4, seed=21)

        async def main():
            server = AdmissionServer(ServeConfig(machines=2, epsilon=0.4))
            await server.start()
            try:
                return await drive_instance(
                    "127.0.0.1", server.socket_port, inst, window=8
                )
            finally:
                server.request_shutdown()
                await server.serve_until_shutdown()

        report = asyncio.run(main())
        assert report.accepted + report.rejected == 30


def _burst_then_reset(port: int, n: int) -> None:
    """Send *n* offers, read one reply, then reset the connection (RST)."""
    burst = b"".join(
        encode_line({"op": "offer", "job": {"processing": 1.0, "slack": 1.0},
                     "tag": k})
        for k in range(n)
    )
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.sendall(burst)
        while b"\n" not in sock.recv(4096):
            pass
        # SO_LINGER with a zero timeout turns close() into an RST.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))


class TestGracefulShutdown:
    def test_socket_shutdown_op_seals_the_journal(self, tmp_path):
        log = tmp_path / "log.jsonl"

        async def body(server):
            replies = await _request(
                "127.0.0.1", server.socket_port,
                {"op": "offer",
                 "job": {"release": 0.0, "processing": 1.0, "deadline": 2.0}},
                {"op": "shutdown"},
            )
            assert replies[1] == {"ok": True, "kind": "shutdown"}

        server = _with_server(
            ServeConfig(machines=1, epsilon=0.5, decision_log=str(log)), body
        )
        assert server.drain_seconds is not None
        state = load_decision_journal(log)
        assert state.sealed and len(state.decisions) == 1

    def test_lingering_connection_is_cancelled_silently(self, tmp_path):
        """A client that never disconnects must not block or dirty shutdown.

        The drain deadline cancels its handler; the cancel has to be
        absorbed (no loop-exception-handler noise, no unsealed journal).
        """
        log = tmp_path / "log.jsonl"
        loop_errors = []

        async def main():
            server = AdmissionServer(ServeConfig(
                machines=1, epsilon=0.5, decision_log=str(log),
                drain_grace=0.2,
            ))
            await server.start()
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, ctx: loop_errors.append(ctx)
            )
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.socket_port
            )
            writer.write(encode_line(
                {"op": "offer",
                 "job": {"release": 0.0, "processing": 1.0, "deadline": 2.0}},
            ))
            await writer.drain()
            assert json.loads(await reader.readline())["ok"]
            # ... and then the client just sits there, connection open.
            server.request_shutdown()
            await server.serve_until_shutdown()
            await asyncio.sleep(0.05)  # let any stray callbacks fire
            writer.close()
            return server

        server = asyncio.run(main())
        assert server.drain_seconds < 2.0
        assert loop_errors == []
        assert server.drain_timed_out is False
        state = load_decision_journal(log)
        assert state.sealed and len(state.decisions) == 1

    def test_client_reset_with_replies_pending_closes_quietly(self, tmp_path):
        """A client that resets mid-burst must not reach the loop handler.

        The server is still writing replies when the RST lands, so its
        ``write``/``drain`` raise ``ConnectionResetError`` or
        ``BrokenPipeError``; the handler has to close the connection
        quietly and the journal must still seal and replay.
        """
        log = tmp_path / "log.jsonl"
        loop_errors = []

        async def main():
            server = AdmissionServer(ServeConfig(
                machines=2, epsilon=0.5, decision_log=str(log),
            ))
            await server.start()
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, ctx: loop_errors.append(ctx)
            )
            # The client runs on its own thread: on the server's loop it
            # could only act while the handler is parked in ``readline``,
            # which never sees a reset mid-write.
            await asyncio.get_running_loop().run_in_executor(
                None, _burst_then_reset, server.socket_port, 500
            )
            for _ in range(100):
                if not server._connections:
                    break
                await asyncio.sleep(0.01)
            server.request_shutdown()
            await server.serve_until_shutdown()
            await asyncio.sleep(0.05)  # let any stray callbacks fire
            return server

        asyncio.run(main())
        assert loop_errors == []
        state = load_decision_journal(log)
        assert state.sealed and len(state.decisions) >= 1
        ok, detail = verify_decision_log(log)
        assert ok, detail

    def test_drain_timeout_bounds_a_client_that_stopped_reading(self, tmp_path):
        """--drain-timeout: a stalled *reader* cannot hang shutdown.

        Cancellation alone cannot unstick a handler that is flushing a
        write buffer the peer will never read (``wait_closed`` waits for
        the flush).  The timeout aborts the stalled transport, seals the
        journal, and shutdown completes cleanly.
        """
        log = tmp_path / "log.jsonl"
        loop_errors = []

        async def main():
            server = AdmissionServer(ServeConfig(
                machines=1, epsilon=0.5, decision_log=str(log),
                drain_grace=0.1, drain_timeout=0.3,
            ))
            await server.start()
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, ctx: loop_errors.append(ctx)
            )
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.socket_port
            )
            writer.write(encode_line(
                {"op": "offer",
                 "job": {"release": 0.0, "processing": 1.0, "deadline": 2.0}},
            ))
            await writer.drain()
            assert json.loads(await reader.readline())["ok"]
            # Pipeline thousands of large requests and never read another
            # byte: the replies (bad-job errors echo the 8 KiB tag, and
            # are never journaled) overflow the socket buffers and wedge
            # the server handler inside ``writer.drain()``.  (No ``drain``
            # on the client side either — it would block the same way.)
            tag = "x" * 8192
            for _ in range(2000):
                writer.write(encode_line({"op": "offer", "job": {},
                                          "tag": tag}))
            # Wait until the server handler is actually wedged: its
            # transport holding user-space buffered bytes means the
            # kernel buffers are full and ``drain()`` is blocked.
            for _ in range(200):
                if any(
                    w.transport is not None
                    and w.transport.get_write_buffer_size() > 0
                    for w in server._writers
                ):
                    break
                await asyncio.sleep(0.025)
            server.request_shutdown()
            await asyncio.wait_for(server.serve_until_shutdown(), timeout=5.0)
            await asyncio.sleep(0.05)  # let any stray callbacks fire
            writer.close()
            return server

        server = asyncio.run(main())
        assert server.drain_timed_out is True
        assert server.drain_seconds < 3.0
        assert loop_errors == []
        state = load_decision_journal(log)
        assert state.sealed and len(state.decisions) == 1


# ---------------------------------------------------------------------------
# Chaos: SIGKILL a live server mid-stream, resume, prove bit-identity
# ---------------------------------------------------------------------------


def _spawn_server(log_path, *extra):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--m", "2", "--eps", "0.5",
         "--decision-log", str(log_path), *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    announcement = json.loads(proc.stdout.readline())
    assert announcement["kind"] == "listening"
    return proc, announcement


def _offer_jobs(port, jobs):
    """Offer jobs over a fresh socket; returns the decision payloads."""
    decisions = []
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        fh = sock.makefile("rwb")
        for job in jobs:
            fh.write(encode_line({
                "op": "offer",
                "job": {"release": job.release, "processing": job.processing,
                        "deadline": job.deadline},
            }))
            fh.flush()
            reply = json.loads(fh.readline())
            assert reply["ok"], reply
            decisions.append(
                [reply["accepted"], reply["machine"], reply["start"]]
            )
    return decisions


class TestChaosKillResume:
    """Satellite: SIGKILL mid-stream, resume, bit-identical remainder."""

    def test_kill_resume_decisions_bit_identical(self, tmp_path):
        inst = mmpp_instance(40, machines=2, epsilon=0.5, seed=30)
        cut = 15

        # Reference: one uninterrupted server over the full stream.
        ref_log = tmp_path / "uninterrupted.jsonl"
        proc, announcement = _spawn_server(ref_log)
        try:
            reference = _offer_jobs(announcement["socket_port"], inst.jobs)
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=20) == 0

        # Chaos run: serve `cut` jobs, SIGKILL (no drain, no seal), resume
        # from the journal, serve the remainder.
        log = tmp_path / "chaos.jsonl"
        proc, announcement = _spawn_server(log)
        try:
            before = _offer_jobs(
                announcement["socket_port"], inst.jobs[:cut]
            )
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=20)
            assert not load_decision_journal(log).sealed  # hard death

            proc, announcement = _spawn_server(log, "--resume")
            assert announcement["resumed_decisions"] == cut
            after = _offer_jobs(
                announcement["socket_port"], inst.jobs[cut:]
            )
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=20) == 0

        # Every decision — before the kill and after the resume — matches
        # the uninterrupted run exactly.
        assert before + after == reference

        # And both journals replay bit-identical through the batch engine.
        for path in (ref_log, log):
            ok, detail = verify_decision_log(path)
            assert ok, detail
        assert load_decision_journal(log).sealed

    def test_resume_without_log_fails_cleanly(self, tmp_path):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--m", "2",
             "--eps", "0.5", "--decision-log",
             str(tmp_path / "missing.jsonl"), "--resume"],
            capture_output=True, env=env, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert "error:" in proc.stderr
