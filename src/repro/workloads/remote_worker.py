"""Stdio worker endpoint of the remote elastic pool.

Launched on a registry host by the controller's transport command
(``python -m repro.workloads.remote_worker``, usually behind ssh), this
process speaks the wire protocol of :mod:`repro.workloads.remote` on its
stdin/stdout: ``hello`` (environment fingerprint) -> ``init`` (pickled
sweep spec) -> pull loop of ``ready`` / ``lease`` / ``heartbeat`` /
``result`` / ``nack`` until ``stop`` or EOF.

Design notes:

* All stdout writes go through one lock — the heartbeat thread and the
  main loop share the pipe, and interleaved partial lines would be
  protocol garbage.
* Rows travel as :func:`repro.workloads.journal.row_to_payload` lists:
  the same canonical serialisation the journal uses, so wire round trips
  are bit-identical by the journal's own contract.
* The worker holds no retry logic, no journal and no cache: it is a
  pure cell evaluator.  Every policy decision (retries, quarantine,
  speculation) lives controller-side where the failure domains are
  visible.
* Injected chaos: the controller ships cell-level
  :class:`~repro.testing.chaos.ChaosPlan` faults in ``init`` (applied
  exactly like a local worker slot), a ``slow`` delay per cell for
  slow-host emulation, and a per-lease ``die`` directive for dead-host
  emulation (``os._exit``, as a machine loss would appear).
"""

from __future__ import annotations

import base64
import itertools
import os
import pickle
import sys
import threading
import time
from typing import Any, BinaryIO

from repro.workloads.journal import row_to_payload
from repro.workloads.remote import (
    RemoteProtocolError,
    decode_message,
    encode_message,
    env_fingerprint,
)
from repro.workloads.resilient import run_cell, run_cells


def _heartbeat_loop(send, seed: int, interval: float, stop: threading.Event) -> None:
    """One beat per *interval* while the cell computes, until stopped."""
    while not stop.wait(interval):
        try:
            send("heartbeat", seed=seed)
        except (OSError, ValueError):  # pragma: no cover - parent went away
            return


def main(stdin: BinaryIO | None = None, stdout: BinaryIO | None = None) -> int:
    """Run the worker loop over *stdin*/*stdout*; returns the exit code."""
    stdin = stdin if stdin is not None else sys.stdin.buffer
    stdout = stdout if stdout is not None else sys.stdout.buffer
    lock = threading.Lock()
    seq = itertools.count()

    def send(op: str, **fields: Any) -> None:
        with lock:
            stdout.write(encode_message(op, next(seq), **fields))
            stdout.flush()

    send("hello", fingerprint=env_fingerprint())

    line = stdin.readline()
    if not line:
        return 0
    try:
        message = decode_message(line)
    except RemoteProtocolError:
        return 1
    if message["op"] == "stop":
        return 0
    if message["op"] == "reject":
        return 1
    if message["op"] != "init":
        return 1
    spec, algorithm_kwargs, backend, chaos = pickle.loads(
        base64.b64decode(message["payload"])
    )
    heartbeat_interval = float(message.get("heartbeat_interval", 0.1))
    slow = float(message.get("slow", 0.0))

    while True:
        send("ready")
        line = stdin.readline()
        if not line:
            return 0
        try:
            message = decode_message(line)
        except RemoteProtocolError:
            return 1
        if message["op"] == "stop":
            return 0
        if message["op"] != "lease":
            continue
        eps = message["eps"]
        m = message["m"]
        rep = message["rep"]
        seed = message["seed"]
        attempt = message["attempt"]
        if message.get("die"):
            from repro.testing.chaos import CHAOS_EXIT_CODE

            os._exit(CHAOS_EXIT_CODE)  # injected dead host: no cleanup
        stop_beats = threading.Event()
        beats = threading.Thread(
            target=_heartbeat_loop,
            args=(send, seed, heartbeat_interval, stop_beats),
            daemon=True,
        )
        beats.start()
        try:
            if slow:
                time.sleep(slow)  # slow host: heartbeats keep flowing
            fault = None
            if chaos is not None:
                fault = chaos.fault_for(seed, attempt)
                chaos.trigger(fault)  # may _exit, hang, or raise
            if backend == "scalar":
                rows = run_cell(spec, eps, m, rep, algorithm_kwargs, None)
            else:
                rows = run_cells(
                    spec, [(eps, m, rep)], algorithm_kwargs, None, backend=backend
                )[0]
            if fault == "corrupt":
                rows = chaos.corrupt_rows(rows)
            stop_beats.set()
            beats.join()
            send("result", seed=seed, rows=[row_to_payload(row) for row in rows])
        except BaseException as exc:  # noqa: BLE001 - crosses the wire
            stop_beats.set()
            beats.join()
            send("nack", seed=seed, detail=f"{type(exc).__name__}: {exc}")
        finally:
            stop_beats.set()


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BrokenPipeError, KeyboardInterrupt):  # pragma: no cover - teardown
        sys.exit(0)
