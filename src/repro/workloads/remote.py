"""Remote elastic execution: the lease queue served over a wire.

PR 5 gave the repo verified multi-host *journal* transport and PR 7 an
elastic *local* lease queue; this module joins them.  One sweep spans
machines: the controller serves cells from the same
:class:`~repro.workloads.elastic.CellQueue` to worker processes launched
on other hosts (over ssh, a container exec, or plain subprocesses for
tests), with the lease / heartbeat / speculation semantics unchanged
from the local pool.

The moving parts:

* **Host registry** — ``hosts.json`` (:func:`load_hosts`) names each
  host, its launch command (a ``{python}``-templated transport spec, ssh
  or otherwise), its worker slot count, and optionally a pinned code
  fingerprint.
* **Launch handshake** — a spawned worker's first message is ``hello``
  carrying its :func:`env_fingerprint` (code tree hash, python, numpy,
  protocol version).  The controller verifies it against its own (or the
  registry's pinned value) before any lease is granted; a mismatched
  host is rejected and quarantined — distributed determinism starts with
  refusing to run divergent code.
* **Wire protocol** — NDJSON framing reused from
  :mod:`repro.serve.protocol`, one message per line, each carrying a
  per-message CRC and a per-channel sequence number.  Duplicate delivery
  (a retransmit) is detected by sequence and deduped rather than
  double-charged; a CRC mismatch is loud.
* **Network failure domains** — the host is a failure domain *above*
  the worker slot.  A **dead host** (channel EOF) is charged
  (``host_max_failures``, then quarantine: every lease requeued
  charge-free).  A **partitioned host** just goes quiet: its leases
  expire and re-dispatch with *no* host charge, and if the partition
  heals the stale result is deduped first-verified-wins and asserted
  bit-identical — exactly the local speculation contract.  A **slow
  host** keeps heartbeating and keeps its leases.
* **Graceful degradation** — when every remote host is quarantined the
  sweep falls back to local worker processes driven through the same
  protocol (``manifest.degraded_to_local``); only if the fallback dies
  too are the remaining cells quarantined (kind ``"host"``).

Rows land through the existing journal path with host/transport
provenance *outside* the row CRC, so ``merge_journals``, ``repro
verify`` and resume are unchanged — a chaotic 3-host run merges
bit-identical to the serial scalar run (bench E28).

Network chaos (:class:`repro.testing.chaos.HostChaosPlan`) is applied
controller-side on the inbound path via :class:`HostLink`, a pure state
machine (explicit ``now``) so partition/heal/dedup interleavings are
property-testable without processes.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import platform
import queue as queue_mod
import shlex
import subprocess
import sys
import threading
import time
import zlib
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from repro.offline.cache import BracketCache
from repro.serve.protocol import encode_line
from repro.workloads.elastic import (
    DEFAULT_HEARTBEAT_INTERVAL,
    LEASE_TIMEOUT_BEATS,
    CellQueue,
    Lease,
)
from repro.workloads.journal import row_from_payload
from repro.workloads.resilient import (
    CellFailure,
    FailureManifest,
    HostFailure,
    ResilientSweepResult,
    SweepInterrupted,
    _assemble,
    check_seed_collisions,
    prepare_journal,
    validate_cell_rows,
    validate_sweep_pickles,
)
from repro.workloads.sweep import SweepSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.testing.chaos import ChaosPlan, HostChaosPlan

#: Scheduler poll cadence (seconds) — bounds dispatch/reap latency.
_POLL_INTERVAL = 0.005

#: Grace period between SIGTERM and SIGKILL when reaping a worker.
_KILL_GRACE = 0.5

#: Version of the lease-over-the-wire protocol (part of the handshake).
REMOTE_PROTOCOL_VERSION = 1

#: Wire operations.  Controller -> worker: ``init``, ``reject``,
#: ``lease``, ``stop``.  Worker -> controller: ``hello``, ``ready``,
#: ``heartbeat``, ``result``, ``nack``.
REMOTE_OPS = (
    "hello",
    "init",
    "reject",
    "ready",
    "lease",
    "heartbeat",
    "result",
    "nack",
    "stop",
)

#: Default launch command: a worker on the local machine.  Real hosts
#: prefix it with their transport, e.g.
#: ``"ssh worker-3 {python} -m repro.workloads.remote_worker"``.
DEFAULT_WORKER_COMMAND = "{python} -m repro.workloads.remote_worker"

#: Registry name of the synthesized local-fallback host.
LOCAL_FALLBACK_HOST = "local-fallback"


class RemoteProtocolError(ValueError):
    """A wire message violates the remote protocol (op, CRC, shape)."""


# ---------------------------------------------------------------------------
# wire codec: NDJSON lines (serve framing) + per-message CRC + sequence
# ---------------------------------------------------------------------------


def message_crc(message: Mapping[str, Any]) -> str:
    """8-hex-digit CRC over the canonical JSON of *message* minus ``crc``.

    Canonical = sorted keys, compact separators — stable under field
    reordering, so both endpoints compute the same digest.
    """
    body = {key: value for key, value in message.items() if key != "crc"}
    blob = json.dumps(body, allow_nan=True, separators=(",", ":"), sort_keys=True)
    return format(zlib.crc32(blob.encode("utf-8")) & 0xFFFFFFFF, "08x")


def encode_message(op: str, seq: int, **fields: Any) -> bytes:
    """Frame one wire message: op + sequence number + CRC, one JSON line."""
    if op not in REMOTE_OPS:
        raise RemoteProtocolError(f"unknown op {op!r}")
    message: dict[str, Any] = {"op": op, "seq": int(seq), **fields}
    message["crc"] = message_crc(message)
    try:
        return encode_line(message)
    except ValueError:
        # Injected 'corrupt' chaos rows carry non-finite floats; they
        # must survive the wire so the controller can classify them.
        return (json.dumps(message, allow_nan=True) + "\n").encode("utf-8")


def decode_message(raw: bytes | str) -> dict[str, Any]:
    """Parse + verify one wire line; raises :class:`RemoteProtocolError`."""
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise RemoteProtocolError(f"message is not UTF-8: {exc}") from exc
    try:
        message = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise RemoteProtocolError(f"message is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise RemoteProtocolError("message must be a JSON object")
    op = message.get("op")
    if op not in REMOTE_OPS:
        raise RemoteProtocolError(f"unknown op {op!r}; expected one of {list(REMOTE_OPS)}")
    if not isinstance(message.get("seq"), int):
        raise RemoteProtocolError(f"{op}: missing integer seq")
    crc = message.get("crc")
    expected = message_crc(message)
    if crc != expected:
        raise RemoteProtocolError(
            f"{op} seq={message['seq']}: CRC mismatch (got {crc!r}, expected {expected})"
        )
    return message


# ---------------------------------------------------------------------------
# environment fingerprint (the handshake's determinism gate)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Short hash of the installed ``repro`` package source tree.

    Two hosts with equal fingerprints run byte-identical code; the
    handshake refuses hosts where they differ, because a silently
    divergent checkout is the one failure bit-identity checks cannot
    localise after the fact.
    """
    root = Path(__file__).resolve().parent.parent  # the repro package
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def env_fingerprint() -> dict[str, Any]:
    """What a worker announces in ``hello`` and a controller verifies."""
    import numpy

    return {
        "code": code_fingerprint(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "protocol": REMOTE_PROTOCOL_VERSION,
    }


def fingerprint_mismatch(
    expected: Mapping[str, Any], actual: Mapping[str, Any]
) -> str | None:
    """First differing handshake field, or ``None`` when compatible."""
    for key in ("protocol", "code", "python", "numpy"):
        if expected.get(key) != actual.get(key):
            return f"{key}: controller has {expected.get(key)!r}, host has {actual.get(key)!r}"
    return None


# ---------------------------------------------------------------------------
# host registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HostSpec:
    """One entry of the host registry (``hosts.json``)."""

    name: str
    #: Launch command template; ``{python}`` expands to the controller's
    #: interpreter.  The command must start a
    #: :mod:`repro.workloads.remote_worker` speaking the wire protocol
    #: on its stdio — everything in front of it is the transport.
    command: str = DEFAULT_WORKER_COMMAND
    #: Concurrent worker processes launched on this host.
    slots: int = 1
    #: Optional pinned ``code`` fingerprint; when set, the host must
    #: announce exactly this value (instead of matching the controller).
    fingerprint: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("host name must be non-empty")
        if self.slots < 1:
            raise ValueError(f"host {self.name!r}: slots must be >= 1, got {self.slots}")
        if not self.command.strip():
            raise ValueError(f"host {self.name!r}: empty launch command")

    def argv(self) -> list[str]:
        """The resolved launch argv for this host's workers."""
        return shlex.split(self.command.format(python=sys.executable))


def load_hosts(path: str | os.PathLike[str]) -> tuple[HostSpec, ...]:
    """Parse a ``hosts.json`` registry into :class:`HostSpec` entries.

    Accepts either a bare JSON list of host objects or an object with a
    ``"hosts"`` list.  Unknown keys are rejected — a typoed ``slots``
    must not silently launch one worker.
    """
    with open(os.fspath(path), "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = data.get("hosts")
    if not isinstance(data, list) or not data:
        raise ValueError(f"{path}: expected a non-empty list of hosts")
    allowed = {"name", "command", "slots", "fingerprint"}
    specs = []
    for entry in data:
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: host entries must be objects, got {entry!r}")
        unknown = set(entry) - allowed
        if unknown:
            raise ValueError(f"{path}: unknown host keys {sorted(unknown)}")
        if "name" not in entry:
            raise ValueError(f"{path}: every host needs a name")
        specs.append(HostSpec(**entry))
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"{path}: duplicate host names in registry")
    return tuple(specs)


def resolve_hosts(
    hosts: str | os.PathLike[str] | tuple[HostSpec, ...] | list[HostSpec],
) -> tuple[HostSpec, ...]:
    """Normalise a policy's ``hosts`` field into :class:`HostSpec` entries."""
    if isinstance(hosts, (str, os.PathLike)):
        return load_hosts(hosts)
    specs = tuple(hosts)
    if not specs:
        raise ValueError("hosts must name at least one host")
    return specs


# ---------------------------------------------------------------------------
# inbound link: CRC + sequence dedup + injected network faults
# ---------------------------------------------------------------------------


class HostLink:
    """Inbound message path of one worker channel: a pure state machine.

    Owns the per-channel delivery guarantees — CRC verification,
    sequence-number dedup of duplicate delivery — and, under test, the
    injected network faults of a :class:`~repro.testing.chaos.HostChaosPlan`
    (drop, duplicate, partition/heal).  Every method takes ``now``
    explicitly and nothing here touches sockets or clocks, so any
    interleaving of partition -> expiry -> re-dispatch -> heal ->
    duplicate delivery is directly property-testable.

    Message indexes for fault targeting are 0-based and count
    post-handshake inbound messages on *this* channel.
    """

    def __init__(
        self,
        host: str,
        chaos: "HostChaosPlan | None" = None,
        *,
        exempt: bool = False,
    ) -> None:
        self.host = host
        self.chaos = None if exempt else chaos
        self.seen: set[int] = set()
        self.msg_index = 0
        self.held: list[dict[str, Any]] = []
        self.first_held_at: float | None = None
        self.healed = False
        self.dropped = 0
        self.duplicates_dropped = 0

    @property
    def partitioned(self) -> bool:
        """Messages are currently being held by an injected partition."""
        return self.first_held_at is not None

    def receive(self, raw: bytes | str, now: float) -> list[dict[str, Any]]:
        """Decode one inbound line; return the messages deliverable *now*.

        Raises :class:`RemoteProtocolError` on garbage/CRC failure.  May
        return zero messages (dropped, partition-held, duplicate seq) or
        more than one (a heal flushing backlog, an injected duplicate).
        """
        message = decode_message(raw)
        index = self.msg_index
        self.msg_index += 1
        copies = 1
        if self.chaos is not None:
            if self.chaos.dropped(self.host, index):
                self.dropped += 1
                return []
            if self.chaos.duplicated(self.host, index):
                copies = 2
            part = self.chaos.partition_for(self.host)
            if part is not None and not self.healed and index >= part[0]:
                if self.first_held_at is None:
                    self.first_held_at = now
                self.held.extend([message] * copies)
                return self.flush(now)
        return self._dedup([message] * copies)

    def flush(self, now: float) -> list[dict[str, Any]]:
        """Deliver the held backlog if the partition has healed by *now*."""
        if self.first_held_at is None or self.chaos is None:
            return []
        part = self.chaos.partition_for(self.host)
        if part is None or now - self.first_held_at < part[1]:
            return []
        backlog, self.held = self.held, []
        self.first_held_at = None
        self.healed = True
        return self._dedup(backlog)

    def _dedup(self, messages: list[dict[str, Any]]) -> list[dict[str, Any]]:
        out = []
        for message in messages:
            seq = message["seq"]
            if seq in self.seen:
                self.duplicates_dropped += 1
                continue
            self.seen.add(seq)
            out.append(message)
        return out


# ---------------------------------------------------------------------------
# controller-side channel / host state
# ---------------------------------------------------------------------------


@dataclass
class _Host:
    """Runtime state of one registry host (the failure domain)."""

    spec: HostSpec
    failures: int = 0
    history: tuple[str, ...] = ()
    quarantined: bool = False
    leases_granted: int = 0
    cells_done: int = 0
    #: the synthesized local-fallback host is exempt from network chaos.
    chaos_exempt: bool = False
    #: outcome of the host's last settled launch handshake.
    handshake: str = "pending"


@dataclass
class _Channel:
    """One worker process on one host slot, across process generations."""

    worker_id: int
    host: _Host
    slot: int
    process: subprocess.Popen | None = None
    link: HostLink | None = None
    generation: int = 0
    #: ``hello`` (awaiting handshake) or ``active``.
    state: str = "hello"
    hello_deadline: float = 0.0
    idle: bool = False
    out_seq: int = 0
    history: tuple[str, ...] = field(default=())

    @property
    def live(self) -> bool:
        return self.process is not None and not self.host.quarantined

    def send(self, op: str, **fields: Any) -> None:
        """Write one framed message to the worker (best-effort; EOF is
        detected on the inbound path)."""
        if self.process is None or self.process.stdin is None:
            return
        self.out_seq += 1
        try:
            self.process.stdin.write(encode_message(op, self.out_seq, **fields))
            self.process.stdin.flush()
        except (BrokenPipeError, OSError, ValueError):
            pass


def _reader(
    process: subprocess.Popen,
    worker_id: int,
    generation: int,
    inbox: "queue_mod.Queue[tuple[int, int, bytes | None]]",
) -> None:
    """Per-channel reader thread: stdout lines -> inbox, then EOF marker."""
    try:
        assert process.stdout is not None
        for line in process.stdout:
            inbox.put((worker_id, generation, line))
    except (OSError, ValueError):  # pragma: no cover - teardown races
        pass
    finally:
        inbox.put((worker_id, generation, None))


def _kill_process(process: subprocess.Popen | None) -> None:
    if process is None:
        return
    for stream in (process.stdin, process.stdout):
        try:
            if stream is not None:
                stream.close()
        except (OSError, ValueError):  # pragma: no cover
            pass
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(_KILL_GRACE)
        except subprocess.TimeoutExpired:  # pragma: no cover - stubborn worker
            process.kill()
            process.wait()


# ---------------------------------------------------------------------------
# the remote scheduler
# ---------------------------------------------------------------------------


def _execute_remote(
    spec: SweepSpec,
    algorithm_kwargs: dict[str, dict[str, Any]] | None = None,
    *,
    hosts: str | os.PathLike[str] | tuple[HostSpec, ...] | list[HostSpec],
    max_workers: int | None = None,
    timeout: float | None = None,
    max_retries: int = 2,
    journal_path: str | os.PathLike[str] | None = None,
    resume: bool = False,
    chaos: "ChaosPlan | None" = None,
    host_chaos: "HostChaosPlan | None" = None,
    interrupt_after: int | None = None,
    cache: BracketCache | None = None,
    cells: list[tuple[float, int, int]] | None = None,
    shard: tuple[int, int] | None = None,
    salvage: bool = False,
    backend: str = "scalar",
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    lease_timeout: float | None = None,
    speculate: bool = True,
    host_max_failures: int = 2,
    handshake_timeout: float = 30.0,
    local_fallback: bool = True,
) -> ResilientSweepResult:
    """Remote pull-scheduler behind ``ExecutionPolicy(hosts=...)``.

    Mirrors :func:`repro.workloads.resilient._execute_resilient` — same
    journal preparation, seed-collision checks, row validation, result
    assembly — but serves the :class:`CellQueue` to worker processes on
    registry hosts over the wire protocol.  The failure-domain ladder:

    * **cell faults** (``nack``, corrupt rows, hard timeout) charge the
      cell's retry budget, exactly like every other scheduler;
    * **lease expiry** (missed heartbeats) re-queues the cell
      charge-free and charges *nothing* else — the host may merely be
      partitioned, and killing it would forfeit the stale-result
      determinism check when the partition heals;
    * **host faults** (channel EOF, handshake timeout, protocol
      garbage) charge the *host*; past ``host_max_failures`` the host is
      quarantined whole — every channel killed, every lease requeued
      charge-free — and recorded as a
      :class:`~repro.workloads.resilient.HostFailure`;
    * a **fingerprint mismatch** quarantines immediately (retrying
      cannot fix divergent code);
    * with every host quarantined, ``local_fallback`` spawns
      chaos-exempt workers on the controller's own machine through the
      same protocol and sets ``manifest.degraded_to_local``; without a
      fallback the remaining cells quarantine with kind ``"host"``.
    """
    algorithm_kwargs = algorithm_kwargs or {}
    validate_sweep_pickles(spec, algorithm_kwargs)
    if lease_timeout is None:
        lease_timeout = LEASE_TIMEOUT_BEATS * heartbeat_interval
    host_specs = resolve_hosts(hosts)

    cells = list(spec.cells()) if cells is None else list(cells)
    check_seed_collisions(spec, cells)
    manifest = FailureManifest(cells_total=len(cells))
    journal, completed = prepare_journal(
        spec, cells, journal_path, resume=resume, shard=shard, salvage=salvage
    )
    manifest.cells_replayed = len(completed)

    todo = [cell for cell in cells if spec.cell_seed(*cell) not in completed]
    queue = CellQueue(
        [(eps, m, rep, spec.cell_seed(eps, m, rep)) for eps, m, rep in todo],
        retries=max_retries,
        lease_timeout=lease_timeout,
        timeout=timeout,
        speculate=speculate,
    )
    cell_by_seed = {spec.cell_seed(eps, m, rep): (eps, m, rep) for eps, m, rep in cells}

    local_fp = env_fingerprint()
    init_payload = base64.b64encode(
        pickle.dumps((spec, algorithm_kwargs, backend, chaos))
    ).decode("ascii")
    worker_env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parent.parent.parent)
    worker_env["PYTHONPATH"] = (
        src_root + os.pathsep + worker_env["PYTHONPATH"]
        if worker_env.get("PYTHONPATH")
        else src_root
    )

    inbox: "queue_mod.Queue[tuple[int, int, bytes | None]]" = queue_mod.Queue()
    hosts_state = [_Host(spec=hs) for hs in host_specs]
    channels: dict[int, _Channel] = {}
    next_worker_id = 0
    new_cells = 0
    heartbeats_total = 0
    fallback_started = False
    started = time.monotonic()

    def spawn_channel(chan: _Channel) -> None:
        chan.generation += 1
        chan.state = "hello"
        chan.idle = False
        chan.out_seq = 0
        chan.link = HostLink(
            chan.host.spec.name, host_chaos, exempt=chan.host.chaos_exempt
        )
        chan.hello_deadline = time.monotonic() + handshake_timeout
        try:
            chan.process = subprocess.Popen(
                chan.host.spec.argv(),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                env=worker_env,
            )
        except OSError as exc:
            chan.process = None
            inbox.put((chan.worker_id, chan.generation, None))
            chan.history = chan.history + (f"launch failed: {exc}",)
            return
        threading.Thread(
            target=_reader,
            args=(chan.process, chan.worker_id, chan.generation, inbox),
            daemon=True,
        ).start()

    def add_host(host: _Host) -> None:
        nonlocal next_worker_id
        for slot in range(host.spec.slots):
            chan = _Channel(worker_id=next_worker_id, host=host, slot=slot)
            next_worker_id += 1
            channels[chan.worker_id] = chan
            spawn_channel(chan)

    def live_hosts() -> list[_Host]:
        return [host for host in hosts_state if not host.quarantined]

    def release_channel(chan: _Channel, detail: str) -> None:
        """Revoke the channel's lease charge-free (the cell is innocent)."""
        queue.release(chan.worker_id, detail, charge_cell=False)

    def quarantine_host(host: _Host, detail: str) -> None:
        """Remove a whole host from the pool; its leases requeue charge-free."""
        nonlocal fallback_started
        if host.quarantined:
            return
        host.quarantined = True
        host.history = host.history + (detail,)
        for chan in list(channels.values()):
            if chan.host is host:
                release_channel(chan, detail)
                _kill_process(chan.process)
                chan.process = None
                del channels[chan.worker_id]
        manifest.host_failures.append(
            HostFailure(
                host=host.spec.name,
                failures=host.failures,
                detail=detail,
                history=host.history,
            )
        )
        if live_hosts() or queue.done:
            return
        if local_fallback and not fallback_started:
            fallback_started = True
            manifest.degraded_to_local = True
            slots = max_workers or min(2, os.cpu_count() or 2)
            fallback = _Host(
                spec=HostSpec(name=LOCAL_FALLBACK_HOST, slots=slots),
                chaos_exempt=True,
            )
            hosts_state.append(fallback)
            add_host(fallback)
        else:
            abort_remaining("host: every host quarantined, no fallback left")

    def host_fault(host: _Host, chan: _Channel, detail: str) -> None:
        """Charge the host; respawn the channel or quarantine the domain.

        Once the queue has drained nothing is relaunched: the channel is
        dropped, so settling the last handshakes always terminates.
        """
        host.failures += 1
        host.history = host.history + (detail,)
        if chan.state == "hello":
            host.handshake = detail
        release_channel(chan, detail)
        _kill_process(chan.process)
        chan.process = None
        if host.failures > host_max_failures:
            quarantine_host(host, detail)
        elif queue.done:
            channels.pop(chan.worker_id, None)
        else:
            spawn_channel(chan)

    def abort_remaining(detail: str) -> None:
        """Quarantine everything still unfinished as a host-domain loss."""
        for worker_id in list(queue.leases):
            queue.release(worker_id, detail, charge_cell=False)
        while queue.pending:
            task = queue.pending.popleft()
            if task.seed not in queue.remaining:
                continue
            queue.remaining.discard(task.seed)
            failure = CellFailure(
                epsilon=task.eps,
                machines=task.m,
                repetition=task.rep,
                seed=task.seed,
                attempts=max(task.attempt - 1, 0),
                kind="host",
                detail=detail,
                history=task.history + (detail,),
            )
            manifest.failures.append(failure)
            if journal is not None:
                journal.record_failure(failure.as_dict())

    def cell_fault(chan: _Channel, detail: str) -> None:
        """Charge the cell's retry budget (nack / corrupt / hard timeout)."""
        pending_before = len(queue.pending)
        failures_before = len(queue.failures)
        queue.release(chan.worker_id, detail, charge_cell=True)
        if len(queue.pending) > pending_before:
            manifest.retries += 1
        for failure in queue.failures[failures_before:]:
            manifest.failures.append(failure)
            if journal is not None:
                journal.record_failure(failure.as_dict())

    def record_win(chan: _Channel, lease: Lease, rows) -> None:
        nonlocal new_cells
        manifest.cells_completed += 1
        if lease.attempt > 1 or lease.history:
            manifest.recovered += 1
        completed[lease.seed] = rows
        chan.host.cells_done += 1
        if journal is not None:
            journal.record_cell(
                lease.seed,
                lease.eps,
                lease.m,
                lease.rep,
                rows,
                provenance={
                    "host": chan.host.spec.name,
                    "slot": chan.slot,
                    "worker": lease.worker,
                    "attempt": lease.attempt,
                    "heartbeats": lease.heartbeats,
                    "lease_ms": round((time.monotonic() - lease.granted_at) * 1e3, 3),
                    "speculative": lease.speculative,
                    "transport": "remote",
                },
            )
        new_cells += 1
        if (
            interrupt_after is not None
            and new_cells >= interrupt_after
            and not queue.done
        ):
            raise KeyboardInterrupt  # simulated hard kill, same path as SIGINT

    def handle_message(chan: _Channel, message: dict[str, Any]) -> None:
        nonlocal heartbeats_total
        op = message["op"]
        if op == "ready":
            chan.idle = True
        elif op == "heartbeat":
            heartbeats_total += 1
            queue.heartbeat(chan.worker_id, time.monotonic())
        elif op == "result":
            try:
                rows = [row_from_payload(p) for p in message["rows"]]
            except Exception as exc:  # noqa: BLE001 - wire payloads are hostile
                cell_fault(chan, f"corrupt: undecodable result rows ({exc})")
                return
            seed = message.get("seed")
            cell = cell_by_seed.get(seed)
            problem = (
                "unknown cell seed"
                if cell is None
                else validate_cell_rows(spec, *cell, rows)
            )
            if problem is not None:
                lease = queue.leases.get(chan.worker_id)
                if lease is not None and lease.seed == seed:
                    cell_fault(chan, f"corrupt: {problem}")
                return  # corrupt stale/duplicate copies just drop
            outcome, lease = queue.complete(chan.worker_id, seed, rows)
            if outcome == "win":
                record_win(chan, lease, rows)
        elif op == "nack":
            lease = queue.leases.get(chan.worker_id)
            if lease is not None and lease.seed == message.get("seed"):
                cell_fault(chan, f"error: {message.get('detail', 'worker nack')}")
        # hello out of band, anything else ignored (future-proofing)

    def handle_hello(chan: _Channel, raw: bytes) -> None:
        try:
            message = decode_message(raw)
        except RemoteProtocolError as exc:
            host_fault(chan.host, chan, f"protocol: {exc}")
            return
        if message["op"] != "hello":
            host_fault(
                chan.host, chan, f"protocol: expected hello, got {message['op']!r}"
            )
            return
        expected = dict(local_fp)
        if chan.host.spec.fingerprint is not None:
            expected["code"] = chan.host.spec.fingerprint
        mismatch = fingerprint_mismatch(expected, message.get("fingerprint") or {})
        if mismatch is not None:
            chan.send("reject", detail=mismatch)
            chan.host.failures += 1
            chan.host.handshake = "refused"
            quarantine_host(chan.host, f"handshake: fingerprint mismatch ({mismatch})")
            return
        chan.state = "active"
        chan.host.handshake = "verified"
        chan.send(
            "init",
            payload=init_payload,
            host=chan.host.spec.name,
            slot=chan.slot,
            heartbeat_interval=heartbeat_interval,
            slow=(
                0.0
                if host_chaos is None or chan.host.chaos_exempt
                else host_chaos.slow_for(chan.host.spec.name)
            ),
        )

    def journal_stats(interrupted: bool) -> None:
        if journal is None:
            return
        journal.record_stats(
            {
                "wall_seconds": round(time.monotonic() - started, 6),
                "interrupted": interrupted,
                "scheduler": "elastic-remote",
                "hosts": [
                    {
                        "name": host.spec.name,
                        "slots": host.spec.slots,
                        "leases": host.leases_granted,
                        "cells": host.cells_done,
                        "failures": host.failures,
                        "quarantined": host.quarantined,
                        "handshake": host.handshake,
                    }
                    for host in hosts_state
                ],
                "leases": queue.granted,
                "heartbeats": heartbeats_total,
                "speculated": queue.speculated,
                "cells_completed": manifest.cells_completed,
                "cells_replayed": manifest.cells_replayed,
                "recovered": manifest.recovered,
                "retries": manifest.retries,
                "quarantined": manifest.quarantined,
                "hosts_quarantined": manifest.hosts_quarantined,
                "degraded_to_local": manifest.degraded_to_local,
                "cache": None,
            }
        )

    def drain_inbox(now: float) -> bool:
        """Handle every queued line and EOF marker; whether any arrived."""
        progressed = False
        while True:
            try:
                worker_id, generation, raw = inbox.get_nowait()
            except queue_mod.Empty:
                return progressed
            chan = channels.get(worker_id)
            if chan is None or generation != chan.generation:
                continue  # stale line from a killed process generation
            progressed = True
            if raw is None:
                # Channel EOF: the worker process died — a host fault.
                detail = (
                    "handshake: worker exited before hello"
                    if chan.state == "hello"
                    else "crash: worker channel closed (host died?)"
                )
                host_fault(chan.host, chan, detail)
                continue
            if chan.state == "hello":
                handle_hello(chan, raw)
                continue
            try:
                messages = chan.link.receive(raw, now)
            except RemoteProtocolError as exc:
                host_fault(chan.host, chan, f"protocol: {exc}")
                continue
            for message in messages:
                handle_message(chan, message)

    def handshake_expired(chan: _Channel, now: float) -> bool:
        """Handshake deadline: a host that cannot say hello in time."""
        if chan.state == "hello" and now >= chan.hello_deadline:
            host_fault(chan.host, chan, "handshake: timed out")
            return True
        return False

    def kill_all() -> None:
        for chan in channels.values():
            _kill_process(chan.process)
            chan.process = None

    for host in hosts_state:
        add_host(host)

    try:
        while not queue.done:
            progressed = drain_inbox(time.monotonic())

            now = time.monotonic()
            for chan in list(channels.values()):
                if not chan.live:
                    continue
                # Healed partitions deliver their backlog late.
                if chan.state == "active" and chan.link is not None:
                    for message in chan.link.flush(now):
                        progressed = True
                        handle_message(chan, message)
                if handshake_expired(chan, now):
                    progressed = True
                    continue
                # Grant work to idle channels.
                if (
                    chan.state == "active"
                    and chan.idle
                    and chan.worker_id not in queue.leases
                ):
                    lease = queue.next_lease(chan.worker_id, time.monotonic())
                    if lease is not None:
                        chan.idle = False
                        chan.host.leases_granted += 1
                        die = (
                            host_chaos is not None
                            and not chan.host.chaos_exempt
                            and host_chaos.dies_on_lease(
                                chan.host.spec.name, chan.host.leases_granted
                            )
                        )
                        chan.send(
                            "lease",
                            eps=lease.eps,
                            m=lease.m,
                            rep=lease.rep,
                            seed=lease.seed,
                            attempt=lease.attempt,
                            die=bool(die),
                        )
                        progressed = True

            now = time.monotonic()
            # Hard per-cell timeout: the cell is charged; the worker is
            # torn down and the channel relaunched (same as a local slot).
            for lease in queue.overdue(now):
                chan = channels.get(lease.worker)
                if chan is None:
                    continue
                cell_fault(
                    chan, "timeout: cell exceeded its timeout; worker terminated"
                )
                _kill_process(chan.process)
                chan.process = None
                spawn_channel(chan)
                progressed = True
            # Soft lease expiry: missed heartbeats.  The cell requeues
            # charge-free and the host is NOT charged — a partitioned
            # host is indistinguishable from a dead one from here, and
            # the channel is left running so a healed partition can
            # still deliver its stale result (first-verified-wins).
            for lease in queue.expired(now):
                if lease.worker not in queue.leases:
                    continue  # already handled above this tick
                chan = channels.get(lease.worker)
                detail = "expired: lease deadline passed without a heartbeat"
                if chan is None:
                    queue.release(lease.worker, detail, charge_cell=False)
                else:
                    release_channel(chan, detail)
                progressed = True

            if not progressed:
                time.sleep(_POLL_INTERVAL)

        # Drained.  Settle every launched handshake (verified, refused or
        # timed out) before sealing, so the host outcomes in the manifest
        # do not depend on whether the queue drained before a hello
        # arrived.
        while any(c.live and c.state == "hello" for c in channels.values()):
            progressed = drain_inbox(time.monotonic())
            now = time.monotonic()
            for chan in list(channels.values()):
                if chan.live and handshake_expired(chan, now):
                    progressed = True
            if not progressed:
                time.sleep(_POLL_INTERVAL)

        # Stop idle workers gracefully, cut stragglers loose.
        for chan in channels.values():
            if chan.process is not None and chan.idle:
                chan.send("stop")
        deadline = time.monotonic() + 1.0
        for chan in channels.values():
            if chan.process is not None and chan.idle:
                try:
                    chan.process.wait(max(0.0, deadline - time.monotonic()))
                except subprocess.TimeoutExpired:
                    pass
        kill_all()

        manifest.cells_completed = len(completed) - manifest.cells_replayed
        manifest.speculated = queue.speculated
        journal_stats(interrupted=False)
        if journal is not None:
            journal.record_seal()
    except KeyboardInterrupt:
        kill_all()
        manifest.speculated = queue.speculated
        journal_stats(interrupted=True)
        partial = _assemble(spec, cells, completed, manifest, journal, None)
        raise SweepInterrupted(partial) from None
    except BaseException:
        kill_all()
        raise
    finally:
        if journal is not None:
            journal.close()

    return _assemble(spec, cells, completed, manifest, journal, None)


__all__ = [
    "DEFAULT_WORKER_COMMAND",
    "HostLink",
    "HostSpec",
    "LOCAL_FALLBACK_HOST",
    "REMOTE_OPS",
    "REMOTE_PROTOCOL_VERSION",
    "RemoteProtocolError",
    "code_fingerprint",
    "decode_message",
    "encode_message",
    "env_fingerprint",
    "fingerprint_mismatch",
    "load_hosts",
    "message_crc",
    "resolve_hosts",
]
