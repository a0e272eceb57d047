"""Fault-tolerant sweep execution.

The scheduler core here is the production path for long benchmark grids,
reached through :func:`repro.workloads.execute.execute_sweep` (the
deprecated :func:`run_sweep_resilient` shim remains for old callers).
Where :func:`repro.workloads.parallel.run_sweep_parallel` was
all-or-nothing — one crashed or hung worker raised out of the pool and
discarded every completed cell — this runner treats cell failure as a
normal event:

* cells run in ``workers`` **persistent worker slots**, forked once per
  sweep and fed leases from one :class:`~repro.workloads.elastic.CellQueue`
  over a pipe; workers **heartbeat** while they compute, so a slow slot
  keeps its lease while a silent one loses it, and a slot whose worker
  crashes or passes its **timeout** is terminated and respawned;
* failed cells are **retried** with exponential backoff, up to
  ``max_retries`` times, and idle slots **speculatively** re-run
  straggler cells when nothing is ready to lease;
* cells that exhaust their budget are **quarantined** and reported in a
  structured :class:`FailureManifest` — the sweep still returns every
  completed row (graceful degradation) instead of throwing them away;
* results are **validated** before acceptance, so a worker returning
  corrupted rows counts as a failure rather than polluting the dataset;
* completed cells are checkpointed to an append-only JSONL **journal**
  (:mod:`repro.workloads.journal`); ``resume=True`` replays them from
  disk and re-executes only the remainder, bit-identical to an
  uninterrupted run;
* ``SIGINT`` raises :class:`SweepInterrupted` carrying the partial
  result, after flushing the journal — nothing finished is ever lost.

Determinism is unchanged from the serial path: cells draw their
instances from :meth:`SweepSpec.cell_seed`, so retries, worker death and
resumption cannot alter the data.  The chaos harness
(:mod:`repro.testing.chaos`) injects crashes, hangs, transient errors
and corrupted rows to prove it.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import pickle
import threading
import time
import warnings
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import TYPE_CHECKING, Any

from repro.core.guarantees import guarantee_for
from repro.engine.backend import SimulationRequest, run_simulations
from repro.offline.cache import BracketCache, CacheStats
from repro.workloads.journal import SweepJournal, spec_fingerprint
from repro.workloads.sweep import SweepRow, SweepSpec, cell_bracket

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.testing.chaos import ChaosPlan, WorkerChaosPlan

#: Grace period between SIGTERM and SIGKILL when reaping a worker.
_KILL_GRACE = 0.5


class SweepExecutionError(RuntimeError):
    """Raised by strict callers when a resilient sweep quarantined cells."""

    def __init__(self, message: str, manifest: "FailureManifest") -> None:
        super().__init__(message)
        self.manifest = manifest


class SweepInterrupted(KeyboardInterrupt):
    """SIGINT during a resilient sweep; carries the flushed partial result."""

    def __init__(self, result: "ResilientSweepResult") -> None:
        super().__init__("sweep interrupted")
        self.result = result


@dataclass(frozen=True)
class CellFailure:
    """One quarantined cell: where it died and how, attempt by attempt."""

    epsilon: float
    machines: int
    repetition: int
    seed: int
    attempts: int
    kind: str  # final failure kind: crash | timeout | error | corrupt
    detail: str
    #: per-attempt "kind: detail" records, oldest first.
    history: tuple[str, ...] = ()

    def as_dict(self) -> dict[str, Any]:
        return {
            "epsilon": self.epsilon,
            "machines": self.machines,
            "repetition": self.repetition,
            "seed": self.seed,
            "attempts": self.attempts,
            "kind": self.kind,
            "detail": self.detail,
            "history": list(self.history),
        }


@dataclass(frozen=True)
class WorkerFailure:
    """One quarantined worker *slot*, failure by failure.

    Cell failures quarantine cells; worker failures quarantine the slot —
    a host/process position that keeps crashing, hanging or missing
    heartbeats is removed from the pool (down to a floor of one) while
    its leased cells are re-dispatched to healthy slots.
    """

    slot: int
    failures: int
    detail: str  # final failure: why the slot was quarantined
    #: per-failure "kind: detail" records, oldest first.
    history: tuple[str, ...] = ()

    def as_dict(self) -> dict[str, Any]:
        return {
            "slot": self.slot,
            "failures": self.failures,
            "detail": self.detail,
            "history": list(self.history),
        }


@dataclass(frozen=True)
class HostFailure:
    """One quarantined remote *host* (remote-elastic mode).

    A whole machine is a failure domain above the worker slot: when a
    host dies (every channel EOF), repeatedly fails its handshake, or
    keeps losing workers, the entire host is quarantined at once and
    every lease it held is requeued charge-free — the cells were never
    at fault.
    """

    host: str
    failures: int
    detail: str  # final failure: why the host was quarantined
    #: per-failure "kind: detail" records, oldest first.
    history: tuple[str, ...] = ()

    def as_dict(self) -> dict[str, Any]:
        return {
            "host": self.host,
            "failures": self.failures,
            "detail": self.detail,
            "history": list(self.history),
        }


@dataclass
class FailureManifest:
    """Structured account of everything that went wrong in a sweep."""

    failures: list[CellFailure] = field(default_factory=list)
    #: cells that succeeded only after >= 1 retry (transient faults).
    recovered: int = 0
    #: total extra attempts spent across all cells.
    retries: int = 0
    cells_total: int = 0
    cells_completed: int = 0
    #: cells replayed from a checkpoint journal instead of re-executed.
    cells_replayed: int = 0
    #: worker slots quarantined after exhausting their failure budget
    #: (the pool shrinks gracefully to a floor of 1).
    worker_failures: list[WorkerFailure] = field(default_factory=list)
    #: speculative duplicate executions launched during the end-game.
    speculated: int = 0
    #: repetitions skipped by adaptive repetitions (CI already tight).
    cells_skipped: int = 0
    #: remote hosts quarantined as whole failure domains (remote mode
    #: only; their leases were requeued charge-free).
    host_failures: list[HostFailure] = field(default_factory=list)
    #: the remote pool was lost entirely and the sweep finished on the
    #: local fallback workers (graceful degradation, not data loss).
    degraded_to_local: bool = False

    @property
    def quarantined(self) -> int:
        return len(self.failures)

    @property
    def workers_quarantined(self) -> int:
        return len(self.worker_failures)

    @property
    def hosts_quarantined(self) -> int:
        return len(self.host_failures)

    def as_dict(self) -> dict[str, Any]:
        return {
            "cells_total": self.cells_total,
            "cells_completed": self.cells_completed,
            "cells_replayed": self.cells_replayed,
            "cells_skipped": self.cells_skipped,
            "recovered": self.recovered,
            "retries": self.retries,
            "speculated": self.speculated,
            "quarantined": self.quarantined,
            "failures": [f.as_dict() for f in self.failures],
            "workers_quarantined": self.workers_quarantined,
            "worker_failures": [w.as_dict() for w in self.worker_failures],
            "hosts_quarantined": self.hosts_quarantined,
            "host_failures": [h.as_dict() for h in self.host_failures],
            "degraded_to_local": self.degraded_to_local,
        }

    def summary(self) -> str:
        extras = ""
        if self.cells_skipped:
            extras += f", {self.cells_skipped} skipped by adaptive repetitions"
        if self.speculated:
            extras += f", {self.speculated} speculated"
        if self.worker_failures:
            extras += f", {self.workers_quarantined} worker(s) quarantined"
        if self.host_failures:
            extras += f", {self.hosts_quarantined} host(s) quarantined"
        if self.degraded_to_local:
            extras += ", degraded to local pool"
        return (
            f"{self.cells_completed}/{self.cells_total} cells completed "
            f"({self.cells_replayed} replayed from journal, "
            f"{self.recovered} recovered via retry, "
            f"{self.quarantined} quarantined{extras})"
        )


@dataclass
class ResilientSweepResult:
    """Rows in canonical grid order plus the failure manifest."""

    rows: list[SweepRow]
    manifest: FailureManifest
    journal_path: str | None = None
    #: aggregated bracket-cache counters across all workers (dict form of
    #: :class:`repro.offline.cache.CacheStats`); ``None`` without a cache.
    cache_stats: dict[str, Any] | None = None

    @property
    def complete(self) -> bool:
        return not self.manifest.failures


# ---------------------------------------------------------------------------
# cell evaluation (shared with the thin pool-compatible wrapper)
# ---------------------------------------------------------------------------


def run_cell(
    spec: SweepSpec,
    eps: float,
    m: int,
    rep: int,
    algorithm_kwargs: dict[str, dict[str, Any]],
    cache: BracketCache | None = None,
) -> list[SweepRow]:
    """Evaluate one grid cell for every algorithm (worker-side)."""
    return run_cells(spec, [(eps, m, rep)], algorithm_kwargs, cache)[0]


def run_cells(
    spec: SweepSpec,
    cells: list[tuple[float, int, int]],
    algorithm_kwargs: dict[str, dict[str, Any]],
    cache: BracketCache | None = None,
    backend: str = "scalar",
) -> list[list[SweepRow]]:
    """Evaluate several grid cells, optionally through the batch backend.

    All of the cells' simulations are routed through
    :func:`repro.engine.backend.run_simulations` in one call, so with a
    non-scalar backend compatible cells (same algorithm, machine count and
    job count) step through the structure-of-arrays kernel together.  Rows
    are bit-identical either way — the backend seam guarantees it — so
    journals, resumes and shard merges are unaffected by the backend
    choice.
    """
    instances = []
    brackets = []
    for eps, m, rep in cells:
        instance = spec.workload(m, eps, spec.cell_seed(eps, m, rep))
        instances.append(instance)
        brackets.append(cell_bracket(spec, instance, cache))
    requests = [
        SimulationRequest(
            name,
            instance,
            algorithm_kwargs.get(name, {}),
            record_events=spec.record_events,
        )
        for instance in instances
        for name in spec.algorithms
    ]
    results = iter(run_simulations(requests, backend=backend))
    rows_per_cell: list[list[SweepRow]] = []
    for (eps, m, rep), instance, bracket in zip(cells, instances, brackets):
        rows = []
        for name in spec.algorithms:
            result = next(results)
            rows.append(
                SweepRow(
                    epsilon=eps,
                    machines=m,
                    repetition=rep,
                    algorithm=name,
                    accepted_load=result.accepted_load,
                    accepted_count=result.accepted_count,
                    n_jobs=len(instance),
                    opt_lower=bracket.lower,
                    opt_upper=bracket.upper,
                    opt_exact=bracket.exact,
                    guarantee=guarantee_for(name, eps, m),
                )
            )
        rows_per_cell.append(rows)
    return rows_per_cell


def validate_sweep_pickles(
    spec: SweepSpec, algorithm_kwargs: dict[str, dict[str, Any]]
) -> None:
    """Fail fast on unpicklable inputs instead of deep inside a worker.

    Checks the workload factory *and* every ``algorithm_kwargs`` value —
    an unpicklable kwarg used to surface as an opaque pool error.
    """
    try:
        pickle.dumps(spec.workload)
    except Exception as exc:
        raise TypeError(
            "the sweep workload factory must be picklable for parallel "
            "execution (use a module-level function or functools.partial, "
            f"not a lambda): {exc}"
        ) from exc
    for name, kwargs in algorithm_kwargs.items():
        try:
            pickle.dumps(kwargs)
        except Exception as exc:
            raise TypeError(
                f"algorithm_kwargs[{name!r}] must be picklable for parallel "
                f"execution (module-level callables and plain data only): {exc}"
            ) from exc


def validate_cell_rows(
    spec: SweepSpec, eps: float, m: int, rep: int, rows: object
) -> str | None:
    """Structural validation of a worker's result; ``None`` means clean.

    Guards the journal (and the returned dataset) against corrupted
    results from a sick worker: wrong shape, misaligned identity fields,
    non-finite or negative measurements, or an inverted OPT bracket.
    """
    if not isinstance(rows, list):
        return f"result is {type(rows).__name__}, not a list of rows"
    if len(rows) != len(spec.algorithms):
        return f"expected {len(spec.algorithms)} rows, got {len(rows)}"
    for row, name in zip(rows, spec.algorithms):
        if not isinstance(row, SweepRow):
            return f"row is {type(row).__name__}, not SweepRow"
        if (row.epsilon, row.machines, row.repetition) != (eps, m, rep):
            return (
                f"row identity {(row.epsilon, row.machines, row.repetition)} "
                f"does not match cell {(eps, m, rep)}"
            )
        if row.algorithm != name:
            return f"row algorithm {row.algorithm!r} misaligned (expected {name!r})"
        if not (math.isfinite(row.accepted_load) and row.accepted_load >= 0.0):
            return f"accepted_load {row.accepted_load!r} is not finite and >= 0"
        if not isinstance(row.accepted_count, int) or not (
            0 <= row.accepted_count <= row.n_jobs
        ):
            return f"accepted_count {row.accepted_count!r} out of range [0, {row.n_jobs}]"
        if not (math.isfinite(row.opt_lower) and math.isfinite(row.opt_upper)):
            return "OPT bracket is not finite"
        if row.opt_lower > row.opt_upper + 1e-9:
            return f"OPT bracket inverted: [{row.opt_lower}, {row.opt_upper}]"
    return None


# ---------------------------------------------------------------------------
# worker slots
# ---------------------------------------------------------------------------


def _heartbeat_loop(send, active: list, interval: float) -> None:
    """Worker-side heartbeat thread: beat for the lease in ``active[0]``.

    One thread per worker: a thread per lease costs two blocking handoffs
    (~2 ms a lease on busy cores).  A beat racing its answer is ignored.
    """
    while True:
        time.sleep(interval)
        seed = active[0]
        if seed is not None:
            try:
                send(("heartbeat", seed))
            except (OSError, ValueError):  # pragma: no cover - parent went away
                return


def _slot_worker(
    conn,
    parent_end,
    slot: int,
    spec: SweepSpec,
    algorithm_kwargs: dict[str, dict[str, Any]],
    chaos: "ChaosPlan | None",
    worker_chaos: "WorkerChaosPlan | None",
    heartbeat_interval: float,
    cache: BracketCache | None,
) -> None:
    """One persistent worker slot: answer leases until the pipe closes.

    A lease is ``(cells, backend, attempt)``: a group lease of up to
    ``_GROUP_CELLS`` cells on the sweep's backend, or one single-cell
    attempt on the scalar backend (the only kind a chaos plan faults).
    Every message names the lease by the seed of its first cell.  While a
    lease computes, a heartbeat thread sends ``("heartbeat", seed)`` every
    *heartbeat_interval* seconds.  Each lease is answered with
    ``("ok", seed, [rows, ...], cache_stats)`` — one row list per cell,
    in order — or ``("error", seed, detail, exiting)``, where ``exiting``
    means the worker stops serving after this answer (the cell raised
    ``SystemExit`` or was interrupted).  A crash (or an injected one)
    answers nothing: the parent sees the dead process.  The bracket-cache
    counters are zeroed at the start of every lease, so ``cache_stats`` is
    that lease's delta and a failed lease's lookups are never counted.

    ``worker_chaos`` faults this slot by its index: a slow slot sleeps
    inside the heartbeat window (slow, not hung), a dead slot hard-exits
    on its Nth lease, a lost-heartbeat slot never beats, and a
    duplicating slot answers every successful lease twice.

    ``parent_end`` is the parent's end of this slot's pipe, inherited
    through ``fork``; the worker closes its copy at once so that the
    parent closing its own end (at the end of the sweep, or by dying) is
    seen here as EOF.
    """
    parent_end.close()
    lock = threading.Lock()

    def send(message: tuple) -> None:
        with lock:  # the heartbeat thread shares the pipe
            conn.send(message)

    active: list[int | None] = [None]  # seed of the lease being computed
    if worker_chaos is None or not worker_chaos.suppresses_heartbeat(slot):
        threading.Thread(
            target=_heartbeat_loop,
            args=(send, active, heartbeat_interval),
            daemon=True,
        ).start()
    leases = 0
    try:
        while True:
            cells, backend, attempt = conn.recv()
            seed = spec.cell_seed(*cells[0])
            leases += 1
            if worker_chaos is not None and worker_chaos.dies_on_cell(slot, leases):
                from repro.testing.chaos import CHAOS_EXIT_CODE

                os._exit(CHAOS_EXIT_CODE)
            if cache is not None:
                cache.stats = CacheStats()
            active[0] = seed
            exiting = False
            try:
                if worker_chaos is not None:  # a slow slot: beats keep flowing
                    time.sleep(worker_chaos.delay_for(slot))
                fault = None
                if chaos is not None:
                    fault = chaos.fault_for(seed, attempt)
                    chaos.trigger(fault)  # may _exit, hang, or raise
                rows = run_cells(spec, cells, algorithm_kwargs, cache, backend=backend)
                if fault == "corrupt":
                    rows = [chaos.corrupt_rows(rows[0])]
                stats = None if cache is None else cache.stats.as_dict()
                answer: tuple = ("ok", seed, rows, stats)
            except BaseException as exc:  # noqa: BLE001 - must cross the process boundary
                exiting = not isinstance(exc, Exception)
                answer = ("error", seed, f"{type(exc).__name__}: {exc}", exiting)
            active[0] = None
            send(answer)
            if exiting:
                return  # interrupted or exiting: answer, then stop serving
            if worker_chaos is not None and worker_chaos.duplicates_result(slot):
                send(answer)
    except (EOFError, OSError, KeyboardInterrupt):  # sweep over or interrupted
        pass
    finally:
        conn.close()


#: Cells per group lease when the scheduler may batch.
_GROUP_CELLS = 8

@dataclass
class _Slot:
    """Parent-side handle of one worker slot across process generations."""

    index: int
    process: mp.process.BaseProcess | None = None
    conn: Any = None
    failures: int = 0
    history: tuple[str, ...] = ()
    quarantined: bool = False
    #: monotonic time of the slot's last message (or of its fork).
    last_activity: float = 0.0
    cells_done: int = 0


def _terminate(
    process: mp.process.BaseProcess, grace: float = _KILL_GRACE
) -> None:
    """Bounded SIGTERM -> SIGKILL escalation; always reaps the child.

    SIGTERM first (a cooperative worker exits promptly), SIGKILL once the
    grace period expires (a worker that ignores or blocks SIGTERM — e.g.
    one stuck in native code mid-group-lease — must not outlive the
    scheduler).  Every join is bounded, so teardown can never hang on an
    unkillable child; the final join after SIGKILL reaps the process so
    no zombie survives the sweep.
    """
    if not process.is_alive():
        process.join(grace)  # already exited: just reap
        return
    process.terminate()
    process.join(grace)
    if process.is_alive():
        process.kill()
        process.join(grace)


def _terminate_all(
    processes: list[mp.process.BaseProcess], grace: float = _KILL_GRACE
) -> None:
    """Tear down many workers with one shared grace period.

    Signals every process *first*, then waits — escalating serially would
    spend ``grace`` per worker and stretch a SIGINT teardown linearly in
    the pool size.
    """
    for process in processes:
        if process.is_alive():
            process.terminate()
    deadline = time.monotonic() + grace
    for process in processes:
        process.join(max(0.0, deadline - time.monotonic()))
    for process in processes:
        if process.is_alive():
            process.kill()
    for process in processes:
        process.join(grace)


# ---------------------------------------------------------------------------
# shared scheduler plumbing (local scheduler here, remote scheduler)
# ---------------------------------------------------------------------------


def check_seed_collisions(
    spec: SweepSpec, cells: list[tuple[float, int, int]]
) -> list[int]:
    """Refuse to run a grid whose cell seeds collide; returns the seeds.

    The journal and the completed-cell map key by seed; a collision would
    silently conflate two cells' results.
    """
    seeds = [spec.cell_seed(*cell) for cell in cells]
    if len(set(seeds)) != len(seeds):
        raise ValueError(
            "sweep grid produces colliding cell seeds; refusing to run — "
            "check SweepSpec.cell_seed inputs"
        )
    return seeds


def prepare_journal(
    spec: SweepSpec,
    cells: list[tuple[float, int, int]],
    journal_path: str | os.PathLike[str] | None,
    *,
    resume: bool = False,
    shard: tuple[int, int] | None = None,
    salvage: bool = False,
) -> tuple[SweepJournal | None, dict[int, list[SweepRow]]]:
    """Open (or create) the checkpoint journal and replay completed cells.

    Shared by the local scheduler here and the remote one in
    :mod:`repro.workloads.remote`, so both get identical journal
    creation, resume validation, salvage and replay semantics.  Returns
    ``(journal, completed)`` where ``completed`` maps cell seed to the
    rows replayed from disk (restricted to *cells* — a merged journal may
    hold more than this shard executes).
    """
    completed: dict[int, list[SweepRow]] = {}
    journal: SweepJournal | None = None
    if journal_path is not None:
        if resume:
            journal, state = SweepJournal.resume(
                journal_path, spec, shard=shard, salvage=salvage
            )
            valid_seeds = {spec.cell_seed(*cell) for cell in cells}
            completed = {
                seed: rows
                for seed, rows in state.completed.items()
                if seed in valid_seeds
            }
        else:
            journal = SweepJournal.create(journal_path, spec, shard=shard)
    elif resume:
        raise ValueError("resume=True requires a journal_path")
    return journal, completed


# ---------------------------------------------------------------------------
# the scheduler
# ---------------------------------------------------------------------------


def run_sweep_resilient(
    spec: SweepSpec,
    algorithm_kwargs: dict[str, dict[str, Any]] | None = None,
    *,
    max_workers: int | None = None,
    timeout: float | None = None,
    max_retries: int = 2,
    backoff: float = 0.25,
    journal_path: str | os.PathLike[str] | None = None,
    resume: bool = False,
    chaos: "ChaosPlan | None" = None,
    interrupt_after: int | None = None,
    cache: BracketCache | None = None,
) -> ResilientSweepResult:
    """Execute *spec* fault-tolerantly across persistent worker slots.

    .. deprecated:: 1.0
        Legacy entrypoint, kept as a thin shim; it will be removed in
        version 2.0.  Use :func:`repro.workloads.execute.execute_sweep`
        with an :class:`~repro.workloads.execute.ExecutionPolicy` — it
        carries these keyword arguments as policy fields and adds
        sharding.
    """
    warnings.warn(
        "run_sweep_resilient is deprecated; use "
        "repro.workloads.execute.execute_sweep(spec, ExecutionPolicy(...))",
        DeprecationWarning,
        stacklevel=2,
    )
    if resume and journal_path is None:
        raise ValueError("resume=True requires a journal_path")
    from repro.workloads.execute import ExecutionPolicy, execute_sweep

    policy = ExecutionPolicy(
        parallel=True,
        workers=max_workers,
        timeout=timeout,
        retries=max_retries,
        backoff=backoff,
        journal=journal_path,
        resume=resume,
        cache=cache,
        chaos=chaos,
        interrupt_after=interrupt_after,
    )
    return execute_sweep(spec, policy, algorithm_kwargs)


def _execute_resilient(
    spec: SweepSpec,
    algorithm_kwargs: dict[str, dict[str, Any]] | None = None,
    *,
    max_workers: int | None = None,
    timeout: float | None = None,
    max_retries: int = 2,
    backoff: float = 0.25,
    journal_path: str | os.PathLike[str] | None = None,
    resume: bool = False,
    chaos: "ChaosPlan | None" = None,
    worker_chaos: "WorkerChaosPlan | None" = None,
    interrupt_after: int | None = None,
    cache: BracketCache | None = None,
    cells: list[tuple[float, int, int]] | None = None,
    shard: tuple[int, int] | None = None,
    salvage: bool = False,
    backend: str = "scalar",
    heartbeat_interval: float = 0.1,
    lease_timeout: float | None = None,
    speculate: bool = True,
    adaptive_reps: bool = False,
    adaptive_min_reps: int = 2,
    adaptive_rel_tol: float = 0.01,
    worker_max_failures: int = 3,
) -> ResilientSweepResult:
    """Scheduler core behind :func:`repro.workloads.execute.execute_sweep`.

    Every lease comes from one :class:`repro.workloads.elastic.CellQueue`
    and runs in one of ``workers`` persistent slots.  The keyword
    arguments are the :class:`~repro.workloads.execute.ExecutionPolicy`
    fields of the same meaning (``max_workers`` is ``workers``,
    ``max_retries`` is ``retries``, ``journal_path`` is ``journal``), plus:

    ``cells`` / ``shard``
        restrict execution to one shard's cells (from
        :class:`repro.workloads.sharding.ShardPlan`; ``None`` runs the
        full grid) and stamp ``(shard_index, n_shards)`` into the
        journal header.  Cell seeds are unchanged, so a sharded cell is
        bit-identical to the same cell in a single-host run.
    ``backend``
        with a non-scalar backend — and no fault plan, interrupt hook or
        adaptive repetitions — cells are leased in *groups* of up to
        ``_GROUP_CELLS`` so the batch kernel amortises across compatible
        cells.  A failed group is demoted to per-cell scalar leases, so
        retries, validation and journaling stay per-cell.

    Failures are charged where they belong.  An error, corrupt rows or a
    hard ``timeout`` charge the cell's retry budget (retries wait a
    decorrelated-jitter backoff under ``spec.base_seed``).  Missed
    heartbeats charge the slot and re-queue the cell for free.  A crash
    charges both (the cell is retried at once, on another slot), so a
    cell that kills every worker it touches is quarantined like any
    poison cell, and a slot over
    ``worker_max_failures`` is quarantined (never the last one).  Winning
    leases alone feed ``result.cache_stats``, and each journaled cell
    carries its lease provenance outside the row CRC.

    Returns a :class:`ResilientSweepResult`; never raises for individual
    cell failures (see ``result.manifest``).
    """
    # Imported here: the lease queue module imports this one.
    from repro.workloads.elastic import LEASE_TIMEOUT_BEATS, CellQueue, _AdaptiveReps

    algorithm_kwargs = algorithm_kwargs or {}
    validate_sweep_pickles(spec, algorithm_kwargs)
    if lease_timeout is None:
        lease_timeout = LEASE_TIMEOUT_BEATS * heartbeat_interval

    cells = list(spec.cells()) if cells is None else list(cells)
    cell_by_seed = dict(zip(check_seed_collisions(spec, cells), cells))
    manifest = FailureManifest(cells_total=len(cells))
    journal, completed = prepare_journal(
        spec, cells, journal_path, resume=resume, shard=shard, salvage=salvage
    )
    manifest.cells_replayed = len(completed)

    adaptive: _AdaptiveReps | None = None
    if adaptive_reps:
        adaptive = _AdaptiveReps(
            spec, cells, min_reps=adaptive_min_reps, rel_tol=adaptive_rel_tol
        )
        todo = [(*cell, spec.cell_seed(*cell)) for cell in adaptive.initial_cells(completed)]
    else:
        todo = [(*cell, seed) for seed, cell in cell_by_seed.items() if seed not in completed]
    grouping = (
        backend != "scalar"
        and chaos is None
        and worker_chaos is None
        and interrupt_after is None
        and adaptive is None
    )
    queue = CellQueue(
        todo,
        retries=max_retries,
        lease_timeout=lease_timeout,
        timeout=timeout,
        speculate=speculate,
        group_cells=_GROUP_CELLS if grouping else 1,
        backoff=backoff,
        jitter_seed=spec.base_seed,
    )
    workers = max_workers or min(len(queue.pending) or 1, os.cpu_count() or 2)
    ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")
    slots = [_Slot(index) for index in range(workers)]
    spawned = 0
    heartbeats = 0
    new_cells = 0
    cache_totals = CacheStats() if cache is not None else None
    started = time.monotonic()

    def spawn(slot: _Slot) -> None:
        nonlocal spawned
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        slot.process = ctx.Process(
            target=_slot_worker,
            args=(
                child_conn,
                parent_conn,
                slot.index,
                spec,
                algorithm_kwargs,
                chaos,
                worker_chaos,
                heartbeat_interval,
                cache,
            ),
            daemon=True,
        )
        slot.process.start()
        child_conn.close()
        slot.conn = parent_conn
        spawned += 1
        slot.last_activity = time.monotonic()

    def drop(slot: _Slot, fault: str | None = None) -> None:
        """Reap *slot*'s process (respawned on demand); *fault* charges the slot."""
        _terminate(slot.process)
        slot.conn.close()
        slot.process = slot.conn = None
        if fault is None:
            return
        slot.failures += 1
        slot.history += (fault,)
        if slot.failures > worker_max_failures and any(
            not other.quarantined for other in slots if other is not slot
        ):
            slot.quarantined = True
            manifest.worker_failures.append(
                WorkerFailure(
                    slot=slot.index,
                    failures=slot.failures,
                    detail=fault,
                    history=slot.history,
                )
            )

    def lost(slot: _Slot, detail: str) -> None:
        """The slot's process died: its lease's cell and the slot both pay.

        The cell is retried at once, on another slot: the backoff spreads
        out retries of failing cells, and waiting here would only stretch
        the pool's tail.
        """
        lease = queue.release(slot.index, detail, crashed=True, now=time.monotonic())
        drop(slot, None if lease is None else detail)

    def busy_slots() -> list[_Slot]:
        return [slot for slot in slots if slot.index in queue.leases]

    def grant(now: float) -> None:
        """Lease ready work to idle slots, forking a slot only when needed."""
        while True:
            idle = [s for s in slots if not s.quarantined and s.index not in queue.leases]
            if not idle:
                return
            slot = next((s for s in idle if s.process is not None), idle[0])
            lease = queue.next_lease(slot.index, now)
            if lease is None:
                return
            if slot.process is None:
                spawn(slot)
            if lease.group is not None:
                message = ([cell[:3] for cell in lease.group], backend, lease.attempt)
            else:
                message = ([(lease.eps, lease.m, lease.rep)], "scalar", lease.attempt)
            try:
                slot.conn.send(message)
            except OSError:
                pass  # died while idle: its sentinel reports the crash

    def record_win(slot: _Slot, lease, cell: tuple, rows: list[SweepRow]) -> None:
        nonlocal new_cells
        eps, m, rep, seed = cell
        completed[seed] = rows
        manifest.cells_completed += 1
        slot.cells_done += 1
        if lease.attempt > 1 or lease.history:
            manifest.recovered += 1
        if journal is not None:
            journal.record_cell(
                seed,
                eps,
                m,
                rep,
                rows,
                provenance={
                    "worker": slot.index,
                    "attempt": lease.attempt,
                    "heartbeats": lease.heartbeats,
                    "lease_ms": round((time.monotonic() - lease.granted_at) * 1e3, 3),
                    "speculative": lease.speculative,
                },
            )
        new_cells += 1
        if adaptive is not None:
            fresh = adaptive.on_win(eps, m, rep, rows)
            queue.add_cells([(*c, spec.cell_seed(*c)) for c in fresh])
        if interrupt_after is not None and new_cells >= interrupt_after and not queue.done:
            # Simulated hard kill: in-flight workers are abandoned exactly
            # as a real SIGINT would.
            raise KeyboardInterrupt

    def answer(slot: _Slot, message: tuple, now: float) -> None:
        """Apply one worker message to the queue."""
        nonlocal heartbeats
        kind, seed = message[0], message[1]
        lease = queue.leases.get(slot.index)
        current = lease is not None and lease.seed == seed
        if kind == "heartbeat":
            if current:
                heartbeats += 1
                queue.heartbeat(slot.index, now)
            return
        if kind == "error":
            _, _, detail, exiting = message
            if current:
                queue.release(slot.index, f"error: {detail}", now=now)
            if exiting:
                drop(slot)  # the worker stops serving after this answer
            return
        _, _, payload, worker_cache = message
        if current and lease.group is not None:
            good, bad = _split_group_payload(spec, lease.group, payload)
            queue.complete_group(
                slot.index,
                {cell[3]: rows for cell, rows in good},
                {cell[3]: problem for cell, problem in bad},
                now,
            )
            if cache_totals is not None and worker_cache and good:
                cache_totals.merge(worker_cache)
            for cell, rows in good:
                record_win(slot, lease, cell, rows)
            return
        rows = payload[0]
        eps, m, rep = cell_by_seed[seed]
        problem = validate_cell_rows(spec, eps, m, rep, rows)
        if problem is not None:
            if current:
                queue.release(slot.index, f"corrupt: {problem}", now=now)
            return  # a corrupt stale or duplicate copy just drops
        outcome, won = queue.complete(slot.index, seed, rows)
        if outcome == "win":
            if cache_totals is not None and worker_cache:
                cache_totals.merge(worker_cache)
            record_win(slot, won, (eps, m, rep, seed), rows)

    def settle_manifest() -> None:
        manifest.retries = queue.retried
        manifest.speculated = queue.speculated
        if adaptive is not None:
            manifest.cells_skipped = adaptive.skipped
        for failure in queue.failures[len(manifest.failures) :]:
            manifest.failures.append(failure)
            if journal is not None:
                journal.record_failure(failure.as_dict())

    def journal_stats(interrupted: bool) -> None:
        if journal is None:
            return
        journal.record_stats(
            {
                "wall_seconds": round(time.monotonic() - started, 6),
                "interrupted": interrupted,
                "scheduler": "local",  # older journals: "static" / "elastic"
                "workers": workers,
                "workers_spawned": spawned,
                "leases": queue.granted - queue.speculated,
                "speculated": queue.speculated,
                "heartbeats": heartbeats,
                # When each slot finished, counted from the sweep's start.
                "worker_wall_seconds": [
                    round(max(0.0, s.last_activity - started), 6) for s in slots
                ],
                "worker_cells": [s.cells_done for s in slots],
                "cells_completed": manifest.cells_completed,
                "cells_replayed": manifest.cells_replayed,
                "cells_skipped": manifest.cells_skipped,
                "recovered": manifest.recovered,
                "retries": manifest.retries,
                "quarantined": manifest.quarantined,
                "workers_quarantined": manifest.workers_quarantined,
                "cache": None if cache_totals is None else cache_totals.as_dict(),
            }
        )

    try:
        while not queue.done:
            grant(time.monotonic())
            # Block until a slot speaks or dies, a lease deadline passes,
            # or (with a slot free) a backed-off cell becomes ready.
            busy = busy_slots()
            wake = [lease.deadline for lease in queue.leases.values()]
            wake += [
                lease.hard_deadline
                for lease in queue.leases.values()
                if lease.hard_deadline is not None
            ]
            if queue.pending and len(busy) < sum(not s.quarantined for s in slots):
                wake.append(min(task.ready_at for task in queue.pending))
            ready = wait(
                [slot.conn for slot in busy] + [slot.process.sentinel for slot in busy],
                None if not wake else max(0.0, min(wake) - time.monotonic()),
            )
            now = time.monotonic()
            for slot in busy:
                if slot.conn in ready:
                    slot.last_activity = now
                    try:
                        while slot.process is not None and slot.conn.poll():
                            answer(slot, slot.conn.recv(), now)
                    except (EOFError, OSError):
                        lost(slot, "crash: worker closed the pipe without a result")
                        continue
                if slot.process is not None and slot.process.sentinel in ready:
                    # Exited without answering: died before (or while) reporting.
                    _terminate(slot.process)
                    code = slot.process.exitcode
                    lost(slot, f"crash: worker process died with exit code {code}")
            # Hard timeout: the cell pays and the slot is respawned.  Soft
            # expiry (no heartbeats): the slot pays and the cell re-queues.
            now = time.monotonic()
            for lease in queue.overdue(now):
                queue.release(
                    lease.worker,
                    "timeout: cell exceeded its timeout; worker terminated",
                    now=now,
                )
                drop(slots[lease.worker])
            for lease in queue.expired(now):
                queue.release(
                    lease.worker,
                    "expired: lease deadline passed without a heartbeat",
                    charge_cell=False,
                    now=now,
                )
                drop(slots[lease.worker], "expired: missed heartbeats")
            settle_manifest()
        now = time.monotonic()
        for slot in busy_slots():
            slot.last_activity = now  # a losing copy works until cut loose
        journal_stats(interrupted=False)
        if journal is not None:
            # Clean exit: seal the journal so the transport/merge layer can
            # verify it arrived bit-identical (repro verify / collect).
            journal.record_seal()
    except KeyboardInterrupt:
        settle_manifest()
        journal_stats(interrupted=True)
        raise SweepInterrupted(
            _assemble(spec, cells, completed, manifest, journal, cache_totals)
        ) from None
    finally:
        # Idle slots exit on EOF.  A slot still holding a lease (a
        # speculative loser, or work cut off by an interrupt or an error)
        # is SIGTERMed at once; anything alive after one shared grace
        # period is killed.
        for slot in busy_slots():
            slot.process.terminate()
        live = [slot for slot in slots if slot.process is not None]
        for slot in live:
            slot.conn.close()
        deadline = time.monotonic() + _KILL_GRACE
        for slot in live:
            slot.process.join(max(0.0, deadline - time.monotonic()))
        _terminate_all([slot.process for slot in live])
        if journal is not None:
            journal.close()

    return _assemble(spec, cells, completed, manifest, journal, cache_totals)


def _split_group_payload(
    spec: SweepSpec, members: tuple[tuple[float, int, int, int], ...], payload: object
) -> tuple[list, list]:
    """Validate a group lease's payload; (good, bad) member lists.

    ``good`` holds ``(member, rows)`` for cells whose rows validate;
    ``bad`` holds ``(member, detail)`` for the rest.  A malformed payload
    (wrong type or length) condemns every member.
    """
    if not isinstance(payload, list) or len(payload) != len(members):
        size = len(payload) if isinstance(payload, list) else "n/a"
        detail = (
            f"corrupt: group payload is {type(payload).__name__} of length "
            f"{size}, expected {len(members)} row lists"
        )
        return [], [(member, detail) for member in members]
    good, bad = [], []
    for member, rows in zip(members, payload):
        g_eps, g_m, g_rep, _ = member
        problem = validate_cell_rows(spec, g_eps, g_m, g_rep, rows)
        if problem is None:
            good.append((member, rows))
        else:
            bad.append((member, f"corrupt: {problem}"))
    return good, bad


def _assemble(
    spec: SweepSpec,
    cells: list[tuple[float, int, int]],
    completed: dict[int, list[SweepRow]],
    manifest: FailureManifest,
    journal: SweepJournal | None,
    cache_totals: CacheStats | None = None,
) -> ResilientSweepResult:
    """Rows in canonical grid order; quarantined cells are simply absent."""
    rows: list[SweepRow] = []
    for eps, m, rep in cells:
        rows.extend(completed.get(spec.cell_seed(eps, m, rep), []))
    return ResilientSweepResult(
        rows=rows,
        manifest=manifest,
        journal_path=None if journal is None else journal.path,
        cache_stats=None if cache_totals is None else cache_totals.as_dict(),
    )


__all__ = [
    "CellFailure",
    "FailureManifest",
    "HostFailure",
    "ResilientSweepResult",
    "SweepExecutionError",
    "SweepInterrupted",
    "WorkerFailure",
    "check_seed_collisions",
    "prepare_journal",
    "run_cell",
    "run_cells",
    "run_sweep_resilient",
    "spec_fingerprint",
    "validate_cell_rows",
    "validate_sweep_pickles",
]
