"""Fault-tolerant sweep execution.

The scheduler core here is the production path for long benchmark grids,
reached through :func:`repro.workloads.execute.execute_sweep` (the
deprecated :func:`run_sweep_resilient` shim remains for old callers).
Where :func:`repro.workloads.parallel.run_sweep_parallel` was
all-or-nothing — one crashed or hung worker raised out of the pool and
discarded every completed cell — this runner treats cell failure as a
normal event:

* cells run in ``workers`` **persistent worker slots**, forked once per
  sweep and fed leases over a pipe, with an optional per-cell
  **timeout**; a slot whose worker crashes or hangs past its timeout is
  terminated (not waited on) and respawned;
* failed cells are **retried** with exponential backoff, up to
  ``max_retries`` times;
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
import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import TYPE_CHECKING, Any

from repro.baselines.registry import run_algorithm
from repro.core.guarantees import guarantee_for
from repro.offline.cache import BracketCache, CacheStats
from repro.workloads.journal import SweepJournal, spec_fingerprint
from repro.workloads.sweep import SweepRow, SweepSpec, cell_bracket
from repro.workloads.transport import decorrelated_delay

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.testing.chaos import ChaosPlan

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
    """One quarantined worker *slot* (elastic mode), failure by failure.

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
    #: (elastic mode only; the pool shrinks gracefully to a floor of 1).
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
    seed = spec.cell_seed(eps, m, rep)
    instance = spec.workload(m, eps, seed)
    bracket = cell_bracket(spec, instance, cache)
    rows = []
    for name in spec.algorithms:
        result = run_algorithm(
            name,
            instance,
            record_events=spec.record_events,
            **algorithm_kwargs.get(name, {}),
        )
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
    return rows


def run_cells(
    spec: SweepSpec,
    cells: list[tuple[float, int, int]],
    algorithm_kwargs: dict[str, dict[str, Any]],
    cache: BracketCache | None = None,
    backend: str = "scalar",
) -> list[list[SweepRow]]:
    """Evaluate several grid cells, optionally through the batch backend.

    With ``backend="scalar"`` this is exactly ``[run_cell(...) for cell in
    cells]``.  Otherwise all of the group's simulations are routed through
    :func:`repro.engine.backend.run_simulations` in one call, so compatible
    cells (same algorithm, machine count and job count) step through the
    structure-of-arrays kernel together.  Rows are bit-identical either way
    — the backend seam guarantees it — so journals, resumes and shard
    merges are unaffected by the backend choice.
    """
    if backend == "scalar":
        return [
            run_cell(spec, eps, m, rep, algorithm_kwargs, cache)
            for eps, m, rep in cells
        ]
    from repro.engine.backend import SimulationRequest, run_simulations

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
    results = run_simulations(requests, backend=backend)
    rows_per_cell: list[list[SweepRow]] = []
    i = 0
    for (eps, m, rep), instance, bracket in zip(cells, instances, brackets):
        rows = []
        for name in spec.algorithms:
            result = results[i]
            i += 1
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


def _slot_worker(
    conn,
    parent_end,
    spec: SweepSpec,
    algorithm_kwargs: dict[str, dict[str, Any]],
    chaos: "ChaosPlan | None",
    cache: BracketCache | None = None,
) -> None:
    """One persistent worker slot: answer leases until the pipe closes.

    A lease is ``(cells, backend, attempt)``: a group lease of up to
    ``_GROUP_CELLS`` cells on the sweep's backend, or one single-cell
    attempt on the scalar backend (the only kind a chaos plan faults).
    Each lease is answered with ``("ok", [rows, ...], cache_stats)`` — one
    row list per cell, in order — or ``("error", detail, None)``.  A crash
    (or an injected one) answers nothing: the parent sees the dead process
    and respawns the slot.  The bracket-cache counters are zeroed at the
    start of every lease, so ``cache_stats`` is that lease's delta and a
    failed lease's lookups are never counted.

    ``parent_end`` is the parent's end of this slot's pipe, inherited
    through ``fork``; the worker closes its copy at once so that the
    parent closing its own end (at the end of the sweep, or by dying) is
    seen here as EOF.
    """
    parent_end.close()
    try:
        while True:
            cells, backend, attempt = conn.recv()
            if cache is not None:
                cache.stats = CacheStats()
            try:
                fault = None
                if chaos is not None:
                    fault = chaos.fault_for(spec.cell_seed(*cells[0]), attempt)
                    chaos.trigger(fault)  # may _exit, hang, or raise
                rows = run_cells(spec, cells, algorithm_kwargs, cache, backend=backend)
                if fault == "corrupt":
                    rows = [chaos.corrupt_rows(rows[0])]
                stats = None if cache is None else cache.stats.as_dict()
                conn.send(("ok", rows, stats))
            except BaseException as exc:  # noqa: BLE001 - must cross the process boundary
                conn.send(("error", f"{type(exc).__name__}: {exc}", None))
                if not isinstance(exc, Exception):
                    return  # interrupted or exiting: answer, then stop serving
    except (EOFError, OSError, KeyboardInterrupt):  # sweep over or interrupted
        pass
    finally:
        conn.close()


#: Cells per group lease when the resilient scheduler may batch.
_GROUP_CELLS = 8


@dataclass
class _Attempt:
    """One scheduled execution of a cell (or of a group lease of cells)."""

    eps: float
    m: int
    rep: int
    seed: int
    attempt: int  # 1-based
    ready_at: float  # monotonic time before which this must not launch
    history: tuple[str, ...] = ()
    #: group lease: (eps, m, rep, seed) per member; ``None`` = single cell.
    group: tuple[tuple[float, int, int, int], ...] | None = None


@dataclass
class _Slot:
    """Parent-side handle of one persistent worker process."""

    process: mp.process.BaseProcess
    conn: Any
    #: the lease in flight, ``None`` while idle.
    task: _Attempt | None = None
    deadline: float | None = None


def _collect(slot: _Slot, ready: list[Any], now: float) -> tuple[str, Any, Any] | None:
    """Outcome of a busy slot after a wait; ``None`` while still running.

    Outcomes: ``("ok", rows, cache_stats)``, ``("error", detail, None)``,
    ``("crash", detail, None)``, ``("timeout", detail, None)``.  A crash
    or timeout leaves the slot's process reaped; the caller drops the slot.
    """
    if slot.conn in ready:
        try:
            return slot.conn.recv()
        except (EOFError, OSError):
            _terminate(slot.process)
            return ("crash", "worker closed the pipe without a result", None)
    if slot.process.sentinel in ready:
        # Exited without answering: died before (or while) reporting.
        _terminate(slot.process)
        code = slot.process.exitcode
        return ("crash", f"worker process died with exit code {code}", None)
    if slot.deadline is not None and now >= slot.deadline:
        _terminate(slot.process)
        return ("timeout", "cell exceeded its timeout; worker terminated", None)
    return None


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
# shared scheduler plumbing (push scheduler here, pull scheduler in elastic)
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

    Shared by the push scheduler here and the pull scheduler in
    :mod:`repro.workloads.elastic`, so both modes get identical journal
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
    interrupt_after: int | None = None,
    cache: BracketCache | None = None,
    cells: list[tuple[float, int, int]] | None = None,
    shard: tuple[int, int] | None = None,
    salvage: bool = False,
    backend: str = "scalar",
) -> ResilientSweepResult:
    """Scheduler core behind :func:`repro.workloads.execute.execute_sweep`.

    Parameters beyond the classic runner:

    ``timeout``
        per-cell wall-clock budget in seconds; a cell that exceeds it is
        terminated and counted as a ``timeout`` failure (then retried).
    ``max_retries``
        extra attempts per cell after the first, each delayed by a
        decorrelated-jittered exponential backoff bounded by
        ``backoff * 2**(attempt-1)`` seconds (salted by the cell seed
        under ``spec.base_seed``, so concurrent retries desynchronise
        deterministically — see
        :func:`repro.workloads.transport.decorrelated_delay`).
    ``journal_path`` / ``resume``
        checkpoint completed cells to an append-only JSONL journal; with
        ``resume=True`` the journal is validated against the spec and its
        completed cells are replayed from disk, bit-identically.
    ``chaos``
        a :class:`repro.testing.chaos.ChaosPlan` shipped to every worker
        (fault-injection for tests; ``None`` in production).
    ``interrupt_after``
        testing hook: raise :class:`SweepInterrupted` — through the same
        flush path as a real ``SIGINT`` — once this many *new* cells have
        been journaled.
    ``cache``
        a :class:`repro.offline.cache.BracketCache` shared by every
        worker.  Each worker slot reads and writes the shared on-disk
        tier itself (atomic-rename writes make concurrent writers safe),
        and the per-lease hit/miss counters of accepted leases are
        aggregated into ``result.cache_stats``.
    ``cells``
        restrict execution to this subset of the grid (a shard produced
        by :class:`repro.workloads.sharding.ShardPlan`); ``None`` runs
        the full grid.  Cell seeds are unchanged — a sharded cell is
        bit-identical to the same cell in a single-host run.
    ``shard``
        ``(shard_index, n_shards)`` stamp written into (and validated
        against) the journal header, so shard journals can never be
        resumed under different shard flags or merged into the wrong run.
    ``salvage``
        with ``resume=True``, repair a journal damaged mid-file (bit
        flips, failed transfers) instead of raising
        :class:`~repro.workloads.journal.JournalIntegrityError`: corrupt
        records are quarantined, the file is rewritten clean, and the
        affected cells are simply re-executed.

    ``backend``
        kernel backend for the simulations (see
        :mod:`repro.engine.backend`).  With a non-scalar backend — and no
        chaos plan or interrupt hook — pending cells are dispatched as
        *group leases* of up to ``_GROUP_CELLS`` cells per worker so the
        batch kernel amortises across compatible cells.  A failed lease is
        demoted to independent per-cell scalar attempts, so retry
        semantics, validation and journaling stay per-cell.

    Returns a :class:`ResilientSweepResult`; never raises for individual
    cell failures (see ``result.manifest``).
    """
    algorithm_kwargs = algorithm_kwargs or {}
    validate_sweep_pickles(spec, algorithm_kwargs)

    cells = list(spec.cells()) if cells is None else list(cells)
    check_seed_collisions(spec, cells)
    manifest = FailureManifest(cells_total=len(cells))
    journal, completed = prepare_journal(
        spec, cells, journal_path, resume=resume, shard=shard, salvage=salvage
    )
    manifest.cells_replayed = len(completed)

    todo = [
        (eps, m, rep, seed)
        for eps, m, rep in cells
        if (seed := spec.cell_seed(eps, m, rep)) not in completed
    ]
    grouping = backend != "scalar" and chaos is None and interrupt_after is None
    pending: deque[_Attempt] = deque()
    if grouping:
        for lo in range(0, len(todo), _GROUP_CELLS):
            members = tuple(todo[lo : lo + _GROUP_CELLS])
            eps, m, rep, seed = members[0]
            pending.append(
                _Attempt(eps, m, rep, seed, attempt=1, ready_at=0.0, group=members)
            )
    else:
        pending.extend(
            _Attempt(eps, m, rep, seed, attempt=1, ready_at=0.0)
            for eps, m, rep, seed in todo
        )
    workers = max_workers or min(len(pending) or 1, os.cpu_count() or 2)
    ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")
    slots: list[_Slot] = []
    spawned = 0
    leases = 0
    new_cells = 0
    cache_totals = CacheStats() if cache is not None else None
    started = time.monotonic()

    def spawn() -> _Slot:
        nonlocal spawned
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=_slot_worker,
            args=(child_conn, parent_conn, spec, algorithm_kwargs, chaos, cache),
            daemon=True,
        )
        process.start()
        child_conn.close()
        spawned += 1
        slot = _Slot(process, parent_conn)
        slots.append(slot)
        return slot

    def partial_result() -> ResilientSweepResult:
        return _assemble(spec, cells, completed, manifest, journal, cache_totals)

    def journal_stats(interrupted: bool) -> None:
        if journal is None:
            return
        journal.record_stats(
            {
                "wall_seconds": round(time.monotonic() - started, 6),
                "interrupted": interrupted,
                "scheduler": "static",
                "workers": workers,
                "workers_spawned": spawned,
                "leases": leases,
                "cells_completed": manifest.cells_completed,
                "cells_replayed": manifest.cells_replayed,
                "recovered": manifest.recovered,
                "retries": manifest.retries,
                "quarantined": manifest.quarantined,
                "cache": None if cache_totals is None else cache_totals.as_dict(),
            }
        )

    try:
        while pending or any(slot.task is not None for slot in slots):
            now = time.monotonic()
            # Lease ready attempts to idle slots, forking a slot only when
            # none is idle and the pool is below ``workers``.
            while pending:
                slot = next((s for s in slots if s.task is None), None)
                if slot is None and len(slots) >= workers:
                    break
                launchable = next((t for t in pending if t.ready_at <= now), None)
                if launchable is None:
                    break
                pending.remove(launchable)
                if slot is None:
                    slot = spawn()
                if launchable.group is not None:
                    lease = ([(e, mm, r) for e, mm, r, _ in launchable.group], backend)
                    budget = None if timeout is None else timeout * len(launchable.group)
                else:
                    lease = ([(launchable.eps, launchable.m, launchable.rep)], "scalar")
                    budget = timeout
                try:
                    slot.conn.send((*lease, launchable.attempt))
                except OSError:
                    # The slot died while idle (killed, or stopped after an
                    # interrupt): drop it and offer the lease again.
                    _terminate(slot.process)
                    slot.conn.close()
                    slots.remove(slot)
                    pending.appendleft(launchable)
                    continue
                leases += 1
                slot.task = launchable
                slot.deadline = None if budget is None else now + budget

            # Block until a slot answers or dies, a lease deadline passes,
            # or (with a slot free) a backed-off attempt becomes ready.
            busy = [slot for slot in slots if slot.task is not None]
            wake = [slot.deadline for slot in busy if slot.deadline is not None]
            if pending and (len(busy) < len(slots) or len(slots) < workers):
                wake.append(min(t.ready_at for t in pending))
            ready = wait(
                [slot.conn for slot in busy] + [slot.process.sentinel for slot in busy],
                None if not wake else max(0.0, min(wake) - time.monotonic()),
            )
            now = time.monotonic()
            for slot in busy:
                outcome = _collect(slot, ready, now)
                if outcome is None:
                    continue
                task, slot.task = slot.task, None
                if outcome[0] in ("crash", "timeout"):
                    # The process is gone; a fresh slot replaces it on demand.
                    slot.conn.close()
                    slots.remove(slot)
                status, payload, worker_cache = outcome
                if task.group is not None:
                    if status == "ok":
                        good, bad = _split_group_payload(spec, task, payload)
                        if cache_totals is not None and worker_cache and good:
                            cache_totals.merge(worker_cache)
                        for (g_eps, g_m, g_rep, g_seed), rows in good:
                            completed[g_seed] = rows
                            manifest.cells_completed += 1
                            if journal is not None:
                                journal.record_cell(g_seed, g_eps, g_m, g_rep, rows)
                            new_cells += 1
                        demote = [(member, detail) for member, detail in bad]
                    else:
                        demote = [
                            (member, f"{status}: {payload}") for member in task.group
                        ]
                    # Demote failed lease members to independent per-cell
                    # attempts with a fresh budget; the lease itself spends
                    # no retries (each member's own failures count).
                    for (g_eps, g_m, g_rep, g_seed), detail in demote:
                        pending.append(
                            _Attempt(
                                g_eps,
                                g_m,
                                g_rep,
                                g_seed,
                                attempt=1,
                                ready_at=time.monotonic()
                                + decorrelated_delay(
                                    backoff, 1, seed=spec.base_seed, salt=g_seed
                                ),
                                history=(f"group-lease {detail}",),
                            )
                        )
                    continue
                if status == "ok":
                    payload = payload[0]
                    problem = validate_cell_rows(spec, task.eps, task.m, task.rep, payload)
                    if problem is None:
                        completed[task.seed] = payload
                        if cache_totals is not None and worker_cache:
                            cache_totals.merge(worker_cache)
                        manifest.cells_completed += 1
                        if task.attempt > 1 or task.history:
                            manifest.recovered += 1
                        if journal is not None:
                            journal.record_cell(
                                task.seed, task.eps, task.m, task.rep, payload
                            )
                        new_cells += 1
                        if (
                            interrupt_after is not None
                            and new_cells >= interrupt_after
                            and len(completed) < len(cells)
                        ):
                            # Simulated hard kill: in-flight workers are
                            # abandoned exactly as a real SIGINT would.
                            raise KeyboardInterrupt
                        continue
                    status, payload = "corrupt", problem
                # A failure (error / crash / timeout / corrupt): retry or quarantine.
                history = task.history + (f"{status}: {payload}",)
                if task.attempt <= max_retries:
                    manifest.retries += 1
                    pending.append(
                        _Attempt(
                            task.eps,
                            task.m,
                            task.rep,
                            task.seed,
                            attempt=task.attempt + 1,
                            ready_at=time.monotonic()
                            + decorrelated_delay(
                                backoff,
                                task.attempt,
                                seed=spec.base_seed,
                                salt=task.seed,
                            ),
                            history=history,
                        )
                    )
                else:
                    failure = CellFailure(
                        epsilon=task.eps,
                        machines=task.m,
                        repetition=task.rep,
                        seed=task.seed,
                        attempts=task.attempt,
                        kind=status,
                        detail=str(payload),
                        history=history,
                    )
                    manifest.failures.append(failure)
                    if journal is not None:
                        journal.record_failure(failure.as_dict())
        manifest.cells_completed = len(completed) - manifest.cells_replayed
        journal_stats(interrupted=False)
        if journal is not None:
            # Clean exit: seal the journal so the transport/merge layer can
            # verify it arrived bit-identical (repro verify / collect).
            journal.record_seal()
    except KeyboardInterrupt:
        _terminate_all([slot.process for slot in slots])
        journal_stats(interrupted=True)
        raise SweepInterrupted(partial_result()) from None
    finally:
        # Idle slots exit on EOF; whatever is still alive after one shared
        # grace period (a slot busy when an error escaped) is terminated.
        for slot in slots:
            slot.conn.close()
        deadline = time.monotonic() + _KILL_GRACE
        for slot in slots:
            slot.process.join(max(0.0, deadline - time.monotonic()))
        _terminate_all([slot.process for slot in slots])
        if journal is not None:
            journal.close()

    return _assemble(spec, cells, completed, manifest, journal, cache_totals)


def _split_group_payload(
    spec: SweepSpec, task: _Attempt, payload: object
) -> tuple[list, list]:
    """Validate a group lease's payload; (good, bad) member lists.

    ``good`` holds ``(member, rows)`` for cells whose rows validate;
    ``bad`` holds ``(member, detail)`` for the rest.  A malformed payload
    (wrong type or length) condemns every member.
    """
    members = task.group or ()
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
