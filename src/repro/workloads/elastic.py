"""The sweep lease queue: revocable leases, heartbeats, speculation.

Every sweep scheduler — the local worker slots in
:mod:`repro.workloads.resilient` and the registry hosts in
:mod:`repro.workloads.remote` — hands cells to workers through one
:class:`CellQueue`.  Each grant is a **lease**: a revocable commitment
to a cell (or to a group of cells) that only becomes final when its
verified journal row lands.  Revocability is what makes the pool
elastic:

* **Heartbeats** extend a lease's soft deadline while the worker
  computes, so a *slow* worker keeps its lease (bounded only by the hard
  per-cell ``timeout``) while a *hung or dead* one — no heartbeats —
  expires and has its cell re-dispatched to a healthy slot.
* **Retries and quarantine**: a failed lease re-queues its cell behind a
  decorrelated-jitter backoff (``ready_at``) until the cell's retry
  budget is spent, then quarantines it as a
  :class:`~repro.workloads.resilient.CellFailure`.  A failed *group*
  lease instead demotes its members to single-cell leases with a fresh
  budget, so retries stay per cell.
* **Speculative re-execution**: when nothing is ready to lease (the
  queue is dry, or every pending cell is backing off), idle workers
  re-execute the longest-running outstanding single-cell leases (at most
  one extra copy per cell and attempt).  First verified result wins; a duplicate
  result is asserted bit-identical to the winner, so speculation doubles
  as a live determinism check — a mismatch raises
  :class:`SpeculationMismatch` rather than journaling either copy
  silently.
* **Adaptive repetitions** (opt-in, :class:`_AdaptiveReps`): repetitions
  of a grid config are issued incrementally, and once the bootstrap
  confidence interval of every algorithm's mean accepted load is tight
  the remaining reps are skipped instead of executed.

The queue is a pure state machine — no processes, pipes or clocks — so
determinism is easy to check: cells draw their instances from
:meth:`SweepSpec.cell_seed`, and any interleaving of grants, expiries,
re-dispatches and duplicate completions converges to the same rows.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.workloads.resilient import CellFailure
from repro.workloads.sweep import SweepRow, SweepSpec
from repro.workloads.transport import decorrelated_delay

#: Default heartbeat cadence (seconds) inside a worker.
DEFAULT_HEARTBEAT_INTERVAL = 0.1

#: Lease deadline as a multiple of the heartbeat interval.  A lease must
#: survive several consecutive lost heartbeats before it is presumed dead
#: — one delayed scheduler poll must not trigger a spurious revocation.
LEASE_TIMEOUT_BEATS = 10


class SpeculationMismatch(RuntimeError):
    """Two executions of the same cell disagreed bit-for-bit.

    Raised when a duplicate result (speculation, or an injected
    ``duplicate_result`` fault) does not match the already-accepted rows
    for its cell.  This is never a scheduling artifact — cells are pure
    functions of their seed — so it indicates genuine nondeterminism in
    the simulation stack and must fail the sweep loudly.
    """


# ---------------------------------------------------------------------------
# the lease queue (pure state machine — no processes, no wall clock)
# ---------------------------------------------------------------------------


#: One cell of a lease or of the queue: ``(eps, m, rep, seed)``.
Cell = tuple[float, int, int, int]


@dataclass
class Lease:
    """One revocable commitment of a cell (or a group of cells) to a slot."""

    eps: float
    m: int
    rep: int
    seed: int
    worker: int
    attempt: int  # 1-based
    granted_at: float
    #: soft deadline, extended by every heartbeat; expiry = presumed dead.
    deadline: float
    #: hard wall-clock bound (``granted_at + timeout`` per cell); ``None`` = none.
    hard_deadline: float | None
    heartbeats: int = 0
    #: an end-game duplicate of an outstanding lease, not a fresh attempt.
    speculative: bool = False
    history: tuple[str, ...] = ()
    #: group lease: every member cell, the first being ``(eps, m, rep,
    #: seed)`` above; ``None`` for a single-cell lease.
    group: tuple[Cell, ...] | None = None


@dataclass
class _PendingCell:
    eps: float
    m: int
    rep: int
    seed: int
    attempt: int  # next attempt number (1-based)
    history: tuple[str, ...] = ()
    group: tuple[Cell, ...] | None = None
    #: retry backoff: not leased before this (monotonic) time.
    ready_at: float = 0.0


class CellQueue:
    """Work-stealing cell queue with revocable leases.

    A pure state machine: every method takes ``now`` explicitly and the
    class touches no processes, pipes or clocks, so lease semantics are
    directly property-testable (any interleaving of grant / heartbeat /
    expiry / release / completion must converge to the same completed
    rows — see ``tests/workloads/test_elastic.py``).

    With ``group_cells > 1`` the cells are leased in groups of up to that
    many (one batch-kernel call per group); a failed group is demoted to
    single-cell leases with a fresh retry budget.  A charged retry waits
    ``decorrelated_delay(backoff, attempt)`` (salted by the cell seed
    under ``jitter_seed``) before it can be leased again.

    Invariants:

    * at most one lease per worker slot;
    * at most ``max_copies`` concurrent leases per cell (primary +
      speculative end-game copies, one copy per attempt; group leases
      are never copied);
    * a cell is ``pending``, leased, ``completed`` or quarantined
      (``failures``) — never two at once;
    * duplicate completions must be bit-identical or
      :class:`SpeculationMismatch` is raised.
    """

    def __init__(
        self,
        cells: list[Cell],
        *,
        retries: int = 2,
        lease_timeout: float = 1.0,
        timeout: float | None = None,
        speculate: bool = True,
        max_copies: int = 2,
        group_cells: int = 1,
        backoff: float = 0.0,
        jitter_seed: int = 0,
    ) -> None:
        if lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be positive, got {lease_timeout}")
        if max_copies < 1:
            raise ValueError(f"max_copies must be >= 1, got {max_copies}")
        self.retries = retries
        self.lease_timeout = lease_timeout
        self.timeout = timeout
        self.speculate = speculate
        self.max_copies = max_copies
        self.backoff = backoff
        self.jitter_seed = jitter_seed
        self.pending: deque[_PendingCell] = deque()
        if group_cells > 1:
            for lo in range(0, len(cells), group_cells):
                members = tuple(cells[lo : lo + group_cells])
                self.pending.append(_PendingCell(*members[0], attempt=1, group=members))
        else:
            self.pending.extend(_PendingCell(*cell, attempt=1) for cell in cells)
        #: one lease per worker slot currently holding one.
        self.leases: dict[int, Lease] = {}
        self.completed: dict[int, list[SweepRow]] = {}
        self.failures: list[CellFailure] = []
        #: seeds not yet completed or quarantined.
        self.remaining: set[int] = {seed for _, _, _, seed in cells}
        #: total leases granted, speculative copies included (stats).
        self.granted = 0
        #: speculative leases granted (stats).
        self.speculated = 0
        #: ``(seed, attempt)`` pairs already copied: one copy per attempt
        #: (unless a worker fault loses it), so copies that keep failing
        #: on their own cannot re-spawn each other forever.
        self._copied: set[tuple[int, int]] = set()
        #: charged re-queues: attempts spent beyond each cell's first.
        self.retried = 0

    # -- queries -------------------------------------------------------

    @property
    def done(self) -> bool:
        """All cells completed or quarantined (in-flight losers aside)."""
        return not self.remaining

    def outstanding(self, seed: int) -> list[Lease]:
        """Every live lease on *seed* (0, 1, or up to ``max_copies``)."""
        return [lease for lease in self.leases.values() if lease.seed == seed]

    def expired(self, now: float) -> list[Lease]:
        """Leases whose soft (heartbeat) deadline has passed: presumed dead."""
        return [lease for lease in self.leases.values() if now >= lease.deadline]

    def overdue(self, now: float) -> list[Lease]:
        """Leases past the hard per-cell timeout: the *cell* is charged."""
        return [
            lease
            for lease in self.leases.values()
            if lease.hard_deadline is not None and now >= lease.hard_deadline
        ]

    # -- transitions ---------------------------------------------------

    def next_lease(self, worker: int, now: float) -> Lease | None:
        """Grant the next ready cell (or an end-game speculative copy).

        Returns ``None`` when there is nothing to grant — no pending cell
        is ready and no lease is worth copying.  The worker goes idle and
        should be re-offered work after the next state change.
        """
        if worker in self.leases:
            raise RuntimeError(f"worker slot {worker} already holds a lease")
        speculative = False
        for i, task in enumerate(self.pending):
            if task.ready_at <= now:
                del self.pending[i]
                break
        else:
            # Nothing ready (the queue is dry, or every pending cell is
            # backing off): an idle worker copies a straggler instead.
            task = self._speculation_target()
            if task is None:
                return None
            speculative = True
        cells = 1 if task.group is None else len(task.group)
        lease = Lease(
            eps=task.eps,
            m=task.m,
            rep=task.rep,
            seed=task.seed,
            worker=worker,
            attempt=task.attempt,
            granted_at=now,
            deadline=now + self.lease_timeout,
            hard_deadline=None if self.timeout is None else now + self.timeout * cells,
            speculative=speculative,
            history=task.history,
            group=task.group,
        )
        self.leases[worker] = lease
        self.granted += 1
        if speculative:
            self.speculated += 1
        return lease

    def _speculation_target(self) -> Lease | None:
        """End-game: the longest-outstanding under-copied lease, to copy."""
        if not self.speculate:
            return None
        candidates = [
            lease
            for lease in self.leases.values()
            if lease.group is None
            and lease.seed in self.remaining
            and (lease.seed, lease.attempt) not in self._copied
            and len(self.outstanding(lease.seed)) < self.max_copies
        ]
        if not candidates:
            return None
        target = min(candidates, key=lambda lease: lease.granted_at)
        self._copied.add((target.seed, target.attempt))
        return target

    def heartbeat(self, worker: int, now: float) -> bool:
        """Extend *worker*'s lease deadline; ``False`` if it holds none.

        Heartbeats only push the *soft* deadline — the hard per-cell
        timeout is immovable, which is what separates "slow but alive"
        from "over budget".
        """
        lease = self.leases.get(worker)
        if lease is None:
            return False
        lease.heartbeats += 1
        lease.deadline = now + self.lease_timeout
        return True

    def release(
        self,
        worker: int,
        detail: str,
        *,
        charge_cell: bool = True,
        crashed: bool = False,
        now: float = 0.0,
    ) -> Lease | None:
        """Revoke *worker*'s lease after a failure; re-queue or quarantine.

        ``charge_cell=False`` (lease expiry, a lost host) re-queues the
        cell without spending its retry budget — the *worker* is at fault,
        and the caller charges it instead.  A charged cell re-queues
        behind its backoff until the budget is spent, then quarantines.
        ``crashed=True`` (the worker process died) still charges the cell
        but re-queues it ready at once: it moves to another slot, and
        there is nothing to wait out.  With other copies still
        outstanding, or the cell already completed, nothing is re-queued;
        a copy lost to its worker (crash or expiry) may then be replaced
        by a fresh one.  A group lease demotes every member (see
        :meth:`complete_group`).  Returns the revoked lease (``None`` if
        the worker held none).
        """
        lease = self.leases.pop(worker, None)
        if lease is None:
            return None
        if lease.group is not None:
            self._demote(lease, detail, now, backoff=not crashed)
            return lease
        if lease.seed not in self.remaining or self.outstanding(lease.seed):
            # Completed meanwhile, or another copy is running.
            if crashed or not charge_cell:
                self._copied.discard((lease.seed, lease.attempt))
            return lease
        history = lease.history + (detail,)
        if not charge_cell or lease.attempt <= self.retries:
            ready_at = now
            if charge_cell:
                self.retried += 1
                if not crashed:
                    ready_at = self._ready_at(now, lease.attempt, lease.seed)
            self.pending.append(
                _PendingCell(
                    lease.eps,
                    lease.m,
                    lease.rep,
                    lease.seed,
                    attempt=lease.attempt + (1 if charge_cell else 0),
                    history=history,
                    ready_at=ready_at,
                )
            )
        else:
            self.remaining.discard(lease.seed)
            self.failures.append(
                CellFailure(
                    epsilon=lease.eps,
                    machines=lease.m,
                    repetition=lease.rep,
                    seed=lease.seed,
                    attempts=lease.attempt,
                    kind=detail.split(":", 1)[0],
                    detail=detail,
                    history=history,
                )
            )
        return lease

    def complete(
        self, worker: int, seed: int, rows: list[SweepRow]
    ) -> tuple[str, Lease | None]:
        """Accept a single-cell result; returns ``(outcome, lease)``.

        Outcomes: ``"win"`` (first verified result for the cell — caller
        journals it), ``"duplicate"`` (cell already completed; *rows*
        were asserted bit-identical to the winner), ``"stale"`` (the
        worker's lease was revoked before the result arrived — *rows*
        are still checked against the winner when one exists).  Raises
        :class:`SpeculationMismatch` when duplicate rows differ.
        """
        lease = self.leases.get(worker)
        if lease is not None and lease.seed == seed and lease.group is None:
            del self.leases[worker]
        else:
            lease = None
        if seed in self.completed:
            if rows != self.completed[seed]:
                raise SpeculationMismatch(
                    f"duplicate result for cell seed {seed} differs from the "
                    "accepted rows — the simulation stack is nondeterministic"
                )
            return ("duplicate" if lease is not None else "stale", lease)
        if seed not in self.remaining:
            return ("stale", lease)  # quarantined earlier; drop the late copy
        if lease is None:
            return ("stale", None)  # revoked lease; a live copy will land
        self.completed[seed] = rows
        self.remaining.discard(seed)
        return ("win", lease)

    def complete_group(
        self,
        worker: int,
        rows: dict[int, list[SweepRow]],
        problems: dict[int, str],
        now: float = 0.0,
    ) -> Lease:
        """Settle *worker*'s group lease: accept *rows*, demote the rest.

        *rows* maps member seed to verified rows (each one a win — group
        leases have no copies); every other member is demoted to a
        single-cell lease with a fresh retry budget and its reason from
        *problems* in its history.  The lease itself spends no retries.
        """
        lease = self.leases.pop(worker)
        for seed, cell_rows in rows.items():
            self.completed[seed] = cell_rows
            self.remaining.discard(seed)
        self._demote(lease, problems, now, backoff=True)
        return lease

    def add_cells(self, cells: list[Cell]) -> None:
        """Append fresh cells (adaptive repetitions issue reps lazily)."""
        for cell in cells:
            self.pending.append(_PendingCell(*cell, attempt=1))
            self.remaining.add(cell[3])

    # -- helpers -------------------------------------------------------

    def _ready_at(self, now: float, attempt: int, seed: int) -> float:
        return now + decorrelated_delay(
            self.backoff, attempt, seed=self.jitter_seed, salt=seed
        )

    def _demote(
        self, lease: Lease, detail: str | dict[int, str], now: float, backoff: bool
    ) -> None:
        """Re-queue a group's unfinished members as single-cell leases."""
        for eps, m, rep, seed in lease.group or ():
            if seed in self.remaining:
                why = detail if isinstance(detail, str) else detail[seed]
                self.pending.append(
                    _PendingCell(
                        eps, m, rep, seed,
                        attempt=1,
                        history=(f"group-lease {why}",),
                        ready_at=self._ready_at(now, 1, seed) if backoff else now,
                    )
                )


# ---------------------------------------------------------------------------
# adaptive repetitions
# ---------------------------------------------------------------------------


class _AdaptiveReps:
    """Issue repetitions lazily; stop once the bootstrap CI is tight.

    Each grid config ``(eps, m)`` starts with ``min_reps`` repetitions.
    When every issued rep of a config has completed, the bootstrap CI of
    the mean accepted load is computed per algorithm over the completed
    reps: if every algorithm's relative halfwidth is within ``rel_tol``
    the remaining reps are *skipped*; otherwise one more rep is issued
    (re-queued), up to ``spec.repetitions``.  Skipping only ever drops
    whole trailing reps, so the executed prefix stays bit-identical to
    the same reps of an exhaustive run.
    """

    def __init__(
        self,
        spec: SweepSpec,
        cells: list[tuple[float, int, int]],
        *,
        min_reps: int,
        rel_tol: float,
    ) -> None:
        self.spec = spec
        self.min_reps = min_reps
        self.rel_tol = rel_tol
        self.reps_by_config: dict[tuple[float, int], list[int]] = {}
        for eps, m, rep in cells:
            self.reps_by_config.setdefault((eps, m), []).append(rep)
        for reps in self.reps_by_config.values():
            reps.sort()
        self.issued: dict[tuple[float, int], set[int]] = {}
        self.done: dict[tuple[float, int], dict[int, list[SweepRow]]] = {}
        self.skipped = 0

    def initial_cells(
        self, completed: dict[int, list[SweepRow]]
    ) -> list[tuple[float, int, int]]:
        """First wave: ``min_reps`` reps per config (replays count as done)."""
        initial: list[tuple[float, int, int]] = []
        for (eps, m), reps in self.reps_by_config.items():
            self.issued[(eps, m)] = set()
            self.done[(eps, m)] = {}
            for rep in reps:
                seed = self.spec.cell_seed(eps, m, rep)
                if seed in completed:
                    self.issued[(eps, m)].add(rep)
                    self.done[(eps, m)][rep] = completed[seed]
            for rep in reps:
                if len(self.issued[(eps, m)]) >= self.min_reps:
                    break
                if rep not in self.issued[(eps, m)]:
                    self.issued[(eps, m)].add(rep)
                    initial.append((eps, m, rep))
        return initial

    def on_win(
        self, eps: float, m: int, rep: int, rows: list[SweepRow]
    ) -> list[tuple[float, int, int]]:
        """Record a completed rep; returns freshly issued cells (0 or 1)."""
        config = (eps, m)
        self.done[config][rep] = rows
        if len(self.done[config]) < len(self.issued[config]):
            return []  # other reps of this config still in flight
        remaining = [r for r in self.reps_by_config[config] if r not in self.issued[config]]
        if not remaining:
            return []
        if self._tight(config):
            self.skipped += len(remaining)
            self.issued[config].update(remaining)  # never issue them
            return []
        nxt = remaining[0]
        self.issued[config].add(nxt)
        return [(eps, m, nxt)]

    def _tight(self, config: tuple[float, int]) -> bool:
        from repro.analysis.stats import bootstrap_mean

        rows_by_rep = self.done[config]
        if len(rows_by_rep) < 2:
            return False
        loads: dict[str, list[float]] = {}
        for rows in rows_by_rep.values():
            for row in rows:
                loads.setdefault(row.algorithm, []).append(row.accepted_load)
        for samples in loads.values():
            ci = bootstrap_mean(samples)
            if ci.mean == 0.0:
                if ci.halfwidth > 0.0:
                    return False
                continue
            if ci.halfwidth / abs(ci.mean) > self.rel_tol:
                return False
        return True


__all__ = [
    "CellQueue",
    "DEFAULT_HEARTBEAT_INTERVAL",
    "LEASE_TIMEOUT_BEATS",
    "Lease",
    "SpeculationMismatch",
]
