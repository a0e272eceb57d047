"""Exact offline optimum by memoised branch-and-bound (small instances).

Left-shift normalisation: every feasible schedule can be normalised so
each job starts at ``max(release, completion of its machine predecessor)``
without violating any deadline.  A left-shifted schedule can always be
*dispatched in start order*: taking its jobs by non-decreasing start,
each one starts at ``max(release, frontier)`` of its machine, because
its machine predecessor started strictly earlier and is already placed.
The DFS therefore only dispatches a job at a start no earlier than the
previous start ``last``, and enumerates every left-shifted schedule once
per order of equal starts instead of once per dispatch order.

State-space reductions:

* job sets are int bitmasks; frontiers are a sorted tuple (machines are
  identical) and only *distinct* frontier values are branched on;
* a job is dead once ``max(release, min frontier, last) + p > d``
  (frontiers and ``last`` only grow along a branch), found by one bisect
  over the jobs' precomputed latest starts;
* the memo key is ``(alive jobs, frontiers, last)`` with every frontier
  below ``last`` replaced by one sentinel: such a machine only admits
  jobs released at or after ``last``, started at their release, so its
  exact frontier cannot matter.  A frontier *equal* to ``last`` still
  admits earlier-released jobs at ``last`` and stays distinct;
* branches are explored largest-job-first, and a branch is cut when its
  job plus every job still alive after it cannot beat the incumbent.

The solver is exponential by nature; :data:`EXACT_JOB_LIMIT` guards
against accidental use on large instances.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator

from repro.model.instance import Instance
from repro.model.machine import MachineState
from repro.model.schedule import Assignment, Schedule
from repro.utils.tolerances import TIME_EPS

#: Hard cap on instance size for the exact solver.
EXACT_JOB_LIMIT = 18

#: Safety valve on the memoised state count: pathological instances (many
#: distinct release dates and interleaved windows) can explode the DFS even
#: below the job limit; exceeding this raises ``ExactSolverBudgetExceeded``
#: instead of hanging.
MAX_EXPLORED_STATES = 2_000_000


class ExactSolverBudgetExceeded(RuntimeError):
    """The branch-and-bound exceeded its state budget (use opt_bracket)."""

#: Memo-key frontier of a machine that became free before ``last``.
_IDLE = float("-inf")


@dataclass
class ExactResult:
    """Exact optimum: objective value and one optimal schedule."""

    value: float
    schedule: Schedule
    explored_states: int


class _Solver:
    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        # Bit i is the i-th largest job, so bit order is branch order.
        self.jobs = sorted(instance, key=lambda j: -j.processing)
        n = len(self.jobs)
        self.p = [j.processing for j in self.jobs]
        self.r = [j.release for j in self.jobs]
        self.d = [j.deadline + TIME_EPS for j in self.jobs]
        latest = [d - p for d, p in zip(self.d, self.p)]
        by_latest = sorted(range(n), key=latest.__getitem__)
        self.latest = [latest[i] for i in by_latest]
        # keep[k]: every job except the k with the earliest latest start.
        self.keep = [(1 << n) - 1]
        for i in by_latest:
            self.keep.append(self.keep[-1] & ~(1 << i))
        # Load of a job set as two table lookups (low and high half).
        self.half = n // 2
        self.lo = self._loads(self.p[: self.half])
        self.hi = self._loads(self.p[self.half:])
        self.memo: dict[tuple, float] = {}
        root = 0
        for i in range(n):
            if max(self.r[i], 0.0) + self.p[i] <= self.d[i]:
                root |= 1 << i
        self.root = (root, (0.0,) * instance.machines, 0.0)

    @staticmethod
    def _loads(p: list[float]) -> list[float]:
        table = [0.0]
        for x in p:
            table += [t + x for t in table]
        return table

    def load(self, mask: int) -> float:
        return self.lo[mask & ((1 << self.half) - 1)] + self.hi[mask >> self.half]

    def branches(
        self, alive: int, frontiers: tuple[float, ...], last: float
    ) -> Iterator[tuple[int, float, float, int, tuple[float, ...]]]:
        """Yield ``(job, frontier, start, child alive, child frontiers)``."""
        p, r, d, latest, keep = self.p, self.r, self.d, self.latest, self.keep
        for i in range(len(p)):
            if not alive >> i & 1:
                continue
            rest = alive & ~(1 << i)
            early = False
            prev = None
            for slot, f in enumerate(frontiers):
                if f == prev:
                    continue
                prev = f
                if f < r[i]:
                    # Every frontier below the release starts the job at
                    # its release and leaves the same canonical child.
                    if early or r[i] < last:
                        continue
                    early, start = True, r[i]
                else:
                    start = f
                end = start + p[i]
                if end > d[i]:
                    break
                child = tuple(sorted(
                    x if x >= start else _IDLE
                    for x in frontiers[:slot] + (end,) + frontiers[slot + 1:]
                ))
                t = child[0] if child[0] > start else start
                yield i, f, start, rest & keep[bisect_left(latest, t)], child

    def best_additional(self, alive: int, frontiers: tuple[float, ...], last: float) -> float:
        """Maximum additional load schedulable from this state."""
        if not alive:
            return 0.0
        key = (alive, frontiers, last)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        if len(self.memo) >= MAX_EXPLORED_STATES:
            raise ExactSolverBudgetExceeded(
                f"exact solver exceeded {MAX_EXPLORED_STATES} memoised states; "
                "use repro.offline.bracket.opt_bracket(force_bounds=True) instead"
            )
        total_possible = self.load(alive) - TIME_EPS
        best = 0.0
        for i, _, start, child_alive, child in self.branches(alive, frontiers, last):
            p = self.p[i]
            if p + self.load(child_alive) <= best + TIME_EPS:
                continue
            value = p + self.best_additional(child_alive, child, start)
            if value > best + TIME_EPS:
                best = value
                if best >= total_possible:
                    break
        self.memo[key] = best
        return best

    # ------------------------------------------------------------------
    def reconstruct(self) -> Schedule:
        """Rebuild one optimal schedule by walking the memoised values."""
        machines = [MachineState(i) for i in range(self.instance.machines)]
        schedule = Schedule(instance=self.instance, algorithm="offline-exact")
        alive, frontiers, last = self.root
        ends = [0.0] * self.instance.machines
        while (target := self.best_additional(alive, frontiers, last)) > TIME_EPS:
            for i, f, start, child_alive, child in self.branches(alive, frontiers, last):
                value = self.p[i] + self.best_additional(child_alive, child, start)
                if abs(value - target) <= 1e-7:
                    break
            else:  # pragma: no cover - defensive
                raise RuntimeError("reconstruction failed to follow the memo")
            # Any physical machine whose canonical frontier is f will do.
            k = next(k for k, e in enumerate(ends) if (e if e >= last else _IDLE) == f)
            job = self.jobs[i]
            machines[k].commit(job, start)
            schedule.assignments[job.job_id] = Assignment(job.job_id, k, start)
            ends[k] = start + job.processing
            alive, frontiers, last = child_alive, child, start
        for job in self.jobs:
            if job.job_id not in schedule.assignments:
                schedule.rejected.add(job.job_id)
        schedule.audit()
        return schedule


def exact_optimum(instance: Instance, job_limit: int = EXACT_JOB_LIMIT) -> ExactResult:
    """Exact offline optimum of *instance* (small instances only).

    Raises ``ValueError`` when the instance exceeds *job_limit* jobs — use
    :func:`repro.offline.bracket.opt_bracket` for large instances.
    """
    if len(instance) > job_limit:
        raise ValueError(
            f"exact solver limited to {job_limit} jobs; instance has {len(instance)} "
            "(use opt_bracket for bounds instead)"
        )
    solver = _Solver(instance)
    value = solver.best_additional(*solver.root)
    schedule = solver.reconstruct()
    if abs(schedule.accepted_load - value) > 1e-6:  # pragma: no cover - defensive
        raise RuntimeError(
            f"reconstructed load {schedule.accepted_load} != optimum {value}"
        )
    return ExactResult(value=value, schedule=schedule, explored_states=len(solver.memo))
