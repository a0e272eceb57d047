"""The two sweep workloads: cold exact-OPT grid and warm wide grid.

Both time :func:`repro.workloads.execute.execute_sweep` with two journaled
workers, pass after pass, until the run's seconds are spent.  The traced
run then replays the traced passes cell by cell through each layer's
public function, in the order the program calls them, and checks that
the replayed rows equal the executed ones.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Any

import numpy as np

from common import (
    Tracer,
    busy_by_name,
    import_seconds,
    median,
    peak_rss_mb,
)
from repro.core.guarantees import guarantee_for
from repro.engine.backend import SimulationRequest, run_simulations
from repro.offline.bracket import opt_bracket
from repro.offline.cache import BracketCache
from repro.offline.exact import EXACT_JOB_LIMIT
from repro.workloads.execute import ExecutionPolicy, execute_sweep
from repro.workloads.journal import SweepJournal, verify_journal
from repro.workloads.random_instances import random_instance
from repro.workloads.sweep import SweepRow, SweepSpec

WORKERS = 2
#: Cells per replay group: the resilient scheduler leases groups of this
#: size, and the batch backend batches across the cells of one group.
REPLAY_GROUP = 8
#: Fresh-interpreter import probes per run (median is reported).
SETUP_PROBES = 3


@dataclass(frozen=True)
class Grid:
    label: str
    n_jobs: int
    epsilons: tuple[float, ...]
    machines: tuple[int, ...]
    algorithms: tuple[str, ...]
    repetitions: int
    force_bounds: bool

    def spec(self, base_seed: int) -> SweepSpec:
        return SweepSpec(
            epsilons=list(self.epsilons),
            machine_counts=list(self.machines),
            algorithms=list(self.algorithms),
            workload=partial(random_instance, self.n_jobs),
            repetitions=self.repetitions,
            base_seed=base_seed,
            force_bounds=self.force_bounds,
            label=self.label,
        )

    @property
    def cells(self) -> int:
        return len(self.epsilons) * len(self.machines) * self.repetitions


#: Exact OPT on every cell.  n=10 (not 12) keeps many cells per run, and
#: 18 repetitions (162 cells, 21 group leases) keep one pass from being
#: decided by which worker drew the costliest lease; see README.md.
COLD = Grid(
    "perfbench-cold-exact", 10, (0.1, 0.25, 0.5), (1, 2, 3),
    ("threshold", "greedy", "lee-style"), 18, False,
)
#: Bounds only, every bracket served by the warm cache.
WARM = Grid(
    "perfbench-warm-wide", 100, (0.1, 0.2, 0.3, 0.5), (2, 4, 8),
    ("threshold", "greedy", "lee-style", "random-admission", "delayed-greedy",
     "admission-greedy", "admission-lazy", "revocable-greedy"), 16, True,
)
#: Fixed-seed canary pass, checked against reference/cold_exact.json.
CANARY = replace(COLD, label="perfbench-canary", repetitions=1)
CANARY_SEED = 2020
REFERENCE = Path(__file__).resolve().parent / "reference" / "cold_exact.json"


def pass_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


@dataclass
class Pass:
    spec: SweepSpec
    journal: Path
    cache_dir: Path
    wall: float = 0.0
    rows: list[SweepRow] = field(default_factory=list)
    result: Any = None


@dataclass
class Phase:
    passes: list[Pass]
    setup: float
    rss_mb: float

    def e2e(self) -> dict[str, tuple[float, str, int]]:
        cells = sum(len(p.rows) // len(p.spec.algorithms) for p in self.passes)
        return {
            "setup_s": (self.setup, "s", SETUP_PROBES),
            "throughput_per_s": (cells / sum(p.wall for p in self.passes), "1/s", cells),
            "peak_rss_mb": (self.rss_mb, "MiB", 1),
        }


def _execute(p: Pass, tracer: Tracer, ident: int) -> None:
    policy = ExecutionPolicy(
        workers=WORKERS, journal=p.journal, cache=BracketCache(p.cache_dir)
    )
    with tracer.span("workloads.execute", ident):
        t0 = time.perf_counter()
        p.result = execute_sweep(p.spec, policy)
        p.wall = time.perf_counter() - t0
    p.rows = p.result.rows


def timed_phase(
    grid: Grid, seed: int, seconds: float, work: Path, tag: str,
    tracer: Tracer, warm: tuple[Path, SweepSpec] | None, passes: int | None = None,
) -> list[Pass]:
    """Execute passes until *seconds* are spent (or exactly *passes*)."""
    out: list[Pass] = []
    spent = 0.0
    while (spent < seconds) if passes is None else (len(out) < passes):
        i = len(out)
        if warm is None:
            spec, cache_dir = grid.spec(pass_seed(seed, i)), work / f"{tag}-cache{i}"
        else:
            cache_dir, spec = warm
        p = Pass(spec, work / f"{tag}-journal{i}.jsonl", cache_dir)
        _execute(p, tracer, i)
        out.append(p)
        spent += p.wall
    return out


def check_pass(p: Pass, grid: Grid, reference: list[SweepRow] | None) -> list[str]:
    problems = []
    manifest = p.result.manifest
    if manifest.quarantined:
        problems.append(f"{manifest.quarantined} cell(s) quarantined: {manifest.summary()}")
    if len(p.rows) != grid.cells * len(grid.algorithms):
        problems.append(f"{len(p.rows)} rows, expected {grid.cells * len(grid.algorithms)}")
    bad = [r for r in p.rows if not r.opt_lower <= r.opt_upper]
    if bad:
        problems.append(f"{len(bad)} row(s) with opt_lower > opt_upper")
    verdict = verify_journal(p.journal)
    if not verdict.ok:
        problems.append(f"journal: {verdict.summary()}")
    if reference is not None and p.rows != reference:
        diff = sum(a != b for a, b in zip(p.rows, reference))
        problems.append(f"{diff} row(s) differ from the serial set-up pass")
    return problems


def check_canary(work: Path) -> list[str]:
    """Run the fixed-seed canary pass and compare with the reference."""
    p = Pass(CANARY.spec(CANARY_SEED), work / "canary.jsonl", work / "canary-cache")
    _execute(p, Tracer(False), -1)
    problems = [f"canary: {x}" for x in check_pass(p, CANARY, None)]
    reference = json.loads(REFERENCE.read_text())["rows"]
    got = [row_record(r) for r in p.rows]
    if len(got) != len(reference):
        return problems + [f"canary: {len(got)} rows, reference has {len(reference)}"]
    for i, (row, ref) in enumerate(zip(got, reference)):
        exact = {k: v for k, v in row.items() if k not in ("opt_lower", "opt_upper")}
        if exact != {k: v for k, v in ref.items() if k not in ("opt_lower", "opt_upper")}:
            problems.append(f"canary row {i}: {exact} != reference {ref}")
        for k in ("opt_lower", "opt_upper"):
            if abs(row[k] - ref[k]) > 1e-9 * abs(ref[k]):
                problems.append(f"canary row {i}: {k} {row[k]!r} != reference {ref[k]!r}")
    return problems


def row_record(row: SweepRow) -> dict[str, Any]:
    """The stored columns of a row (ratios are derived, not stored)."""
    keys = ("epsilon", "machines", "repetition", "algorithm", "accepted_load",
            "accepted_count", "n_jobs", "opt_lower", "opt_upper", "opt_exact",
            "guarantee")
    return {k: getattr(row, k) for k in keys}


# ---------------------------------------------------------------------------
# traced replay
# ---------------------------------------------------------------------------


def replay(p: Pass, tracer: Tracer, path: Path, cache_dir: Path) -> list[SweepRow]:
    """One pass, cell by cell, through each layer's public function."""
    spec = p.spec
    cache = BracketCache(cache_dir)
    cells = list(spec.cells())
    rows: list[SweepRow] = []
    with SweepJournal.create(path, spec) as journal:
        for lo in range(0, len(cells), REPLAY_GROUP):
            group = cells[lo: lo + REPLAY_GROUP]
            seeds = [spec.cell_seed(*cell) for cell in group]
            instances, brackets = [], []
            for (eps, m, _), seed in zip(group, seeds):
                with tracer.span("workloads.generate", seed):
                    instance = spec.workload(m, eps, seed)
                with tracer.span("offline.cache.get", seed):
                    bracket = cache.get(instance, EXACT_JOB_LIMIT, spec.force_bounds)
                if bracket is None:
                    with tracer.span("offline.bracket", seed):
                        bracket = opt_bracket(
                            instance, EXACT_JOB_LIMIT, spec.force_bounds
                        )
                    with tracer.span("offline.cache.put", seed):
                        cache.put(instance, bracket, EXACT_JOB_LIMIT, spec.force_bounds)
                instances.append(instance)
                brackets.append(bracket)
            results: dict[str, list[Any]] = {}
            for name in spec.algorithms:
                requests = [SimulationRequest(name, inst) for inst in instances]
                with tracer.span(f"engine.simulate.{name}", seeds[0]):
                    results[name] = run_simulations(requests)
                for seed, result in zip(seeds, results[name]):
                    with tracer.span("model.audit", seed):
                        result.detail.audit()
            for k, ((eps, m, rep), seed) in enumerate(zip(group, seeds)):
                cell_rows = [
                    SweepRow(
                        epsilon=eps, machines=m, repetition=rep, algorithm=name,
                        accepted_load=results[name][k].accepted_load,
                        accepted_count=results[name][k].accepted_count,
                        n_jobs=len(instances[k]),
                        opt_lower=brackets[k].lower, opt_upper=brackets[k].upper,
                        opt_exact=brackets[k].exact,
                        guarantee=guarantee_for(name, eps, m),
                    )
                    for name in spec.algorithms
                ]
                with tracer.span("workloads.journal.append", seed):
                    journal.record_cell(seed, eps, m, rep, cell_rows)
                rows.extend(cell_rows)
        journal.record_seal()
    return rows


def layer_metrics(
    grid: Grid, traced: list[Pass], tracer: Tracer
) -> dict[str, tuple[float, str, int]]:
    spans = tracer.spans
    busy = busy_by_name(spans)
    brackets = [s for s in spans if s.name == "offline.bracket"]
    sim = {name: busy.get(f"engine.simulate.{name}", 0.0) for name in grid.algorithms}
    layer_names = ("workloads.generate", "offline.cache.get", "offline.cache.put",
                   "offline.bracket", "model.audit", "workloads.journal.append")
    layer_busy = sum(busy.get(n, 0.0) for n in layer_names) + sum(sim.values())
    stats = {"hits": 0, "misses": 0, "writes": 0}
    for p in traced:
        for key in stats:
            stats[key] += int(p.result.cache_stats[key])
    lookups = stats["hits"] + stats["misses"]
    exec_wall = sum(p.wall for p in traced)
    cells = sum(p.spec.repetitions for p in traced) * len(grid.epsilons) * len(grid.machines)
    out = {
        "layers.busy_s": (layer_busy, "s", cells),
        "workloads.generate.busy_s": (busy.get("workloads.generate", 0.0), "s", cells),
        "offline.bracket.busy_s": (busy.get("offline.bracket", 0.0), "s", len(brackets)),
        "offline.bracket.share": (
            busy.get("offline.bracket", 0.0) / layer_busy, "ratio", cells),
        "offline.bracket.max_ms": (
            max((1000.0 * s.duration for s in brackets), default=0.0), "ms", len(brackets)),
        "offline.bracket.exact_cells": (
            float(sum(r.opt_exact for p in traced
                      for r in p.rows[:: len(grid.algorithms)])), "count", cells),
        "offline.cache.hits": (float(stats["hits"]), "count", lookups),
        "offline.cache.misses": (float(stats["misses"]), "count", lookups),
        "offline.cache.writes": (float(stats["writes"]), "count", lookups),
        "offline.cache.hit_rate": (
            stats["hits"] / lookups if lookups else 0.0, "ratio", lookups),
        "offline.cache.get_s": (busy.get("offline.cache.get", 0.0), "s", cells),
        "offline.cache.put_s": (busy.get("offline.cache.put", 0.0), "s", cells),
        "engine.simulate.busy_s": (sum(sim.values()), "s", cells),
        "model.audit.busy_s": (busy.get("model.audit", 0.0), "s", cells * len(grid.algorithms)),
        "workloads.journal.append_s": (busy.get("workloads.journal.append", 0.0), "s", cells),
        "workloads.journal.appends": (
            float(len(tracer.durations("workloads.journal.append"))), "count", cells),
        "workloads.execute.overhead_s": (WORKERS * exec_wall - layer_busy, "s", len(traced)),
        "workloads.execute.retries": (
            float(sum(p.result.manifest.retries for p in traced)), "count", cells),
        "workloads.execute.quarantined": (
            float(sum(p.result.manifest.quarantined for p in traced)), "count", cells),
    }
    for name, value in sim.items():
        out[f"engine.simulate.{name}.busy_s"] = (value, "s", cells)
    return out


# ---------------------------------------------------------------------------
# the workload
# ---------------------------------------------------------------------------


def run(grid: Grid, seed: int, seconds: float, trace: bool, work: Path) -> dict[str, Any]:
    warm = None
    reference = None
    setups = [import_seconds("repro.workloads.execute") for _ in range(SETUP_PROBES)]
    setup = median(setups)
    if grid is WARM:
        cache_dir = work / "warm-cache"
        spec = grid.spec(pass_seed(seed, 0))
        t0 = time.perf_counter()
        execute_sweep(spec, ExecutionPolicy(workers=WORKERS, cache=BracketCache(cache_dir)))
        setup += time.perf_counter() - t0
        warm = (cache_dir, spec)

    untraced = timed_phase(grid, seed, seconds, work, "u", Tracer(False), warm)
    phase_u = Phase(untraced, setup, peak_rss_mb())
    if warm is not None:
        # The serial in-process path, reading the warm cache, is the reference.
        reference = execute_sweep(warm[1], ExecutionPolicy(cache=BracketCache(warm[0]))).rows
    problems = [x for p in untraced for x in check_pass(p, grid, reference)]
    attempted = sum(p.result.manifest.cells_total for p in untraced)
    failed = sum(p.result.manifest.quarantined for p in untraced)
    report: dict[str, Any] = {"e2e": phase_u.e2e(), "layers": {},
                              "info": {"pass_s": [p.wall for p in untraced]}}

    if trace:
        tracer = Tracer(True)
        with tracer.span("setup"):
            traced_probes = [import_seconds("repro.workloads.execute")
                             for _ in range(SETUP_PROBES)]
        traced = timed_phase(grid, seed, seconds, work, "t", tracer, warm,
                             passes=len(untraced))
        phase_t = Phase(traced, setup, peak_rss_mb())
        problems += [x for p in traced for x in check_pass(p, grid, reference)]
        for u, t in zip(untraced, traced):
            if u.rows != t.rows:
                problems.append("traced pass rows differ from the untraced pass")
        replay_tracer = Tracer(True)
        for i, p in enumerate(traced):
            cache_dir = p.cache_dir if warm is not None else work / f"r-cache{i}"
            with replay_tracer.span("replay.pass", i):
                rows = replay(p, replay_tracer, work / f"r-journal{i}.jsonl", cache_dir)
            if rows != p.rows:
                problems.append(f"replayed rows of pass {i} differ from the executed pass")
            verdict = verify_journal(work / f"r-journal{i}.jsonl")
            if not verdict.ok:
                problems.append(f"replay journal: {verdict.summary()}")
        layers = layer_metrics(grid, traced, replay_tracer)
        u_e2e, t_e2e = phase_u.e2e(), phase_t.e2e()
        for name in ("throughput_per_s", "peak_rss_mb"):
            layers[f"trace.overhead.{name}"] = (
                t_e2e[name][0] - u_e2e[name][0], u_e2e[name][1], t_e2e[name][2])
        layers["trace.overhead.setup_s"] = (
            median(traced_probes) - median(setups), "s", SETUP_PROBES)
        layers["trace.spans"] = (float(len(tracer.spans) + len(replay_tracer.spans)), "count", 1)
        report["layers"] = layers
        report["spans"] = tracer.to_rows() + replay_tracer.to_rows()

    if grid is COLD:
        problems += check_canary(work)
    report.update(attempted=attempted, failed=failed, problems=problems)
    return report
