"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-cold-exact --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it name every metric with its unit and sample count and
stamp the environment.  A failed correctness check still prints the
result (with ``"correct": false``) and exits 1.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

from common import OUT, environment, import_program

WORKLOADS = ("sweep-cold-exact", "sweep-warm-wide", "serve-journaled-ladder")
CONTRACT = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    if name == "serve-journaled-ladder":
        import serve_ladder

        return serve_ladder.run(seed, seconds, trace, work)
    import sweeps

    grid = sweeps.COLD if name == "sweep-cold-exact" else sweeps.WARM
    return sweeps.run(grid, seed, seconds, trace, work)


def result_line(report: dict, trace: bool) -> dict:
    """The contract's result object; every declared metric is present.

    A per-layer metric whose layer the workload never calls reads 0.
    """
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    measured = report["layers" if trace else "e2e"]
    metrics = {}
    for entry in declared:
        value, unit, _ = measured.get(entry["name"], (0.0, entry["unit"], 0))
        if not math.isfinite(value):
            report["problems"].append(f"{entry['name']} has no samples")
            value = 0.0
        metrics[entry["name"]] = {"value": float(value), "unit": unit}
    return {
        "correct": not report["problems"],
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; a table of every metric."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=CONTRACT["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)

    import_program()
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        env = environment(work)
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        report["layers"]["env.fsync_us.p50"] = (env["fsync_us"]["p50"], "us", env["fsync_us"]["n"])
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"env": env, "spans": report.pop("spans")}))
        print(f"trace: {trace_file.relative_to(OUT.parent.parent)}")
    print(json.dumps({"env": env}))
    if "info" in report:
        print(json.dumps({"info": report["info"]}))
    for title, table in (("end-to-end", report["e2e"]), ("per-layer", report["layers"])):
        for name, (value, unit, n) in sorted(table.items()):
            print(f"{title:10s} {name:40s} {value:14.6g} {unit:6s} n={n}")
    result = result_line(report, bool(args.trace))
    for problem in report["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
