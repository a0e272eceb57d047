"""Write ``data/exact_golden.json``: frozen exact offline optima.

The corpus pins ``exact_optimum`` values so a change to the solver's
search cannot silently move an optimum.  It was frozen from the solver as
it stood before the start-order rewrite; ``test_exact_golden.py`` checks
the current solver against it.  Regenerate only deliberately (a value
change also needs a ``CACHE_VERSION`` bump):

    PYTHONPATH=src python tests/offline/make_exact_golden.py

Instances are stored verbatim as ``(release, processing, deadline)``
triples (JSON round-trips floats exactly), so the corpus does not depend
on the random generators staying stable.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.model.instance import Instance
from repro.model.job import Job
from repro.offline.exact import exact_optimum
from repro.workloads.random_instances import random_instance

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "exact_golden.json"


def _brute_force_m1(seed: int) -> list[tuple[float, float, float]]:
    # Same draws as test_exact.TestAgainstBruteForce.
    rng = np.random.default_rng(seed)
    jobs, t = [], 0.0
    for _ in range(6):
        t += float(rng.exponential(0.6))
        p = float(rng.uniform(0.2, 2.0))
        jobs.append((t, p, t + p * (1.0 + float(rng.exponential(0.8)))))
    return jobs


def _brute_force_m2(seed: int) -> list[tuple[float, float, float]]:
    # Same draws as test_exact_multimachine.test_exact_matches_brute_force_m2.
    rng = np.random.default_rng(500 + seed)
    jobs, t = [], 0.0
    for _ in range(5):
        t += float(rng.exponential(0.5))
        p = float(rng.uniform(0.3, 2.0))
        jobs.append((t, p, t + p * (1.0 + float(rng.exponential(0.6)))))
    return jobs


def _integer_ties(n: int, seed: int) -> list[tuple[float, float, float]]:
    """Small-integer windows: many equal releases, lengths and frontiers."""
    rng = np.random.default_rng(9000 + seed)
    jobs = []
    for _ in range(n):
        r = float(rng.integers(0, 6))
        p = float(rng.integers(1, 4))
        jobs.append((r, p, r + p + float(rng.integers(0, 4))))
    return jobs


#: The hand-written instances of test_exact.TestSmallCases and friends.
_SMALL_CASES = [
    ("single", 1, [(0.0, 2.0, 4.0)]),
    ("conflicting", 1, [(0.0, 2.0, 2.2), (0.0, 3.0, 3.3)]),
    ("sequencing", 1, [(0.0, 2.0, 6.0), (0.0, 3.0, 3.3)]),
    ("release-inversion", 1, [(0.0, 10.0, 100.0), (1.0, 1.0, 2.0)]),
    ("parallel", 2, [(0.0, 2.0, 2.2)] * 3),
    ("idle-waiting", 1, [(0.0, 1.0, 1.1), (0.5, 10.0, 10.6)]),
    ("reconstruction", 2, [(0, 1, 2), (0, 2, 3), (0.5, 1, 4), (1, 2, 6)]),
    ("second-machine", 2, [(0.0, 2.0, 2.2), (0.0, 2.0, 2.2)]),
    ("identical-units", 3, [(0.0, 1.0, 3.0)] * 10),
]


def corpus() -> list[dict]:
    """Every golden case as ``{"name", "m", "jobs"}`` (no values yet)."""
    cases = [
        {"name": name, "m": m, "jobs": [[float(x) for x in job] for job in jobs]}
        for name, m, jobs in _SMALL_CASES
    ]
    cases += [{"name": f"bf-m1-{s}", "m": 1, "jobs": _brute_force_m1(s)} for s in range(8)]
    cases += [{"name": f"bf-m2-{s}", "m": 2, "jobs": _brute_force_m2(s)} for s in range(10)]
    for n in (6, 8, 10):
        for m in (1, 2, 3):
            for s in range(2):
                cases.append({"name": f"int-n{n}-m{m}-s{s}", "m": m,
                              "jobs": _integer_ties(n, 100 * n + 10 * m + s)})
    for n in (6, 8, 10, 12):
        for m in (1, 2, 3, 4):
            for eps in (0.1, 0.25, 0.5):
                for seed in range(6):
                    inst = random_instance(n, m, eps, seed=1000 * n + 100 * m + seed)
                    cases.append({
                        "name": f"rand-n{n}-m{m}-e{eps}-s{seed}",
                        "m": m,
                        "jobs": [(j.release, j.processing, j.deadline) for j in inst],
                    })
    return cases


def to_instance(case: dict) -> Instance:
    jobs = [Job(r, p, d, job_id=i) for i, (r, p, d) in enumerate(case["jobs"])]
    return Instance(jobs, machines=case["m"], epsilon=0.01, validate=False)


def main() -> None:
    cases = corpus()
    for case in cases:
        case["value"] = exact_optimum(to_instance(case)).value
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    lines = ",\n".join(json.dumps(case) for case in cases)
    GOLDEN_PATH.write_text('{"cases": [\n' + lines + "\n]}\n")
    print(f"wrote {len(cases)} cases to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
