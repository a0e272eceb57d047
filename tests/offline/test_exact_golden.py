"""The exact solver against a frozen corpus of offline optima.

``data/exact_golden.json`` holds 333 instances with the optimum the
previous (dispatch-any-order) solver found for each; see
``make_exact_golden.py`` for how the corpus was built.  A search rewrite
may reorder the floating-point sum of an optimum, so values must agree
to relative 1e-12 rather than bit for bit.
"""

import json
import pathlib

import pytest

from repro.model.instance import Instance
from repro.model.job import Job
from repro.offline.exact import exact_optimum

_CASES = json.loads(
    (pathlib.Path(__file__).parent / "data" / "exact_golden.json").read_text()
)["cases"]


def test_corpus_covers_the_grid():
    assert len(_CASES) == 333
    assert {case["m"] for case in _CASES} == {1, 2, 3, 4}
    assert max(len(case["jobs"]) for case in _CASES) == 12


@pytest.mark.parametrize("case", _CASES, ids=[case["name"] for case in _CASES])
def test_matches_frozen_optimum(case):
    jobs = [Job(r, p, d, job_id=i) for i, (r, p, d) in enumerate(case["jobs"])]
    result = exact_optimum(Instance(jobs, machines=case["m"], epsilon=0.01, validate=False))
    assert result.value == pytest.approx(case["value"], rel=1e-12, abs=1e-12)
