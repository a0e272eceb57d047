"""The exact solver against an independent MILP oracle.

A disjunctive big-M formulation of ``Pm | r_j, d_j | max sum p_j x_j`` on
``scipy.optimize.milp`` (HiGHS) shares no code or search idea with the
start-order DFS in :mod:`repro.offline.exact`:

* ``x_j``: job ``j`` is accepted;
* ``y_jk``: job ``j`` runs on machine ``k`` (``sum_k y_jk = x_j``);
* ``o_ij`` (``i < j``): on a shared machine, ``i`` runs before ``j``;
* ``s_j``: continuous start in ``[r_j, d_j - p_j]``.

Two jobs on the same machine must not overlap in either order.  Unlike
the brute force in ``test_exact_multimachine.py`` this reaches m = 3.

Instance data lie on a 1/8 grid, so every sum is exact in floating point
and a real deadline or overlap violation is at least 1/8: the solvers'
tolerances (1e-9 in the DFS, ~1e-7 in HiGHS) cannot decide a case
differently.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.model.instance import Instance
from repro.model.job import Job
from repro.offline.exact import exact_optimum


def milp_optimum(instance: Instance) -> float:
    """Maximum accepted load of *instance*, solved as a MILP."""
    jobs = list(instance)
    n, m = len(jobs), instance.machines
    if n == 0:
        return 0.0
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # Column layout: x (n) | y (n*m) | o (pairs) | s (n).
    x = lambda j: j  # noqa: E731
    y = lambda j, k: n + j * m + k  # noqa: E731
    o = lambda q: n + n * m + q  # noqa: E731
    s = lambda j: n + n * m + len(pairs) + j  # noqa: E731
    cols = n + n * m + len(pairs) + n
    horizon = max(max(job.deadline, job.release + job.processing) for job in jobs)
    big = horizon - min(job.release for job in jobs)

    rows, lo, hi = [], [], []

    def row(coeffs: dict[int, float], lower: float, upper: float) -> None:
        a = np.zeros(cols)
        for c, v in coeffs.items():
            a[c] += v
        rows.append(a)
        lo.append(lower)
        hi.append(upper)

    for j in range(n):
        row({x(j): -1.0, **{y(j, k): 1.0 for k in range(m)}}, 0.0, 0.0)
    # Symmetry breaking: of two identical jobs the first is accepted first.
    for i, j in pairs:
        if jobs[i].release == jobs[j].release and jobs[i].processing == jobs[j].processing \
                and jobs[i].deadline == jobs[j].deadline:
            row({x(i): 1.0, x(j): -1.0}, 0.0, np.inf)
    # Valid window cuts, which tighten the weak big-M relaxation: on one
    # machine, the jobs confined to [a, b] fit in b - a.
    for a in {job.release for job in jobs}:
        for b in {job.deadline for job in jobs}:
            inside = [j for j, job in enumerate(jobs) if a <= job.release and job.deadline <= b]
            if inside and b > a:
                for k in range(m):
                    row({y(j, k): jobs[j].processing for j in inside}, -np.inf, b - a)
    for q, (i, j) in enumerate(pairs):
        pi, pj = jobs[i].processing, jobs[j].processing
        for k in range(m):
            # o=1, both on k:  s_i + p_i <= s_j.
            row({s(i): 1.0, s(j): -1.0, o(q): big, y(i, k): big, y(j, k): big},
                -np.inf, 3 * big - pi)
            # o=0, both on k:  s_j + p_j <= s_i.
            row({s(j): 1.0, s(i): -1.0, o(q): -big, y(i, k): big, y(j, k): big},
                -np.inf, 2 * big - pj)

    lower = np.zeros(cols)
    upper = np.ones(cols)
    for j, job in enumerate(jobs):
        latest = job.deadline - job.processing
        lower[s(j)] = job.release
        upper[s(j)] = max(job.release, latest)
        # Machines are identical: number them by their first job, so job j
        # only ever runs on machines 0..j.
        upper[[y(j, k) for k in range(j + 1, m)]] = 0.0
        if latest < job.release:
            upper[x(j)] = 0.0  # cannot fit even alone
            upper[[y(j, k) for k in range(m)]] = 0.0
    cost = np.zeros(cols)
    cost[:n] = [-job.processing for job in jobs]
    integrality = np.ones(cols)
    integrality[n + n * m + len(pairs):] = 0
    result = milp(
        cost,
        constraints=LinearConstraint(np.array(rows), lo, hi),
        integrality=integrality,
        bounds=Bounds(lower, upper),
    )
    assert result.success, result.message
    return -result.fun


def _instance(triples, m):
    jobs = [Job(r, p, d, job_id=i) for i, (r, p, d) in enumerate(triples)]
    return Instance(jobs, machines=m, epsilon=0.01, validate=False)


class TestOracleItself:
    """The formulation reproduces hand-checked optima."""

    @pytest.mark.parametrize(
        "triples, m, expected",
        [
            ([(0, 2, 2.25), (0, 3, 3.25)], 1, 3.0),
            ([(0, 2, 6), (0, 3, 3.25)], 1, 5.0),
            ([(0, 10, 100), (1, 1, 2)], 1, 11.0),
            ([(0, 2, 2.25)] * 3, 2, 4.0),
            ([(0, 1, 1.125), (0.5, 10, 10.625)], 1, 10.0),
            ([(0, 1, 2)] * 8, 3, 6.0),
        ],
    )
    def test_known_optima(self, triples, m, expected):
        assert milp_optimum(_instance(triples, m)) == pytest.approx(expected, abs=1e-6)


_EIGHTHS = st.integers(0, 64).map(lambda k: k / 8)


@st.composite
def _grid_instances(draw, integer: bool):
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 3))
    triples = []
    for _ in range(n):
        if integer:
            r = float(draw(st.integers(0, 5)))
            p = float(draw(st.integers(1, 3)))
            slack = float(draw(st.integers(0, 3)))
        else:
            r = draw(_EIGHTHS)
            p = draw(st.integers(1, 24)) / 8
            slack = draw(st.integers(0, 24)) / 8
        triples.append((r, p, r + p + slack))
    return _instance(triples, m)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_grid_instances(integer=True))
def test_exact_matches_milp_integer_ties(instance):
    assert exact_optimum(instance).value == pytest.approx(milp_optimum(instance), abs=1e-6)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_grid_instances(integer=False))
def test_exact_matches_milp_eighths(instance):
    assert exact_optimum(instance).value == pytest.approx(milp_optimum(instance), abs=1e-6)
