"""Tests of the benchmark's own helpers (no program code involved).

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from common import (  # noqa: E402
    OpenLoop,
    Span,
    Tracer,
    busy_by_name,
    nearest_rank,
    poisson_schedule,
    self_times,
)


class TestNearestRank:
    def test_value_is_a_sample_and_count_is_returned(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert nearest_rank(samples, 50) == (3.0, 5)
        assert nearest_rank(samples, 100) == (5.0, 5)
        assert nearest_rank(samples, 0) == (1.0, 5)

    def test_p99_of_hundred_samples_leaves_one_above(self):
        samples = [float(i) for i in range(1, 101)]
        assert nearest_rank(samples, 99) == (99.0, 100)
        assert nearest_rank(samples, 99.9) == (100.0, 100)

    def test_ceil_rank_not_interpolation(self):
        # rank = ceil(0.9 * 11) = 10
        assert nearest_rank([float(i) for i in range(11)], 90) == (9.0, 11)

    def test_empty_is_nan_with_zero_count(self):
        value, n = nearest_rank([], 50)
        assert math.isnan(value) and n == 0

    def test_rejects_out_of_range_percentile(self):
        with pytest.raises(ValueError):
            nearest_rank([1.0], 101)


class TestOpenLoop:
    def test_latency_runs_from_due_time_not_send_time(self):
        loop = OpenLoop(due=[0.0, 0.1], step=[0, 0])
        loop.on_send(0, 0.5)  # generator stalled for 0.5 s
        loop.on_send(1, 0.5)
        loop.on_reply(0, 0.6)
        loop.on_reply(1, 0.7)
        assert loop.latencies() == pytest.approx([0.6, 0.6])
        assert loop.lateness() == pytest.approx([0.5, 0.4])

    def test_missing_and_error_replies_count_against_their_step(self):
        loop = OpenLoop(due=[0.0, 0.1, 1.0, 1.1], step=[0, 0, 1, 1])
        for i, t in enumerate([0.0, 0.1, 1.0, 1.1]):
            loop.on_send(i, t)
        loop.on_reply(0, 0.05)
        loop.on_reply(1, 0.15, ok=False)
        loop.on_reply(2, 1.02)
        assert loop.missing(0) == 1  # the error reply
        assert loop.missing(1) == 1  # offer 3 never answered
        assert loop.missing() == 2
        assert loop.latencies(0) == pytest.approx([0.05])
        assert loop.latencies(1) == pytest.approx([0.02])

    def test_backlog_counts_outstanding_offers_at_each_send(self):
        loop = OpenLoop(due=[0.0, 0.1, 0.2, 0.3], step=[0, 0, 1, 1])
        loop.on_send(0, 0.0)
        loop.on_send(1, 0.1)
        loop.on_reply(0, 0.15)
        loop.on_send(2, 0.2)
        loop.on_send(3, 0.3)
        assert loop.backlog == [1, 2, 2, 3]
        assert loop.backlog_max(0) == 2
        assert loop.backlog_max(1) == 3

    def test_delivered_rate_spans_first_due_to_last_reply(self):
        loop = OpenLoop(due=[1.0, 1.5, 2.0], step=[0, 0, 0])
        for i, t in enumerate([1.0, 1.5, 2.0]):
            loop.on_send(i, t)
        for i, t in enumerate([1.1, 1.6, 3.0]):
            loop.on_reply(i, t)
        assert loop.delivered_rate(0) == pytest.approx(3 / 2.0)

    def test_out_of_order_send_and_duplicate_reply_are_rejected(self):
        loop = OpenLoop(due=[0.0, 0.1], step=[0, 0])
        with pytest.raises(ValueError):
            loop.on_send(1, 0.0)
        loop.on_send(0, 0.0)
        loop.on_reply(0, 0.1)
        with pytest.raises(ValueError):
            loop.on_reply(0, 0.2)
        with pytest.raises(ValueError):
            loop.on_reply(1, 0.2)

    def test_poisson_schedule_is_seeded_sorted_and_stepped(self):
        plan = [(0.0, 2.0, 100.0), (2.0, 4.0, 400.0), (5.0, 6.0, 100.0)]
        a = poisson_schedule(plan, np.random.default_rng(7))
        b = poisson_schedule(plan, np.random.default_rng(7))
        assert a == b
        due, step = a
        assert due == sorted(due)
        for k, (lo, hi, _) in enumerate(plan):
            assert all(lo <= t < hi for t, s in zip(due, step) if s == k)
        assert not any(4.0 <= t < 5.0 for t in due)  # the gap stays empty
        assert 120 < step.count(0) < 280 and 650 < step.count(1) < 950


class TestSelfTime:
    def test_self_time_subtracts_children(self):
        spans = [
            Span("cell", 0.0, 10.0, -1),
            Span("bracket", 1.0, 4.0, 0),
            Span("simulate", 5.0, 7.0, 0),
        ]
        assert self_times(spans) == pytest.approx([5.0, 3.0, 2.0])

    def test_overlapping_children_count_once_and_are_clipped(self):
        spans = [
            Span("root", 0.0, 10.0, -1),
            Span("a", 2.0, 6.0, 0),
            Span("b", 4.0, 8.0, 0),
            Span("c", 9.0, 12.0, 0),  # runs past its parent
        ]
        assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)

    def test_grandchildren_only_reduce_their_own_parent(self):
        spans = [
            Span("root", 0.0, 10.0, -1),
            Span("child", 0.0, 6.0, 0),
            Span("grandchild", 1.0, 3.0, 1),
        ]
        assert self_times(spans) == pytest.approx([4.0, 4.0, 2.0])
        assert busy_by_name(spans) == pytest.approx(
            {"root": 4.0, "child": 4.0, "grandchild": 2.0}
        )

    def test_tracer_links_parents_and_ids(self):
        tracer = Tracer()
        with tracer.span("outer", 1):
            with tracer.span("inner", 2):
                pass
        tracer.add("measured", 5.0, 6.0, 3)
        outer, inner, measured = tracer.spans
        assert (outer.parent, inner.parent, measured.parent) == (-1, 0, -1)
        assert (outer.ident, inner.ident, measured.ident) == (1, 2, 3)
        assert outer.start <= inner.start <= inner.end <= outer.end
        assert sum(busy_by_name(tracer.spans[:2]).values()) == pytest.approx(
            outer.duration
        )

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("x"):
            tracer.add("y", 0.0, 1.0)
        assert tracer.spans == []
