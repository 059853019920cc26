"""Unit tests of the harness arithmetic: spans, percentiles, round qualification."""

from __future__ import annotations

import pytest

from benchmarks.titant_bench.calibration import REFERENCE_SLICE_S, quiet_rounds
from benchmarks.titant_bench.inputs import FULL
from benchmarks.titant_bench.stats import (
    RoundResult,
    end_to_end,
    highest_supported_percentile,
    percentile,
    round_spread,
    samples_beyond,
    typical_times,
)
from benchmarks.titant_bench.trace import Tracer, self_times


def span(name, start, end, parent, op_id=0):
    return [name, float(start), float(end), parent, op_id]


class TestSelfTime:
    def test_nested_children_are_charged_to_their_own_parent(self):
        spans = [
            span("op", 0, 10, -1),
            span("assemble", 1, 7, 0),
            span("read", 2, 5, 1),
            span("predict", 7, 9, 0),
        ]
        assert self_times(spans) == {"op": 2.0, "assemble": 3.0, "read": 3.0, "predict": 2.0}

    def test_sibling_children_are_all_subtracted(self):
        spans = [
            span("assemble", 0, 10, -1),
            span("read", 1, 3, 0),
            span("read", 4, 6, 0),
            span("read", 6, 9, 0),
        ]
        assert self_times(spans) == {"assemble": 3.0, "read": 7.0}

    def test_self_times_partition_the_root(self):
        tracer = Tracer()
        with tracer.span("op"):
            with tracer.span("a"):
                with tracer.span("b"):
                    pass
            with tracer.span("a"):
                pass
        root = tracer.spans[0]
        assert sum(self_times(tracer.spans).values()) == pytest.approx(root[2] - root[1])
        assert [s[3] for s in tracer.spans] == [-1, 0, 1, 0]

    def test_range_reads_only_the_later_ops(self):
        spans = [span("op", 0, 4, -1), span("x", 1, 2, 0), span("op", 5, 9, -1), span("x", 6, 9, 2)]
        assert self_times(spans, 2, 4) == {"op": 1.0, "x": 3.0}


class TestPercentiles:
    @pytest.mark.parametrize(
        "count, expected",
        [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (10_000, 99.9)],
    )
    def test_ten_samples_beyond_rule(self, count, expected):
        assert highest_supported_percentile(count) == expected

    def test_samples_beyond_counts_the_tail(self):
        assert samples_beyond(100, 90.0) == 10
        assert samples_beyond(100, 99.0) == 1

    def test_every_serving_round_supports_the_gated_p90(self):
        for workload, sizing in FULL.items():
            if workload != "offline_t1":
                assert highest_supported_percentile(sizing.ops_per_round) >= 90.0

    def test_percentile_interpolates_like_numpy(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50.0) == 2.5
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 100.0) == 4.0
        assert percentile([7.0], 90.0) == 7.0


def round_of(*op_times, speed=1.0, work=8):
    """A round whose kernel slices took ``speed`` times the reference."""
    return RoundResult(
        op_times_s=list(op_times), slice_times_s=[REFERENCE_SLICE_S * speed] * 3, work=work
    )


class TestScaledMedians:
    def test_op_times_are_scaled_by_the_rounds_own_speed(self):
        slow = round_of(2.0, 4.0, speed=2.0)
        assert slow.scaled_times_s == pytest.approx([1.0, 2.0])
        assert slow.throughput == pytest.approx(8 / 6.0)  # as measured, unscaled

    def test_typical_time_is_each_ops_median_over_rounds(self):
        rounds = [round_of(1.0, 5.0, 2.0), round_of(3.0, 2.0, 2.5), round_of(1.5, 4.0, 1.0)]
        assert typical_times(rounds) == pytest.approx([1.5, 4.0, 2.0])

    def test_a_slow_round_scales_back_onto_the_quiet_ones(self):
        rounds = [round_of(1.0, 2.0), round_of(1.5, 3.0, speed=1.5), round_of(1.0, 2.0)]
        assert typical_times(rounds) == pytest.approx([1.0, 2.0])

    def test_rounds_must_run_the_same_ops(self):
        with pytest.raises(ValueError):
            typical_times([round_of(1.0, 2.0), round_of(1.0)])

    def test_end_to_end_is_level_times_shape(self):
        # Level: the median round total (5 ms).  Shape: the ops' medians, 1:4.
        rounds = [round_of(0.001, 0.004), round_of(0.0015, 0.0035), round_of(0.002, 0.008)]
        metrics = end_to_end(rounds)
        assert metrics["throughput_per_s"] == pytest.approx(8 / 0.005)
        low, high = 0.0015 / 0.0055 * 5.0, 0.004 / 0.0055 * 5.0
        assert metrics["latency_p50_ms"] == pytest.approx((low + high) / 2)
        assert metrics["latency_p90_ms"] == pytest.approx(low + 0.9 * (high - low))

    def test_one_job_latency_is_the_sum_of_its_stages(self):
        metrics = end_to_end([round_of(0.1, 0.3), round_of(0.1, 0.3)], one_job=True)
        assert metrics["latency_p50_ms"] == metrics["latency_p90_ms"] == pytest.approx(400.0)

    def test_round_spread_is_the_iqr_of_scaled_round_totals(self):
        assert round_spread([round_of(1.0)] * 3) == 1.0
        same = [round_of(1.0), round_of(2.0, speed=2.0), round_of(1.0), round_of(3.0, speed=3.0)]
        assert round_spread(same) == pytest.approx(0.0)
        assert round_spread([round_of(1.0), round_of(1.0), round_of(1.2), round_of(1.2)]) > 0.1


class TestRoundQualification:
    def test_all_quiet(self):
        assert quiet_rounds([9.6, 9.8, 9.7, 10.1]) == [True] * 4

    def test_burst_disqualifies_the_round_it_hit(self):
        assert quiet_rounds([9.6, 9.7, 14.0, 9.6]) == [True, True, False, True]

    def test_sustained_slow_half_is_disqualified(self):
        assert quiet_rounds([9.6, 9.7, 9.6, 13.0, 13.5, 14.0]) == [True] * 3 + [False] * 3

    def test_a_uniformly_slow_run_cannot_be_told_from_a_quiet_one(self):
        # The fastest round is the only reference gating has; scaling to the
        # reference slice is what corrects such a run.
        assert quiet_rounds([14.0, 14.1, 14.2]) == [True, True, True]

    def test_no_rounds(self):
        assert quiet_rounds([]) == []
