"""Unit tests for sweep result aggregation."""

import math

import pytest

from repro.exceptions import ConfigurationError
from repro.sim.results import RunRecord, SweepResult, aggregate_records


def record(algorithm, x, seed, reward):
    return RunRecord(algorithm=algorithm, x=x, seed=seed,
                     metrics={"total_reward": reward,
                              "avg_latency_ms": reward / 10.0})


@pytest.fixture()
def sweep():
    result = SweepResult("num_requests")
    for x, rewards in [(100, (10.0, 12.0)), (200, (20.0, 22.0))]:
        for seed, r in enumerate(rewards):
            result.add(record("A", x, seed, r))
            result.add(record("B", x, seed, r / 2.0))
    return result


class TestSeries:
    def test_x_values_sorted(self, sweep):
        assert sweep.x_values() == [100, 200]

    def test_algorithms_first_seen_order(self, sweep):
        assert sweep.algorithms() == ["A", "B"]

    def test_series_means(self, sweep):
        xs, means, stds = sweep.series("A", "total_reward")
        assert xs == [100, 200]
        assert means == [pytest.approx(11.0), pytest.approx(21.0)]
        # Sample standard deviation (ddof=1): std([10, 12]) = sqrt(2).
        assert stds[0] == pytest.approx(2.0 ** 0.5)

    def test_series_single_seed_std_zero(self):
        sweep = SweepResult("n")
        sweep.add(record("A", 100, 0, 10.0))
        _, _, stds = sweep.series("A", "total_reward")
        assert stds == [0.0]

    def test_missing_algorithm_raises(self, sweep):
        with pytest.raises(ConfigurationError):
            sweep.series("C", "total_reward")

    def test_missing_metric_raises(self, sweep):
        with pytest.raises(ConfigurationError):
            sweep.series("A", "nope")

    def test_table(self, sweep):
        table = sweep.table("total_reward")
        assert table["A"] == [pytest.approx(11.0), pytest.approx(21.0)]
        assert table["B"] == [pytest.approx(5.5), pytest.approx(10.5)]

    def test_table_pads_missing_points_with_nan(self, sweep):
        # "Heu" only measures total_reward at x=200: its row must
        # still align to x_values() = [100, 200], padding x=100.
        sweep.add(RunRecord("Heu", 200, 0, {"total_reward": 7.0}))
        table = sweep.table("total_reward")
        assert len(table["Heu"]) == len(sweep.x_values()) == 2
        assert math.isnan(table["Heu"][0])
        assert table["Heu"][1] == pytest.approx(7.0)
        # Rows of fully-populated algorithms are untouched.
        assert table["A"] == [pytest.approx(11.0), pytest.approx(21.0)]

    def test_table_metric_absent_at_one_x_keeps_alignment(self):
        # "C" lacks the metric at x=200: its row must not shift the
        # x=200 column into the x=100 slot.
        sweep = SweepResult("n")
        sweep.add(RunRecord("A", 100, 0, {"special": 9.0}))
        sweep.add(RunRecord("A", 200, 0, {"special": 8.0}))
        sweep.add(RunRecord("C", 100, 0, {"special": 1.0}))
        sweep.add(RunRecord("C", 200, 0, {"other": 4.0}))
        table = sweep.table("special")
        assert table["A"] == [pytest.approx(9.0), pytest.approx(8.0)]
        assert table["C"][0] == pytest.approx(1.0)
        assert math.isnan(table["C"][1])


class TestAggregate:
    def test_aggregate_records(self):
        records = [record("A", 1, 0, 1.0), record("A", 2, 0, 2.0)]
        sweep = aggregate_records(records, "x")
        assert sweep.x_label == "x"
        assert len(sweep.records) == 2
