"""Unit tests for group aggregation and table rendering."""

import pytest

from repro.experiments.common import by_group, mean
from repro.sim.result import SimulationResult
from repro.stats.aggregate import geometric_mean
from repro.stats.counters import CounterSet
from repro.stats.report import format_percent, format_table


def _results(groups):
    return {name: SimulationResult(name, group, "c", "s", 1, 1, CounterSet())
            for name, group in groups.items()}


class TestSummarize:
    def test_groups_split(self):
        values = {"a": 1.0, "b": 3.0, "c": 10.0}
        results = _results({"a": "INT", "b": "INT", "c": "FP"})
        out = by_group(results, lambda name, r: {"v": values[name]})
        assert list(out) == ["INT", "FP"]
        assert mean(out["INT"]["v"]) == 2.0
        assert min(out["INT"]["v"]) == 1.0 and max(out["INT"]["v"]) == 3.0
        assert len(out["FP"]["v"]) == 1

    def test_unknown_workloads_ignored(self):
        values = {"a": 1.0}
        results = _results({"a": "INT", "zzz": "FP"})
        out = by_group(results, lambda name, r: {"v": values[name]} if name in values else None)
        assert set(out) == {"INT"}

    def test_mean_of_nothing_is_zero(self):
        assert mean([]) == 0.0


class TestGeometricMean:
    def test_basic(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_empty(self):
        assert geometric_mean([]) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])


class TestFormatTable:
    def test_alignment_and_content(self):
        text = format_table(["name", "value"], [["a", 1], ["longer", 22]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5
        # all rows equal width
        assert len({len(l) for l in lines[1:]}) <= 2

    def test_empty_rows(self):
        text = format_table(["a"], [])
        assert "a" in text

    def test_format_percent(self):
        assert format_percent(0.5) == "50.0%"
        assert format_percent(0.1234, digits=2) == "12.34%"
