"""Tests for the run harness and experiment helpers."""

import os

import pytest

from repro.sim.config import small_config
from repro.sim.runner import DEFAULT_INSTRUCTIONS, instruction_budget, run_trace, run_workload
from repro.workloads import get_workload
from tests.conftest import TraceBuilder


class TestInstructionBudget:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_INSTRUCTIONS", raising=False)
        assert instruction_budget() == DEFAULT_INSTRUCTIONS
        assert instruction_budget(5000) == 5000

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "7000")
        assert instruction_budget() == 7000
        assert instruction_budget(99) == 7000  # env wins

    def test_env_floor(self, monkeypatch):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "10")
        assert instruction_budget() == 1000

    def test_env_malformed_names_variable_and_value(self, monkeypatch):
        from repro.errors import ConfigError
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "12k")
        with pytest.raises(ConfigError, match="REPRO_INSTRUCTIONS.*'12k'"):
            instruction_budget()


class TestRunHelpers:
    def test_run_workload_generates_margin(self, tiny_config):
        result = run_workload(tiny_config, get_workload("gzip"), max_instructions=1500)
        assert result.committed == 1500
        assert result.workload == "gzip" and result.group == "INT"
        assert result.config_name == "small"

    def test_run_trace_validation(self, tiny_config):
        b = TraceBuilder()
        b.load(0x101, size=8)  # misaligned
        b.fill(5)
        from repro.errors import TraceError
        with pytest.raises(TraceError):
            run_trace(tiny_config, b.build(), validate=True)

    def test_prewarm_eliminates_cold_icache_misses(self, tiny_config):
        trace = get_workload("gzip").generate(2000)
        cold = run_trace(tiny_config, trace, max_instructions=1500, prewarm=False)
        trace2 = get_workload("gzip").generate(2000)
        warm = run_trace(tiny_config, trace2, max_instructions=1500, prewarm=True)
        assert warm.counters["icache.misses"] <= cold.counters["icache.misses"]

    def test_deterministic_runs(self, tiny_config):
        a = run_workload(tiny_config, get_workload("gzip"), max_instructions=1200)
        b = run_workload(tiny_config, get_workload("gzip"), max_instructions=1200)
        assert a.cycles == b.cycles
        assert a.counters.as_dict() == b.counters.as_dict()


class TestExperimentHelpers:
    def test_suite_workloads_env(self, monkeypatch):
        from repro.experiments.common import suite_workloads
        monkeypatch.setenv("REPRO_WORKLOADS_PER_GROUP", "3")
        names = suite_workloads()
        assert len(names) == 6
        monkeypatch.delenv("REPRO_WORKLOADS_PER_GROUP")
        assert len(suite_workloads()) == 26

    def test_run_suite_serial(self, monkeypatch, tiny_config):
        from repro.exec.engine import get_engine
        from repro.experiments.common import suite
        monkeypatch.setenv("REPRO_PARALLEL", "0")
        monkeypatch.setenv("REPRO_WORKLOADS_PER_GROUP", "1")
        points = suite({"tiny": tiny_config}, budget=800)
        names = list(points["tiny"])
        assert list(points) == ["tiny"] and len(names) == 2
        results = get_engine().run(list(points["tiny"].values()))
        assert [r.workload for r in results] == names
        assert [r.group for r in results] == ["INT", "FP"]

    def test_group_means(self):
        from repro.experiments.common import by_group, mean
        from repro.sim.result import SimulationResult
        from repro.stats.counters import CounterSet

        def mk(name, group, cycles):
            return SimulationResult(name, group, "c", "s", cycles, 100, CounterSet())

        results = {
            "a": mk("a", "INT", 10), "b": mk("b", "INT", 30), "c": mk("c", "FP", 20),
        }
        out = by_group(results, lambda name, r: {"cycles": float(r.cycles)})
        assert mean(out["INT"]["cycles"]) == 20.0 and min(out["INT"]["cycles"]) == 10.0
        assert len(out["FP"]["cycles"]) == 1
