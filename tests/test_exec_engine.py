"""The deduplicating executor and the one experiment path that plans,
batches and renders experiments through it."""

import pytest

from repro.errors import ConfigError, SimulationError
from repro.exec.cache import ResultCache
from repro.exec.engine import ExecutionEngine, worker_count
from repro.exec.request import RunRequest
from repro.experiments.registry import EXPERIMENTS, run_experiments
from repro.sim.config import small_config

BUDGET = 700


def _req(workload="gzip", seed=1, **overrides):
    return RunRequest(small_config(wrongpath_loads=False, **overrides),
                      workload, BUDGET, seed)


@pytest.fixture
def engine(tmp_path):
    with ExecutionEngine(cache=ResultCache(tmp_path / "cache"), max_workers=1) as eng:
        yield eng


class TestDedupeAndCaching:
    def test_duplicates_run_once(self, engine):
        requests = [_req(), _req("swim"), _req(), _req()]
        results = engine.run(requests)
        assert engine.stats.requested == 4
        assert engine.stats.unique == 2
        assert engine.stats.executed == 2
        assert results[0] == results[2] == results[3]
        assert results[1].workload == "swim"

    def test_memo_serves_repeat_batches(self, engine):
        engine.run([_req()])
        engine.run([_req()])
        assert engine.stats.executed == 1
        assert engine.stats.memo_hits == 1

    def test_disk_cache_survives_engine_restart(self, tmp_path):
        cache_dir = tmp_path / "cache"
        with ExecutionEngine(cache=ResultCache(cache_dir), max_workers=1) as first:
            cold = first.run([_req()])[0]
        with ExecutionEngine(cache=ResultCache(cache_dir), max_workers=1) as second:
            warm = second.run([_req()])[0]
            assert second.stats.executed == 0
            assert second.stats.disk_hits == 1
        assert warm == cold

    def test_no_cache_means_every_engine_simulates(self, tmp_path):
        with ExecutionEngine(cache=None, max_workers=1) as first:
            first.run([_req()])
            assert first.stats.executed == 1
        with ExecutionEngine(cache=None, max_workers=1) as second:
            second.run([_req()])
            assert second.stats.executed == 1

    def test_progress_reports_every_unique_point(self, engine):
        seen = []
        engine.progress = lambda done, total, request, source: seen.append(
            (done, total, request.workload_name, source))
        engine.run([_req(), _req(), _req("swim")])
        assert len(seen) == 2
        assert {s[3] for s in seen} == {"run"}
        engine.run([_req()])
        assert seen[-1][3] == "memo"


class TestErrorContext:
    def test_serial_failure_names_the_job(self, engine):
        with pytest.raises(SimulationError, match="no-such-workload.*small"):
            engine.run([_req("no-such-workload")])

    def test_parallel_failure_names_the_job(self, tmp_path):
        with ExecutionEngine(cache=None, max_workers=2) as engine:
            with pytest.raises(SimulationError, match="no-such-workload"):
                engine.run([_req(), _req("no-such-workload")])

    def test_worker_count_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "many")
        with pytest.raises(ConfigError, match="REPRO_PARALLEL.*'many'"):
            worker_count()

    def test_worker_count_zero_is_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "0")
        assert worker_count() == 1


class TestPlanner:
    @pytest.fixture(autouse=True)
    def _small_suite(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKLOADS_PER_GROUP", "1")
        monkeypatch.setenv("REPRO_PARALLEL", "0")

    def test_shared_points_fold_in_union(self, engine):
        # table2 (global DMDC suite) is a strict subset of safe_loads'
        # "with safe loads" sweep: identical configs, workloads, budget.
        artifacts = run_experiments(["table2", "safe_loads"], engine=engine, budget=BUDGET)
        assert [a.id for a in artifacts] == ["table2", "safe_loads"]
        suite_size = len(EXPERIMENTS["table2"].points(BUDGET)["dmdc"])
        assert engine.stats.requested == 3 * suite_size
        assert engine.stats.unique == 2 * suite_size

    def test_every_experiment_declares_a_plan(self):
        assert len(EXPERIMENTS) == 17
        for exp in EXPERIMENTS.values():
            points = exp.points(BUDGET)
            assert points and all(points.values()), f"{exp.id} planned no design points"

    def test_run_all_simulates_each_unique_point_once(self, engine):
        artifacts = run_experiments(["table2", "safe_loads"], engine=engine, budget=BUDGET)
        assert engine.stats.executed == engine.stats.unique
        assert engine.stats.memo_hits == 0
        assert {a.id for a in artifacts} == {"table2", "safe_loads"}
        for artifact in artifacts:
            assert artifact.text.strip()

    def test_cached_rerun_is_identical_and_simulation_free(self, tmp_path):
        cache_dir = tmp_path / "c"
        with ExecutionEngine(cache=ResultCache(cache_dir), max_workers=1) as cold:
            first = run_experiments(["table2"], engine=cold, budget=BUDGET)
        with ExecutionEngine(cache=ResultCache(cache_dir), max_workers=1) as warm:
            second = run_experiments(["table2"], engine=warm, budget=BUDGET)
            assert warm.stats.executed == 0
            assert warm.stats.hit_rate == 1.0
        assert first[0].text == second[0].text  # byte-identical rendering


class TestSuiteHelpers:
    def test_suite_labels_share_engine_batches(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "0")
        monkeypatch.setenv("REPRO_WORKLOADS_PER_GROUP", "1")
        config = small_config(wrongpath_loads=False)
        with ExecutionEngine(cache=ResultCache(tmp_path / "c"), max_workers=1) as eng:
            artifact, = run_experiments(["fig4"], engine=eng, budget=BUDGET,
                                        configs={"a": config, "b": config})
            # 2 labels x (base, dmdc) x 2 workloads, but only 2 x 2 unique
            # design points, each simulated once, in one engine batch.
            assert eng.stats.requested == 8
            assert eng.stats.unique == eng.stats.executed == 4
        rows = {(r["config"], r["group"]): dict(r, config=None) for r in artifact.data["rows"]}
        assert rows[("a", "INT")] == rows[("b", "INT")]
        assert rows[("a", "FP")] == rows[("b", "FP")]
