"""Orchestrator + resume semantics (PR: design-space autopilot).

The headline guarantee (issue satellite): kill a sweep mid-grid, re-run
it, and the completed points are served from the ledger without
re-simulation — with the final ledger and report **bit-identical** to an
uninterrupted run.  ``limit=`` models the kill deterministically.
"""

import json

import pytest

from repro.cli import main
from repro.exec.engine import ExecutionEngine
from repro.sweeps import (
    GridSpec,
    SweepError,
    get_preset,
    run_sweep,
    validate_report_payload,
)

BUDGET = 600


def small_grid() -> GridSpec:
    return GridSpec(
        name="autopilot-test",
        axes={"scheme": ["dmdc"], "table": [256, 512],
              "workload": ["gzip", "mcf"]},
        base={"instructions": BUDGET, "seed": 1},
        baseline="conventional",
    )


class TestRunSweepLocal:
    def test_completes_the_grid_and_accounts_for_it(self, tmp_path):
        engine = ExecutionEngine(max_workers=1)
        outcome = run_sweep(small_grid(), engine=engine,
                            ledger=str(tmp_path / "sweep.jsonl"))
        acct = outcome.accounting
        assert outcome.complete
        assert len(outcome.entries) == 6  # 4 candidates + 2 baselines
        assert [e["key"] for e in outcome.entries] == outcome.keys
        assert acct.mode == "local[1]"
        assert acct.total_points == 6
        assert acct.baseline_points == 2
        assert acct.submitted == acct.executed == 6
        assert acct.hit_rate == 0.0
        assert acct.from_ledger == 0
        assert "simulated 6" in acct.format_block()
        assert acct.as_dict()["executed"] == 6

    def test_progress_reports_every_point(self):
        seen = []
        engine = ExecutionEngine(max_workers=1)
        run_sweep(small_grid(), engine=engine,
                  progress=lambda done, total, point, source:
                  seen.append((done, total, source)))
        assert [done for done, _, _ in seen] == list(range(1, 7))
        assert all(total == 6 for _, total, _ in seen)
        assert all(source in ("run", "memo", "cache") for _, _, source in seen)

    def test_borrowed_engine_survives_the_sweep(self):
        previous_calls = []

        def previous(*args):
            previous_calls.append(args)

        engine = ExecutionEngine(max_workers=1, progress=previous)
        expansion = small_grid().expand()
        engine.run(expansion.requests[:1])  # one point the memo will serve
        closed = []
        engine.close = lambda: closed.append(True)
        before = (engine.stats.executed, engine.stats.memo_hits,
                  engine.stats.disk_hits)
        del previous_calls[:]
        sources = []
        outcome = run_sweep(expansion, engine=engine,
                            progress=lambda done, total, point, source:
                            sources.append(source))
        assert outcome.complete
        assert closed == []  # the caller's engine is left open
        assert engine.progress is previous
        assert len(previous_calls) == 6  # chained while the sweep ran
        acct = outcome.accounting
        assert (acct.executed, acct.memo_hits, acct.disk_hits) == (
            engine.stats.executed - before[0],
            engine.stats.memo_hits - before[1],
            engine.stats.disk_hits - before[2])
        assert (acct.executed, acct.memo_hits) == (5, 1)
        assert sources.count("memo") == 1
        assert all(source in ("run", "memo", "cache") for source in sources)
        assert acct.workers[0]["executed"] == acct.executed

    def test_works_without_a_ledger(self):
        engine = ExecutionEngine(max_workers=1)
        outcome = run_sweep(small_grid(), engine=engine)
        assert outcome.complete and outcome.ledger_path is None

    def test_report_over_the_outcome(self):
        engine = ExecutionEngine(max_workers=1)
        outcome = run_sweep(small_grid(), engine=engine)
        report = outcome.report()
        assert report.baseline == "conventional"
        assert len(report.rows) == 6
        text = report.render()
        assert "dmdc-table256" in text and "(baseline)" in text
        assert validate_report_payload(report.to_dict()) == []

    def test_backend_arguments_are_validated(self):
        with pytest.raises(SweepError, match="not both"):
            run_sweep(small_grid(), engine=ExecutionEngine(max_workers=1),
                      workers=[object()])
        with pytest.raises(SweepError, match="window"):
            run_sweep(small_grid(), window=0,
                      engine=ExecutionEngine(max_workers=1))


class TestResume:
    def test_killed_sweep_resumes_without_resimulating(self, tmp_path):
        """The satellite's scenario, end to end."""
        straight = str(tmp_path / "straight.jsonl")
        resumed = str(tmp_path / "resumed.jsonl")

        # The uninterrupted reference run.
        reference = run_sweep(small_grid(),
                              engine=ExecutionEngine(max_workers=1),
                              ledger=straight)
        assert reference.complete

        # "Kill" the orchestrator after 2 of 6 points.
        first = run_sweep(small_grid(), engine=ExecutionEngine(max_workers=1),
                          ledger=resumed, limit=2)
        assert not first.complete
        assert first.accounting.executed == 2
        assert len(first.entries) == 2

        # Re-run with a FRESH engine: nothing but the ledger can serve
        # the finished points.
        engine = ExecutionEngine(max_workers=1)
        sources = []
        second = run_sweep(small_grid(), engine=engine, ledger=resumed,
                           progress=lambda done, total, point, source:
                           sources.append(source))
        assert second.complete
        assert second.accounting.from_ledger == 2
        assert second.accounting.submitted == 4
        assert second.accounting.executed == 4
        assert engine.stats.executed == 4  # completed points never re-ran
        assert sources[:2] == ["ledger", "ledger"]

        # Interrupted + resumed ledger is byte-identical to the straight
        # run, and so is the report artifact.
        assert open(resumed, "rb").read() == open(straight, "rb").read()
        assert second.report().to_dict() == reference.report().to_dict()

    def test_rerunning_a_complete_sweep_is_free(self, tmp_path):
        ledger = str(tmp_path / "sweep.jsonl")
        run_sweep(small_grid(), engine=ExecutionEngine(max_workers=1),
                  ledger=ledger)
        engine = ExecutionEngine(max_workers=1)
        again = run_sweep(small_grid(), engine=engine, ledger=ledger)
        assert again.complete
        assert again.accounting.from_ledger == 6
        assert again.accounting.submitted == 0
        assert again.accounting.executed == 0
        assert again.accounting.hit_rate == 1.0
        assert engine.stats.requested == 0

    def test_changed_grid_refuses_the_old_ledger(self, tmp_path):
        from repro.sweeps import LedgerError
        ledger = str(tmp_path / "sweep.jsonl")
        run_sweep(small_grid(), engine=ExecutionEngine(max_workers=1),
                  ledger=ledger, limit=1)
        other = small_grid()
        other.base["instructions"] = BUDGET + 1
        with pytest.raises(LedgerError, match="does not match"):
            run_sweep(other, engine=ExecutionEngine(max_workers=1),
                      ledger=ledger)


class TestCli:
    def _sweep(self, tmp_path, *extra):
        argv = ["sweep", "--axis", "scheme=dmdc", "--axis", "table=256,512",
                "--workload", "gzip", "--instructions", str(BUDGET),
                "--baseline", "conventional", "--name", "cli-test",
                "--no-cache", "--jobs", "1", "--quiet",
                "--ledger", str(tmp_path / "cli.jsonl")]
        return main(argv + list(extra))

    def test_end_to_end_with_artifact(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert self._sweep(tmp_path, "--json-out", str(out)) == 0
        stdout = capsys.readouterr().out
        assert "hit rate" in stdout
        assert "sweep report: cli-test" in stdout
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1 and payload["complete"]
        assert payload["accounting"]["executed"] == 3
        assert validate_report_payload(payload["report"]) == []

    def test_second_invocation_serves_from_the_ledger(self, tmp_path, capsys):
        assert self._sweep(tmp_path) == 0
        capsys.readouterr()
        assert self._sweep(tmp_path) == 0
        stdout = capsys.readouterr().out
        assert "ledger 3 | submitted 0 | simulated 0" in stdout
        assert "hit rate 100.0%" in stdout

    def test_limit_reports_incomplete_with_resume_hint(self, tmp_path, capsys):
        assert self._sweep(tmp_path, "--limit", "1") == 0
        stdout = capsys.readouterr().out
        assert "sweep incomplete: 1/3" in stdout
        assert "--ledger" in stdout

    def test_list_presets(self, capsys):
        assert main(["sweep", "--list-presets"]) == 0
        stdout = capsys.readouterr().out
        for name in ("demo64", "ci-smoke", "width-scaling"):
            assert name in stdout

    def test_bad_grid_exits_2(self, capsys):
        assert main(["sweep", "--axis", "bogus=1", "--quiet"]) == 2
        assert "unknown axis" in capsys.readouterr().err

    def test_preset_and_axes_conflict_exits_2(self, capsys):
        assert main(["sweep", "--preset", "ci-smoke", "--axis",
                     "table=256", "--quiet"]) == 2
        assert "not both" in capsys.readouterr().err


class TestPresetSmoke:
    def test_ci_smoke_preset_runs_end_to_end(self, tmp_path):
        outcome = run_sweep(get_preset("ci-smoke"),
                            engine=ExecutionEngine(max_workers=1),
                            ledger=str(tmp_path / "ci.jsonl"))
        assert outcome.complete
        report = outcome.report()
        assert report.baseline == "conventional"
        assert validate_report_payload(report.to_dict()) == []
