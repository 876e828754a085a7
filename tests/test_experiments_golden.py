"""Golden outputs of all 17 paper experiments, pinned in a file.

``tests/golden/experiments_golden.json`` freezes, for every experiment id,
the JSON of its data (``sort_keys=True``) and its rendered table.  The
runs use two workloads per group, so a change in the order a mean, a
minimum or a maximum folds its values shows up here.  Settings: two
workloads per group, serial, budget 1500, no disk cache.

Regenerate deliberately (never to make a failure go away)::

    PYTHONPATH=src python -m tests.test_experiments_golden --write
"""

import json
import os
import sys
from pathlib import Path

import pytest

from repro.exec.engine import ExecutionEngine
from repro.experiments.registry import EXPERIMENTS, run_experiments

GOLDEN = Path(__file__).parent / "golden" / "experiments_golden.json"

BUDGET = 1500
ENV = {"REPRO_WORKLOADS_PER_GROUP": "2", "REPRO_PARALLEL": "0"}


def _live():
    with ExecutionEngine(cache=None, max_workers=1) as engine:
        artifacts = run_experiments(list(EXPERIMENTS), engine=engine, budget=BUDGET)
    return {a.id: {"data": json.dumps(a.data, sort_keys=True), "text": a.text}
            for a in artifacts}


@pytest.fixture(scope="module")
def live():
    saved = {name: os.environ.get(name) for name in ENV}
    os.environ.update(ENV)
    try:
        yield _live()
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_every_experiment_is_pinned(live, golden):
    assert sorted(live) == sorted(golden) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("exp_id", sorted(EXPERIMENTS))
def test_experiment_matches_golden(live, golden, exp_id):
    assert live[exp_id]["data"] == golden[exp_id]["data"], f"{exp_id} data drifted"
    assert live[exp_id]["text"] == golden[exp_id]["text"], f"{exp_id} rendering drifted"


def _write() -> None:
    os.environ.update(ENV)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_live(), sort_keys=True, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_experiments_golden --write")
    _write()
