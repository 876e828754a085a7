"""Benchmark harness support.

Each benchmark regenerates one table/figure of the paper through
:func:`repro.experiments.registry.run_experiment` (the one experiment
path: plan the artifact's design points, simulate them as one engine
batch, analyze and render), timed by pytest-benchmark (single round —
these are full experiment sweeps, not microbenchmarks).
Rendered tables are printed and archived under ``benchmarks/results/`` so
``pytest benchmarks/ --benchmark-only`` leaves the reproduced artifacts on
disk.

Scaling knobs (environment):

* ``REPRO_INSTRUCTIONS``       instructions per simulation (default 12000)
* ``REPRO_WORKLOADS_PER_GROUP`` suite subset size (default: all 26)
* ``REPRO_PARALLEL=0``          disable the process pool
"""

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def record_experiment(capsys):
    """Print and archive one experiment's rendered table."""

    def _record(exp_id: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{exp_id}.txt").write_text(text + "\n")
        with capsys.disabled():
            print()
            print(text)

    return _record


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under pytest-benchmark timing."""

    def _run(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)

    return _run
