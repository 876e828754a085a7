"""One experiment module per table/figure of the paper's evaluation.

Every module declares its labelled design points once (``points``),
turns their results into a plain dict of rows (``analyze``), and renders
the same table the paper prints (``render``).
:func:`repro.experiments.registry.run_experiments` is the one path that
plans, simulates and renders them; the benchmark harness under
``benchmarks/`` is a thin wrapper around it, and EXPERIMENTS.md records
paper-vs-measured for each artifact.
"""

from repro.experiments.common import by_group, mean, suite, suite_workloads

__all__ = [
    "by_group",
    "mean",
    "suite",
    "suite_workloads",
]
