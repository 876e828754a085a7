"""Shared experiment machinery: labelled suite points and group averages.

Experiments run the whole 26-workload suite for each design point.  A
module names its points once, as ``{label: {workload: RunRequest}}``
(:func:`suite` builds that shape for a set of labelled configurations);
:mod:`repro.experiments.registry` runs the union of every requested
experiment's points through the process-wide
:class:`~repro.exec.ExecutionEngine` in one batch and hands each module
the results in the same shape.

Knobs: worker count, cache location, and cache enablement are fields of
:class:`repro.exec.EngineOptions` (their environment-variable defaults
are documented — and read — only in :mod:`repro.exec.options`);
``REPRO_WORKLOADS_PER_GROUP=n`` sweeps a suite subset while iterating.
"""

import os
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence

from repro.exec.request import RunRequest
from repro.sim.config import MachineConfig
from repro.sim.result import SimulationResult
from repro.sim.runner import instruction_budget
from repro.workloads import FP_WORKLOADS, INT_WORKLOADS

#: ``{label: {workload name: request}}`` — one experiment's design points.
Points = Dict[str, Dict[str, RunRequest]]
#: The same shape with each request replaced by its result.
Sweeps = Dict[str, Dict[str, SimulationResult]]


def suite_workloads() -> List[str]:
    """Workload names for experiments (full suite unless subset requested)."""
    # Suite-size trim is a harness knob, not an engine option: it picks
    # which experiments run, never how any single run behaves.
    per_group = os.environ.get("REPRO_WORKLOADS_PER_GROUP")  # repro: noqa[REPRO011]
    if per_group:
        n = max(1, int(per_group))
        return INT_WORKLOADS[:n] + FP_WORKLOADS[:n]
    return INT_WORKLOADS + FP_WORKLOADS


def suite(configs: Dict[str, MachineConfig], budget: Optional[int] = None) -> Points:
    """Every suite workload under each labelled configuration."""
    names = suite_workloads()
    budget = budget if budget is not None else instruction_budget()
    return {
        label: {name: RunRequest(config, name, budget) for name in names}
        for label, config in configs.items()
    }


def by_group(results: Dict[str, SimulationResult],
             sample: Callable[[str, SimulationResult], Optional[Dict[str, float]]],
             ) -> Dict[str, Dict[str, List[float]]]:
    """Per-workload metric samples bucketed by INT/FP group.

    ``sample(name, result)`` returns one workload's metric values, or
    ``None`` to leave the workload out.  Groups keep first-seen order and
    each metric keeps workload order, so :func:`mean`, ``min`` and
    ``max`` over a bucket fold the values in suite order.
    """
    groups: Dict[str, Dict[str, List[float]]] = {}
    for name, result in results.items():
        values = sample(name, result)
        if values is None:
            continue
        bucket = groups.setdefault(result.group, defaultdict(list))
        for metric, value in values.items():
            bucket[metric].append(value)
    return groups


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean, 0.0 for no values."""
    return sum(values) / len(values) if values else 0.0
