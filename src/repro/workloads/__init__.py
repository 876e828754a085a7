"""Synthetic workloads standing in for SPEC CPU2000.

The paper evaluates on all 26 SPEC CPU2000 benchmarks, which are not
redistributable and would be unrunnable on a Python-speed model anyway.
Each benchmark is replaced by a deterministic synthetic generator
(:class:`~repro.workloads.base.SyntheticWorkload`) whose parameters match
the *qualitative properties the studied mechanisms are sensitive to*:
instruction mix, branch predictability, working-set size and spatial
locality, store-address resolution delay (the driver of unsafe stores),
and store-to-load aliasing distance.  See DESIGN.md for the substitution
rationale.
"""

from repro.workloads.base import SyntheticWorkload, WorkloadSpec, workload_identity
from repro.workloads.suite import (
    SUITE,
    INT_WORKLOADS,
    FP_WORKLOADS,
    get_workload,
    group_of,
    suite_subset,
)

__all__ = [
    "SyntheticWorkload",
    "WorkloadSpec",
    "SUITE",
    "INT_WORKLOADS",
    "FP_WORKLOADS",
    "get_workload",
    "group_of",
    "suite_subset",
    "workload_identity",
]
