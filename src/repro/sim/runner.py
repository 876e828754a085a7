"""Convenience entry points for running one workload on one machine."""

import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.isa.trace import Trace, validate_trace
from repro.sim.config import MachineConfig
from repro.sim.processor import Processor
from repro.sim.result import SimulationResult
from repro.sim.soa import KernelBuffers
from repro.workloads import workload_identity

#: Environment variable scaling every experiment's instruction budget.
INSTRUCTIONS_ENV = "REPRO_INSTRUCTIONS"
DEFAULT_INSTRUCTIONS = 12_000


def instruction_budget(default: Optional[int] = None) -> int:
    """Per-run committed-instruction budget for experiments.

    The paper simulates 100M-instruction SimPoints; a pure-Python model
    cannot, so experiments default to a budget that keeps the full harness
    in CI-friendly time while past the warm-up transient.  Set
    ``REPRO_INSTRUCTIONS`` to scale every experiment up or down at once.
    """
    # Budget scaling is recorded in every result row (instructions field),
    # so the profile already captures it.  # repro: noqa[REPRO011]
    value = os.environ.get(INSTRUCTIONS_ENV)  # repro: noqa[REPRO011]
    if value:
        try:
            parsed = int(value)
        except ValueError:
            raise ConfigError(
                f"{INSTRUCTIONS_ENV} must be an integer instruction count, "
                f"got {value!r}"
            ) from None
        return max(1_000, parsed)
    return default if default is not None else DEFAULT_INSTRUCTIONS


def run_trace(
    config: MachineConfig,
    trace: Trace,
    max_instructions: Optional[int] = None,
    seed: int = 1,
    validate: bool = False,
    prewarm: bool = True,
) -> SimulationResult:
    """Run ``trace`` to completion (or budget) on ``config``.

    ``prewarm`` functionally warms the front end (I-cache, predictor) so a
    short run measures steady-state behaviour; see
    :meth:`Processor.prewarm`.
    """
    if validate:
        validate_trace(trace)
    budget = max_instructions if max_instructions is not None else len(trace)
    processor = Processor(config, trace, seed=seed)
    if prewarm:
        processor.prewarm()
    return processor.run(budget)


def run_workload(
    config: MachineConfig,
    workload,
    max_instructions: Optional[int] = None,
    seed: int = 1,
) -> SimulationResult:
    """Generate a workload's trace and run it.

    ``workload`` is any object with ``generate(num_instructions) -> Trace``
    (see :mod:`repro.workloads`).  The trace is generated slightly longer
    than the budget so the pipeline never starves at the trace tail.
    """
    budget = max_instructions if max_instructions is not None else instruction_budget()
    trace = workload.generate(budget + 2_000)
    return run_trace(config, trace, max_instructions=budget, seed=seed)


def _resolve_workload(workload):
    """Accept a suite name, a WorkloadSpec, or a generate()-bearing object."""
    if hasattr(workload, "generate"):
        return workload
    from repro.workloads import SyntheticWorkload, get_workload

    if isinstance(workload, str):
        return get_workload(workload)
    return SyntheticWorkload(workload)


def run_many(requests: Sequence, prewarm: bool = True) -> List[SimulationResult]:
    """Run a batch of design points in request order, amortizing setup.

    Each request carries ``config`` (a :class:`MachineConfig`),
    ``workload`` (a suite name, a ``WorkloadSpec``, or a
    ``SyntheticWorkload``), ``budget`` (``None`` for the environment default)
    and ``seed`` — :class:`repro.exec.request.RunRequest` satisfies the
    protocol as-is.

    Batch-level amortization, behaviour-neutral per element:

    * one generated trace — and therefore one SoA column decode — per
      distinct (workload identity, budget) pair, where the identity is
      :func:`~repro.workloads.base.workload_identity`, the same one the
      result cache key hashes;
    * one slot-pool allocation per machine geometry, threaded between
      elements via ``Processor.soa_buffers``.

    Every element still gets a fresh :class:`Processor` with its own RNG
    stream, so results are bit-identical to calling :func:`run_workload`
    once per request and seeds cannot leak across batch elements.
    """
    results: List[SimulationResult] = []
    traces: Dict[Tuple[str, int], Trace] = {}
    buffers: Dict[int, Optional[KernelBuffers]] = {}
    for request in requests:
        config = request.config
        budget = request.budget
        if budget is None:
            budget = instruction_budget()
        trace_key = (workload_identity(request.workload), budget)
        trace = traces.get(trace_key)
        if trace is None:
            trace = _resolve_workload(request.workload).generate(budget + 2_000)
            traces[trace_key] = trace
        processor = Processor(config, trace, seed=request.seed)
        pool = config.rob_size + config.fetch_buffer + 8
        processor.soa_buffers = buffers.get(pool)
        if prewarm:
            processor.prewarm()
        results.append(processor.run(budget))
        if processor.soa_buffers is not None:
            buffers[pool] = processor.soa_buffers
    return results
