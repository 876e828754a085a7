"""Trace-driven cycle-level out-of-order pipeline.

Models an 8-wide superscalar core in the style of SimpleScalar's
out-of-order simulator, as configured in the paper's Table 1:

* fetch through an I-cache with a combined bimodal/gshare predictor and
  BTB; fetch stalls at a mispredicted (or BTB-missing taken) branch and
  resumes ``branch_penalty`` cycles after the branch resolves — the
  standard trace-driven treatment of wrong-path execution.  Wrong-path
  *loads* still matter to the paper (they corrupt YLA), so their effect is
  injected by :class:`~repro.frontend.wrongpath.WrongPathModel`;
* rename/dispatch into ROB + split INT/FP issue queues + LQ/SQ, blocking
  on any full resource;
* oldest-first issue with functional-unit and D-cache-port bandwidth;
  loads issue speculatively past unresolved older stores, forward from the
  SQ, or are rejected and retried (POWER4-style);
* in-order commit; stores write the D-cache at commit;
* memory-ordering violations cause a squash-and-refetch from the violating
  load (execution-time for conventional schemes, commit-time for DMDC).

:class:`Processor` owns the machine's components and the one observer
slot (``Processor.tracer``); the cycle loop itself is
:class:`~repro.sim.soa.SoaKernel`, which every run uses.  A simulator-side
ground-truth checker flags every *true* premature load at store
resolution; any scheme that lets such a load retire un-replayed raises
:class:`~repro.errors.OrderingViolationMissed`.
The flags also feed DMDC's replay taxonomy (Tables 3/5 of the paper).

Performance: the kernel has an event-horizon skipper that jumps over
stretches of provably idle cycles (see ``docs/performance.md``).  It runs
with or without observers attached; only ``REPRO_NO_FASTPATH=1`` and a live
invalidation injector turn it off.  Results, timelines and observer output
are bit-identical either way (``tests/test_fastpath_equivalence.py``,
``tests/test_observers_fastpath.py``).
"""

import os
import time
from typing import Callable, Optional

from repro.backend.resources import FunctionalUnits, PhysRegFile
from repro.coherence.injector import InvalidationInjector
from repro.core.schemes import build_scheme
from repro.core.storesets import StoreSetPredictor
from repro.errors import SimulationError
from repro.frontend.branch_predictor import CombinedPredictor
from repro.frontend.wrongpath import WrongPathModel
from repro.isa.trace import Trace
from repro.mem.hierarchy import MemoryHierarchy
from repro.sim.config import MachineConfig
from repro.sim.result import SimulationResult
from repro.sim.soa import SoaKernel
from repro.stats.counters import CounterSet
from repro.utils.rng import DeterministicRng

#: Environment escape hatch: set to any non-empty value to force every
#: cycle to be stepped individually (used by the equivalence tests).
NO_FASTPATH_ENV = "REPRO_NO_FASTPATH"


class Processor:
    """One core running one trace under one dependence-checking scheme."""

    def __init__(self, config: MachineConfig, trace: Trace, seed: int = 1):
        self.config = config
        self.trace = trace
        self.rng = DeterministicRng(seed, f"proc:{trace.name}")

        self.predictor = CombinedPredictor(
            bimodal_entries=config.bimodal_entries,
            gshare_entries=config.gshare_entries,
            history_bits=config.gshare_history,
            meta_entries=config.meta_entries,
            btb_entries=config.btb_entries,
            btb_assoc=config.btb_assoc,
        )
        self.memory = MemoryHierarchy(
            config.l1i_config(), config.l1d_config(), config.l2_config(),
            config.memory_latency,
        )
        self.fus = FunctionalUnits(
            config.int_alu, config.int_muldiv, config.fp_alu, config.fp_muldiv
        )
        self.regs_int = PhysRegFile(config.regs_int)
        self.regs_fp = PhysRegFile(config.regs_fp)
        self.scheme = build_scheme(config.scheme, config)
        self.wrongpath = WrongPathModel(
            self.rng.child("wrongpath"),
            mean_loads_per_mispredict=config.wrongpath_mean_loads,
            enabled=config.wrongpath_loads,
        )
        self.storesets = StoreSetPredictor() if config.scheme.store_sets else None
        self.invalidations = InvalidationInjector(
            self.rng.child("invalidations"),
            config.invalidation_rate,
            config.l2_line_bytes,
        )

        self.cycle = 0
        self.committed = 0
        self.counters = CounterSet()
        self._checking_cycles = 0
        #: Idle cycles jumped over by the fast path (diagnostic only —
        #: deliberately NOT a counter, so results stay bit-identical with
        #: the fast path disabled).
        self.fast_forwarded_cycles = 0
        #: Whether the idle-cycle skipper runs: off via env, and off
        #: whenever the invalidation injector is live (it draws from the
        #: RNG every cycle, so skipped cycles would change the random
        #: stream).  Observers never turn it off: it skips only cycles in
        #: which no event can fire.  Bench provenance reads it per row.
        # repro: noqa[REPRO011] — a debug kill-switch, deliberately outside
        # EngineOptions: it must work even when options plumbing is what
        # is being debugged, and bench.py reports it alongside the knobs.
        self.fastpath_enabled = (  # repro: noqa[REPRO011]
            not os.environ.get(NO_FASTPATH_ENV)
            and not self.invalidations.enabled
        )
        #: The one observer slot: any object with
        #: ``record(kind, instr, cycle, detail="")`` receives every event
        #: kind in :data:`repro.obs.events.EVENT_KINDS` — pipeline stages
        #: and site-tagged replays from the kernel, filter/window/table
        #: events from the scheme.  A
        #: :class:`~repro.sim.pipetrace.PipelineTracer` or an
        #: :class:`~repro.obs.recorder.ObservabilityRecorder`; every emit
        #: site is an ``is None`` test, so it costs nothing when unset.
        self.tracer = None
        #: Reusable slot-pool buffers: ``run_many`` seeds them so
        #: same-geometry batch elements share one allocation; otherwise
        #: :meth:`run` fills them.
        self.soa_buffers = None
        #: The kernel of this processor's run, kept for inspection
        #: (:mod:`repro.sim.validate`); None until :meth:`run`.
        self.kernel: Optional[SoaKernel] = None
        #: Which cycle loop ran.  There is one, so this is constant; it
        #: stays because the benchmark's traced run reads it.
        self.kernel_used = "soa"

    # ==================================================================
    # Public driver
    # ==================================================================
    def prewarm(self, instructions: Optional[int] = None) -> None:
        """Functionally warm the I-cache, L2 code lines, and branch predictor.

        The paper measures 100M-instruction SimPoints where front-end
        structures are in steady state; short Python-scale runs would
        otherwise spend most of their cycles on cold code misses.  Data
        caches are deliberately *not* prewarmed — data-stream misses are a
        real steady-state effect the timing run must see.
        """
        n = len(self.trace) if instructions is None else min(instructions, len(self.trace))
        predictor = self.predictor
        memory = self.memory
        btb_install = predictor.btb.install
        for uop in self.trace.ops[:n]:
            memory.fetch(uop.pc)
            if uop.is_branch:
                _, snapshot = predictor.predict(uop.pc)
                predictor.resolve(uop.pc, uop.taken, snapshot)
                if uop.taken:
                    btb_install(uop.pc, uop.target)
        # The warm-up should not leak into reported statistics.
        memory.l1i.hits = memory.l1i.misses = memory.l1i.evictions = 0
        memory.l2.hits = memory.l2.misses = memory.l2.evictions = 0
        predictor.lookups = 0
        predictor.mispredictions = 0
        predictor.btb.hits = predictor.btb.misses = 0

    def run(self, max_instructions: int, max_cycles: Optional[int] = None,
            on_cycle: Optional[Callable[[int], None]] = None) -> SimulationResult:
        """Simulate until ``max_instructions`` commit (or trace/cycles end).

        A processor runs once: a second call raises
        :class:`~repro.errors.SimulationError` rather than continue from
        the state the first run left behind.  ``on_cycle`` is called with
        the cycle number at the end of every stepped cycle.
        """
        if self.kernel is not None:
            raise SimulationError(
                f"Processor.run called twice on {self.trace.name}; "
                f"build a fresh Processor for every run")
        if max_cycles is None:
            max_cycles = max(200_000, max_instructions * 60)
        target = min(max_instructions, len(self.trace))
        # Kernel construction (trace column decode, slot-pool allocation)
        # happens before the clock starts: like trace generation it is
        # per-trace setup amortised across runs, not cycle-loop work, and
        # ``sim_seconds`` is defined as the cost of the cycle loop alone.
        kernel = self.kernel = SoaKernel(self, self.soa_buffers)
        self.soa_buffers = kernel.b
        # Wall-clock is measurement-only (sim_seconds for the perf harness);
        # it never feeds back into simulated state.
        t0 = time.perf_counter()  # repro: noqa[REPRO001]
        kernel.run(target, max_cycles, on_cycle)
        sim_seconds = time.perf_counter() - t0  # repro: noqa[REPRO001]
        kernel.release()
        self.scheme.finalize(self.cycle)
        result = self._build_result()
        result.sim_seconds = sim_seconds
        return result

    # ==================================================================
    # Results
    # ==================================================================
    def _build_result(self) -> SimulationResult:
        self.counters["cycles"] = self.cycle
        self.counters["checking.cycles_observed"] = self._checking_cycles
        kernel = self.kernel
        self.counters["lq.searches_assoc"] = kernel.lq_searches
        self.counters["lq.searches_filtered"] = kernel.lq_searches_filtered
        self.counters["lq.inv_searches"] = kernel.lq_inv_searches
        self.counters["sq.searches_assoc"] = kernel.sq_searches
        self.counters["sq.searches_filtered_age"] = kernel.sq_searches_filtered
        self.counters["bpred.mispredicts"] = self.predictor.mispredictions
        self.counters["wrongpath.loads"] = self.wrongpath.injected
        if self.storesets is not None:
            self.counters["storesets.violations_recorded"] = self.storesets.violations_recorded
            self.counters["storesets.merges"] = self.storesets.merges
        self.counters["dcache.accesses"] = self.memory.l1d.accesses
        self.counters["dcache.misses"] = self.memory.l1d.misses
        self.counters["icache.accesses"] = self.memory.l1i.accesses
        self.counters["icache.misses"] = self.memory.l1i.misses
        self.counters["l2.accesses"] = self.memory.l2.accesses
        self.counters["l2.misses"] = self.memory.l2.misses
        self.scheme.collect()
        self.counters.merge(self.scheme.stats)
        return SimulationResult(
            workload=self.trace.name,
            group=self.trace.group,
            config_name=self.config.name,
            scheme_name=self.scheme.name,
            cycles=self.cycle,
            committed=self.committed,
            counters=self.counters,
            window_instrs=self.scheme.window_instrs,
            window_loads=self.scheme.window_loads,
            window_safe_loads=self.scheme.window_safe_loads,
            window_unsafe_stores=self.scheme.window_unsafe_stores,
        )
