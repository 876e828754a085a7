"""Dynamic (in-flight) instruction state, as observers see it.

The cycle kernel (:mod:`repro.sim.soa`) keeps every in-flight instruction
as a *slot* in parallel arrays.  Observers — the pipeline tracer, the
observability recorder, the sanitizer's shadow oracle — instead receive a
:class:`DynInstr`: one fetched instance of a trace micro-op with the slot
fields they read, built only when an observer is attached.  The same
micro-op can be in flight multiple times across replays; each instance
gets a fresh, strictly increasing ``seq`` — the *age* that every mechanism
in the paper compares (YLA registers, end-check register, squash points).
"""

import enum

from repro.isa.instruction import MicroOp


class InstrState(enum.IntEnum):
    DISPATCHED = 0   # in ROB/IQ, waiting for operands
    READY = 1        # operands available, waiting for issue bandwidth
    ISSUED = 2       # executing / waiting on memory
    COMPLETED = 3    # result produced, waiting for in-order commit
    COMMITTED = 4
    SQUASHED = 5


class DynInstr:
    """One in-flight instance of a micro-op (an observer's view of a slot)."""

    __slots__ = (
        "uop",
        "trace_idx",
        "seq",
        "state",
        "fp_side",
        # static facts copied out of the micro-op once
        "is_load",
        "is_store",
        "is_branch",
        "addr",
        "size",
        # timing
        "dispatch_cycle",
        "issue_cycle",
        "resolve_cycle",
        # memory behaviour
        "forward_store_seq",
        "true_violation_store",
    )

    def __init__(self, uop: MicroOp, trace_idx: int, seq: int, fp_side: bool):
        self.uop = uop
        self.trace_idx = trace_idx
        self.seq = seq
        self.state = InstrState.DISPATCHED
        self.fp_side = fp_side
        self.is_load = uop.is_load
        self.is_store = uop.is_store
        self.is_branch = uop.is_branch
        self.addr = uop.mem_addr
        self.size = uop.mem_size
        self.dispatch_cycle = self.issue_cycle = self.resolve_cycle = -1
        self.forward_store_seq = self.true_violation_store = -1

    def __repr__(self) -> str:
        return (
            f"<DynInstr seq={self.seq} {self.uop.cls.name} state={self.state.name}"
            f" pc={self.uop.pc:#x}>"
        )
