"""Structural invariant checking for the pipeline.

:func:`check_invariants` inspects the live cycle kernel of a
:class:`~repro.sim.processor.Processor` (``processor.kernel``) and raises
:class:`~repro.errors.SimulationError` on any violated structural
property.  The checks are independent of the timing model — they express
what a correct out-of-order machine can never do — and are used by the
test suite (and available for debugging via ``run_with_validation``,
which runs them from the kernel's per-cycle callback).
"""

from repro.backend.dyninst import InstrState
from repro.errors import SimulationError
from repro.sim.processor import Processor

_COMMITTED = int(InstrState.COMMITTED)
_SQUASHED = int(InstrState.SQUASHED)


def check_invariants(proc: Processor) -> None:
    """Raise on the first violated structural invariant."""
    k = proc.kernel
    if k is None:
        raise SimulationError("no kernel state to check: the processor has not run")
    _check_age_order(k)
    _check_queue_membership(k)
    _check_iq_accounting(proc, k)
    _check_register_accounting(proc, k)
    _check_rename_consistency(k)
    _check_commit_boundary(k)


def _check_age_order(k) -> None:
    """ROB, LQ and SQ are age-ordered queues."""
    for name, queue in (("ROB", k.rob), ("LQ", k.lq), ("SQ", k.sq)):
        ages = [k.seq[slot] for slot in queue]
        if ages != sorted(ages):
            raise SimulationError(f"{name} not age-ordered: {ages}")


def _check_queue_membership(k) -> None:
    """Every LQ/SQ entry is an un-squashed memory op present in the ROB,
    and the SQ's side tables (age index, unresolved count) match it."""
    rob = set(k.rob)
    for slot in k.lq:
        if not k.isld[slot] or k.state[slot] == _SQUASHED or slot not in rob:
            raise SimulationError(f"stale LQ entry: slot {slot} seq {k.seq[slot]}")
    for slot in k.sq:
        if not k.isst[slot] or k.state[slot] == _SQUASHED or slot not in rob:
            raise SimulationError(f"stale SQ entry: slot {slot} seq {k.seq[slot]}")
    if k.sq_by_seq != {k.seq[slot]: slot for slot in k.sq}:
        raise SimulationError("SQ age index out of step with the SQ")
    unresolved = sum(1 for slot in k.sq if k.rcyc[slot] < 0)
    if unresolved != k.sq_unresolved:
        raise SimulationError(
            f"SQ unresolved count drift: counted {k.sq_unresolved}, "
            f"held {unresolved}")


def _check_iq_accounting(proc: Processor, k) -> None:
    """Issue-queue occupancy counters match the instructions that hold
    entries (dispatched, not yet issued)."""
    held = [slot for slot in k.rob if k.icyc[slot] < 0]
    fp_held = sum(1 for slot in held if k.fp[slot])
    int_held = len(held) - fp_held
    if int_held != k.iq_int or fp_held != k.iq_fp:
        raise SimulationError(
            f"IQ accounting drift: counted {k.iq_int}/{k.iq_fp}, "
            f"held {int_held}/{fp_held}"
        )
    if k.iq_int > proc.config.iq_int or k.iq_fp > proc.config.iq_fp:
        raise SimulationError("IQ over capacity")


def _dst(k, slot) -> int:
    return k.t.dst[k.tidx[slot]]


def _check_register_accounting(proc: Processor, k) -> None:
    """Physical registers in flight equal those missing from the free lists."""
    dsts = [_dst(k, slot) for slot in k.rob]
    int_used = sum(1 for d in dsts if 0 <= d < 32)
    fp_used = sum(1 for d in dsts if d >= 32)
    int_free_expected = proc.regs_int.total - 32 - int_used
    fp_free_expected = proc.regs_fp.total - 32 - fp_used
    if proc.regs_int.free != int_free_expected or proc.regs_fp.free != fp_free_expected:
        raise SimulationError(
            f"register leak: free {proc.regs_int.free}/{proc.regs_fp.free}, "
            f"expected {int_free_expected}/{fp_free_expected}"
        )


def _check_rename_consistency(k) -> None:
    """The rename table points at the youngest in-flight writer of each reg."""
    youngest = {}
    for slot in k.rob:
        dst = _dst(k, slot)
        if dst >= 0:
            youngest[dst] = k.seq[slot] << k.pbits | slot
    for reg, enc in enumerate(k.rename):
        if enc < 0:
            continue
        slot = enc & k.pmask
        if k.seq[slot] != enc >> k.pbits or k.state[slot] == _SQUASHED:
            raise SimulationError(f"rename[{reg}] points at a squashed instruction")
        if youngest.get(reg) != enc:
            raise SimulationError(
                f"rename[{reg}] is seq {enc >> k.pbits}, youngest writer is "
                f"{youngest.get(reg, -1) >> k.pbits}"
            )


def _check_commit_boundary(k) -> None:
    """Nothing in the ROB has committed; everything committed left the ROB."""
    for slot in k.rob:
        if k.state[slot] == _COMMITTED:
            raise SimulationError(f"committed instruction still in ROB: seq {k.seq[slot]}")
        if k.state[slot] == _SQUASHED:
            raise SimulationError(f"squashed instruction still in ROB: seq {k.seq[slot]}")


def run_with_validation(proc: Processor, max_instructions: int,
                        every_cycles: int = 1):
    """Run ``proc``, checking invariants every ``every_cycles`` cycles."""

    def check(cycle: int) -> None:
        if cycle % every_cycles == 0:
            check_invariants(proc)

    return proc.run(max_instructions, on_cycle=check)
