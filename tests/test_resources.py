"""Unit tests for functional units, physical registers, and DynInstr."""

import pytest

from repro.backend.dyninst import DynInstr, InstrState
from repro.backend.resources import FunctionalUnits, PhysRegFile
from repro.errors import ConfigError, SimulationError
from repro.isa.instruction import MicroOp
from repro.isa.opcodes import InstrClass


class TestFunctionalUnits:
    """The class tables the cycle kernel decodes a trace with."""

    def test_pool_limits(self):
        pool = FunctionalUnits._POOL_INDEX
        int_alu = pool[InstrClass.IALU]
        assert pool[InstrClass.LOAD] == int_alu   # loads share the int pool
        assert pool[InstrClass.STORE] == int_alu
        assert pool[InstrClass.BRANCH] == int_alu
        assert pool[InstrClass.IDIV] == pool[InstrClass.IMUL] != int_alu
        assert pool[InstrClass.FDIV] == pool[InstrClass.FMUL]
        assert pool[InstrClass.FALU] not in (int_alu, pool[InstrClass.FMUL])
        fus = FunctionalUnits(int_alu=2, int_muldiv=1, fp_alu=3, fp_muldiv=4)
        assert fus._caps_list == [2, 1, 3, 4]
        assert fus._avail_list == fus._caps_list
        assert fus._avail_list is not fus._caps_list

    def test_latencies(self):
        lat = FunctionalUnits.latency_by_cls
        assert len(lat) == len(InstrClass)
        assert lat[InstrClass.IALU] == 1
        assert lat[InstrClass.IDIV] > lat[InstrClass.IMUL]
        assert lat[InstrClass.FDIV] > lat[InstrClass.FMUL]

    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigError):
            FunctionalUnits(int_alu=0)


class TestPhysRegFile:
    def test_free_excludes_architectural(self):
        regs = PhysRegFile(total=34)  # 2 free beyond architectural
        assert regs.free == 2

    def test_release_returns_to_pool(self):
        regs = PhysRegFile(total=33)
        regs.free -= 1  # the dispatch stage allocates by decrementing
        regs.release()
        assert regs.free == 1

    def test_double_release_detected(self):
        regs = PhysRegFile(total=33)
        with pytest.raises(SimulationError):
            regs.release()

    def test_rejects_too_small(self):
        with pytest.raises(ConfigError):
            PhysRegFile(total=32)


class TestDynInstr:
    def _mk(self, cls=InstrClass.LOAD, **kw):
        uop = MicroOp(0x100, cls, mem_addr=kw.pop("addr", 0x80), mem_size=8,
                      dst=kw.pop("dst", 1))
        return DynInstr(uop, trace_idx=0, seq=5, fp_side=False)

    def test_initial_state(self):
        d = self._mk()
        assert d.state == InstrState.DISPATCHED
        assert d.resolve_cycle == -1
        assert d.true_violation_store == -1

    def test_flags_passthrough(self):
        assert self._mk(cls=InstrClass.LOAD).is_load
        d = DynInstr(MicroOp(0, InstrClass.BRANCH, taken=True, target=4), 0, 1, False)
        assert d.is_branch

    def test_addr_size_passthrough(self):
        d = self._mk(addr=0x88)
        assert d.addr == 0x88 and d.size == 8

    def test_repr(self):
        assert "LOAD" in repr(self._mk())
