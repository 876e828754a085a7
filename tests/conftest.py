"""Shared fixtures and trace-building helpers for the test suite."""

from collections import deque

import pytest

from repro.backend.dyninst import DynInstr
from repro.isa.instruction import MicroOp
from repro.isa.opcodes import InstrClass
from repro.isa.trace import Trace
from repro.sim.config import MachineConfig, SchemeConfig, small_config


class TraceBuilder:
    """Fluent helper for hand-crafting traces in tests.

    Registers 28-31 are never written (always-ready base pointers), so
    ``srcs=(28,)`` means "ready at dispatch".
    """

    def __init__(self, name: str = "crafted", group: str = "INT"):
        self.trace = Trace(name, group=group)
        self._pc = 0x1000

    def _next_pc(self) -> int:
        pc = self._pc
        self._pc += 4
        return pc

    def alu(self, dst=1, srcs=(28,), cls=InstrClass.IALU):
        self.trace.append(MicroOp(self._next_pc(), cls, srcs=tuple(srcs), dst=dst))
        return self

    def load(self, addr, dst=2, srcs=(28,), size=8):
        self.trace.append(
            MicroOp(self._next_pc(), InstrClass.LOAD, srcs=tuple(srcs), dst=dst,
                    mem_addr=addr, mem_size=size)
        )
        return self

    def store(self, addr, srcs=(28,), data_src=29, size=8):
        self.trace.append(
            MicroOp(self._next_pc(), InstrClass.STORE, srcs=tuple(srcs),
                    mem_addr=addr, mem_size=size, data_src=data_src)
        )
        return self

    def branch(self, taken=False, srcs=(28,), pc=None):
        branch_pc = pc if pc is not None else self._next_pc()
        self.trace.append(
            MicroOp(branch_pc, InstrClass.BRANCH, srcs=tuple(srcs),
                    taken=taken, target=self._pc + 4)
        )
        return self

    def fill(self, n, dst_base=3):
        """Append n independent single-cycle ALU ops."""
        for i in range(n):
            self.alu(dst=dst_base + (i % 8))
        return self

    def build(self) -> Trace:
        return self.trace


class ColumnTable:
    """The cycle kernel's slot columns, filled by hand.

    A scheme's hook set (``scheme.soa_hooks(table)``) reads exactly these
    columns, queues and tallies from the kernel, so unit tests can drive
    hooks with crafted loads and stores and no pipeline around them.
    Every ``load``/``store``/``alu`` call takes the next free slot; queue
    membership (``lq``, ``sq``, ``rob``) is left to the test.
    """

    def __init__(self, pool: int = 64, line_bytes: int = 128):
        self.seq = [-1] * pool
        self.tidx = [0] * pool
        self.state = [0] * pool
        self.addr = [0] * pool
        self.size = [0] * pool
        self.icyc = [-1] * pool
        self.rcyc = [-1] * pool
        self.isld = [False] * pool
        self.isst = [False] * pool
        self.fp = [False] * pool
        self.safe = [False] * pool
        self.gbp = [False] * pool
        self.unsafe = [False] * pool
        self.wend = [-1] * pool
        self.tvs = [-1] * pool
        self.fwdseq = [-1] * pool
        self.pdata = [0] * pool
        self.rob: deque = deque()
        self.lq: deque = deque()
        self.sq: deque = deque()
        self.line_bytes = line_bytes
        self.lq_searches = 0
        self.lq_searches_filtered = 0
        self.lq_inv_searches = 0
        self.ops = []
        self.tracer = None

    def _slot(self, uop: MicroOp, seq: int) -> int:
        slot = len(self.ops)
        self.ops.append(uop)
        self.tidx[slot] = slot
        self.seq[slot] = seq
        self.isld[slot] = uop.is_load
        self.isst[slot] = uop.is_store
        if uop.mem_addr is not None:
            self.addr[slot] = uop.mem_addr
            self.size[slot] = uop.mem_size
        return slot

    def load(self, seq, addr, size=8, issue_cycle=1, safe=False) -> int:
        """A load slot; ``issue_cycle=-1`` leaves it un-issued."""
        slot = self._slot(MicroOp(0x200, InstrClass.LOAD, mem_addr=addr,
                                  mem_size=size, dst=2), seq)
        self.icyc[slot] = issue_cycle
        self.safe[slot] = safe
        return slot

    def store(self, seq, addr, size=8, resolve_cycle=-1) -> int:
        """A store slot; ``resolve_cycle`` >= 0 marks its address resolved."""
        slot = self._slot(MicroOp(0x100, InstrClass.STORE, mem_addr=addr,
                                  mem_size=size, data_src=1), seq)
        self.icyc[slot] = self.rcyc[slot] = resolve_cycle
        return slot

    def alu(self, seq) -> int:
        return self._slot(MicroOp(0x300, InstrClass.IALU, srcs=(28,), dst=3), seq)

    def view(self, slot) -> DynInstr:
        ti = self.tidx[slot]
        return DynInstr(self.ops[ti], ti, self.seq[slot], self.fp[slot])


class _Paused(Exception):
    """Raised from the per-cycle callback to stop a run mid-flight."""


def run_until(proc, predicate, max_instructions=None):
    """Run ``proc`` until ``predicate(kernel)`` holds at a cycle boundary.

    Returns the kernel, frozen at that cycle with its structural state
    (queues, slots, rename map, IQ counts) intact for inspection.  Fails
    the test if the run ends without the predicate ever holding.
    """
    def check(cycle):
        if predicate(proc.kernel):
            raise _Paused

    budget = len(proc.trace) if max_instructions is None else max_instructions
    with pytest.raises(_Paused):
        proc.run(budget, on_cycle=check)
    return proc.kernel


@pytest.fixture
def table():
    return ColumnTable()


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Point the execution engine's disk cache at a per-test directory.

    Keeps tests from reading or polluting ``~/.cache/repro``, and makes
    every test start from a cold cache.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


@pytest.fixture
def builder():
    return TraceBuilder()


@pytest.fixture
def tiny_config() -> MachineConfig:
    """Small machine with wrong-path modelling off (deterministic tests)."""
    return small_config(wrongpath_loads=False)


@pytest.fixture
def dmdc_config(tiny_config) -> MachineConfig:
    return tiny_config.with_scheme(SchemeConfig(kind="dmdc"))
