"""Parameterised synthetic workload generator.

One :class:`WorkloadSpec` describes a program's behaviour; one
:class:`SyntheticWorkload` turns it into a deterministic micro-op trace.
The generator models:

* **data regions** — a configurable number of arrays spanning the working
  set, accessed by streaming, strided, random, or pointer-chasing loads;
* **store-address resolution delay** — a store's address registers can be
  wired to a recent load's destination (pointer-style addressing), which
  delays its resolution in the pipeline and creates the *unsafe stores*
  the paper's mechanisms target;
* **read-modify-write idioms** — load/op/store to one address, exercising
  store-to-load forwarding and load rejection;
* **engineered aliasing conflicts** — rare slow-store/fast-load pairs to
  the same address that produce genuine memory-order violations at roughly
  the per-million-instruction rates the paper observes;
* **branch sites** — loop, biased, alternating and history-correlated
  branches with stable PCs so the combined predictor behaves realistically.
"""

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import ConfigError
from repro.isa.instruction import MicroOp
from repro.isa.opcodes import InstrClass
from repro.isa.trace import Trace
from repro.utils.rng import DeterministicRng

# Architectural register conventions used by the generator.
_INT_BASE_REGS = (28, 29, 30, 31)    # always-ready base pointers
_INT_POOL = tuple(range(1, 24))      # rotating integer destinations
_PTR_REGS = (24, 25, 26, 27)         # pointer registers (written only by pointer loads)
_FP_POOL = tuple(range(33, 63))      # rotating FP destinations


@dataclass(frozen=True)
class WorkloadSpec:
    """Behavioural parameters of one synthetic benchmark."""

    name: str
    group: str = "INT"                     # INT or FP reporting group
    # Instruction mix (fractions of the dynamic stream)
    load_fraction: float = 0.26
    store_fraction: float = 0.11
    branch_fraction: float = 0.14
    fp_fraction: float = 0.0               # fraction of ALU ops that are FP
    muldiv_fraction: float = 0.04          # fraction of ALU ops that are mul/div
    # Memory behaviour
    working_set_kb: int = 256
    n_arrays: int = 4
    #: Temporal locality of non-streaming accesses: fraction served from a
    #: small, slowly drifting hot region of each array.
    hot_fraction: float = 0.92
    hot_region_kb: int = 4
    #: Fraction of branches testing a long-ready value (loop counters etc.);
    #: the rest depend on recent computation and resolve later.
    branch_fast_src: float = 0.75
    pattern_weights: Dict[str, float] = field(
        default_factory=lambda: {"stream": 0.4, "strided": 0.2, "random": 0.3, "chase": 0.1}
    )
    stride_bytes: int = 8
    wide_access_fraction: float = 0.75     # 8-byte accesses; rest are 4/2 B
    fp_load_fraction: float = 0.0          # loads targeting FP registers
    #: Loads whose address trails a recent index computation (the rest use
    #: an always-ready base register).  Symmetric with store_addr_dep_alu:
    #: when both loads and stores wait a few cycles for their index, memory
    #: issue stays close to program order -- the property YLA exploits.
    load_addr_dep_alu: float = 0.50
    #: Among index-dependent memory ops, the fraction whose index is
    #: computed *immediately before* the access (same dispatch group, so the
    #: access trails its neighbours by a cycle or two).  The rest use an
    #: index computed several instructions earlier (already ready).  This is
    #: the main dial for how far memory issue departs from program order.
    fresh_index_fraction: float = 0.95
    #: Fraction of fresh index computations that are two dependent ops
    #: (shift+add style row-major indexing) rather than a single add.
    #: Stretches how long the access waits for its address by ~1-2 cycles.
    index_mul_fraction: float = 0.40
    # Store timing behaviour (drives unsafe stores).  A store's address is
    # either immediately ready (base register), briefly delayed behind a
    # recent ALU result (indexed addressing -- the common source of the
    # paper's unsafe stores), or long-delayed behind a load (pointer
    # stores, the pathological tail).
    store_addr_dep_alu: float = 0.45
    store_addr_dep_load: float = 0.10
    store_data_slow: float = 0.35          # store data from a long-latency op
    # Idioms
    rmw_fraction: float = 0.08             # of stores that are load-op-store
    #: Probability that a store's address is re-loaded a few dozen
    #: instructions later (histogram/counter update idiom).  These revisit
    #: loads are what DMDC's timing approximation falsely replays: they
    #: issue after the store resolved yet land in its checking window.
    store_revisit: float = 0.10
    revisit_distance: int = 24
    conflict_per_kinstr: float = 0.01      # engineered true-violation setups
    # Branch behaviour
    branch_sites: int = 24
    branch_profile: Dict[str, float] = field(
        default_factory=lambda: {"loop": 0.5, "biased": 0.3, "correlated": 0.2}
    )
    loop_period: int = 12
    branch_bias: float = 0.85
    # Code behaviour
    code_footprint_kb: int = 24
    seed: int = 7

    def __post_init__(self):
        if self.group not in ("INT", "FP"):
            raise ConfigError(f"{self.name}: group must be INT or FP")
        total = self.load_fraction + self.store_fraction + self.branch_fraction
        if total >= 1.0:
            raise ConfigError(f"{self.name}: memory+branch fractions exceed 1.0")
        if not self.pattern_weights:
            raise ConfigError(f"{self.name}: empty pattern weights")


class _BranchSite:
    """One static branch with a stable PC and an outcome generator."""

    __slots__ = ("pc", "kind", "period", "bias", "counter", "history", "rng")

    def __init__(self, pc: int, kind: str, period: int, bias: float, rng: DeterministicRng):
        self.pc = pc
        self.kind = kind
        self.period = max(2, period)
        self.bias = bias
        self.counter = 0
        self.history = 0
        self.rng = rng

    def next_outcome(self) -> bool:
        self.counter += 1
        if self.kind == "loop":
            return self.counter % self.period != 0
        if self.kind == "alternating":
            return self.counter % 2 == 0
        if self.kind == "correlated":
            # Outcome = parity of the last three outcomes: deterministic,
            # learnable by global history, opaque to the bimodal table.
            outcome = bin(self.history & 0b111).count("1") % 2 == 0
            self.history = ((self.history << 1) | int(outcome)) & 0xFF
            return outcome
        return self.rng.random() < self.bias


class _Array:
    """One data region with a streaming cursor and a drifting hot window."""

    __slots__ = ("base", "size", "cursor", "stride", "hot_base", "hot_size",
                 "hot_fraction", "_drift")

    def __init__(self, base: int, size: int, stride: int,
                 hot_size: int, hot_fraction: float):
        self.base = base
        self.size = size
        self.cursor = 0
        self.stride = stride
        self.hot_size = min(hot_size, size)
        self.hot_fraction = hot_fraction
        self.hot_base = 0
        self._drift = 0

    def stream_next(self) -> int:
        addr = self.base + self.cursor
        self.cursor = (self.cursor + self.stride) % self.size
        return addr

    def strided_next(self, stride: int) -> int:
        addr = self.base + self.cursor
        self.cursor = (self.cursor + stride) % self.size
        return addr

    def random_addr(self, rng: DeterministicRng) -> int:
        # Temporal locality: mostly hit the hot window, which drifts slowly
        # through the array so cold misses still occur at a realistic rate.
        self._drift += 1
        if self._drift >= 512:
            self._drift = 0
            self.hot_base = (self.hot_base + self.hot_size // 2) % max(1, self.size - self.hot_size)
        if rng.random() < self.hot_fraction:
            offset = self.hot_base + (rng.randint(0, max(0, self.hot_size - 8)) & ~0x7)
        else:
            offset = rng.randint(0, max(0, self.size - 8)) & ~0x7
        return self.base + min(offset, self.size - 8)


class SyntheticWorkload:
    """Deterministic trace generator for one :class:`WorkloadSpec`."""

    def __init__(self, spec: WorkloadSpec):
        self.spec = spec

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def group(self) -> str:
        return self.spec.group

    def generate(self, num_instructions: int) -> Trace:
        """Build a fresh trace of ``num_instructions`` micro-ops."""
        return _Generator(self.spec).build(num_instructions)

    def __repr__(self) -> str:
        return f"<SyntheticWorkload {self.spec.name} ({self.spec.group})>"


def workload_identity(
        workload: Union[str, WorkloadSpec, SyntheticWorkload]) -> str:
    """The one identity of a workload: its suite name, or the canonical
    JSON of every spec field.

    Trace reuse in :func:`repro.sim.runner.run_many` and the result
    cache key both use it, so two specs that share a display name but
    differ in any parameter never share a trace or a cached result.
    """
    if isinstance(workload, str):
        return workload
    if isinstance(workload, SyntheticWorkload):
        workload = workload.spec
    return json.dumps(asdict(workload), sort_keys=True, separators=(",", ":"))


class _Generator:
    """Stateful single-use trace builder (one per generate() call)."""

    CODE_BASE = 0x0040_0000
    DATA_BASE = 0x1000_0000
    REGION_SPACING = 0x0100_0000

    def __init__(self, spec: WorkloadSpec):
        self.spec = spec
        self.rng = DeterministicRng(spec.seed, f"workload:{spec.name}")
        self.trace = Trace(spec.name, group=spec.group)

        size_per_array = max(4096, spec.working_set_kb * 1024 // spec.n_arrays)
        self.arrays = [
            _Array(
                self.DATA_BASE + i * self.REGION_SPACING,
                size_per_array,
                spec.stride_bytes,
                hot_size=spec.hot_region_kb * 1024,
                hot_fraction=spec.hot_fraction,
            )
            for i in range(spec.n_arrays)
        ]
        self.branch_sites = self._make_branch_sites()
        self._site_cursor = 0
        # Aliasing conflict pairs live at stable PCs (they are static code),
        # which lets PC-indexed dependence predictors learn them.
        self._conflict_sites = [
            (self.CODE_BASE + 0x20000 + i * 0x10, self.CODE_BASE + 0x20008 + i * 0x10)
            for i in range(4)
        ]
        self._conflict_cursor = 0

        self.pc = self.CODE_BASE
        self.code_bytes = spec.code_footprint_kb * 1024

        # Register rotation state
        self._int_cursor = 0
        self._fp_cursor = 0
        self._ptr_cursor = 0
        self._recent_load_dsts: List[int] = []
        self._recent_slow_dsts: List[int] = []
        self._recent_fast_dsts: List[int] = []
        self._recent_dsts: List[int] = [_INT_BASE_REGS[0]]
        self._last_chase_dst: Optional[int] = None

        # Pending idiom queues: list of (countdown, emit_fn)
        self._pending: List[Tuple[int, str, dict]] = []

    # ------------------------------------------------------------------
    def _make_branch_sites(self) -> List[_BranchSite]:
        spec = self.spec
        kinds = list(spec.branch_profile.keys())
        weights = list(spec.branch_profile.values())
        sites = []
        site_rng = self.rng.child("branches")
        for i in range(spec.branch_sites):
            kind = site_rng.choices(kinds, weights)[0]
            pc = self.CODE_BASE + 0x40 + i * 0x90
            period = spec.loop_period + site_rng.randint(-spec.loop_period // 3, spec.loop_period // 3)
            bias = min(0.99, max(0.5, spec.branch_bias + site_rng.random() * 0.1 - 0.05))
            sites.append(_BranchSite(pc, kind, period, bias, site_rng.child(f"site{i}")))
        return sites

    # -- register helpers ---------------------------------------------
    def _next_int_reg(self) -> int:
        reg = _INT_POOL[self._int_cursor % len(_INT_POOL)]
        self._int_cursor += 1
        return reg

    def _next_fp_reg(self) -> int:
        reg = _FP_POOL[self._fp_cursor % len(_FP_POOL)]
        self._fp_cursor += 1
        return reg

    def _note_dst(self, reg: int, is_load: bool = False, is_slow: bool = False,
                  is_short: bool = False) -> None:
        self._recent_dsts.append(reg)
        if len(self._recent_dsts) > 8:
            self._recent_dsts.pop(0)
        if is_short and reg < 32:
            # Result of a 1-cycle op whose own inputs were long-ready
            # (induction-variable updates): usable as a "nearly ready"
            # address index.
            self._recent_fast_dsts.append(reg)
            if len(self._recent_fast_dsts) > 4:
                self._recent_fast_dsts.pop(0)
        if is_load:
            self._recent_load_dsts.append(reg)
            if len(self._recent_load_dsts) > 6:
                self._recent_load_dsts.pop(0)
        if is_slow:
            self._recent_slow_dsts.append(reg)
            if len(self._recent_slow_dsts) > 6:
                self._recent_slow_dsts.pop(0)

    def _base_reg(self) -> int:
        return self.rng.choice(_INT_BASE_REGS)

    def _index_reg(self) -> int:
        """An address-index register for an alu-tier memory access.

        With probability ``fresh_index_fraction`` the index is computed
        right here (the access will wait a cycle or two for it); otherwise
        a previously computed induction value is reused (already ready).
        """
        if self.rng.random() < self.spec.fresh_index_fraction or not self._recent_fast_dsts:
            dst = self._next_int_reg()
            self.trace.append(
                MicroOp(self._next_pc(), InstrClass.IALU,
                        srcs=(self._base_reg(), self._base_reg()), dst=dst)
            )
            if self.rng.random() < self.spec.index_mul_fraction:
                # Two-op address arithmetic (shift then add): the access
                # trails its dispatch group by one more cycle.
                dst2 = self._next_int_reg()
                self.trace.append(
                    MicroOp(self._next_pc(), InstrClass.IALU,
                            srcs=(dst, self._base_reg()), dst=dst2)
                )
                dst = dst2
            else:
                self._note_dst(dst, is_short=True)
            return dst
        return self._recent_fast_dsts[-1]

    # -- pc management ---------------------------------------------------
    def _next_pc(self) -> int:
        pc = self.pc
        self.pc += 4
        if self.pc >= self.CODE_BASE + self.code_bytes:
            self.pc = self.CODE_BASE
        return pc

    # ------------------------------------------------------------------
    def build(self, n: int) -> Trace:
        rate = self.spec.conflict_per_kinstr
        # Rates below one conflict per 10M instructions are effectively off.
        emit_mem_conflict_every = int(1000 / rate) if rate > 1e-4 else 0
        next_conflict = emit_mem_conflict_every or (n + 1)
        while len(self.trace) < n:
            if self._drain_pending():
                continue
            if emit_mem_conflict_every and len(self.trace) >= next_conflict:
                next_conflict += emit_mem_conflict_every
                self._emit_conflict_pair()
                continue
            roll = self.rng.random()
            spec = self.spec
            if roll < spec.load_fraction:
                self._emit_load()
            elif roll < spec.load_fraction + spec.store_fraction:
                if self.rng.random() < spec.rmw_fraction:
                    self._emit_rmw()
                else:
                    self._emit_store()
            elif roll < spec.load_fraction + spec.store_fraction + spec.branch_fraction:
                self._emit_branch()
            else:
                self._emit_alu()
        return self.trace

    def _drain_pending(self) -> bool:
        """Emit one due pending op (scheduled by idioms); True if emitted."""
        for i, (countdown, kind, args) in enumerate(self._pending):
            if countdown <= 0:
                self._pending.pop(i)
                if kind == "store":
                    self._emit_store(**args)
                else:
                    self._emit_load(**args)
                return True
        self._pending = [(c - 1, k, a) for c, k, a in self._pending]
        return False

    # -- address synthesis ----------------------------------------------
    def _pick_pattern(self) -> str:
        names = list(self.spec.pattern_weights.keys())
        weights = list(self.spec.pattern_weights.values())
        return self.rng.choices(names, weights)[0]

    def _addr_for(self, pattern: str) -> int:
        array = self.rng.choice(self.arrays)
        if pattern == "stream":
            return array.stream_next()
        if pattern == "strided":
            return array.strided_next(self.spec.stride_bytes * 3)
        return array.random_addr(self.rng)

    def _access_size(self, addr: int) -> Tuple[int, int]:
        """Pick an access size and align the address to it."""
        if self.rng.random() < self.spec.wide_access_fraction:
            return addr & ~0x7, 8
        size = self.rng.choice((2, 4, 4))
        return addr & ~(size - 1), size

    # -- emitters ---------------------------------------------------------
    def _emit_load(self, addr: Optional[int] = None, fast_addr: bool = False,
                   late_addr: bool = False,
                   srcs_override: Optional[Tuple[int, ...]] = None,
                   pc: Optional[int] = None) -> None:
        spec = self.spec
        pattern = self._pick_pattern()
        if addr is None:
            addr = self._addr_for(pattern)
        addr, size = self._access_size(addr)
        is_fp = self.rng.random() < spec.fp_load_fraction
        dst = self._next_fp_reg() if is_fp else self._next_int_reg()
        if srcs_override is not None:
            srcs: Tuple[int, ...] = srcs_override
        elif fast_addr:
            srcs = (self._base_reg(),)
        elif late_addr:
            srcs = (self._base_reg(), self._index_reg())
        elif pattern == "chase" and self._recent_load_dsts:
            srcs = (self._recent_load_dsts[-1],)
        elif self.rng.random() < spec.load_addr_dep_alu:
            srcs = (self._base_reg(), self._index_reg())
        else:
            srcs = (self._base_reg(),)
        self.trace.append(
            MicroOp(pc if pc is not None else self._next_pc(), InstrClass.LOAD,
                    srcs=srcs, dst=dst, mem_addr=addr, mem_size=size)
        )
        self._note_dst(dst, is_load=True)

    def _emit_store(self, addr: Optional[int] = None, slow_addr: Optional[bool] = None,
                    size: Optional[int] = None, pc: Optional[int] = None) -> None:
        spec = self.spec
        if addr is None:
            addr = self._addr_for(self._pick_pattern())
        if size is None:
            addr, size = self._access_size(addr)
        if slow_addr is None:
            roll = self.rng.random()
            if roll < spec.store_addr_dep_load:
                addr_tier = "load"
            elif roll < spec.store_addr_dep_load + spec.store_addr_dep_alu:
                addr_tier = "alu"
            else:
                addr_tier = "ready"
        else:
            addr_tier = "load" if slow_addr else "ready"
        if addr_tier == "load":
            # Pointer store: load the pointer into a dedicated register
            # first (usually an L1 hit that completes quickly, occasionally
            # a miss still in flight -- the pathological long-window tail),
            # then store through it.  Dedicated registers keep later
            # same-pointer reloads truly dependent on this pointer.
            ptr = _PTR_REGS[self._ptr_cursor % len(_PTR_REGS)]
            self._ptr_cursor += 1
            self.trace.append(
                MicroOp(self._next_pc(), InstrClass.LOAD, srcs=(self._base_reg(),),
                        dst=ptr, mem_addr=self._addr_for("random") & ~0x7, mem_size=8)
            )
            srcs: Tuple[int, ...] = (ptr,)
        elif addr_tier == "alu":
            # Indexed store: the address may trail a just-computed index by
            # a cycle or two -- long enough for younger loads to slip ahead.
            srcs = (self._base_reg(), self._index_reg())
        else:
            srcs = (self._base_reg(),)
        if self.rng.random() < spec.store_data_slow and self._recent_slow_dsts:
            data_src = self._recent_slow_dsts[-1]
        elif self._recent_dsts:
            data_src = self._recent_dsts[-1]
        else:
            data_src = self._base_reg()
        self.trace.append(
            MicroOp(pc if pc is not None else self._next_pc(), InstrClass.STORE,
                    srcs=srcs, mem_addr=addr, mem_size=size, data_src=data_src)
        )
        if self.rng.random() < spec.store_revisit:
            # Counter/histogram update idiom: the location is re-read soon.
            # The reload's address trails an index computation, so it
            # normally issues after the store has resolved -- the classic
            # victim of DMDC's timing approximation rather than a real
            # violation.  Reloads of slow pointer stores are pushed further
            # out so they usually (not always: the residue is the paper's
            # rare true violations) clear the late resolution.
            if addr_tier == "load":
                # Same-pointer reload (p->f = x; ... y = p->f): both the
                # store and the reload wait on the pointer register, so the
                # older store resolves first and the reload lands inside its
                # checking window having issued after it -- an X replay.
                gap = self.rng.randint(
                    max(4, spec.revisit_distance // 3), spec.revisit_distance
                )
                self._pending.append(
                    (gap, "load", {"addr": addr, "srcs_override": srcs})
                )
            else:
                gap = self.rng.randint(
                    max(4, spec.revisit_distance // 3), spec.revisit_distance
                )
                self._pending.append((gap, "load", {"addr": addr, "late_addr": True}))

    def _emit_rmw(self) -> None:
        """Load-op-store to one address: forwarding and rejection fodder."""
        addr = self._addr_for("random") & ~0x7
        self._emit_load(addr=addr)
        self._emit_alu(srcs_hint=(self._recent_load_dsts[-1],))
        self._pending.append((0, "store", {"addr": addr, "slow_addr": False, "size": 8}))

    def _emit_conflict_pair(self) -> None:
        """Slow store + nearby fast load to one address: a genuine
        memory-order-violation opportunity (the paper's rare true replays).
        The pair occupies a stable PC site so dependence predictors can
        learn it."""
        store_pc, load_pc = self._conflict_sites[
            self._conflict_cursor % len(self._conflict_sites)
        ]
        self._conflict_cursor += 1
        addr = self._addr_for("random") & ~0x7
        self._emit_load()  # produces the pointer the store will wait for
        self._emit_store(addr=addr, slow_addr=True, size=8, pc=store_pc)
        gap = self.rng.randint(2, 8)
        self._pending.append(
            (gap, "load", {"addr": addr, "fast_addr": True, "pc": load_pc})
        )

    def _emit_branch(self) -> None:
        site = self.branch_sites[self._site_cursor % len(self.branch_sites)]
        self._site_cursor += 1
        taken = site.next_outcome()
        if self.rng.random() < self.spec.branch_fast_src:
            # Loop-exit style test: the condition register was computed long
            # ago (or is a base register), so the branch resolves quickly.
            srcs: Tuple[int, ...] = (
                (self._recent_fast_dsts[0],) if self._recent_fast_dsts else (self._base_reg(),)
            )
        else:
            srcs = (self._recent_dsts[-1],) if self._recent_dsts else ()
        # Target presence is what matters (BTB); point at the next pc.
        self.trace.append(
            MicroOp(site.pc, InstrClass.BRANCH, srcs=srcs, taken=taken, target=self.pc)
        )

    def _emit_alu(self, srcs_hint: Optional[Tuple[int, ...]] = None) -> None:
        spec = self.spec
        is_fp = self.rng.random() < spec.fp_fraction
        long_op = self.rng.random() < spec.muldiv_fraction
        if is_fp:
            cls = InstrClass.FMUL if long_op else InstrClass.FALU
            dst = self._next_fp_reg()
            pool = _FP_POOL
        else:
            cls = InstrClass.IMUL if long_op else InstrClass.IALU
            dst = self._next_int_reg()
            pool = _INT_POOL
        short = False
        if srcs_hint is not None:
            srcs = srcs_hint
        elif self._recent_dsts and self.rng.random() < 0.55:
            srcs = (self._recent_dsts[-1], self.rng.choice(pool))
        else:
            # Induction-style update (loop counter += constant): inputs are
            # base registers, so the result is ready one cycle after issue.
            srcs = (self._base_reg(), self._base_reg())
            short = not long_op and not is_fp
        self.trace.append(MicroOp(self._next_pc(), cls, srcs=srcs, dst=dst))
        self._note_dst(dst, is_slow=long_op or is_fp, is_short=short)
