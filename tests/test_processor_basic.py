"""Integration tests for the pipeline on hand-crafted traces."""

import pytest

from repro.errors import SimulationError
from repro.sim.config import SchemeConfig, small_config
from repro.sim.processor import Processor
from repro.sim.runner import run_trace


class TestBasicExecution:
    def test_commits_everything_in_order(self, builder, tiny_config):
        trace = builder.fill(40).build()
        result = run_trace(tiny_config, trace)
        assert result.committed == 40
        assert result.ipc > 0.5

    def test_dependent_chain_is_slower_than_independent(self, tiny_config):
        from tests.conftest import TraceBuilder
        indep = TraceBuilder()
        for i in range(60):
            indep.alu(dst=1 + i % 20)
        chain = TraceBuilder()
        for _ in range(60):
            chain.alu(dst=1, srcs=(1,))
        r_indep = run_trace(tiny_config, indep.build(), prewarm=True)
        r_chain = run_trace(tiny_config, chain.build(), prewarm=True)
        assert r_chain.cycles > r_indep.cycles

    def test_loads_and_stores_commit(self, builder, tiny_config):
        builder.store(0x100).load(0x100, dst=2).fill(20)
        result = run_trace(tiny_config, builder.build())
        assert result.counters["commit.stores"] == 1
        assert result.counters["commit.loads"] == 1

    def test_second_run_raises(self, builder, tiny_config):
        # A processor runs once; a second run must not continue from the
        # state the first one left behind.
        trace = builder.fill(20).build()
        proc = Processor(tiny_config, trace)
        proc.run(10)
        with pytest.raises(SimulationError, match="run called twice"):
            proc.run(10)

    def test_budget_respected(self, builder, tiny_config):
        trace = builder.fill(100).build()
        result = run_trace(tiny_config, trace, max_instructions=30)
        assert result.committed == 30


class TestForwardingAndRejection:
    def test_store_to_load_forwarding(self, builder, tiny_config):
        # Store with always-ready data, then a load of the same address:
        # the load must forward from the in-flight store.
        builder.fill(4)
        builder.store(0x100)                    # data_src is a base register
        builder.load(0x100, dst=6)
        builder.fill(20)
        result = run_trace(tiny_config, builder.build())
        assert result.counters["load.forwarded"] >= 1

    def test_partial_store_rejects_load(self, builder, tiny_config):
        builder.store(0x100, size=4)            # narrow store
        builder.load(0x100, dst=6, size=8)      # wide load: cannot forward
        builder.fill(20)
        result = run_trace(tiny_config, builder.build())
        assert result.counters["load.rejections"] >= 1
        assert result.committed == len(builder.build())

    def test_slow_store_data_rejects_consumer(self, tiny_config):
        from tests.conftest import TraceBuilder
        b = TraceBuilder()
        from repro.isa.opcodes import InstrClass
        b.alu(dst=5, cls=InstrClass.IDIV)       # 20-cycle data producer
        b.store(0x100, data_src=5)              # address ready, data slow
        b.load(0x100, dst=6)                    # must wait: rejected, retried
        b.fill(30)
        result = run_trace(tiny_config, b.build())
        assert result.counters["load.rejections"] >= 1
        assert result.counters["load.forwarded"] >= 1  # retry succeeds


class TestBranches:
    def test_mispredict_costs_cycles(self, tiny_config):
        from tests.conftest import TraceBuilder
        import itertools
        # Alternating pattern from a single site but with a cold bimodal:
        # early branches mispredict.
        b = TraceBuilder()
        outcomes = itertools.cycle([True, True, True, False])
        for i in range(40):
            b.fill(4, dst_base=3)
            b.branch(taken=next(outcomes), pc=0x5000)
        result = run_trace(tiny_config, b.build(), prewarm=False)
        assert result.counters["bpred.mispredicts"] > 0
        assert result.committed == len(b.build())

    def test_prewarm_trains_predictor(self, tiny_config):
        from tests.conftest import TraceBuilder
        b = TraceBuilder()
        for _ in range(60):
            b.fill(3)
            b.branch(taken=True, pc=0x5000)  # perfectly biased site
        cold = run_trace(tiny_config, b.build(), prewarm=False)
        warm = run_trace(tiny_config, b.build(), prewarm=True)
        assert warm.counters["bpred.mispredicts"] <= cold.counters["bpred.mispredicts"]
        assert warm.cycles <= cold.cycles


class TestResourceStalls:
    def test_rob_fills_under_long_latency(self, tiny_config):
        from tests.conftest import TraceBuilder
        b = TraceBuilder()
        # A load that misses everything, then many independent fillers: the
        # miss blocks commit at the ROB head until the window fills.
        b.load(0x9000, dst=1)
        b.fill(120)
        result = run_trace(tiny_config, b.build(), prewarm=True)
        assert result.counters["stall.rob_full"] > 0

    def test_sq_full_stalls_dispatch(self, tiny_config):
        from tests.conftest import TraceBuilder
        from repro.isa.opcodes import InstrClass
        b = TraceBuilder()
        b.alu(dst=5, cls=InstrClass.IDIV)  # slow data keeps stores uncommittable
        for i in range(20):
            b.store(0x100 + 8 * i, data_src=5)
        b.fill(10)
        result = run_trace(tiny_config, b.build())
        assert result.counters["stall.sq_full"] > 0
        assert result.committed == len(b.build())


class TestCounterSanity:
    def test_cache_counters_populated(self, builder, tiny_config):
        builder.load(0x100).load(0x100 + 64).fill(20)
        result = run_trace(tiny_config, builder.build(), prewarm=False)
        assert result.counters["dcache.accesses"] >= 2
        assert result.counters["icache.accesses"] >= 1

    def test_cycles_equal_result_field(self, builder, tiny_config):
        result = run_trace(tiny_config, builder.fill(30).build())
        assert result.counters["cycles"] == result.cycles

    def test_summary_keys(self, builder, tiny_config):
        result = run_trace(tiny_config, builder.fill(10).build())
        summary = result.summary()
        for key in ("ipc", "cycles", "committed", "replays_per_minstr"):
            assert key in summary
