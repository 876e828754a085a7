"""Tests for the pipeline event tracer."""

from repro.sim.config import SchemeConfig, small_config
from repro.sim.pipetrace import PipelineTracer
from repro.sim.processor import Processor
from repro.workloads import get_workload
from tests.conftest import TraceBuilder


def traced_run(trace, config=None, budget=None):
    config = config or small_config(wrongpath_loads=False)
    proc = Processor(config, trace)
    proc.tracer = PipelineTracer()
    proc.run(budget if budget is not None else len(trace))
    return proc.tracer


class TestRecording:
    def test_every_committed_instr_has_full_lifecycle(self):
        b = TraceBuilder()
        b.fill(20)
        tracer = traced_run(b.build())
        for entry in tracer.instructions():
            for kind in ("fetch", "dispatch", "issue", "complete", "commit"):
                assert entry.cycle_of(kind) is not None, (entry.seq, kind)

    def test_event_order_is_monotonic(self):
        b = TraceBuilder()
        b.fill(10).load(0x100, dst=9).fill(10)
        tracer = traced_run(b.build())
        for entry in tracer.instructions():
            order = [entry.cycle_of(k) for k in
                     ("fetch", "dispatch", "issue", "complete", "commit")]
            order = [c for c in order if c is not None]
            assert order == sorted(order)

    def test_rejection_recorded(self):
        from repro.isa.opcodes import InstrClass
        b = TraceBuilder()
        b.alu(dst=5, cls=InstrClass.IDIV)
        b.store(0x100, data_src=5)
        b.load(0x100, dst=6)
        b.fill(20)
        tracer = traced_run(b.build())
        rejected = [e for e in tracer.instructions() if e.cycle_of("reject") is not None]
        assert rejected

    def test_replay_and_squash_recorded(self):
        from repro.isa.opcodes import InstrClass
        b = TraceBuilder()
        b.fill(4)
        b.alu(dst=10, cls=InstrClass.IDIV)
        b.store(0x800, srcs=(10,))
        b.load(0x800, dst=11)
        b.fill(25)
        config = small_config(wrongpath_loads=False).with_scheme(SchemeConfig(kind="dmdc"))
        tracer = traced_run(b.build(), config=config)
        kinds = {k for e in tracer.instructions() for _, k in e.events}
        assert "replay" in kinds and "squash" in kinds

    def test_capacity_bounded(self):
        trace = get_workload("gzip").generate(400)
        config = small_config()
        proc = Processor(config, trace)
        proc.tracer = PipelineTracer(capacity=50)
        proc.run(300)
        assert len(proc.tracer) <= 50

    def test_latency_helper(self):
        b = TraceBuilder()
        b.fill(12)
        tracer = traced_run(b.build())
        seq = tracer.instructions()[0].seq
        assert tracer.latency(seq) > 0
        assert tracer.latency(99999) is None


class _FakeInstr:
    """Minimal stand-in for DynInstr: just what record() touches."""

    class _Uop:
        class cls:
            name = "IALU"

    uop = _Uop()

    def __init__(self, seq):
        self.seq = seq
        self.trace_idx = seq


def test_scheme_event_kinds_are_ignored():
    """The observer slot also carries scheme events; a pipeline tracer
    has no mnemonic for them and neither counts nor retains them."""
    tracer = PipelineTracer(capacity=4)
    tracer.record("fetch", _FakeInstr(0), 1)
    tracer.record("store_safe", _FakeInstr(0), 2)
    tracer.record("window_open", None, 2)
    tracer.record("table_probe", _FakeInstr(0), 3, "hit")
    tracer.record("replay", _FakeInstr(0), 4, "commit")
    assert tracer.events_recorded == 2
    assert tracer.instr(0).events == [(1, "fetch"), (4, "replay")]


class TestCapacityEdgeCases:
    """Regression tests for eviction coherence at the ring boundary."""

    def test_capacity_zero_counts_but_stores_nothing(self):
        tracer = PipelineTracer(capacity=0)
        tracer.record("fetch", _FakeInstr(0), 1)
        tracer.record("commit", _FakeInstr(0), 5)
        assert len(tracer) == 0
        assert tracer.events_recorded == 2
        assert tracer.instr(0) is None
        assert tracer.latency(0) is None
        assert "no traced" in tracer.render_timeline()

    def test_capacity_one_keeps_only_newest(self):
        tracer = PipelineTracer(capacity=1)
        tracer.record("fetch", _FakeInstr(0), 1)
        tracer.record("fetch", _FakeInstr(1), 2)
        assert len(tracer) == 1
        assert tracer.instr(0) is None
        assert tracer.instr(1) is not None

    def test_exactly_full_evicts_nothing(self):
        tracer = PipelineTracer(capacity=3)
        for seq in range(3):
            tracer.record("fetch", _FakeInstr(seq), seq + 1)
        assert len(tracer) == 3
        assert all(tracer.instr(seq) is not None for seq in range(3))

    def test_late_event_for_evicted_row_is_dropped_not_resurrected(self):
        """Regression: a squash/completion arriving for an already-evicted
        seq must not recreate a partial row (which would render out of
        order and report a bogus latency)."""
        tracer = PipelineTracer(capacity=2)
        for seq in range(4):          # seqs 0,1 evicted by 2,3
            tracer.record("fetch", _FakeInstr(seq), seq + 1)
        tracer.record("squash", _FakeInstr(0), 50)  # late event, evicted row
        assert tracer.instr(0) is None
        assert tracer.latency(0, "fetch", "squash") is None
        assert [e.seq for e in tracer.instructions()] == [2, 3]
        assert tracer.events_recorded == 5  # counted, not retained

    def test_render_timeline_on_fully_evicted_window(self):
        tracer = PipelineTracer(capacity=2)
        for seq in range(6):
            tracer.record("fetch", _FakeInstr(seq), seq + 1)
        # The requested window was entirely evicted: renders empty, no raise.
        assert "no traced" in tracer.render_timeline(first_seq=100)
        # And the retained tail still renders.
        assert "legend:" in tracer.render_timeline(first_seq=0)

    def test_wraparound_keeps_rows_coherent(self):
        tracer = PipelineTracer(capacity=4)
        for seq in range(20):
            instr = _FakeInstr(seq)
            tracer.record("fetch", instr, seq)
            tracer.record("commit", instr, seq + 3)
        retained = tracer.instructions()
        assert [e.seq for e in retained] == [16, 17, 18, 19]
        for entry in retained:
            # Every retained row is complete — both its events survived.
            assert entry.cycle_of("fetch") is not None
            assert entry.cycle_of("commit") is not None


class TestRendering:
    def test_timeline_contains_lanes_and_legend(self):
        b = TraceBuilder()
        b.fill(12)
        tracer = traced_run(b.build())
        text = tracer.render_timeline(max_rows=8)
        assert "legend:" in text
        assert text.count("|") >= 16  # two bars per rendered row

    def test_empty_tracer(self):
        assert "no traced" in PipelineTracer().render_timeline()

    def test_width_clamped(self):
        trace = get_workload("gzip").generate(300)
        proc = Processor(small_config(), trace)
        proc.tracer = PipelineTracer()
        proc.run(200)
        text = proc.tracer.render_timeline(max_width=40, max_rows=5)
        for line in text.splitlines()[1:-1]:
            assert len(line) <= 40 + 20  # lane + label prefix
