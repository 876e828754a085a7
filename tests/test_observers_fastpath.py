"""Observers ride the event-horizon cycle skipper.

The skipper jumps only over cycles in which no event can fire, so an
observer in the processor's one slot (a pipeline tracer or the
observability recorder) or a sanitizer wrapping the scheme sees exactly
the events of a fully stepped run.  For each observer setup this pins,
against ``REPRO_NO_FASTPATH=1``: the simulation result, the timeline, the
recorder's event ring and attribution, and the sanitizer report — and
that the skipper really skipped, so the comparison is not vacuous.
"""

import pytest

from repro.analysis.sanitizer import attach_sanitizer
from repro.obs import attach_observer, build_attribution
from repro.sim.config import CONFIG2, SchemeConfig
from repro.sim.pipetrace import PipelineTracer
from repro.sim.processor import NO_FASTPATH_ENV, Processor
from repro.workloads import get_workload

BUDGET = 2_500

SETUPS = ("tracer", "recorder", "sanitizer", "sanitizer+recorder")

_TRACE = []


def _trace():
    if not _TRACE:
        _TRACE.append(get_workload("mcf").generate(BUDGET + 2_000))
    return _TRACE[0]


def _observed_run(setup):
    """Run mcf/dmdc with ``setup`` attached; everything it observed."""
    proc = Processor(CONFIG2.with_scheme(SchemeConfig(kind="dmdc")),
                     _trace(), seed=1)
    tracer = recorder = sanitizer = None
    if setup == "tracer":
        tracer = proc.tracer = PipelineTracer(capacity=512)
    if "recorder" in setup:
        recorder = attach_observer(proc)
        tracer = recorder.tracer
    if "sanitizer" in setup:
        sanitizer = attach_sanitizer(proc)
    proc.prewarm()
    result = proc.run(BUDGET)
    seen = {"result": result.to_dict()}
    if tracer is not None:
        seen["timeline"] = tracer.render_timeline(max_rows=64, max_width=200)
        seen["rows"] = [(row.seq, row.events, row.squashed)
                        for row in tracer.instructions()]
        seen["events_recorded"] = tracer.events_recorded
    if recorder is not None:
        seen["ring"] = recorder.ring.events()
        seen["events_emitted"] = recorder.events_emitted
        seen["attribution"] = build_attribution(recorder, result).to_dict()
    if sanitizer is not None:
        seen["sanitizer"] = sanitizer.report.as_dict()
    return proc, seen


@pytest.mark.parametrize("setup", SETUPS)
def test_observer_sees_the_same_run_with_the_skipper_on(monkeypatch, setup):
    monkeypatch.delenv(NO_FASTPATH_ENV, raising=False)
    fast_proc, fast = _observed_run(setup)
    monkeypatch.setenv(NO_FASTPATH_ENV, "1")
    slow_proc, slow = _observed_run(setup)
    assert fast_proc.fastpath_enabled and not slow_proc.fastpath_enabled
    assert fast_proc.fast_forwarded_cycles > 0
    assert slow_proc.fast_forwarded_cycles == 0
    assert fast.keys() == slow.keys()
    for key in fast:
        assert fast[key] == slow[key], f"{setup}: {key} differs"
