"""Observers leave the simulated outcome of a fast-forwarded run alone.

A recorder or a sanitizer keeps the event-horizon cycle skipper on, and the
run it watches must end exactly where the same run without it ends
(observer bit-invisibility composed with fast-path equivalence).  The
comparison of each observer's own output against a fully stepped run is in
``test_observers_fastpath``.
"""

from repro.analysis.sanitizer import attach_sanitizer
from repro.obs import attach_observer
from repro.sim.config import CONFIG2, SchemeConfig
from repro.sim.processor import NO_FASTPATH_ENV, Processor
from repro.workloads import get_workload

BUDGET = 2_500


def _processor():
    config = CONFIG2.with_scheme(SchemeConfig(kind="dmdc"))
    trace = get_workload("mcf").generate(BUDGET + 2_000)
    return Processor(config, trace, seed=1)


def _run(proc):
    proc.prewarm()
    result = proc.run(BUDGET)
    return proc, result


def test_observed_result_matches_fastpath_result(monkeypatch):
    monkeypatch.delenv(NO_FASTPATH_ENV, raising=False)
    fast_proc, fast_result = _run(_processor())
    observed_proc = _processor()
    attach_observer(observed_proc)
    observed_proc, observed_result = _run(observed_proc)
    assert fast_proc.fast_forwarded_cycles > 0
    assert observed_proc.fast_forwarded_cycles > 0
    assert fast_result.to_dict() == observed_result.to_dict()


def test_sanitized_result_matches_fastpath_result(monkeypatch):
    monkeypatch.delenv(NO_FASTPATH_ENV, raising=False)
    fast_proc, fast_result = _run(_processor())
    sanitized_proc = _processor()
    attach_sanitizer(sanitized_proc)
    sanitized_proc, sanitized_result = _run(sanitized_proc)
    assert fast_proc.fast_forwarded_cycles > 0
    assert sanitized_proc.fast_forwarded_cycles > 0
    assert fast_result.to_dict() == sanitized_result.to_dict()
