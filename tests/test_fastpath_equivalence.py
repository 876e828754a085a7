"""Cycle-exact equivalence of the fast path vs. plain stepping.

The event-horizon cycle skipper (the fast-forward block at the top of the
cycle loop in ``SoaKernel.run``) must be behaviourally invisible: for every scheme and workload, a run with the fast
path enabled must produce a `to_dict()` payload bit-identical to a run with
``REPRO_NO_FASTPATH=1`` — same cycles, same counters, same histograms.
These tests pin that invariant for every scheme family the simulator
implements, on two workloads with different memory behaviour.  The scheme
matrix is shared with the sanitizer sweep
(:data:`repro.analysis.sanitizer.SCHEME_MATRIX`) so both correctness
suites always cover the same nine points.
"""

import pytest

from repro.analysis.sanitizer import SCHEME_MATRIX as SCHEMES
from repro.sim.config import CONFIG2, SchemeConfig
from repro.sim.processor import NO_FASTPATH_ENV
from repro.sim.runner import run_trace
from repro.workloads import get_workload

BUDGET = 2_500

WORKLOADS = ("gzip", "mcf")

_TRACES = {}


def _trace(name):
    if name not in _TRACES:
        _TRACES[name] = get_workload(name).generate(BUDGET + 2_000)
    return _TRACES[name]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("scheme_label", sorted(SCHEMES))
def test_fastpath_bit_identical(monkeypatch, workload, scheme_label):
    config = CONFIG2.with_scheme(SCHEMES[scheme_label])
    trace = _trace(workload)

    monkeypatch.delenv(NO_FASTPATH_ENV, raising=False)
    fast = run_trace(config, trace, max_instructions=BUDGET, seed=1)

    monkeypatch.setenv(NO_FASTPATH_ENV, "1")
    slow = run_trace(config, trace, max_instructions=BUDGET, seed=1)

    assert fast.to_dict() == slow.to_dict()


def test_fast_forward_actually_skips(monkeypatch):
    """The skipper must be exercised, not just harmless: a normal run jumps
    over a nonzero number of idle cycles (otherwise these equivalence tests
    would be vacuous)."""
    from repro.sim.processor import Processor

    monkeypatch.delenv(NO_FASTPATH_ENV, raising=False)
    config = CONFIG2.with_scheme(SchemeConfig(kind="dmdc"))
    proc = Processor(config, _trace("mcf"), seed=1)
    proc.prewarm()
    proc.run(BUDGET)
    assert proc.fast_forwarded_cycles > 0


def test_no_fastpath_env_disables_skipping(monkeypatch):
    from repro.sim.processor import Processor

    monkeypatch.setenv(NO_FASTPATH_ENV, "1")
    config = CONFIG2.with_scheme(SchemeConfig(kind="conventional"))
    proc = Processor(config, _trace("gzip"), seed=1)
    proc.prewarm()
    proc.run(BUDGET)
    assert proc.fast_forwarded_cycles == 0


def test_invalidation_injection_disables_fastpath(monkeypatch):
    """The injector draws from the RNG every cycle, so skipping would
    change the random stream; the processor must refuse to fast-forward."""
    from repro.sim.processor import Processor

    monkeypatch.delenv(NO_FASTPATH_ENV, raising=False)
    config = CONFIG2.with_scheme(
        SchemeConfig(kind="dmdc", coherence=True)
    ).with_overrides(invalidation_rate=2.0)
    proc = Processor(config, _trace("gzip"), seed=1)
    assert not proc.fastpath_enabled
    proc.prewarm()
    proc.run(BUDGET)
    assert proc.fast_forwarded_cycles == 0
