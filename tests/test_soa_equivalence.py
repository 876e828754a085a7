"""The cycle kernel against the frozen golden results.

The kernel once had an object-path twin it was checked against bit for
bit; ``tests/golden/kernel_golden.json`` froze that twin's ``to_dict()``
payloads for the full scheme matrix x two workloads before the twin was
deleted.  Every cell must still reproduce its frozen payload exactly —
same cycles, same counters, same histograms.  The scheme matrix is shared
with the sanitizer sweep and the fast-path suite so all three correctness
nets cover the same nine points.
"""

import json

import pytest

from repro.analysis.sanitizer import SCHEME_MATRIX as SCHEMES
from repro.errors import SimulationError
from repro.sim.config import CONFIG2, SchemeConfig
from repro.sim.processor import Processor
from repro.sim.runner import run_trace
from repro.workloads import get_workload
from tests.test_kernel_golden import GOLDEN, RESULT_BUDGET as BUDGET

WORKLOADS = ("gzip", "mcf")

_TRACES = {}


def _trace(name):
    if name not in _TRACES:
        _TRACES[name] = get_workload(name).generate(BUDGET + 2_000)
    return _TRACES[name]


@pytest.fixture(scope="module")
def golden_results():
    return json.loads(GOLDEN.read_text())["results"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("scheme_label", sorted(SCHEMES))
def test_soa_bit_identical(golden_results, workload, scheme_label):
    config = CONFIG2.with_scheme(SCHEMES[scheme_label])
    result = run_trace(config, _trace(workload), max_instructions=BUDGET, seed=1)
    live = json.loads(json.dumps(result.to_dict(), sort_keys=True))
    assert live == golden_results[f"{scheme_label}/{workload}"]


def test_soa_kernel_actually_engaged():
    """A plain run builds and keeps its kernel (the one loop there is)."""
    proc = Processor(CONFIG2.with_scheme(SchemeConfig(kind="dmdc")),
                     _trace("gzip"), seed=1)
    proc.prewarm()
    result = proc.run(BUDGET)
    assert proc.kernel_used == "soa"
    assert proc.kernel is not None and proc.kernel.committed == result.committed


def test_soa_progress_guard_raises():
    """The kernel's livelock guard: no forward progress within
    ``max_cycles`` raises rather than spinning."""
    proc = Processor(CONFIG2.with_scheme(SchemeConfig(kind="conventional")),
                     _trace("gzip"), seed=1)
    with pytest.raises(SimulationError, match="no forward progress"):
        proc.run(BUDGET, max_cycles=20)
