"""Golden outputs of every observed and injected run, pinned in a file.

``tests/golden/kernel_golden.json`` freezes what the simulator produced
for the runs the equivalence suites exercise: plain results over the
scheme matrix, the observability recorder's tallies and attribution, the
sanitizer's reports, the pipetrace timelines of sanitized runs, the
invalidation-injector configurations, and one validated run.  Live output
must match the file exactly, section by section.

Regenerate deliberately (never to make a failure go away)::

    PYTHONPATH=src python -m tests.test_kernel_golden --write
"""

import json
import sys
from pathlib import Path

import pytest

from repro.analysis.sanitizer import SCHEME_MATRIX, attach_sanitizer, run_sanitized
from repro.isa.opcodes import InstrClass
from repro.obs import profile_run
from repro.sim.config import CONFIG2, SchemeConfig, small_config
from repro.sim.pipetrace import PipelineTracer
from repro.sim.processor import Processor
from repro.sim.runner import run_trace, run_workload
from repro.sim.validate import run_with_validation
from repro.workloads import get_workload
from tests.conftest import TraceBuilder

GOLDEN = Path(__file__).parent / "golden" / "kernel_golden.json"

WORKLOADS = ("gzip", "mcf")

#: Budgets of the suites whose runs are pinned here.
RESULT_BUDGET = 2_500     # test_soa_equivalence
OBS_BUDGET = 4_000        # test_obs_matrix
SANITIZER_BUDGET = 6_000  # test_sanitizer_matrix

_TRACES = {}


def _trace(name, budget):
    key = (name, budget)
    if key not in _TRACES:
        _TRACES[key] = get_workload(name).generate(budget + 2_000)
    return _TRACES[key]


def _matrix():
    for workload in WORKLOADS:
        for label in sorted(SCHEME_MATRIX):
            yield f"{label}/{workload}", workload, CONFIG2.with_scheme(SCHEME_MATRIX[label])


def _results():
    return {
        key: run_trace(config, _trace(workload, RESULT_BUDGET),
                       max_instructions=RESULT_BUDGET, seed=1).to_dict()
        for key, workload, config in _matrix()
    }


def _obs():
    out = {}
    for key, workload, config in _matrix():
        report = profile_run(config, _trace(workload, OBS_BUDGET),
                             instructions=OBS_BUDGET, seed=1)
        rec = report.recorder
        out[key] = {
            "attribution": report.attribution.to_dict(),
            "summary": report.summary(),
            "pipeline_counts": dict(rec.pipeline_counts),
            "dispatch": [rec.dispatch_loads, rec.dispatch_stores],
            "residency": [rec.rob_residency, rec.lq_residency, rec.sq_residency],
            "replays_by_cause": dict(rec.replays_by_cause),
        }
    return out


def _sanitizer():
    return {
        key: run_sanitized(config, _trace(workload, SANITIZER_BUDGET),
                           max_instructions=SANITIZER_BUDGET, seed=1)[1].as_dict()
        for key, workload, config in _matrix()
    }


def _violation_trace():
    b = TraceBuilder()
    b.fill(4)
    b.alu(dst=10, cls=InstrClass.IDIV)
    b.store(0x800, srcs=(10,), data_src=28)
    b.load(0x800, dst=11)
    b.fill(40)
    return b.build()


def _timelines():
    out = {}
    base = small_config(wrongpath_loads=False)
    for name, config in (("dmdc", base.with_scheme(SchemeConfig(kind="dmdc"))),
                         ("conventional", base)):
        for sanitize in (False, True):
            trace = _violation_trace()
            proc = Processor(config, trace)
            proc.tracer = PipelineTracer(capacity=512)
            if sanitize:
                attach_sanitizer(proc)
            proc.run(len(trace))
            key = f"{name}/{'sanitized' if sanitize else 'plain'}"
            out[key] = proc.tracer.render_timeline(max_rows=64, max_width=200)
    return out


def _injector():
    gzip = get_workload("gzip")
    dmdc = SchemeConfig(kind="dmdc", coherence=True)
    cases = {
        "dmdc-coherent-quiet": (small_config().with_scheme(dmdc), 3000),
        "dmdc-coherent-100": (small_config().with_scheme(dmdc)
                              .with_overrides(invalidation_rate=100.0), 3000),
        "dmdc-coherent-200": (small_config().with_scheme(dmdc)
                              .with_overrides(invalidation_rate=200.0), 3000),
        "dmdc-100": (small_config().with_scheme(SchemeConfig(kind="dmdc"))
                     .with_overrides(invalidation_rate=100.0), 2000),
        "conventional-coherent-100": (
            small_config().with_scheme(
                SchemeConfig(kind="conventional", coherence=True))
            .with_overrides(invalidation_rate=100.0), 2000),
    }
    return {
        key: run_workload(config, gzip, max_instructions=budget).to_dict()
        for key, (config, budget) in cases.items()
    }


def _validated():
    config = small_config().with_scheme(
        SchemeConfig(kind="dmdc", coherence=True)
    ).with_overrides(invalidation_rate=100.0)
    proc = Processor(config, get_workload("mcf").generate(900))
    return {"dmdc-coherent-mcf": run_with_validation(proc, 700, every_cycles=5).to_dict()}


SECTIONS = {
    "results": _results,
    "obs": _obs,
    "sanitizer": _sanitizer,
    "timelines": _timelines,
    "injector": _injector,
    "validated": _validated,
}


def _canonical(payload):
    """JSON round trip, so live output compares like the stored file."""
    return json.loads(json.dumps(payload, sort_keys=True))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_live_output_matches_golden(golden, section):
    live = _canonical(SECTIONS[section]())
    expected = golden[section]
    assert sorted(live) == sorted(expected)
    for key in sorted(expected):
        assert live[key] == expected[key], f"{section}/{key} drifted from the golden file"


def test_sanitized_timelines_match_plain(golden):
    timelines = golden["timelines"]
    for name in ("dmdc", "conventional"):
        assert timelines[f"{name}/sanitized"] == timelines[f"{name}/plain"]


def _write() -> None:
    payload = {name: _canonical(build()) for name, build in SECTIONS.items()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_kernel_golden --write")
    _write()
