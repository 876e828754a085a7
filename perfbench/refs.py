"""Independent references for output checks, run in a fresh interpreter.

Every function takes one wire-format design point (the payload
``repro.sweeps.points.normalize_point`` accepts) and returns canonical JSON
to compare byte for byte with what the measured path produced.

    python3 -m perfbench.refs < tasks.json > references.json

reads a JSON list of ``[reference name, point]`` tasks and writes the list
of their references, computed on a 2-process pool forked from this clean
interpreter.  The caller waits for the interpreter, and the interpreter for
its pool, so no process outlives the check.
"""

import concurrent.futures
import json
import multiprocessing
import sys
from typing import Any, Dict

from repro.exec.engine import ExecutionEngine
from repro.sim.runner import run_trace
from repro.sweeps.points import describe_result, ledger_entry, normalize_point


def canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _solo(point: Dict[str, Any]):
    """The point simulated alone through ``run_trace``: no engine, no batch."""
    request = normalize_point(point)
    trace = request.resolve_workload().generate(request.budget + 2_000)
    result = run_trace(request.config, trace,
                       max_instructions=request.budget, seed=request.seed)
    return request, result


def solo_result(point: Dict[str, Any]) -> str:
    """``SimulationResult.to_dict`` of a solo run."""
    return canonical(_solo(point)[1].to_dict())


def solo_ledger_entry(point: Dict[str, Any]) -> str:
    """The sweep-ledger line a solo run of the point yields."""
    request, result = _solo(point)
    return canonical(ledger_entry(request, result.summary(),
                                  result.counters.as_dict()))


def local_response(point: Dict[str, Any]) -> str:
    """The service response body a local, cache-free engine yields."""
    request = normalize_point(point)
    engine = ExecutionEngine(cache=None, max_workers=1)
    try:
        result = engine.run([request])[0]
    finally:
        engine.close()
    return canonical(json.loads(canonical(
        describe_result(request, result, counters=True))))


REFERENCES = {
    "solo_result": solo_result,
    "solo_ledger_entry": solo_ledger_entry,
    "local_response": local_response,
}


def reference(task):
    """Pool entry point: ``task`` is ``(reference name, point)``."""
    kind, point = task
    return REFERENCES[kind](point)


def main() -> None:
    tasks = json.load(sys.stdin)
    context = multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=2, mp_context=context) as pool:
        expected = list(pool.map(reference, tasks, chunksize=4))
    json.dump(expected, sys.stdout)


if __name__ == "__main__":
    main()
