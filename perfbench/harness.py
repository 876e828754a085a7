"""Benchmark harness: set-up timing, measured phases, checks, metrics.

``--trace 0`` times set-up three times (median), runs the workload for the
requested seconds and reports the end-to-end metrics.  ``--trace 1`` runs
half the seconds untraced, repeats exactly the same operations with span
shims installed, and reports the per-layer metrics plus the tracing
overhead.  Both check every output against an independent reference and
print the run's provenance.
"""

import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from perfbench import refs, tracer
from perfbench.workloads import WORKLOADS, Budget, Phase

SETUP_REPEATS = 3
#: What a fresh interpreter imports before it can serve any workload.
WARMUP = ("import repro.api, repro.sweeps, repro.service.server, "
          "repro.obs.profile, repro.analysis.sanitizer")

END_TO_END = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "sim_instr_per_s": "instr/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Span name -> per-layer wall-share metric.
LAYER_SPANS = {
    "workloads.generate": "workloads.generate_s",
    "sim.decode": "sim.decode_s",
    "sim.prewarm": "sim.prewarm_s",
    "sim.loop": "sim.loop_s",
    "sim.batch": "sim.batch_s",
    "sim.result_serialise": "sim.result_serialise_s",
    "exec.engine_run": "exec.engine_run_s",
    "exec.cache_key": "exec.cache_key_s",
    "exec.cache_get": "exec.cache_get_s",
    "exec.cache_put": "exec.cache_put_s",
    "exec.pool_dispatch": "exec.pool_dispatch_s",
    "api.run": "api.run_s",
    "sweeps.expand": "sweeps.expand_s",
    "sweeps.ledger_append": "sweeps.ledger_append_s",
    "sweeps.run_sweep": "sweeps.run_sweep_s",
    "service.request": "service.request_s",
    "obs.profile": "obs.profile_self_s",
    "analysis.sanitize": "analysis.sanitize_self_s",
}

#: Every per-layer metric and its unit, reported on every workload (zero
#: where the workload does not reach the layer).
PER_LAYER = {
    **{metric: "s" for metric in LAYER_SPANS.values()},
    "unattributed_s": "s",
    "workloads.generate_calls": "count",
    "workloads.trace_reuse": "ratio",
    "sim.host_us_per_instr": "us/instr",
    "sim.host_us_per_cycle": "us/cycle",
    "sim.object_kernel_frac": "ratio",
    "exec.memo_hits": "count",
    "exec.disk_hits": "count",
    "exec.executed": "count",
    "sweeps.claims": "count",
    "sweeps.stolen": "count",
    "sweeps.worker_busy_frac": "ratio",
    "service.server_p50_ms": "ms",
    "service.wire_p50_ms": "ms",
    "service.batch_mean": "count",
    "service.coalesced": "count",
    "service.rejected": "count",
    "obs.events": "count",
    "sim.cycles": "count",
    "core.replays": "count",
    "core.lq_searches_assoc": "count",
    "core.stores_unsafe": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.points": "count",
}


def percentile(samples: List[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, -(-len(ordered) * pct // 100) - 1))
    return ordered[int(rank)]


def interpreter_warmup(root: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    subprocess.run([sys.executable, "-c", WARMUP], env=env, cwd=root,
                   check=True)


def timed_setup(workload, tmp: Path, root: Path) -> Tuple[List[float], Any]:
    """Set up ``SETUP_REPEATS`` times; keep the last state for the run."""
    from repro.exec.request import simulator_fingerprint

    times = []
    state = None
    for attempt in range(SETUP_REPEATS):
        if state is not None:
            workload.close(state)
        began = time.perf_counter()
        interpreter_warmup(root)
        simulator_fingerprint.cache_clear()
        simulator_fingerprint()
        state = workload.setup(tmp / f"setup{attempt}")
        times.append(time.perf_counter() - began)
    return times, state


def verify(workload, phases: List[Phase], root: Path) -> List[str]:
    """Compare every output with its reference; returns failure lines."""
    tasks: Dict[Tuple[str, str], Any] = {}
    checks = []
    for phase in phases:
        for kind, point, observed in workload.checks(phase):
            task = (kind, refs.canonical(point))
            tasks.setdefault(task, (kind, point))
            checks.append((task, observed))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root)]))
    proc = subprocess.run([sys.executable, "-m", "perfbench.refs"],
                          input=json.dumps(list(tasks.values())), env=env,
                          cwd=root, stdout=subprocess.PIPE, text=True,
                          check=True)
    expected = dict(zip(tasks, json.loads(proc.stdout)))
    return [f"output differs from {task[0]} for {task[1]}"
            for task, observed in checks if expected[task] != observed]


def provenance(root: Path, args) -> Dict[str, Any]:
    from repro.exec.request import simulator_fingerprint

    sha = None
    if shutil.which("git"):
        probe = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        if probe.returncode == 0:
            sha = probe.stdout.strip()
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        "simulator_fingerprint": simulator_fingerprint(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repro_env": {key: value for key, value in sorted(os.environ.items())
                      if key.startswith("REPRO_")},
    }


def end_to_end(setup_times: List[float], phase: Phase,
               peak_rss_mb: float) -> Dict[str, Tuple[float, str]]:
    """``metric -> (value, sample note)``."""
    n = f"n={len(phase.latencies)}"
    return {
        "setup_s": (statistics.median(setup_times),
                    f"median of {len(setup_times)}"),
        "points_per_s": (phase.points / phase.wall,
                         f"{phase.points} points in {phase.wall:.2f} s"),
        "sim_instr_per_s": (phase.instructions / phase.wall,
                            f"{phase.instructions} instr"),
        "latency_p50_ms": (1e3 * percentile(phase.latencies, 50), n),
        "latency_p90_ms": (1e3 * percentile(phase.latencies, 90), n),
        "peak_rss_mb": (peak_rss_mb, "ru_maxrss"),
    }


def per_layer(phase: Phase, untraced: Phase,
              spans: List[list]) -> Dict[str, float]:
    t0, wall = phase.start, phase.wall
    t1 = t0 + wall
    share, busy, covered = tracer.attribute(spans, t0, t1)
    metrics = {metric: 0.0 for metric in PER_LAYER}
    for name, metric in LAYER_SPANS.items():
        metrics[metric] = share.get(name, 0.0)
    metrics["unattributed_s"] = wall - covered

    inside = [span for span in spans if span[2] >= t0 and span[3] <= t1]
    generated = [span[5]["trace"] for span in inside
                 if span[0] == "workloads.generate"]
    metrics["workloads.generate_calls"] = len(generated)
    if generated:
        metrics["workloads.trace_reuse"] = (
            len({tuple(key) for key in generated}) / len(generated))
    loops = [span[5] for span in inside if span[0] == "sim.loop"]
    committed = sum(loop["committed"] for loop in loops)
    cycles = sum(loop["cycles"] for loop in loops)
    if loops:
        metrics["sim.host_us_per_instr"] = 1e6 * busy.get("sim.loop", 0.0) / committed
        metrics["sim.host_us_per_cycle"] = 1e6 * busy.get("sim.loop", 0.0) / cycles
        metrics["sim.object_kernel_frac"] = (
            sum(loop["object"] for loop in loops) / len(loops))
    sweeping = sum(span[3] - span[2] for span in inside
                   if span[0] == "sweeps.run_sweep")
    if sweeping:
        dispatching = sum(span[3] - span[2] for span in inside
                          if span[0] == "exec.pool_dispatch")
        metrics["sweeps.worker_busy_frac"] = dispatching / (2 * sweeping)
    metrics.update(phase.counts)
    if "service.server_p50_ms" in phase.counts:
        metrics["service.wire_p50_ms"] = (
            1e3 * percentile(phase.latencies, 50)
            - phase.counts["service.server_p50_ms"])
    metrics.update(phase.modelled)
    metrics["trace.wall_s"] = wall
    metrics["trace.untraced_wall_s"] = untraced.wall
    metrics["trace.overhead_frac"] = wall / untraced.wall - 1
    metrics["trace.points"] = phase.points
    return metrics


def _measure(args, workload, root: Path, tmp: Path):
    """Returns ``(metrics, notes, phases)`` for the requested mode."""
    if not args.trace:
        setup_times, state = timed_setup(workload, tmp / "main", root)
        try:
            workload.warmup(state)
            phase = workload.run(state, Budget(seconds=args.seconds))
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        finally:
            workload.close(state)
        rows = end_to_end(setup_times, phase, peak)
        metrics = {name: (value, END_TO_END[name])
                   for name, (value, _) in rows.items()}
        notes = {name: note for name, (_, note) in rows.items()}
        if workload.name == "service-hits":
            notes["latency_p99_ms"] = (
                f"{1e3 * percentile(phase.latencies, 99):.4f} ms "
                f"(n={len(phase.latencies)}, informational)")
        return metrics, notes, [phase]

    state = workload.setup(tmp / "untraced")
    try:
        workload.warmup(state)
        untraced = workload.run(state, Budget(seconds=args.seconds / 2))
    finally:
        workload.close(state)
    state = workload.setup(tmp / "traced")
    spool = tmp / "spool"
    spool.mkdir()
    try:
        workload.warmup(state)
        with tracer.traced(spool) as recorder:
            phase = workload.run(state, Budget(ops=list(untraced.ops)),
                                 tracer=recorder)
    finally:
        workload.close(state)
    layers = per_layer(phase, untraced, recorder.collect())
    metrics = {name: (layers[name], PER_LAYER[name]) for name in PER_LAYER}
    notes = {"trace.points": f"{untraced.points} untraced"}
    return metrics, notes, [untraced, phase]


def main(args, root: Path) -> int:
    workload = WORKLOADS[args.workload](args.seed)
    scratch = root / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    os.environ["REPRO_CACHE_DIR"] = str(tmp / "default-cache")
    try:
        info = provenance(root, args)
        metrics, notes, phases = _measure(args, workload, root, tmp)
        mismatches = verify(workload, phases, root)
        failures = [error for phase in phases for error in phase.errors]
        failures += mismatches
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        for child in multiprocessing.active_children():
            child.join(timeout=10)
    attempted = sum(phase.points for phase in phases)
    failed = min(attempted, len(failures))

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<28} {value:>16.4f} {unit:<9} {note}")
    if "latency_p99_ms" in notes:
        print(f"  {'latency_p99_ms':<28} {notes['latency_p99_ms']}")
    print(f"  {'failed_frac':<28} {failed / max(attempted, 1):>16.4f} "
          f"{'ratio':<9} {failed} of {attempted}")
    for failure in failures:
        print(f"  FAILED {failure}", file=sys.stderr)
    print("provenance " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failures else 1
