"""The benchmark's four workloads.

Each is a closed loop: one caller (two client threads for ``service-hits``)
sends the next operation only after the previous one returned.  Inputs are
a pure function of the seed; the mix of work is not, so runs on different
seeds measure the same mix on different inputs.  A workload runs under a
:class:`Budget`: for a wall time, or for an exact operation count, which
the traced phase uses to repeat the untraced phase's work.  ``run`` keeps
raw outputs; ``checks`` turns them into ``(reference, point, observed)``
triples once tracing is off.
"""

import random
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

import repro.analysis.sanitizer as sanitizer
import repro.sweeps.orchestrator as orchestrator
from repro import api
from repro.exec.engine import ExecutionEngine, use_engine
from repro.exec.options import EngineOptions
from repro.service.client import ServiceClient
from repro.service.server import ServiceConfig, create_server
from repro.sim.config import SCHEME_LABELS
from repro.sweeps.grid import GridSpec, get_preset
from repro.sweeps.ledger import read_ledger
from repro.sweeps.points import normalize_point
from repro.workloads import FP_WORKLOADS, INT_WORKLOADS, SUITE, WorkloadSpec

from perfbench.refs import canonical

NAMES: Tuple[str, ...] = tuple(INT_WORKLOADS + FP_WORKLOADS)
LABELS: Tuple[str, ...] = SCHEME_LABELS
#: Counters summed over the count window (modelled, exact for a seed).
MODELLED = (("core.replays", "replays"),
            ("core.lq_searches_assoc", "lq.searches_assoc"),
            ("core.stores_unsafe", "stores.unsafe"))
#: Budget of the untimed operation each phase starts with, which finishes
#: lazy imports and first-use allocations before the clock starts.
WARMUP_INSTRUCTIONS = 1_000

#: Wire-format point: what ``normalize_point`` accepts.
Point = Dict[str, Any]


def point(workload: Any, scheme: str, instructions: int, seed: int) -> Point:
    return {"workload": workload, "scheme": scheme, "config": "config2",
            "instructions": instructions, "seed": seed}


def pairing(index: int) -> Tuple[str, str, int]:
    """(suite workload, scheme label, position in the round) of op ``index``.

    Every 26 ops cover each suite workload once, with all 9 labels.  Every
    round pairs the same workloads with the same labels, so a run that
    fits one more round measures the same mix.
    """
    pos = index % len(NAMES)
    return NAMES[pos], LABELS[pos % len(LABELS)], pos


@dataclass
class Budget:
    """Run exactly ``ops[lane]`` ops, or whole rounds of ``round_`` ops
    until at least ``seconds`` have passed.  Whole rounds keep the mix of
    work, and so the latency percentiles, the same from run to run."""

    seconds: Optional[float] = None
    ops: Optional[List[int]] = None

    def done(self, lane: int, index: int, start: float, round_: int = 1) -> bool:
        if self.ops is not None:
            return index >= self.ops[lane]
        if index == 0 or index % round_:
            return False
        return time.perf_counter() - start >= self.seconds


@dataclass
class Phase:
    """What one measured phase did and produced."""

    start: float = 0.0                # perf_counter at the first op
    wall: float = 0.0
    ops: List[int] = field(default_factory=list)   # completed per lane
    points: int = 0                   # design points or requests served
    instructions: int = 0             # simulated instructions delivered
    latencies: List[float] = field(default_factory=list)   # seconds
    errors: List[str] = field(default_factory=list)
    outputs: List[Any] = field(default_factory=list)
    #: Modelled counts over the first ``window`` ops of each lane.
    modelled: Counter = field(default_factory=Counter)
    #: Layer counts the workload reads from the program after the phase.
    counts: Dict[str, float] = field(default_factory=dict)

    def add_modelled(self, cycles: int, counters: Dict[str, int]) -> None:
        self.modelled["sim.cycles"] += cycles
        for metric, counter in MODELLED:
            self.modelled[metric] += int(counters.get(counter, 0))


class ColdPoints:
    """``api.run`` on distinct, never-seen points; disk cache off."""

    name = "cold-points"
    window = len(NAMES)
    instructions = 12_000

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.base = random.Random(f"cold:{seed}").getrandbits(40)

    def op(self, index: int) -> Tuple[WorkloadSpec, Point]:
        name, label, _ = pairing(index)
        spec = replace(SUITE[name].spec, seed=self.base + index)
        return spec, point(asdict(spec), label, self.instructions, 1)

    def setup(self, tmp: Path) -> ExecutionEngine:
        return ExecutionEngine(cache=None, max_workers=1)

    def close(self, engine: ExecutionEngine) -> None:
        engine.close()

    def warmup(self, engine: ExecutionEngine) -> None:
        spec = replace(SUITE["gzip"].spec, seed=self.base - 1)
        with use_engine(engine):
            api.run(spec, instructions=WARMUP_INSTRUCTIONS)

    def run(self, engine: ExecutionEngine, budget: Budget, tracer=None) -> Phase:
        phase = Phase()
        stats = engine.stats
        before = (stats.memo_hits, stats.disk_hits, stats.executed)
        start = phase.start = time.perf_counter()
        index = 0
        with use_engine(engine):
            while not budget.done(0, index, start, len(NAMES)):
                spec, wire = self.op(index)
                if tracer is not None:
                    tracer.scope = index
                began = time.perf_counter()
                try:
                    result = api.run(spec, scheme=wire["scheme"],
                                     config="config2",
                                     instructions=self.instructions, seed=1)
                except Exception as exc:  # a failed op is counted, not fatal
                    phase.errors.append(f"{_describe(wire)}: {exc!r}")
                else:
                    phase.latencies.append(time.perf_counter() - began)
                    phase.outputs.append((index, wire, result))
                index += 1
        phase.wall = time.perf_counter() - start
        phase.ops = [index]
        phase.points = index
        phase.counts = {"exec.memo_hits": stats.memo_hits - before[0],
                        "exec.disk_hits": stats.disk_hits - before[1],
                        "exec.executed": stats.executed - before[2]}
        for index, _, result in phase.outputs:
            phase.instructions += result.committed
            if index < self.window:
                phase.add_modelled(result.cycles, result.counters.as_dict())
        return phase

    def checks(self, phase: Phase) -> List[Tuple[str, Point, str]]:
        return [("solo_result", wire, canonical(result.to_dict()))
                for _, wire, result in phase.outputs]


class SweepGrid:
    """Cold ``run_sweep`` of 9 schemes x 4 workloads over a 2-worker pool."""

    name = "sweep-grid"
    window = 1
    workloads = ("gzip", "equake", "mcf", "twolf")
    instructions = 12_000
    workers = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def grid(self) -> GridSpec:
        return GridSpec.from_kwargs(
            list(self.workloads), schemes=list(LABELS), config="config2",
            instructions=self.instructions, seed=self.seed, name="perfbench")

    def setup(self, tmp: Path) -> Path:
        tmp.mkdir(parents=True)
        return tmp

    def close(self, tmp: Path) -> None:
        pass

    def warmup(self, tmp: Path) -> None:
        run_dir = tmp / "warmup"
        run_dir.mkdir()
        grid = GridSpec.from_kwargs(["gzip", "mcf"], schemes=["conventional"],
                                    instructions=WARMUP_INSTRUCTIONS,
                                    name="warmup")
        engine = ExecutionEngine(options=EngineOptions(
            cache_dir=run_dir / "cache", max_workers=self.workers))
        orchestrator.run_sweep(grid, engine=engine, workers=self.workers,
                               ledger=str(run_dir / "ledger.jsonl"))

    def run(self, tmp: Path, budget: Budget, tracer=None) -> Phase:
        phase = Phase()
        claims = stolen = 0
        counts: Counter = Counter()
        start = phase.start = time.perf_counter()
        index = 0
        while not budget.done(0, index, start):
            if tracer is not None:
                tracer.scope = index
            run_dir = tmp / f"sweep{index}"
            run_dir.mkdir()
            marks: List[float] = []
            began = time.perf_counter()
            engine = ExecutionEngine(options=EngineOptions(
                cache_dir=run_dir / "cache", max_workers=self.workers))
            ledger = str(run_dir / "ledger.jsonl")
            try:
                outcome = orchestrator.run_sweep(
                    self.grid(), engine=engine, workers=self.workers,
                    ledger=ledger,
                    progress=lambda *_: marks.append(time.perf_counter()))
            except Exception as exc:  # a failed sweep is counted, not fatal
                phase.errors.append(f"sweep {index}: {exc!r}")
            else:
                # A point's latency: sweep start until its line is durable.
                phase.latencies.extend(mark - began for mark in marks)
                accounting = outcome.accounting
                phase.errors.extend(f"sweep {index}: {name}"
                                    for name in accounting.failed_points)
                if not outcome.complete and not accounting.failed_points:
                    phase.errors.append(f"sweep {index}: incomplete")
                phase.outputs.append((index, ledger, len(outcome.keys)))
                claims += sum(w["claimed"] for w in accounting.workers)
                stolen += accounting.stolen
                counts.update(executed=accounting.executed,
                              memo_hits=accounting.memo_hits,
                              disk_hits=accounting.disk_hits)
            index += 1
        phase.wall = time.perf_counter() - start
        phase.ops = [index]
        phase.counts = {"sweeps.claims": claims, "sweeps.stolen": stolen,
                        **{f"exec.{k}": v for k, v in counts.items()}}
        for index, ledger, _ in phase.outputs:
            _, entries = read_ledger(ledger)
            phase.points += len(entries)
            for entry in entries:
                phase.instructions += entry["summary"]["committed"]
                if index < self.window:
                    phase.add_modelled(entry["summary"]["cycles"],
                                       entry["counters"])
        return phase

    def checks(self, phase: Phase) -> List[Tuple[str, Point, str]]:
        out = []
        for index, ledger, expected in phase.outputs:
            _, entries = read_ledger(ledger)
            if len(entries) != expected:
                phase.errors.append(f"sweep {index}: ledger holds "
                                    f"{len(entries)}/{expected} points")
            out.extend(("solo_ledger_entry", entry["point"], canonical(entry))
                       for entry in entries)
        return out


@dataclass
class _Service:
    server: Any
    thread: threading.Thread
    port: int


class ServiceHits:
    """An in-process 1-shard service under 2 keep-alive clients re-requesting
    the committed ``demo64`` grid, pre-populated into the disk cache, plus a
    seeded fresh minority.

    The traffic is the CI ``sweep-smoke`` warm pass served one point per
    request: the hot set is the ``demo64`` expansion (66 points of 3000
    instructions) at a seeded processor seed, and ``fresh_share`` is the
    miss rate that job's ``hit_rate >= 0.95`` gate still accepts.  A fresh
    point is a ``demo64`` point at a new processor seed.
    """

    name = "service-hits"
    window = 40
    clients = 2
    fresh_share = 0.05

    def __init__(self, seed: int) -> None:
        self.seed = seed
        demo = get_preset("demo64")
        self.hot_seed = random.Random(f"hot:{seed}").randrange(1, 1 << 20)
        self.hot = replace(demo, base={**demo.base, "seed": self.hot_seed}
                           ).expand().points

    def fresh(self, index: int) -> Point:
        rng = random.Random(f"fresh:{self.seed}:{index}")
        return dict(rng.choice(self.hot), seed=self.hot_seed + 1 + index)

    def sequence(self, client: int) -> Iterator[Point]:
        """One client's requests; fresh points come from one shared list
        in the same order for both clients, so some coalesce in flight."""
        rng = random.Random(f"client:{self.seed}:{client}")
        fresh = 0
        while True:
            if rng.random() < self.fresh_share:
                yield self.fresh(fresh)
                fresh += 1
            else:
                yield self.hot[rng.randrange(len(self.hot))]

    def setup(self, tmp: Path) -> _Service:
        options = EngineOptions(cache_dir=tmp / "cache", max_workers=2)
        engine = ExecutionEngine(options=options)
        try:
            engine.run([normalize_point(wire) for wire in self.hot])
        finally:
            engine.close()
        server = create_server(ServiceConfig(port=0, shards=1,
                                             engine_options=options))
        thread = threading.Thread(target=server.serve_forever,
                                  name="perfbench-serve")
        thread.start()
        port = server.server_address[1]
        client = ServiceClient(port=port)
        client.healthz()
        client.close()
        return _Service(server, thread, port)

    def close(self, service: _Service) -> None:
        service.server.drain_and_stop()
        service.thread.join(timeout=30)
        service.server.server_close()

    def warmup(self, service: _Service) -> None:
        client = ServiceClient(port=service.port)
        wire = point("gzip", "conventional", WARMUP_INSTRUCTIONS, 1)
        for _ in range(4):
            client.run_point(wire, counters=True)
        client.close()

    @staticmethod
    def _counts(service: _Service) -> Dict[str, float]:
        """Service and engine counters from ``/metrics``."""
        client = ServiceClient(port=service.port)
        snapshot = client.metrics()
        client.close()
        engine = snapshot.get("engine", {})
        block = snapshot["service"]
        return {
            "service.server_p50_ms":
                1e3 * (snapshot["latency"]["p50_seconds"] or 0.0),
            "service.batch_mean": snapshot["batching"]["mean_batch"],
            "service.coalesced": block["coalesced_inflight"],
            "service.rejected": (block["rejected_saturation"]
                                 + block["rejected_draining"]),
            "exec.memo_hits": engine.get("memo_hits", 0),
            "exec.disk_hits": engine.get("disk_hits", 0),
            "exec.executed": engine.get("executed", 0),
        }

    def run(self, service: _Service, budget: Budget, tracer=None) -> Phase:
        phase = Phase(ops=[0] * self.clients)
        lock = threading.Lock()
        before = self._counts(service)
        start = phase.start = time.perf_counter()

        def drive(lane: int) -> None:
            client = ServiceClient(port=service.port, timeout=120)
            requests = self.sequence(lane)
            index = 0
            try:
                while not budget.done(lane, index, start):
                    wire = next(requests)
                    began = time.perf_counter()
                    try:
                        body = client.run_point(wire, counters=True)
                    except Exception as exc:  # counted, not fatal
                        with lock:
                            phase.errors.append(
                                f"client {lane} request {index} "
                                f"{_describe(wire)}: {exc!r}")
                    else:
                        elapsed = time.perf_counter() - began
                        with lock:
                            phase.latencies.append(elapsed)
                            phase.outputs.append((lane, index, wire, body))
                    index += 1
            finally:
                phase.ops[lane] = index
                client.close()

        threads = [threading.Thread(target=drive, args=(lane,),
                                    name=f"perfbench-client-{lane}")
                   for lane in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.wall = time.perf_counter() - start
        phase.points = sum(phase.ops)
        after = self._counts(service)
        phase.counts = {name: after[name] - before[name] for name in after}
        phase.counts["service.server_p50_ms"] = after["service.server_p50_ms"]
        phase.counts["service.batch_mean"] = after["service.batch_mean"]
        for _, index, _, body in phase.outputs:
            phase.instructions += body["summary"]["committed"]
            if index < self.window:
                phase.add_modelled(body["summary"]["cycles"], body["counters"])
        return phase

    def checks(self, phase: Phase) -> List[Tuple[str, Point, str]]:
        return [("local_response", wire, canonical(body))
                for _, _, wire, body in phase.outputs]


class ProfiledPoints:
    """``api.profile`` and ``run_sanitized`` on seeded points."""

    name = "profiled-points"
    window = len(NAMES)
    instructions = 6_000

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def op(self, index: int) -> Tuple[str, Point]:
        name, label, pos = pairing(index)
        proc_seed = random.Random(f"profiled:{self.seed}:{index}").randrange(
            1, 1 << 20)
        kind = "profile" if pos % 2 == 0 else "sanitize"
        return kind, point(name, label, self.instructions, proc_seed)

    def setup(self, tmp: Path) -> None:
        return None

    def close(self, state: None) -> None:
        pass

    def warmup(self, state: None) -> None:
        api.profile("gzip", instructions=WARMUP_INSTRUCTIONS)
        request = normalize_point(point("gzip", "dmdc", WARMUP_INSTRUCTIONS, 1))
        sanitizer.run_sanitized(
            request.config, request.resolve_workload().generate(
                WARMUP_INSTRUCTIONS + 2_000),
            max_instructions=WARMUP_INSTRUCTIONS)

    def run(self, state: None, budget: Budget, tracer=None) -> Phase:
        phase = Phase()
        events = 0
        start = phase.start = time.perf_counter()
        index = 0
        while not budget.done(0, index, start, len(NAMES)):
            kind, wire = self.op(index)
            if tracer is not None:
                tracer.scope = index
            began = time.perf_counter()
            try:
                if kind == "profile":
                    report = api.profile(wire["workload"],
                                         scheme=wire["scheme"],
                                         config="config2",
                                         instructions=self.instructions,
                                         seed=wire["seed"])
                    result, ok = report.result, report.ok
                    events += report.recorder.events_emitted
                else:
                    request = normalize_point(wire)
                    trace = request.resolve_workload().generate(
                        self.instructions + 2_000)
                    result, report = sanitizer.run_sanitized(
                        request.config, trace,
                        max_instructions=self.instructions,
                        seed=wire["seed"])
                    ok = report.clean
            except Exception as exc:  # a failed op is counted, not fatal
                phase.errors.append(f"{kind} {_describe(wire)}: {exc!r}")
            else:
                phase.latencies.append(time.perf_counter() - began)
                if not ok:
                    phase.errors.append(
                        f"{kind} {_describe(wire)}: "
                        + ("attribution does not reconcile"
                           if kind == "profile" else "sanitizer report not clean"))
                phase.outputs.append((index, wire, result))
            index += 1
        phase.wall = time.perf_counter() - start
        phase.ops = [index]
        phase.points = index
        phase.counts = {"obs.events": events}
        for index, _, result in phase.outputs:
            phase.instructions += result.committed
            if index < self.window:
                phase.add_modelled(result.cycles, result.counters.as_dict())
        return phase

    def checks(self, phase: Phase) -> List[Tuple[str, Point, str]]:
        return [("solo_result", wire, canonical(result.to_dict()))
                for _, wire, result in phase.outputs]


def _describe(wire: Point) -> str:
    workload = wire["workload"]
    name = workload["name"] if isinstance(workload, dict) else workload
    return (f"{name}/{wire['scheme']}/{wire['instructions']}"
            f"/seed={wire['seed']}")


WORKLOADS = {cls.name: cls for cls in
             (ColdPoints, SweepGrid, ServiceHits, ProfiledPoints)}
