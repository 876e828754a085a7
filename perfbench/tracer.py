"""Span tracing for the benchmark's traced run.

The program itself records no spans, so this module wraps the public entry
point of each layer in a timing shim for the duration of one traced phase
(:func:`traced`) and restores the originals afterwards.  A span is
``[name, lane, start, end, rank, attrs]``; a lane is one ``(pid, thread)``,
inside which spans nest like a call stack.

Forked engine pool workers inherit the shims.  Each one starts with an empty
buffer and appends its spans to ``<spool>/<pid>.jsonl`` whenever its call
stack unwinds, which happens before the result travels back to the parent;
:meth:`Tracer.collect` merges the spool files into the parent's spans.

:func:`attribute` turns spans into per-layer wall shares that add up to the
traced wall.  Every instant of the phase is split equally among the lanes
whose innermost open span has the highest *rank* at that instant: work
spans outrank spans that only wait on another lane (a client awaiting the
service, an engine awaiting its pool), which outrank the sweep
orchestrator waiting on its fan-out threads.  A waiting span is therefore
charged only for the time nothing it waits on is inside a span: HTTP
framing and batching for a request, pickling and IPC for a pool dispatch.
Instants with no open span at all are ``unattributed``.
"""

import functools
import json
import os
import threading
import time
import zlib
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Span ranks (see the module docstring).
JOIN, WAIT, WORK = 0, 1, 2

_ACTIVE: Optional["Tracer"] = None


class Tracer:
    """In-memory span buffer of one process, spooled from pool workers."""

    def __init__(self, spool: Path) -> None:
        self.owner = os.getpid()
        self.pid = self.owner
        self.spool = spool
        self.spans: List[list] = []
        #: Operation index, inherited by workers forked during the op;
        #: trace reuse is counted per scope.
        self.scope = 0
        self._local = threading.local()

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, rank: int = WORK) -> list:
        span = [name, (self.pid, threading.get_ident()), time.perf_counter(),
                0.0, rank, None]
        self._stack().append(span)
        return span

    def end(self, span: list) -> None:
        span[3] = time.perf_counter()
        stack = self._stack()
        stack.remove(span)
        self.spans.append(span)
        if not stack and self.pid != self.owner:
            self._flush()

    def _flush(self) -> None:
        with open(self.spool / f"{self.pid}.jsonl", "a") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self._local = threading.local()

    def collect(self) -> List[list]:
        """This process's spans plus every spooled worker span."""
        spans = list(self.spans)
        for path in sorted(self.spool.glob("*.jsonl")):
            with open(path) as handle:
                for line in handle:
                    span = json.loads(line)
                    span[1] = tuple(span[1])
                    spans.append(span)
        return spans


def _after_fork_in_child() -> None:
    if _ACTIVE is not None:
        _ACTIVE._after_fork()


os.register_at_fork(after_in_child=_after_fork_in_child)


# -- shims ----------------------------------------------------------------
Note = Callable[[list, tuple, dict, Any], None]


def _shim(tracer: Tracer, fn: Callable, name: str, rank: int = WORK,
          note: Optional[Note] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name, rank)
        try:
            out = fn(*args, **kwargs)
            if note is not None:
                note(span, args, kwargs, out)
            return out
        finally:
            tracer.end(span)
    return wrapper


def _note_generate(tracer: Tracer) -> Note:
    def note(span, args, kwargs, out):
        workload, count = args[0], args[1]
        identity = f"{workload.spec!r}/{count}".encode()
        span[5] = {"trace": [tracer.scope, zlib.crc32(identity)]}
    return note


def _note_loop(span, args, kwargs, result):
    span[5] = {"committed": result.committed, "cycles": result.cycles,
               "object": args[0].kernel_used == "object"}


def _engine_run(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(self, requests):
        span = tracer.begin("exec.engine_run")
        before = self.stats.executed
        try:
            return fn(self, requests)
        finally:
            # Mirrors ExecutionEngine._run_pending: a batch leaves the
            # process when the engine offloads, or when more than one point
            # misses on a multi-worker engine.  Such a run waits on its pool.
            executed = self.stats.executed - before
            if executed and (self.offload
                             or (self.max_workers > 1 and executed > 1)):
                span[0], span[4] = "exec.pool_dispatch", WAIT
            tracer.end(span)
    return wrapper


def _targets(tracer: Tracer) -> List[Tuple[Any, str, Callable]]:
    """``(owner, attribute, replacement)`` for every shimmed entry point."""
    import repro.analysis.sanitizer as sanitizer
    import repro.api as api
    import repro.exec.engine as engine
    import repro.obs.profile as profile
    import repro.sim.runner as runner
    import repro.sim.soa as soa
    import repro.sweeps.orchestrator as orchestrator
    from repro.exec.cache import ResultCache
    from repro.exec.request import RunRequest
    from repro.service.client import ServiceClient
    from repro.sim.processor import Processor
    from repro.sim.result import SimulationResult
    from repro.sweeps.grid import GridSpec
    from repro.sweeps.ledger import SweepLedger
    from repro.workloads import SyntheticWorkload

    def shim(fn, name, rank=WORK, note=None):
        return _shim(tracer, fn, name, rank, note)

    run_many = shim(runner.run_many, "sim.batch")
    from_dict = SimulationResult.__dict__["from_dict"].__func__
    return [
        (SyntheticWorkload, "generate",
         shim(SyntheticWorkload.generate, "workloads.generate",
              note=_note_generate(tracer))),
        (soa, "trace_soa", shim(soa.trace_soa, "sim.decode")),
        (Processor, "prewarm", shim(Processor.prewarm, "sim.prewarm")),
        (Processor, "run", shim(Processor.run, "sim.loop", note=_note_loop)),
        (runner, "run_many", run_many),
        (engine, "run_many", run_many),
        (SimulationResult, "to_dict",
         shim(SimulationResult.to_dict, "sim.result_serialise")),
        (SimulationResult, "from_dict",
         classmethod(shim(from_dict, "sim.result_serialise"))),
        (engine.ExecutionEngine, "run",
         _engine_run(tracer, engine.ExecutionEngine.run)),
        (RunRequest, "cache_key", shim(RunRequest.cache_key, "exec.cache_key")),
        (ResultCache, "get", shim(ResultCache.get, "exec.cache_get")),
        (ResultCache, "put", shim(ResultCache.put, "exec.cache_put")),
        (GridSpec, "expand", shim(GridSpec.expand, "sweeps.expand")),
        (SweepLedger, "open", shim(SweepLedger.open, "sweeps.ledger_append")),
        (SweepLedger, "append",
         shim(SweepLedger.append, "sweeps.ledger_append")),
        (orchestrator, "run_sweep",
         shim(orchestrator.run_sweep, "sweeps.run_sweep", rank=JOIN)),
        (ServiceClient, "run_point",
         shim(ServiceClient.run_point, "service.request", rank=WAIT)),
        (profile, "profile_workload",
         shim(profile.profile_workload, "obs.profile")),
        (sanitizer, "run_sanitized",
         shim(sanitizer.run_sanitized, "analysis.sanitize")),
        (api, "run", shim(api.run, "api.run")),
    ]


@contextmanager
def traced(spool: Path) -> Iterator[Tracer]:
    """Install every shim for the ``with`` body, then restore the originals."""
    global _ACTIVE
    tracer = Tracer(spool)
    targets = _targets(tracer)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    for owner, attr, replacement in targets:
        setattr(owner, attr, replacement)
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = None
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- attribution ----------------------------------------------------------
def attribute(spans: List[list], t0: float, t1: float
              ) -> Tuple[Dict[str, float], Dict[str, float], float]:
    """``(wall share by span name, lane self time by span name, covered)``.

    Wall shares sum to ``covered``, the part of ``[t0, t1]`` during which
    some span was open; lane self time is each span's own duration minus
    its same-lane children, summed over lanes (it can exceed the wall when
    lanes run in parallel).
    """
    # At equal times, ends come before starts, an outer span opens before
    # its children and a child closes before its parent.
    events: List[Tuple[float, int, float, int]] = []
    for index, span in enumerate(spans):
        start, end = max(span[2], t0), min(span[3], t1)
        if end > start:
            events.append((start, 1, -end, index))
            events.append((end, 0, -start, index))
    events.sort()
    share: Dict[str, float] = defaultdict(float)
    busy: Dict[str, float] = defaultdict(float)
    stacks: Dict[tuple, List[int]] = defaultdict(list)
    covered = 0.0
    last = t0
    for time_, opens, _, index in events:
        dt = time_ - last
        if dt > 0:
            leaves = [spans[stack[-1]] for stack in stacks.values() if stack]
            if leaves:
                top = max(leaf[4] for leaf in leaves)
                winners = [leaf for leaf in leaves if leaf[4] == top]
                for leaf in winners:
                    share[leaf[0]] += dt / len(winners)
                for leaf in leaves:
                    busy[leaf[0]] += dt
                covered += dt
        last = time_
        stack = stacks[spans[index][1]]
        if opens:
            stack.append(index)
        else:
            stack.remove(index)
    return dict(share), dict(busy), covered
