"""Structured observability for the simulator (see ``docs/observability.md``).

The package turns the pipeline's one observer slot (``Processor.tracer``,
whose ``record(kind, instr, cycle, detail="")`` receives every kind in
:data:`EVENT_KINDS`) into a typed event stream plus exact per-structure
attribution:

* :mod:`repro.obs.events` — the :class:`ObsEvent` record, the bounded
  in-memory :class:`EventRing`, and the :class:`JsonlSink` file writer;
* :mod:`repro.obs.recorder` — :class:`ObservabilityRecorder`, which sits
  in that slot, receives pipeline, replay and scheme events, and
  accumulates cycle buckets, structure residency, and replay taxonomy
  while the simulation runs;
* :mod:`repro.obs.attribution` — reconciles the event-derived totals
  against the run's own :class:`~repro.stats.counters.CounterSet`,
  line by line and exactly;
* :mod:`repro.obs.profile` — the ``repro profile`` / ``repro.api.profile``
  entry points rendering the report, top replay sites, and a
  pipetrace-aligned timeline.

Observability is strictly zero-cost when off: every emit site in the
pipeline and the schemes is an ``is None`` test on a pre-bound attribute,
and attaching a recorder is proven bit-invisible across the full scheme
matrix (``tests/test_obs_matrix.py``).  Profiled runs take the same kernel
path as plain ones, idle-cycle skipper included.
"""

from repro.obs.attribution import AttributionReport, ReconLine, build_attribution
from repro.obs.events import EVENT_KINDS, EventRing, JsonlSink, ObsEvent
from repro.obs.recorder import ObservabilityRecorder, attach_observer
from repro.obs.profile import (
    ProfileReport,
    profile_request,
    profile_run,
    profile_workload,
)

__all__ = [
    "EVENT_KINDS",
    "ObsEvent",
    "EventRing",
    "JsonlSink",
    "ObservabilityRecorder",
    "attach_observer",
    "AttributionReport",
    "ReconLine",
    "build_attribution",
    "ProfileReport",
    "profile_run",
    "profile_workload",
    "profile_request",
]
