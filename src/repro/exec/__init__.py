"""Shared execution engine: canonical run requests, a content-addressed
disk result cache, and a deduplicating executor that every experiment,
sweep and service request runs through (experiments enter through
:func:`repro.experiments.registry.run_experiments`)."""

from repro.exec.cache import ResultCache, default_cache, default_cache_dir
from repro.exec.engine import (
    EngineStats,
    ExecutionEngine,
    get_engine,
    set_engine,
    shutdown_engine,
    use_engine,
    worker_count,
)
from repro.exec.options import EngineOptions
from repro.exec.request import CACHE_SCHEMA_VERSION, RunRequest, simulator_fingerprint

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "EngineOptions",
    "EngineStats",
    "ExecutionEngine",
    "ResultCache",
    "RunRequest",
    "default_cache",
    "default_cache_dir",
    "get_engine",
    "set_engine",
    "shutdown_engine",
    "simulator_fingerprint",
    "use_engine",
    "worker_count",
]
