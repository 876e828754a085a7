"""The canonical design-point codec: JSON payloads <-> :class:`RunRequest`.

One grammar for naming a design point, shared by every execution surface:
``repro.api.sweep`` grids, the HTTP service's ``{"points", "defaults"}``
payloads (:mod:`repro.service.schema` delegates here), and the sweep
autopilot's ledgers.  A point payload::

    {
      "workload": "gzip" | {...WorkloadSpec fields...},
      "scheme":   "dmdc-local" | {...SchemeConfig fields...},   # default "conventional"
      "config":   "config2",                                    # config1|config2|config3
      "overrides": {"lq_size": 48, ...},                        # machine-field overrides
      "instructions": 12000,                                    # aka "budget"
      "seed": 1
    }

:func:`normalize_point` is the single normalization path into the
engine's content-address space — two surfaces handed the same point
always produce the same :meth:`RunRequest.cache_key`, which is what
makes in-flight dedup, disk caching, and ledger resume sound across
local, service, and autopilot execution.  :func:`point_for_request` is
the inverse: the canonical payload of a request, used for ledger lines
and round-trip identity (``normalize_point(point_for_request(r))`` has
``r``'s cache key).

Scheme strings go through the canonical label codec
(:meth:`SchemeConfig.from_label`), so every surface speaks exactly the
labels the CLI, bench harness, and correctness matrix speak.
"""

import json
from dataclasses import asdict, fields as dataclass_fields
from typing import Any, Dict, Optional, Union

from repro.errors import ConfigError, ReproError
from repro.exec.request import RunRequest
from repro.sim.config import CONFIG1, CONFIG2, CONFIG3, MachineConfig, SchemeConfig
from repro.sim.result import SimulationResult
from repro.workloads import SUITE, WorkloadSpec

__all__ = [
    "DEFAULT_INSTRUCTIONS",
    "MAX_INSTRUCTIONS",
    "NAMED_CONFIGS",
    "PointSpecError",
    "canonical_point",
    "describe_result",
    "ledger_entry",
    "normalize_point",
    "parse_scheme",
    "parse_workload",
    "point_for_request",
    "slice_id",
]

NAMED_CONFIGS: Dict[str, MachineConfig] = {
    "config1": CONFIG1,
    "config2": CONFIG2,
    "config3": CONFIG3,
}

#: Budget ceiling per design point — every surface bounds the work one
#: point can demand (callers needing more split into several points).
MAX_INSTRUCTIONS = 1_000_000
DEFAULT_INSTRUCTIONS = 12_000


class PointSpecError(ReproError):
    """A design-point payload is malformed (the service maps this to 400)."""


def _require_mapping(payload: object, what: str) -> Dict[str, Any]:
    if not isinstance(payload, dict):
        raise PointSpecError(
            f"{what} must be a JSON object, got {type(payload).__name__}")
    return payload


def _dataclass_kwargs(payload: Dict[str, Any], cls: type, what: str) -> Dict[str, Any]:
    allowed = {f.name for f in dataclass_fields(cls)}
    unknown = [key for key in payload if key not in allowed]
    if unknown:
        raise PointSpecError(
            f"unknown {what} field(s): {', '.join(sorted(unknown))}")
    return payload


def parse_scheme(payload: object) -> SchemeConfig:
    """A scheme label or an explicit field object -> :class:`SchemeConfig`."""
    if payload is None:
        return SchemeConfig()
    if isinstance(payload, SchemeConfig):
        return payload
    if isinstance(payload, str):
        try:
            return SchemeConfig.from_label(payload)
        except ConfigError as exc:
            raise PointSpecError(str(exc)) from None
    kwargs = _dataclass_kwargs(_require_mapping(payload, "scheme"),
                               SchemeConfig, "scheme")
    try:
        return SchemeConfig(**kwargs)
    except (ConfigError, TypeError) as exc:
        raise PointSpecError(f"bad scheme: {exc}") from None


def parse_workload(payload: object) -> Union[str, WorkloadSpec]:
    """A suite name or an explicit spec object -> RunRequest workload."""
    if isinstance(payload, WorkloadSpec):
        return payload
    if isinstance(payload, str):
        if payload not in SUITE:
            raise PointSpecError(
                f"unknown workload {payload!r}; choices: {sorted(SUITE)}")
        return payload
    kwargs = _dataclass_kwargs(_require_mapping(payload, "workload"),
                               WorkloadSpec, "workload")
    if "name" not in kwargs:
        raise PointSpecError("an explicit workload spec needs a 'name'")
    try:
        return WorkloadSpec(**kwargs)
    except (TypeError, ValueError) as exc:
        raise PointSpecError(f"bad workload spec: {exc}") from None


def _parse_int(payload: Dict[str, Any], key: str, default: int,
               lo: int, hi: int) -> int:
    value = payload.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise PointSpecError(f"{key} must be an integer")
    if not lo <= value <= hi:
        raise PointSpecError(f"{key} must be in [{lo}, {hi}], got {value}")
    return value


def normalize_point(payload: object,
                    defaults: Optional[Dict[str, Any]] = None) -> RunRequest:
    """One point payload (plus optional sweep-level defaults) -> request.

    THE normalization path: the ``repro.api`` sweep shim, the HTTP
    service, and the autopilot all call this, so a design point has
    exactly one canonical :class:`RunRequest` no matter which surface
    named it.
    """
    body: Dict[str, Any] = dict(defaults or {})
    body.update(_require_mapping(payload, "run payload"))
    known = {"workload", "scheme", "config", "overrides",
             "instructions", "budget", "seed"}
    unknown = [key for key in body if key not in known]
    if unknown:
        raise PointSpecError(f"unknown field(s): {', '.join(sorted(unknown))}")
    if "workload" not in body:
        raise PointSpecError("missing required field 'workload'")

    config_name = body.get("config", "config2")
    if isinstance(config_name, MachineConfig):
        config_name = config_name.name
    if config_name not in NAMED_CONFIGS:
        raise PointSpecError(
            f"unknown config {config_name!r}; choices: {sorted(NAMED_CONFIGS)}")
    config = NAMED_CONFIGS[config_name].with_scheme(parse_scheme(body.get("scheme")))
    if "overrides" in body:
        overrides = _dataclass_kwargs(
            _require_mapping(body["overrides"], "overrides"),
            MachineConfig, "machine override")
        if "scheme" in overrides or "name" in overrides:
            raise PointSpecError(
                "overrides cannot replace 'scheme' or 'name'; use the "
                "top-level fields")
        try:
            config = config.with_overrides(**overrides)
        except (ConfigError, TypeError) as exc:
            raise PointSpecError(f"bad overrides: {exc}") from None

    if "instructions" in body and "budget" in body:
        raise PointSpecError("give either 'instructions' or 'budget', not both")
    budget = _parse_int(body, "budget" if "budget" in body else "instructions",
                        DEFAULT_INSTRUCTIONS, 1, MAX_INSTRUCTIONS)
    seed = _parse_int(body, "seed", 1, 0, 2**31 - 1)
    return RunRequest(config, parse_workload(body["workload"]), budget, seed)


def machine_overrides(config: MachineConfig) -> Dict[str, Any]:
    """The non-default machine fields of ``config`` vs its named base.

    Expresses an arbitrary :class:`MachineConfig` in the point codec's
    vocabulary (named config + overrides); raises :class:`PointSpecError`
    for machines that are not derived from a named configuration.
    """
    if config.name not in NAMED_CONFIGS:
        raise PointSpecError(
            f"the point codec speaks named configs only "
            f"({sorted(NAMED_CONFIGS)}); got machine {config.name!r} — "
            f"express it as a named config plus overrides")
    base = asdict(NAMED_CONFIGS[config.name])
    ours = asdict(config)
    return {
        field: ours[field]
        for field in sorted(ours)
        if field not in ("name", "scheme") and ours[field] != base[field]
    }


def point_for_request(request: RunRequest) -> Dict[str, Any]:
    """The canonical point payload of one request (ledger/wire identity).

    Deterministic and minimal: ``overrides`` appears only when non-empty,
    every other field is always explicit.  Round-trip guarantee:
    ``normalize_point(point_for_request(r)).cache_key() == r.cache_key()``.
    """
    workload: Union[str, Dict[str, Any]] = (
        request.workload if isinstance(request.workload, str)
        else asdict(request.workload))
    point: Dict[str, Any] = {
        "workload": workload,
        "scheme": request.config.scheme.label(),
        "config": request.config.name,
        "instructions": request.budget,
        "seed": request.seed,
    }
    overrides = machine_overrides(request.config)
    if overrides:
        point["overrides"] = overrides
    return point


def slice_id(point: Dict[str, Any]) -> str:
    """Everything about a canonical point except its scheme.

    Points that share a slice differ only in the checking scheme: the
    baseline of a sweep is injected once per slice, and speedups divide
    by the slice's baseline run.
    """
    rest = {key: value for key, value in point.items() if key != "scheme"}
    return json.dumps(rest, sort_keys=True, separators=(",", ":"))


def canonical_point(payload: object,
                    defaults: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Normalize a point payload and re-emit it in canonical form."""
    return point_for_request(normalize_point(payload, defaults))


def describe_result(request: RunRequest, result: SimulationResult,
                    counters: bool = False) -> Dict[str, Any]:
    """JSON-ready response body for one completed design point."""
    payload: Dict[str, Any] = {
        "key": request.cache_key(),
        "workload": result.workload,
        "config": result.config_name,
        "scheme": request.config.scheme.label(),
        "budget": request.budget,
        "seed": request.seed,
        "summary": result.summary(),
    }
    if counters:
        payload["counters"] = result.counters.as_dict()
    return payload


def ledger_entry(request: RunRequest, summary: Dict[str, Any],
                 counters: Dict[str, int],
                 key: Optional[str] = None) -> Dict[str, Any]:
    """One deterministic sweep-ledger line for a completed point.

    Carries only architecture-determined values (canonical point, summary
    rates, raw counters) — never wall-clock or cache provenance — so the
    same grid yields byte-identical ledgers whether it ran locally,
    through a sharded service, or across an interrupted + resumed pair of
    invocations.
    """
    return {
        "kind": "point",
        "key": key if key is not None else request.cache_key(),
        "point": point_for_request(request),
        "summary": summary,
        "counters": counters,
    }
