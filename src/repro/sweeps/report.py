"""Paper-figure-style analysis of a completed sweep ledger.

:class:`SweepReport` pivots ledger entries (canonical point + summary +
raw counters — see :mod:`repro.sweeps.ledger`) into the tables the paper
prints: speedup vs a baseline scheme per axis slice, and the energy
verdict (LQ savings / net savings / slowdown) computed through the same
:class:`~repro.energy.model.EnergyModel` + ``CompareReport`` machinery
``repro.api.compare`` uses.  No re-simulation happens here: the raw
counters in each entry are enough to reconstruct a result for the
energy model exactly.

``to_dict()`` is the machine-readable summary artifact (``schema: 1``),
gated in CI by :func:`validate_report_payload`.
"""

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.schemes import build_scheme
from repro.errors import ReproError
from repro.sim.config import MachineConfig
from repro.sim.result import SimulationResult
from repro.stats.aggregate import geometric_mean
from repro.stats.counters import CounterSet
from repro.stats.report import format_table
from repro.sweeps.grid import SCHEME_AXES
from repro.sweeps.points import normalize_point, parse_scheme, slice_id

__all__ = ["REPORT_SCHEMA", "ReportError", "SweepReport",
           "report_from_ledger", "validate_report_payload"]

REPORT_SCHEMA = 1


class ReportError(ReproError):
    """The ledger cannot be pivoted into a report."""


def _workload_id(point: Dict[str, Any]) -> str:
    workload = point["workload"]
    return workload if isinstance(workload, str) else workload["name"]


def _reconstruct(entry: Dict[str, Any], machine: MachineConfig) -> SimulationResult:
    """A ledger entry -> the result the energy model needs.

    Histograms are not ledgered (the energy model never reads them);
    everything it does read — counters, cycles, and the scheme name the
    scheme itself reports (what :class:`EnergyModel` dispatches on) —
    round-trips exactly.
    """
    summary = entry["summary"]
    return SimulationResult(
        workload=_workload_id(entry["point"]),
        group="",
        config_name=machine.name,
        scheme_name=build_scheme(machine.scheme, machine).name,
        cycles=int(summary["cycles"]),
        committed=int(summary["committed"]),
        counters=CounterSet.from_dict(entry["counters"]),
    )


def _axis_values(point: Dict[str, Any]) -> Dict[str, Any]:
    """The flat axis coordinates of one point (for varying-axis discovery)."""
    scheme = parse_scheme(point["scheme"])
    values: Dict[str, Any] = {
        "workload": _workload_id(point),
        "config": point["config"],
        "kind": scheme.kind,
        "instructions": point["instructions"],
        "seed": point["seed"],
    }
    for token, field_name in SCHEME_AXES.items():
        values[token] = getattr(scheme, field_name)
    for flag in ("local", "coherence", "safe_loads", "sq_filter",
                 "store_sets"):
        values[flag] = getattr(scheme, flag)
    for name, value in (point.get("overrides") or {}).items():
        values[name] = value
    return values


@dataclass
class _Row:
    key: str
    point: Dict[str, Any]
    machine: MachineConfig
    workload: str
    label: str
    slice_id: str
    result: SimulationResult
    is_baseline: bool = False
    speedup: Optional[float] = None
    lq_savings: Optional[float] = None
    net_savings: Optional[float] = None
    slowdown: Optional[float] = None


@dataclass
class SweepReport:
    """Pivoted view of one completed sweep (see the module docstring)."""

    name: str
    baseline: Optional[str]
    rows: List[_Row]
    axes: Dict[str, List[Any]]
    workloads: List[str]
    labels: List[str]
    compared: Dict[str, Any] = field(default_factory=dict, repr=False)

    # -- construction ------------------------------------------------------
    @classmethod
    def from_entries(cls, entries: Sequence[Dict[str, Any]],
                     name: str = "sweep",
                     baseline: Optional[str] = None) -> "SweepReport":
        if not entries:
            raise ReportError("cannot report on an empty ledger")
        rows: List[_Row] = []
        for entry in entries:
            point = entry["point"]
            machine = normalize_point(point).config
            rows.append(_Row(
                key=entry["key"],
                point=point,
                machine=machine,
                workload=_workload_id(point),
                label=machine.scheme.label(),
                slice_id=slice_id(point),
                result=_reconstruct(entry, machine),
            ))

        labels: List[str] = []
        workloads: List[str] = []
        for row in rows:
            if row.label not in labels:
                labels.append(row.label)
            if row.workload not in workloads:
                workloads.append(row.workload)

        baseline_label = cls._pick_baseline(baseline, labels)
        baselines: Dict[str, _Row] = {}
        if baseline_label is not None:
            for row in rows:
                if row.label == baseline_label:
                    row.is_baseline = True
                    baselines[row.slice_id] = row

        report = cls(name=name, baseline=baseline_label, rows=rows,
                     axes={}, workloads=workloads, labels=labels)
        report._compare(baselines)
        report.axes = report._varying_axes()
        return report

    @staticmethod
    def _pick_baseline(baseline: Optional[str],
                       labels: List[str]) -> Optional[str]:
        if baseline is not None:
            label = parse_scheme(baseline).label()
            if label not in labels:
                raise ReportError(
                    f"baseline {label!r} has no points in this ledger; "
                    f"labels present: {labels}")
            return label
        if "conventional" in labels:
            return "conventional"
        return labels[0] if len(labels) > 1 else None

    def _compare(self, baselines: Dict[str, Any]) -> None:
        """Per-row speedup + energy verdict vs the slice's baseline row.

        Uses the same machinery as ``repro.api.compare``: one
        :class:`EnergyModel` built from the baseline machine evaluates
        both runs, and a ``CompareReport`` derives the verdict numbers.
        """
        if not baselines:
            return
        from repro.api import CompareReport  # deferred: api imports sweeps
        from repro.energy.model import EnergyModel
        models: Dict[str, EnergyModel] = {}
        breakdowns: Dict[Tuple[str, str], Any] = {}
        for row in self.rows:
            base = baselines.get(row.slice_id)
            if base is None:
                continue
            if row.slice_id not in models:
                models[row.slice_id] = EnergyModel(base.machine)
            model = models[row.slice_id]
            for item in (base, row):
                if (row.slice_id, item.key) not in breakdowns:
                    breakdowns[(row.slice_id, item.key)] = \
                        model.evaluate(item.result)
            compared = CompareReport(
                base.result, row.result,
                breakdowns[(row.slice_id, base.key)],
                breakdowns[(row.slice_id, row.key)])
            row.speedup = (base.result.cycles / row.result.cycles
                           if row.result.cycles else 0.0)
            row.lq_savings = compared.lq_savings
            row.net_savings = compared.net_savings
            row.slowdown = compared.slowdown
            self.compared[row.key] = compared

    def _varying_axes(self) -> Dict[str, List[Any]]:
        seen: Dict[str, List[Any]] = {}
        for row in self.rows:
            if row.is_baseline:
                continue
            for axis, value in _axis_values(row.point).items():
                bucket = seen.setdefault(axis, [])
                if value not in bucket:
                    bucket.append(value)
        return {axis: values for axis, values in seen.items()
                if len(values) > 1}

    # -- pivots ------------------------------------------------------------
    def _geomean_speedup(self, rows: List[_Row]) -> Optional[float]:
        values = [row.speedup for row in rows
                  if row.speedup is not None and row.speedup > 0]
        return geometric_mean(values) if values else None

    def axis_table(self, axis: str) -> str:
        """Geomean speedup pivot: one row per ``axis`` value x workload."""
        if axis not in self.axes:
            raise ReportError(
                f"axis {axis!r} does not vary; varying: {sorted(self.axes)}")
        rows = []
        for value in self.axes[axis]:
            cells: List[str] = [str(value)]
            for workload in self.workloads:
                matching = [row for row in self.rows
                            if not row.is_baseline
                            and row.workload == workload
                            and _axis_values(row.point).get(axis) == value]
                speedup = self._geomean_speedup(matching)
                cells.append(f"{speedup:.3f}" if speedup is not None else "-")
            rows.append(cells)
        return format_table([axis] + list(self.workloads), rows)

    def label_table(self) -> str:
        """Per-scheme-label summary: IPC geomean, speedup, energy verdict."""
        rows = []
        for label in self.labels:
            mine = [row for row in self.rows if row.label == label]
            ipc = geometric_mean([row.result.ipc for row in mine
                                  if row.result.ipc > 0]) \
                if any(row.result.ipc > 0 for row in mine) else 0.0
            speedup = self._geomean_speedup(
                [row for row in mine if not row.is_baseline])
            lq = [row.lq_savings for row in mine
                  if not row.is_baseline and row.lq_savings is not None]
            net = [row.net_savings for row in mine
                   if not row.is_baseline and row.net_savings is not None]
            rows.append([
                label + (" (baseline)" if label == self.baseline else ""),
                len(mine),
                f"{ipc:.3f}",
                f"{speedup:.3f}" if speedup is not None else "-",
                f"{sum(lq) / len(lq):.1%}" if lq else "-",
                f"{sum(net) / len(net):.1%}" if net else "-",
            ])
        return format_table(
            ["scheme", "points", "ipc", "speedup", "lq savings", "net savings"],
            rows)

    def best_points(self, count: int = 3) -> List[_Row]:
        """The non-baseline rows with the best net energy savings."""
        scored = [row for row in self.rows
                  if not row.is_baseline and row.net_savings is not None]
        scored.sort(key=lambda row: row.net_savings, reverse=True)
        return scored[:count]

    # -- renderings --------------------------------------------------------
    def render(self) -> str:
        """The full paper-figure-style text report."""
        lines = [f"sweep report: {self.name} — {len(self.rows)} points, "
                 f"{len(self.labels)} schemes x {len(self.workloads)} "
                 f"workloads"
                 + (f", baseline {self.baseline}" if self.baseline else "")]
        lines.append("")
        lines.append(self.label_table())
        for axis in self.axes:
            if axis == "workload":
                continue
            lines.append("")
            lines.append(f"geomean speedup vs {self.baseline or 'n/a'} "
                         f"by {axis}:")
            lines.append(self.axis_table(axis))
        best = self.best_points()
        if best:
            lines.append("")
            lines.append("best points by net energy savings:")
            for row in best:
                compared = self.compared.get(row.key)
                verdict = compared.verdict() if compared is not None else ""
                lines.append(f"  {row.label} / {row.workload}: {verdict}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """The machine-readable summary artifact (``schema`` 1)."""
        rows = []
        for row in self.rows:
            rows.append({
                "key": row.key,
                "point": row.point,
                "workload": row.workload,
                "label": row.label,
                "baseline": row.is_baseline,
                "ipc": row.result.ipc,
                "cycles": row.result.cycles,
                "committed": row.result.committed,
                "speedup": row.speedup,
                "lq_savings": row.lq_savings,
                "net_savings": row.net_savings,
                "slowdown": row.slowdown,
            })
        by_label: Dict[str, Any] = {}
        for label in self.labels:
            mine = [row for row in self.rows if row.label == label]
            candidates = [row for row in mine if not row.is_baseline]
            lq = [row.lq_savings for row in candidates
                  if row.lq_savings is not None]
            net = [row.net_savings for row in candidates
                   if row.net_savings is not None]
            by_label[label] = {
                "points": len(mine),
                "geomean_speedup": self._geomean_speedup(candidates),
                "mean_lq_savings": sum(lq) / len(lq) if lq else None,
                "mean_net_savings": sum(net) / len(net) if net else None,
            }
        return {
            "schema": REPORT_SCHEMA,
            "grid": self.name,
            "baseline": self.baseline,
            "points": len(self.rows),
            "workloads": list(self.workloads),
            "labels": list(self.labels),
            "axes": {axis: list(values) for axis, values in self.axes.items()},
            "rows": rows,
            "by_label": by_label,
        }


def report_from_ledger(path: str, baseline: Optional[str] = None,
                       name: Optional[str] = None) -> SweepReport:
    """Pivot a ledger file straight into a :class:`SweepReport`."""
    from repro.sweeps.ledger import read_ledger
    header, entries = read_ledger(path)
    return SweepReport.from_entries(
        entries, name=name if name is not None else str(header.get("grid")),
        baseline=baseline)


def validate_report_payload(payload: Dict[str, Any]) -> List[str]:
    """Schema-gate a :meth:`SweepReport.to_dict` artifact; [] when clean."""
    problems: List[str] = []

    def check(cond: bool, message: str) -> None:
        if not cond:
            problems.append(message)

    check(isinstance(payload, dict), "payload must be an object")
    if not isinstance(payload, dict):
        return problems
    check(payload.get("schema") == REPORT_SCHEMA,
          f"schema must be {REPORT_SCHEMA}, got {payload.get('schema')!r}")
    for field_name in ("grid", "points", "workloads", "labels", "axes",
                       "rows", "by_label"):
        check(field_name in payload, f"missing field {field_name!r}")
    rows = payload.get("rows")
    if not isinstance(rows, list) or not rows:
        problems.append("rows must be a non-empty list")
        return problems
    check(payload.get("points") == len(rows),
          f"points={payload.get('points')} but {len(rows)} rows")
    labels = payload.get("labels") or []
    workloads = payload.get("workloads") or []
    by_label = payload.get("by_label") or {}
    check(sorted(by_label) == sorted(labels),
          "by_label keys must match labels")
    baseline = payload.get("baseline")
    if baseline is not None:
        check(baseline in labels, f"baseline {baseline!r} not in labels")
    keys = set()
    for index, row in enumerate(rows):
        where = f"rows[{index}]"
        if not isinstance(row, dict):
            problems.append(f"{where} must be an object")
            continue
        for field_name in ("key", "point", "workload", "label", "baseline",
                           "ipc", "cycles", "committed"):
            check(field_name in row, f"{where} missing {field_name!r}")
        if "key" in row:
            check(row["key"] not in keys, f"{where} duplicates key")
            keys.add(row["key"])
        check(row.get("label") in labels,
              f"{where} label {row.get('label')!r} not in labels")
        check(row.get("workload") in workloads,
              f"{where} workload {row.get('workload')!r} not in workloads")
        check(isinstance(row.get("cycles"), int) and row.get("cycles", 0) > 0,
              f"{where} cycles must be a positive int")
        ipc = row.get("ipc")
        check(isinstance(ipc, (int, float)) and ipc > 0,
              f"{where} ipc must be positive")
        if row.get("baseline"):
            check(row.get("speedup") in (None, 1.0) or
                  abs(row.get("speedup", 1.0) - 1.0) < 1e-12,
                  f"{where} baseline row must have speedup 1.0")
        speedup = row.get("speedup")
        if speedup is not None:
            check(isinstance(speedup, (int, float)) and speedup > 0,
                  f"{where} speedup must be positive")
    return problems
