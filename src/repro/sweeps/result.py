"""Structured return value of ``repro.api.sweep``.

:class:`SweepResult` keeps the historical mapping shape —
``result[scheme_label][workload_name]`` still works, so existing
scripts don't change — and adds keyed point access
(``result["dmdc", "gzip"]``), an IPC pivot ``table()``, and the
cache/dedup accounting of the batch that produced it.

String keys are canonicalized through the scheme-label codec, so
``result["yla-gran128-regs16"]`` and ``result["yla-regs16-gran128"]``
name the same row.
"""

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Tuple, Union

from repro.sim.config import SchemeConfig
from repro.sim.result import SimulationResult
from repro.stats.report import format_table

__all__ = ["SweepResult", "WorkerStats"]


@dataclass
class WorkerStats:
    """One fan-out worker's share of a sweep (see ``repro.sweeps.fanout``).

    ``executed`` is backend-reported: exact for local workers (the
    engine's stats delta over the sweep), best-effort for service workers
    (the service's ``/metrics`` aggregates across all its clients).
    """

    worker: str                 # "local:0" / "service:host:port"
    claimed: int = 0            # tasks this worker pulled from the queue
    completed: int = 0          # points whose entry this worker produced
    executed: int = 0           # simulations its backend actually ran
    memo_hits: int = 0
    disk_hits: int = 0
    stolen: int = 0             # straggler tasks speculatively duplicated
    failures: int = 0           # task attempts that failed on this worker
    wall_seconds: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "worker": self.worker,
            "claimed": self.claimed,
            "completed": self.completed,
            "executed": self.executed,
            "memo_hits": self.memo_hits,
            "disk_hits": self.disk_hits,
            "stolen": self.stolen,
            "failures": self.failures,
            "wall_seconds": self.wall_seconds,
        }

Key = Union[str, Tuple[str, str]]


class SweepResult(Mapping[str, Dict[str, SimulationResult]]):
    """Keyed (scheme x workload) results plus the batch's accounting."""

    def __init__(self,
                 grid: Dict[str, Dict[str, SimulationResult]],
                 points: List[Dict[str, Any]],
                 stats: Dict[str, Any]):
        self._grid = grid
        #: Canonical point payloads, in execution order.
        self.points = points
        #: Batch accounting: requested/unique/collapsed/memo_hits/
        #: disk_hits/executed/hit_rate for THIS sweep call.
        self.stats = dict(stats)

    # -- mapping (legacy shape) -------------------------------------------
    @staticmethod
    def _canonical(label: str) -> str:
        try:
            return SchemeConfig.from_label(label).label()
        except Exception:
            return label

    def __getitem__(self, key: Key) -> Any:
        if isinstance(key, tuple):
            label, workload = key
            return self._grid[self._canonical(label)][workload]
        return self._grid[self._canonical(key)]

    def __iter__(self) -> Iterator[str]:
        return iter(self._grid)

    def __len__(self) -> int:
        return len(self._grid)

    # -- sugar -------------------------------------------------------------
    @property
    def schemes(self) -> List[str]:
        return list(self._grid)

    @property
    def workloads(self) -> List[str]:
        names: List[str] = []
        for row in self._grid.values():
            for name in row:
                if name not in names:
                    names.append(name)
        return names

    def results(self) -> List[SimulationResult]:
        """Every result, scheme-major (the execution order)."""
        return [result for row in self._grid.values()
                for result in row.values()]

    def table(self, metric: str = "ipc") -> str:
        """A (scheme x workload) pivot of ``metric`` (any result attr)."""
        workloads = self.workloads
        rows = []
        for label, row in self._grid.items():
            cells: List[str] = [label]
            for name in workloads:
                result = row.get(name)
                if result is None:
                    cells.append("-")
                    continue
                value = getattr(result, metric)
                cells.append(f"{value:.3f}" if isinstance(value, float)
                             else str(value))
            rows.append(cells)
        return format_table(["scheme"] + workloads, rows)

    def __repr__(self) -> str:
        return (f"SweepResult({len(self._grid)} schemes x "
                f"{len(self.workloads)} workloads, "
                f"executed={self.stats.get('executed')}, "
                f"hit_rate={self.stats.get('hit_rate', 0.0):.1%})")
