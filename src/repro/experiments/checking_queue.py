"""Section 6.2.3: associative checking queue vs hash table.

Paper result: a 2K-entry checking table produces roughly as many replays
as a 16-entry associative checking queue on average (individual
applications diverge wildly).  The queue trades hash-conflict replays for
overflow replays.
"""

from typing import Dict, Optional

from repro.experiments.common import Points, Sweeps, by_group, mean, suite
from repro.sim.config import CONFIG2, SchemeConfig
from repro.stats.report import format_table

QUEUE_SIZES = (4, 8, 16, 32)


def points(budget: Optional[int] = None, queue_sizes=QUEUE_SIZES, config=CONFIG2) -> Points:
    """Hash table (2K) vs associative queues of several sizes."""
    sweep = {"table": config.with_scheme(SchemeConfig(kind="dmdc"))}
    for size in queue_sizes:
        sweep[f"queue:{size}"] = config.with_scheme(
            SchemeConfig(kind="dmdc", checking_queue_entries=size)
        )
    return suite(sweep, budget)


def _sample(name, result) -> Dict[str, float]:
    return {"false": result.false_replays_per_minstr,
            "overflow": result.per_minstr("replay.overflow")}


def analyze(sweeps: Sweeps, **_) -> Dict:
    rows = []
    for key, results in sweeps.items():
        for group, g in sorted(by_group(results, _sample).items()):
            rows.append({
                "backend": key,
                "group": group,
                "false_replays": mean(g["false"]),
                "overflow_replays": mean(g["overflow"]),
            })
    return {"experiment": "checking_queue", "rows": rows}


def render(data: Dict) -> str:
    table_rows = [
        [
            r["backend"], r["group"],
            f"{r['false_replays']:.1f}", f"{r['overflow_replays']:.1f}",
        ]
        for r in sorted(data["rows"], key=lambda r: (r["group"], r["backend"]))
    ]
    return format_table(
        ["backend", "group", "false replays/Minstr", "overflow replays/Minstr"],
        table_rows,
        title="Section 6.2.3 - checking table vs associative checking queue",
    )
