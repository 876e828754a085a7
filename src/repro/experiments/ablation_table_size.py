"""Ablation: checking-table size vs false replays (Section 6.2.2 claim).

The paper argues that with a 2K-entry table, hash conflicts cause only
11% (INT) / 26% (FP) of false replays, so growing the table has
diminishing returns — the timing approximation, not aliasing, dominates.
This sweep measures false replays and the hash-conflict share across
table sizes to verify the saturation.
"""

from typing import Dict, Optional

from repro.experiments.common import Points, Sweeps, by_group, mean, suite
from repro.sim.config import CONFIG2, SchemeConfig
from repro.stats.report import format_table

TABLE_SIZES = (256, 512, 1024, 2048, 4096, 8192)


def points(budget: Optional[int] = None, sizes=TABLE_SIZES, config=CONFIG2) -> Points:
    """The checking-table size under global DMDC."""
    return suite({
        f"size:{size}": config.with_scheme(SchemeConfig(kind="dmdc", table_entries=size))
        for size in sizes
    }, budget)


def _sample(name, result) -> Dict[str, float]:
    return {
        "false": result.false_replays_per_minstr,
        "hash": (result.per_minstr("replay.false.hash.before")
                 + result.per_minstr("replay.false.hash.X")
                 + result.per_minstr("replay.false.hash.Y")),
    }


def analyze(sweeps: Sweeps, sizes=TABLE_SIZES, **_) -> Dict:
    rows = []
    for size in sizes:
        for group, g in sorted(by_group(sweeps[f"size:{size}"], _sample).items()):
            total = mean(g["false"])
            hash_rate = mean(g["hash"])
            rows.append({
                "size": size,
                "group": group,
                "false_replays": total,
                "hash_replays": hash_rate,
                "hash_share": 100.0 * hash_rate / total if total else 0.0,
            })
    return {"experiment": "ablation_table_size", "rows": rows}


def render(data: Dict) -> str:
    table_rows = [
        [
            r["group"], r["size"],
            f"{r['false_replays']:.1f}",
            f"{r['hash_replays']:.1f}",
            f"{r['hash_share']:.0f}%",
        ]
        for r in sorted(data["rows"], key=lambda r: (r["group"], r["size"]))
    ]
    return format_table(
        ["group", "table entries", "false replays/Minstr",
         "hash-conflict replays/Minstr", "hash share"],
        table_rows,
        title="Ablation - checking-table size (diminishing returns past ~2K)",
    )
