"""Figure 2: LQ searches filtered vs number and interleaving of YLA registers.

Paper result: with one YLA register 71% (INT) / 80% (FP) of stores are
safe; with 8 quad-word-interleaved registers 95-98%.  Quad-word
interleaving beats cache-line interleaving (16 line-interleaved registers
roughly match 4 quad-word ones).
"""

from typing import Dict, List, Optional

from repro.experiments.common import Points, Sweeps, by_group, mean, suite
from repro.sim.config import CONFIG2, SchemeConfig
from repro.stats.report import format_table

REGISTER_COUNTS = (1, 2, 4, 8, 16)
GRANULARITIES = {"quad-word": 8, "cache-line": 128}


def points(budget: Optional[int] = None, register_counts=REGISTER_COUNTS) -> Points:
    """YLA register count x interleaving over the full suite."""
    configs = {}
    for label, gran in GRANULARITIES.items():
        for n in register_counts:
            scheme = SchemeConfig(kind="yla", yla_registers=n, yla_granularity=gran)
            configs[f"{label}:{n}"] = CONFIG2.with_scheme(scheme)
    return suite(configs, budget)


def analyze(sweeps: Sweeps, **_) -> Dict:
    rows: List[Dict] = []
    for key, results in sweeps.items():
        label, n = key.split(":")
        groups = by_group(results, lambda name, r: {"filtered": 100.0 * r.safe_store_fraction})
        for group, g in groups.items():
            rows.append({
                "interleaving": label,
                "registers": int(n),
                "group": group,
                "filtered_mean": mean(g["filtered"]),
                "filtered_min": min(g["filtered"]),
                "filtered_max": max(g["filtered"]),
            })
    return {"experiment": "fig2", "rows": rows}


def render(data: Dict) -> str:
    table_rows = [
        [
            row["group"],
            row["interleaving"],
            row["registers"],
            f"{row['filtered_mean']:.1f}%",
            f"{row['filtered_min']:.1f}%",
            f"{row['filtered_max']:.1f}%",
        ]
        for row in sorted(
            data["rows"], key=lambda r: (r["group"], r["interleaving"], r["registers"])
        )
    ]
    return format_table(
        ["group", "interleaving", "#YLA", "filtered(mean)", "min", "max"],
        table_rows,
        title="Figure 2 - percentage of LQ searches filtered by YLA registers",
    )
