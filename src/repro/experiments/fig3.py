"""Figure 3: YLA filtering vs Bloom-filter (address-only) filtering.

Paper result: even a 1024-entry counting Bloom filter (H0 hash) filters
fewer LQ searches than a single YLA register, because the filter lacks
age information -- an older issued load to an aliasing address defeats it.
"""

from typing import Dict, List, Optional

from repro.experiments.common import Points, Sweeps, by_group, mean, suite
from repro.sim.config import CONFIG2, SchemeConfig
from repro.stats.report import format_table

BLOOM_SIZES = (32, 64, 128, 256, 512, 1024)
YLA_COUNTS = (1, 8)


def points(budget: Optional[int] = None, bloom_sizes=BLOOM_SIZES) -> Points:
    """Bloom-filter sizes against 1- and 8-register YLA filtering."""
    configs = {}
    for size in bloom_sizes:
        configs[f"bf:{size}"] = CONFIG2.with_scheme(
            SchemeConfig(kind="bloom", bloom_entries=size)
        )
    for n in YLA_COUNTS:
        configs[f"yla:{n}"] = CONFIG2.with_scheme(
            SchemeConfig(kind="yla", yla_registers=n)
        )
    return suite(configs, budget)


def analyze(sweeps: Sweeps, **_) -> Dict:
    rows: List[Dict] = []
    for key, results in sweeps.items():
        kind, param = key.split(":")
        groups = by_group(results, lambda name, r: {"filtered": 100.0 * r.safe_store_fraction})
        for group, g in groups.items():
            rows.append({
                "filter": "bloom" if kind == "bf" else "yla",
                "size": int(param),
                "group": group,
                "filtered_mean": mean(g["filtered"]),
                "filtered_min": min(g["filtered"]),
                "filtered_max": max(g["filtered"]),
            })
    return {"experiment": "fig3", "rows": rows}


def render(data: Dict) -> str:
    table_rows = [
        [
            row["group"],
            row["filter"],
            row["size"],
            f"{row['filtered_mean']:.1f}%",
            f"{row['filtered_min']:.1f}%",
            f"{row['filtered_max']:.1f}%",
        ]
        for row in sorted(data["rows"], key=lambda r: (r["group"], r["filter"], r["size"]))
    ]
    return format_table(
        ["group", "filter", "size/registers", "filtered(mean)", "min", "max"],
        table_rows,
        title="Figure 3 - YLA vs Bloom-filter LQ-search filtering",
    )
