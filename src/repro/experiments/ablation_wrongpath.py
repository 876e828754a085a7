"""Ablation: wrong-path load corruption of the YLA registers (Section 3).

Wrong-path loads push YLA registers forward; the paper's remedy resets
each register to the branch's age at recovery.  This ablation sweeps the
wrong-path intensity (mean loads issued per misprediction shadow) and
reports the YLA filtering rate: corruption should cost filtering
effectiveness monotonically, and the effect should be larger for INT
codes (more mispredictions) — evidence that the reset remedy matters.
"""

from typing import Dict, Optional

from repro.experiments.common import Points, Sweeps, by_group, mean, suite
from repro.sim.config import CONFIG2, SchemeConfig
from repro.stats.report import format_table

INTENSITIES = (0.0, 1.0, 4.0, 8.0)


def points(budget: Optional[int] = None, intensities=INTENSITIES, config=CONFIG2) -> Points:
    """Wrong-path load intensity under 8-register YLA filtering."""
    scheme = SchemeConfig(kind="yla", yla_registers=8)
    sweep = {}
    for loads in intensities:
        sweep[f"wp:{loads}"] = config.with_scheme(scheme).with_overrides(
            wrongpath_loads=loads > 0, wrongpath_mean_loads=max(loads, 0.1)
        )
    return suite(sweep, budget)


def analyze(sweeps: Sweeps, intensities=INTENSITIES, **_) -> Dict:
    rows = []
    for loads in intensities:
        groups = by_group(sweeps[f"wp:{loads}"],
                          lambda name, r: {"filtered": 100.0 * r.safe_store_fraction})
        for group, g in sorted(groups.items()):
            rows.append({
                "intensity": loads,
                "group": group,
                "filtered_mean": mean(g["filtered"]),
                "filtered_min": min(g["filtered"]),
            })
    return {"experiment": "ablation_wrongpath", "rows": rows}


def render(data: Dict) -> str:
    table_rows = [
        [
            r["group"], f"{r['intensity']:g}",
            f"{r['filtered_mean']:.1f}%", f"{r['filtered_min']:.1f}%",
        ]
        for r in sorted(data["rows"], key=lambda r: (r["group"], r["intensity"]))
    ]
    return format_table(
        ["group", "wrong-path loads/mispredict", "filtered (mean)", "worst workload"],
        table_rows,
        title="Ablation - YLA corruption by wrong-path loads (with reset remedy)",
    )
