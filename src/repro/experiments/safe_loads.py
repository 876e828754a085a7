"""Section 6.2.2 safe-load claims.

Paper result: 81% (INT) / 94% (FP) of loads are safe; without the
safe-load circuit false replays roughly double for INT applications
(average reduction 52%, up to 97%) and drop ~20% for FP.
"""

from typing import Dict, Optional

from repro.experiments.common import Points, Sweeps, by_group, mean, suite
from repro.sim.config import CONFIG2, SchemeConfig
from repro.stats.report import format_table


def points(budget: Optional[int] = None, config=CONFIG2) -> Points:
    """Global DMDC with and without the safe-load optimisation."""
    return suite({
        "with": config.with_scheme(SchemeConfig(kind="dmdc", safe_loads=True)),
        "without": config.with_scheme(SchemeConfig(kind="dmdc", safe_loads=False)),
    }, budget)


def analyze(sweeps: Sweeps, **_) -> Dict:
    without = sweeps["without"]
    groups = by_group(sweeps["with"], lambda name, with_safe: {
        "safe_frac": 100.0 * with_safe.safe_load_fraction,
        "false_with": with_safe.false_replays_per_minstr,
        "false_without": without[name].false_replays_per_minstr,
    })
    rows = []
    for group, g in sorted(groups.items()):
        fw = mean(g["false_with"])
        fo = mean(g["false_without"])
        rows.append({
            "group": group,
            "safe_load_pct": mean(g["safe_frac"]),
            "false_with": fw,
            "false_without": fo,
            "reduction_pct": 100.0 * (1 - fw / fo) if fo else 0.0,
        })
    return {"experiment": "safe_loads", "rows": rows}


def render(data: Dict) -> str:
    table_rows = [
        [
            r["group"],
            f"{r['safe_load_pct']:.0f}%",
            f"{r['false_with']:.1f}",
            f"{r['false_without']:.1f}",
            f"{r['reduction_pct']:.0f}%",
        ]
        for r in data["rows"]
    ]
    return format_table(
        ["group", "% safe loads", "false replays/Minstr (with)",
         "false replays/Minstr (without)", "reduction from safe loads"],
        table_rows,
        title="Section 6.2.2 - effect of safe-load detection",
    )
