"""Figure 5: slowdown of global vs local DMDC across configurations.

Paper result: both variants stay within ~0.5% average slowdown; the local
version's *worst-case* per-application slowdown is noticeably lower,
especially for FP applications.
"""

from typing import Dict, List, Optional

from repro.experiments.common import Points, Sweeps, by_group, mean, suite
from repro.sim.config import CONFIG1, CONFIG2, CONFIG3, SchemeConfig
from repro.stats.report import format_table

CONFIG_SET = {"config1": CONFIG1, "config2": CONFIG2, "config3": CONFIG3}


def points(budget: Optional[int] = None, configs: Optional[Dict] = None) -> Points:
    """Baseline vs global vs local DMDC on each configuration."""
    configs = configs if configs is not None else CONFIG_SET
    sweep = {}
    for cname, config in configs.items():
        sweep[f"{cname}:base"] = config
        sweep[f"{cname}:global"] = config.with_scheme(SchemeConfig(kind="dmdc", local=False))
        sweep[f"{cname}:local"] = config.with_scheme(SchemeConfig(kind="dmdc", local=True))
    return suite(sweep, budget)


def analyze(sweeps: Sweeps, configs: Optional[Dict] = None) -> Dict:
    configs = configs if configs is not None else CONFIG_SET
    rows: List[Dict] = []
    for cname in configs:
        for variant in ("global", "local"):
            dmdc = sweeps[f"{cname}:{variant}"]
            groups = by_group(sweeps[f"{cname}:base"], lambda name, base: {
                "slow": 100.0 * (dmdc[name].cycles / base.cycles - 1)})
            for group, g in groups.items():
                rows.append({
                    "config": cname,
                    "variant": variant,
                    "group": group,
                    "slowdown_mean": mean(g["slow"]),
                    "slowdown_worst": max(g["slow"]),
                })
    return {"experiment": "fig5", "rows": rows}


def render(data: Dict) -> str:
    table_rows = [
        [
            r["config"], r["group"], r["variant"],
            f"{r['slowdown_mean']:+.2f}%", f"{r['slowdown_worst']:+.2f}%",
        ]
        for r in sorted(data["rows"], key=lambda r: (r["config"], r["group"], r["variant"]))
    ]
    return format_table(
        ["config", "group", "variant", "mean slowdown", "worst slowdown"],
        table_rows,
        title="Figure 5 - global vs local DMDC slowdown",
    )
