"""Figure 4: DMDC main results across the three machine configurations.

Paper result: replacing the associative LQ with DMDC saves ~95-97% of LQ
energy; average slowdown ~0.3% (occasionally a speedup in FP codes); net
processor-wide energy savings grow from ~3% (config1) to ~8% (config3) as
the LQ's share of core energy grows.
"""

from typing import Dict, List, Optional

from repro.energy.model import EnergyModel
from repro.experiments.common import Points, Sweeps, by_group, mean, suite
from repro.sim.config import CONFIG1, CONFIG2, CONFIG3, SchemeConfig
from repro.stats.report import format_table

CONFIG_SET = {"config1": CONFIG1, "config2": CONFIG2, "config3": CONFIG3}


def points(budget: Optional[int] = None, configs: Optional[Dict] = None) -> Points:
    """Baseline vs global DMDC on each configuration, full suite."""
    configs = configs if configs is not None else CONFIG_SET
    sweep = {}
    for cname, config in configs.items():
        sweep[f"{cname}:base"] = config
        sweep[f"{cname}:dmdc"] = config.with_scheme(SchemeConfig(kind="dmdc"))
    return suite(sweep, budget)


def analyze(sweeps: Sweeps, configs: Optional[Dict] = None) -> Dict:
    configs = configs if configs is not None else CONFIG_SET
    rows: List[Dict] = []
    for cname, config in configs.items():
        model = EnergyModel(config)

        def sample(name, base):
            dmdc = sweeps[f"{cname}:dmdc"][name]
            e_base = model.evaluate(base)
            e_dmdc = model.evaluate(dmdc)
            return {
                "lq": 100.0 * (1 - e_dmdc.lq / e_base.lq),
                "total": 100.0 * (1 - e_dmdc.total / e_base.total),
                "slow": 100.0 * (dmdc.cycles / base.cycles - 1),
            }

        for group, g in by_group(sweeps[f"{cname}:base"], sample).items():
            rows.append({
                "config": cname,
                "group": group,
                "lq_savings_mean": mean(g["lq"]),
                "lq_savings_min": min(g["lq"]),
                "slowdown_mean": mean(g["slow"]),
                "slowdown_min": min(g["slow"]),
                "slowdown_max": max(g["slow"]),
                "total_savings_mean": mean(g["total"]),
                "total_savings_min": min(g["total"]),
                "total_savings_max": max(g["total"]),
            })
    return {"experiment": "fig4", "rows": rows}


def render(data: Dict) -> str:
    table_rows = [
        [
            r["config"],
            r["group"],
            f"{r['lq_savings_mean']:.1f}%",
            f"{r['slowdown_mean']:+.2f}%",
            f"[{r['slowdown_min']:+.2f}%, {r['slowdown_max']:+.2f}%]",
            f"{r['total_savings_mean']:.1f}%",
            f"[{r['total_savings_min']:.1f}%, {r['total_savings_max']:.1f}%]",
        ]
        for r in sorted(data["rows"], key=lambda r: (r["config"], r["group"]))
    ]
    return format_table(
        ["config", "group", "LQ savings", "slowdown", "slowdown range",
         "net savings", "net range"],
        table_rows,
        title="Figure 4 - DMDC: LQ energy savings, slowdown, processor-wide savings",
    )
