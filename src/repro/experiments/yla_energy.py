"""Section 6.1 energy claim: YLA filtering alone saves ~32.4% of LQ energy
(~1.7% processor-wide) with no performance impact."""

from typing import Dict, Optional

from repro.energy.model import EnergyModel
from repro.experiments.common import Points, Sweeps, by_group, mean, suite
from repro.sim.config import CONFIG2, SchemeConfig
from repro.stats.report import format_table


def points(budget: Optional[int] = None) -> Points:
    """Baseline vs 8-register YLA filtering on config2, full suite."""
    return suite({
        "baseline": CONFIG2,
        "yla": CONFIG2.with_scheme(SchemeConfig(kind="yla", yla_registers=8)),
    }, budget)


def analyze(sweeps: Sweeps) -> Dict:
    model = EnergyModel(CONFIG2)

    def sample(name, base):
        filt = sweeps["yla"][name]
        e_base = model.evaluate(base)
        e_filt = model.evaluate(filt)
        return {
            "lq": 100.0 * (1 - e_filt.lq / e_base.lq),
            "total": 100.0 * (1 - e_filt.total / e_base.total),
            "slow": 100.0 * (filt.cycles / base.cycles - 1),
        }

    rows = [
        {
            "group": group,
            "lq_savings": mean(g["lq"]),
            "total_savings": mean(g["total"]),
            "slowdown": mean(g["slow"]),
        }
        for group, g in by_group(sweeps["baseline"], sample).items()
    ]
    return {"experiment": "yla_energy", "rows": rows}


def render(data: Dict) -> str:
    table_rows = [
        [r["group"], f"{r['lq_savings']:.1f}%", f"{r['total_savings']:.2f}%", f"{r['slowdown']:+.2f}%"]
        for r in data["rows"]
    ]
    return format_table(
        ["group", "LQ energy savings", "processor-wide savings", "slowdown"],
        table_rows,
        title="Section 6.1 - energy effect of 8-register YLA filtering alone",
    )
