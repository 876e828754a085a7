"""Section 7 quantified: DMDC vs the related-work design space.

Runs the full suite under every checking design the paper discusses and
compares the cost of implementing the LQ's functionality:

* conventional associative LQ (baseline);
* YLA-filtered LQ (Section 3 alone);
* DMDC (the contribution);
* the age-hash table of Garg et al. [11] that DMDC improves upon;
* naive value-based checking of Cain & Lipasti [5] (no LQ, but every
  committed load re-reads the cache).

Expected shape: DMDC and value-based slash LQ-structure energy, but
value-based pays with memory bandwidth (its "LQ" energy is cache
re-accesses) and Garg pays with unfiltered table traffic and heavier
flush-from-store replays.
"""

from typing import Dict, Optional

from repro.energy.model import EnergyModel
from repro.experiments.common import Points, Sweeps, by_group, mean, suite
from repro.sim.config import CONFIG2, SchemeConfig
from repro.stats.report import format_table

SCHEMES = {
    "conventional": SchemeConfig(kind="conventional"),
    "yla": SchemeConfig(kind="yla", yla_registers=8),
    "dmdc": SchemeConfig(kind="dmdc"),
    "garg": SchemeConfig(kind="garg"),
    "value": SchemeConfig(kind="value"),
}


def points(budget: Optional[int] = None, config=CONFIG2) -> Points:
    """Every checking design over the full suite."""
    return suite({name: config.with_scheme(scheme) for name, scheme in SCHEMES.items()},
                 budget)


def analyze(sweeps: Sweeps, config=CONFIG2) -> Dict:
    """Compare every scheme on LQ energy, replays, and slowdown."""
    model = EnergyModel(config)
    base_runs = sweeps["conventional"]
    base_energy = {name: model.evaluate(r) for name, r in base_runs.items()}

    def sample(name, result):
        energy = model.evaluate(result)
        base = base_energy[name]
        return {
            "lq_rel": 100.0 * energy.lq / base.lq,
            "total_rel": 100.0 * energy.total / base.total,
            "slow": 100.0 * (result.cycles / base_runs[name].cycles - 1),
            "replays": result.replays_per_minstr,
        }

    rows = []
    for scheme_name in SCHEMES:
        for group, g in sorted(by_group(sweeps[scheme_name], sample).items()):
            rows.append({
                "scheme": scheme_name,
                "group": group,
                "lq_energy_rel": mean(g["lq_rel"]),
                "total_energy_rel": mean(g["total_rel"]),
                "slowdown": mean(g["slow"]),
                "replays_per_minstr": mean(g["replays"]),
            })
    return {"experiment": "related_work", "rows": rows}


def render(data: Dict) -> str:
    table_rows = [
        [
            r["group"], r["scheme"],
            f"{r['lq_energy_rel']:.1f}%",
            f"{r['total_energy_rel']:.1f}%",
            f"{r['slowdown']:+.2f}%",
            f"{r['replays_per_minstr']:.0f}",
        ]
        for r in sorted(data["rows"], key=lambda r: (r["group"], r["scheme"]))
    ]
    return format_table(
        ["group", "scheme", "LQ energy (vs baseline)", "total energy",
         "slowdown", "replays/Minstr"],
        table_rows,
        title="Section 7 - DMDC vs related-work checking designs",
    )
