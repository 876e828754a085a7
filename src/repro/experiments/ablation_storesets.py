"""Extension: store-set dependence prediction on top of DMDC.

The paper argues prediction is unnecessary at SPEC violation rates ("true
store-load replays are very rare ... prediction and replay prevention
mechanisms seem unnecessary").  This experiment quantifies that claim by
running DMDC with and without a Chrysos-Emer store-set predictor on (a)
the normal suite and (b) an engineered alias-heavy stress workload:
prediction should be a wash on (a) and suppress most true replays on (b).
"""

from typing import Dict, Optional

from repro.exec.request import RunRequest
from repro.experiments.common import Points, Sweeps, by_group, mean, suite
from repro.sim.config import CONFIG2, SchemeConfig
from repro.sim.runner import instruction_budget
from repro.stats.report import format_table
from repro.workloads import WorkloadSpec

STRESS = WorkloadSpec(
    name="alias-stress", conflict_per_kinstr=5.0,
    store_addr_dep_load=0.2, rmw_fraction=0.15, seed=41,
)

_VARIANTS = (("off", SchemeConfig(kind="dmdc")),
             ("on", SchemeConfig(kind="dmdc", store_sets=True)))


def points(budget: Optional[int] = None, config=CONFIG2) -> Points:
    """DMDC with/without store-set prediction, suite + stress workload."""
    budget = budget if budget is not None else instruction_budget()
    out = suite({variant: config.with_scheme(scheme) for variant, scheme in _VARIANTS},
                budget)
    for variant, scheme in _VARIANTS:
        out[f"stress:{variant}"] = {
            STRESS.name: RunRequest(config.with_scheme(scheme), STRESS, budget)}
    return out


def analyze(sweeps: Sweeps, **_) -> Dict:
    rows = []
    for variant, _scheme in _VARIANTS:
        groups = by_group(sweeps[variant],
                          lambda name, r: {"true": r.per_minstr("replay.true")})
        for group, g in sorted(groups.items()):
            rows.append({
                "workload": f"suite-{group}",
                "store_sets": variant,
                "true_replays": mean(g["true"]),
            })
    for variant, _scheme in _VARIANTS:
        result = sweeps[f"stress:{variant}"][STRESS.name]
        rows.append({
            "workload": STRESS.name,
            "store_sets": variant,
            "true_replays": result.per_minstr("replay.true"),
        })
    return {"experiment": "ablation_storesets", "rows": rows}


def render(data: Dict) -> str:
    table_rows = [
        [r["workload"], r["store_sets"], f"{r['true_replays']:.1f}"]
        for r in sorted(data["rows"], key=lambda r: (r["workload"], r["store_sets"]))
    ]
    return format_table(
        ["workload", "store-set prediction", "true replays/Minstr"],
        table_rows,
        title="Extension - store-set prediction vs true replays under DMDC",
    )
