"""Table 6: the impact of external invalidations on coherent DMDC.

Paper result (config2, coherent DMDC, injected random invalidations):

=====================================  =====  =====  =====  =====
invalidations per 1000 cycles              0      1     10    100
% cycles in checking mode (INT)         10.0   10.3   12.2   23.2
relative checking-window size (INT)      1.0   1.01   1.11   1.37
relative false-replay rate (INT)         1.0    1.1   1.47   4.59
slowdown % (INT)                        0.31   0.34   0.46   1.36
=====================================  =====  =====  =====  =====

(FP analogous, with lower absolute checking time.)  Up to ~10/1000 cycles
the design absorbs the traffic; at 1 per 10 cycles it shows stress but
stays near 1% slowdown.
"""

from typing import Dict, List, Optional

from repro.experiments.common import Points, Sweeps, by_group, mean, suite
from repro.sim.config import CONFIG2, SchemeConfig
from repro.stats.report import format_table

INVALIDATION_RATES = (0.0, 1.0, 10.0, 100.0)


def points(budget: Optional[int] = None, rates=INVALIDATION_RATES, config=CONFIG2) -> Points:
    """Injected invalidation rates under coherent DMDC, plus the baseline."""
    coherent = SchemeConfig(kind="dmdc", coherence=True)
    sweep = {"base": config}
    for rate in rates:
        sweep[f"inv:{rate}"] = config.with_scheme(coherent).with_overrides(
            invalidation_rate=rate
        )
    return suite(sweep, budget)


def analyze(sweeps: Sweeps, rates=INVALIDATION_RATES, **_) -> Dict:
    rows: List[Dict] = []
    per_group_ref: Dict[str, Dict[str, float]] = {}
    for rate in rates:
        inv = sweeps[f"inv:{rate}"]

        def sample(name, base):
            r = inv[name]
            return {
                "checking": 100.0 * r.checking_cycle_fraction,
                "window": r.mean_window_instrs,
                "false": r.false_replays_per_minstr,
                "slow": 100.0 * (r.cycles / base.cycles - 1),
            }

        for group, g in sorted(by_group(sweeps["base"], sample).items()):
            stats = {key: mean(g[key]) for key in ("checking", "window", "false", "slow")}
            ref = per_group_ref.setdefault(group, stats)
            rows.append({
                "group": group,
                "rate": rate,
                "checking_pct": stats["checking"],
                "rel_window": stats["window"] / ref["window"] if ref["window"] else 0.0,
                "rel_false_replays": stats["false"] / ref["false"] if ref["false"] else
                (1.0 if rate == rates[0] else float("inf")),
                "slowdown": stats["slow"],
            })
    return {"experiment": "table6", "rows": rows}


def render(data: Dict) -> str:
    table_rows = [
        [
            r["group"],
            f"{r['rate']:g}",
            f"{r['checking_pct']:.1f}%",
            f"{r['rel_window']:.2f}",
            f"{r['rel_false_replays']:.2f}",
            f"{r['slowdown']:+.2f}%",
        ]
        for r in sorted(data["rows"], key=lambda r: (r["group"], r["rate"]))
    ]
    return format_table(
        ["group", "inv/1000cyc", "% cycles checking", "rel. window size",
         "rel. false replays", "slowdown"],
        table_rows,
        title="Table 6 - coherent DMDC under injected invalidations",
    )
