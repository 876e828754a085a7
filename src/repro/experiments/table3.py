"""Tables 3 and 5: breakdown of false replays by approximation.

Every DMDC replay of a load with no real violation is classified by which
approximation triggered it:

* **address match** -- the load really overlaps a marked store but issued
  *after* the store resolved (timing approximation).  ``X``: the load lies
  in that store's own checking window; ``Y``: it was only checked because
  windows merged.
* **hashing conflict** -- the load's quad word merely hashes to a marked
  entry.  It may have issued before or after the marking store.

Paper result (config2, per million committed instructions): INT 168 total
(65% addr/X, 22% addr/Y, 11% hash/before); FP 35 total.  Local DMDC
(Table 5) cuts INT to 134 and FP to 24, mostly out of the Y column.
"""

from typing import Dict, Optional

from repro.experiments.common import Points, Sweeps, by_group, mean, suite
from repro.sim.config import CONFIG2, SchemeConfig
from repro.sim.result import FALSE_REPLAY_CATEGORIES
from repro.stats.report import format_table

_LABELS = {
    "replay.false.addr.X": ("address match", "after store (X: in window)"),
    "replay.false.addr.Y": ("address match", "after store (Y: merged windows)"),
    "replay.false.hash.before": ("hashing conflict", "before store"),
    "replay.false.hash.X": ("hashing conflict", "after store (X: in window)"),
    "replay.false.hash.Y": ("hashing conflict", "after store (Y: merged windows)"),
    "replay.false.inv": ("invalidation", "promoted INV entry"),
}


def points(budget: Optional[int] = None, local: bool = False, config=CONFIG2) -> Points:
    """DMDC (global or local) over the full suite."""
    return suite({"dmdc": config.with_scheme(SchemeConfig(kind="dmdc", local=local))}, budget)


def _sample(name, result) -> Dict[str, float]:
    values = {cat: result.per_minstr(cat) for cat in FALSE_REPLAY_CATEGORIES}
    values.update(true=result.per_minstr("replay.true"),
                  total_false=result.false_replays_per_minstr)
    return values


def analyze(sweeps: Sweeps, local: bool = False, **_) -> Dict:
    """Classify false replays per million instructions, INT vs FP."""
    rows = []
    for group, g in sorted(by_group(sweeps["dmdc"], _sample).items()):
        total = mean(g["total_false"]) or 1e-12
        for cat in FALSE_REPLAY_CATEGORIES:
            kind, timing = _LABELS[cat]
            rows.append({
                "group": group,
                "kind": kind,
                "timing": timing,
                "per_minstr": mean(g[cat]),
                "share": 100.0 * mean(g[cat]) / total,
            })
        rows.append({
            "group": group, "kind": "total", "timing": "(all false replays)",
            "per_minstr": mean(g["total_false"]), "share": 100.0,
        })
        rows.append({
            "group": group, "kind": "true", "timing": "(real violations)",
            "per_minstr": mean(g["true"]), "share": float("nan"),
        })
    return {"experiment": "table5" if local else "table3", "local": local, "rows": rows}


def render(data: Dict) -> str:
    which = "Table 5 (local DMDC)" if data["local"] else "Table 3 (global DMDC)"
    table_rows = []
    for r in data["rows"]:
        share = "" if r["share"] != r["share"] else f"{r['share']:.0f}%"
        table_rows.append(
            [r["group"], r["kind"], r["timing"], f"{r['per_minstr']:.1f}", share]
        )
    return format_table(
        ["group", "cause", "timing", "replays/Minstr", "share"],
        table_rows,
        title=f"{which} - false replay breakdown",
    )
