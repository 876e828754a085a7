"""Section 3 extension: age-based filtering for the *store* queue.

Paper result: about 20% of loads are older than every in-flight store and
can skip the SQ forwarding search using a single oldest-store-age
register.  (The paper measures the opportunity but leaves the design to
future work; we implement the filter behind ``SchemeConfig.sq_filter``.)
"""

from typing import Dict, Optional

from repro.experiments.common import Points, Sweeps, by_group, mean, suite
from repro.sim.config import CONFIG2, SchemeConfig
from repro.stats.report import format_table


def points(budget: Optional[int] = None, config=CONFIG2) -> Points:
    """DMDC with the SQ age filter over the full suite."""
    return suite({"dmdc": config.with_scheme(SchemeConfig(kind="dmdc", sq_filter=True))},
                 budget)


def _sample(name, result) -> Optional[Dict[str, float]]:
    """Share of SQ searches the age filter removed (None: no searches)."""
    filtered = result.counters["sq.searches_filtered_age"]
    total = filtered + result.counters["sq.searches"]
    return {"filtered": 100.0 * filtered / total} if total else None


def analyze(sweeps: Sweeps, **_) -> Dict:
    rows = [
        {
            "group": group,
            "filtered_mean": mean(g["filtered"]),
            "filtered_min": min(g["filtered"]),
            "filtered_max": max(g["filtered"]),
        }
        for group, g in sorted(by_group(sweeps["dmdc"], _sample).items())
    ]
    return {"experiment": "sq_filter", "rows": rows}


def render(data: Dict) -> str:
    table_rows = [
        [
            r["group"],
            f"{r['filtered_mean']:.1f}%",
            f"{r['filtered_min']:.1f}%",
            f"{r['filtered_max']:.1f}%",
        ]
        for r in data["rows"]
    ]
    return format_table(
        ["group", "SQ searches filtered (mean)", "min", "max"],
        table_rows,
        title="Section 3 - SQ-search filtering by an oldest-store-age register",
    )
