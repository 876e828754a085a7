"""Registry of the paper's experiments and the one path that runs them.

An experiment is a module with three functions:

* ``points(budget=None, **params)`` names its labelled design points,
  ``{label: {workload: RunRequest}}``;
* ``analyze(sweeps, **params)`` turns the results, in the same shape,
  into a plain JSON-friendly dict (it receives the same parameters as
  ``points`` minus the budget, and names only those it reads);
* ``render(data)`` prints the table the paper prints.

:func:`run_experiments` plans any set of experiments, simulates the
deduplicated union of their points as one engine batch, then analyzes
and renders each.  ``repro experiment [--all]``, the service's
``/experiment/{id}`` and :func:`run_experiment` all go through it.
"""

from types import ModuleType
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.exec.engine import ExecutionEngine, get_engine
from repro.experiments import (
    ablation_storesets,
    ablation_table_size,
    ablation_wrongpath,
    checking_queue,
    fig2,
    fig3,
    fig4,
    fig5,
    related_work,
    safe_loads,
    sq_filter,
    table2,
    table3,
    table6,
    yla_energy,
)
from repro.experiments.common import Points


class Experiment(NamedTuple):
    """One reproducible paper artifact: a module plus fixed parameters."""

    id: str
    paper_artifact: str
    module: ModuleType
    params: Dict[str, object] = {}

    def points(self, budget: Optional[int] = None, **kwargs) -> Points:
        """This artifact's design points: its fixed params plus ``kwargs``."""
        return self.module.points(budget, **self.params, **kwargs)


class Artifact(NamedTuple):
    """One experiment's analyzed data and rendered table."""

    id: str
    data: Dict
    text: str


EXPERIMENTS: Dict[str, Experiment] = {
    exp.id: exp
    for exp in [
        Experiment("fig2", "Figure 2", fig2),
        Experiment("fig3", "Figure 3", fig3),
        Experiment("yla_energy", "Section 6.1 energy", yla_energy),
        Experiment("fig4", "Figure 4", fig4),
        Experiment("table2", "Table 2", table2),
        Experiment("table3", "Table 3", table3),
        Experiment("table4", "Table 4", table2, {"local": True}),
        Experiment("table5", "Table 5", table3, {"local": True}),
        Experiment("fig5", "Figure 5", fig5),
        Experiment("table6", "Table 6", table6),
        Experiment("safe_loads", "Section 6.2.2 safe loads", safe_loads),
        Experiment("checking_queue", "Section 6.2.3 checking queue", checking_queue),
        Experiment("sq_filter", "Section 3 SQ filtering", sq_filter),
        Experiment("ablation_table_size", "Ablation: checking-table size",
                   ablation_table_size),
        Experiment("ablation_wrongpath", "Ablation: wrong-path YLA corruption",
                   ablation_wrongpath),
        Experiment("ablation_storesets", "Extension: store-set prediction",
                   ablation_storesets),
        Experiment("related_work", "Section 7 comparison", related_work),
    ]
}


def run_experiments(exp_ids: Sequence[str],
                    engine: Optional[ExecutionEngine] = None,
                    **kwargs) -> List[Artifact]:
    """Plan, simulate once, analyze and render the named experiments.

    ``kwargs`` (``budget=`` and any experiment parameter) go to every
    named experiment.  Every planned point goes to ``engine`` (the
    process-wide engine by default) in one batch, which simulates each
    unique point once; its ``stats`` count the planned and unique points.
    """
    budget = kwargs.pop("budget", None)
    plans = [(EXPERIMENTS[exp_id], EXPERIMENTS[exp_id].points(budget, **kwargs))
             for exp_id in exp_ids]
    batch = [request for _, points in plans
             for requests in points.values() for request in requests.values()]
    engine = engine if engine is not None else get_engine()
    results = iter(engine.run(batch))

    artifacts = []
    for exp, points in plans:
        sweeps = {label: {name: next(results) for name in requests}
                  for label, requests in points.items()}
        data = exp.module.analyze(sweeps, **exp.params, **kwargs)
        artifacts.append(Artifact(exp.id, data, exp.module.render(data)))
    return artifacts


def run_experiment(exp_id: str, **kwargs):
    """Run one experiment by id and return (data, rendered_text)."""
    artifact = run_experiments([exp_id], **kwargs)[0]
    return artifact.data, artifact.text
