"""The paper reproduction the ``paper_*`` workloads run.

Kept free of the benchmark's other imports: the set-up children import
this module, and their set-up time is the program's import time.
"""

import importlib
from typing import Dict, Sequence

from repro.engine import SimEngine
from repro.experiments.common import SCALES, ExperimentContext

#: the paper's figures and tables, in the runner's order
PAPER_FIGURES = (
    "fig01", "appendix_a", "fig06", "fig07", "fig08", "table1",
    "fig09", "fig10", "fig11", "fig12", "fig13",
)
#: a fixed profile slice spanning phase-diverse (gcc), memory-bound (mcf),
#: branch-led (crafty) and interpreter-like (perl) behaviour
PROFILES = ("gcc", "mcf", "crafty", "perl")
SCALE = "tiny"
#: the scale's own trace seed: the workloads reproduce the paper's figures
#: as published, and the benchmark seed varies only the order of requests,
#: so every seed runs the same simulations
TRACE_SEED = SCALES[SCALE].seed


def render_figure(name: str, ctx: ExperimentContext) -> str:
    """Run one figure's experiment and render it, as the runner does."""
    module = importlib.import_module(f"repro.experiments.{name}")
    result = module.run(ctx)
    render = getattr(module, "render", None)
    return render(result) if render is not None else result.render()


def context(engine: SimEngine, seed: int = TRACE_SEED) -> ExperimentContext:
    """The reproduction's experiment context on ``engine``."""
    return ExperimentContext(
        scale=SCALE, benchmarks=PROFILES, seed=seed, engine=engine
    )


def reproduce(
    engine: SimEngine, seed: int = TRACE_SEED,
    order: Sequence[str] = PAPER_FIGURES,
) -> Dict[str, str]:
    """Every paper figure, in ``order``, rendered through ``engine``."""
    ctx = context(engine, seed)
    return {name: render_figure(name, ctx) for name in order}
