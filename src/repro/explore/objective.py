"""Objectives for design-space exploration.

Objectives come in two shapes.  The classic shape is a plain callable
``CoreConfig -> float``.  The engine-aware shape —
:class:`EngineObjective` — additionally *declares* the simulations a score
needs as :data:`~repro.engine.jobs.SimJob` values, so an annealer (or any
search) can batch the jobs of many candidate configs through a
:class:`~repro.engine.SimEngine` and evaluate them in parallel, with the
engine's caches deduplicating revisited designs.  Every engine objective is
still callable (it executes its own jobs serially), so the two shapes are
interchangeable at call sites.
"""

from typing import TYPE_CHECKING, Callable, Dict, List, Sequence

if TYPE_CHECKING:
    from repro.engine.engine import SimEngine

from repro.engine.jobs import (
    ContestJob,
    SimJob,
    StandaloneJob,
    TraceLike,
)
from repro.uarch.config import CoreConfig
from repro.util.stats import harmonic_mean

Objective = Callable[[CoreConfig], float]


class EngineObjective:
    """An objective whose score is a pure function of simulation jobs.

    Subclasses declare :meth:`jobs` and :meth:`combine`; calling the
    objective directly runs the jobs serially in-process.
    """

    def jobs(self, config: CoreConfig) -> List[SimJob]:
        """The simulations needed to score ``config``."""
        raise NotImplementedError

    def combine(self, results: Sequence[object]) -> float:
        """Fold the job results (in :meth:`jobs` order) into the score."""
        raise NotImplementedError

    def __call__(self, config: CoreConfig) -> float:
        """Serial fallback: execute this config's jobs here and now."""
        return self.combine([job.run() for job in self.jobs(config)])


class WorkloadObjective(EngineObjective):
    """IPT of one workload on the candidate core (benchmark customisation,
    the paper's Appendix-A setting)."""

    def __init__(self, trace: TraceLike) -> None:
        self.trace = trace

    def jobs(self, config: CoreConfig) -> List[SimJob]:
        """One standalone run."""
        return [StandaloneJob(config, self.trace)]

    def combine(self, results: Sequence[object]) -> float:
        """The run's IPT."""
        return results[0].ipt


class SuiteObjective(EngineObjective):
    """Harmonic-mean IPT over a suite (the paper's whole-suite exploration,
    Section 6.2, which found no core meaningfully better than gcc's)."""

    def __init__(self, traces: Sequence[TraceLike]) -> None:
        if not traces:
            raise ValueError("SuiteObjective needs at least one trace")
        self.traces = tuple(traces)

    def jobs(self, config: CoreConfig) -> List[SimJob]:
        """One standalone run per suite member."""
        return [StandaloneJob(config, t) for t in self.traces]

    def combine(self, results: Sequence[object]) -> float:
        """Harmonic mean of the per-workload IPTs."""
        return harmonic_mean(r.ipt for r in results)


class ContestPairObjective(EngineObjective):
    """Contested IPT of (candidate, partner) on a workload.

    Section 7.2: the true potential of contesting requires customising cores
    *for contesting* — the candidate is evaluated by how well it contests
    alongside a fixed partner, not by its standalone performance.  (Full
    pair-space exploration composes this with an outer loop over partners.)
    """

    def __init__(
        self, trace: TraceLike, partner: CoreConfig,
        grb_latency_ns: float = 1.0,
    ) -> None:
        self.trace = trace
        self.partner = partner
        self.grb_latency_ns = grb_latency_ns

    def jobs(self, config: CoreConfig) -> List[SimJob]:
        """One 2-way contest."""
        return [ContestJob(
            configs=(config, self.partner), trace=self.trace,
            grb_latency_ns=self.grb_latency_ns,
        )]

    def combine(self, results: Sequence[object]) -> float:
        """The contest's IPT."""
        return results[0].ipt


def evaluate_candidates(
    engine: "SimEngine",
    objective: EngineObjective,
    configs: Sequence[CoreConfig],
) -> List[float]:
    """Score many candidate configs as one engine batch.

    All configs' jobs are submitted together, so a parallel executor
    evaluates the whole candidate set concurrently; the engine's caches
    make revisited designs free.
    """
    per_config = [objective.jobs(c) for c in configs]
    flat: List[SimJob] = [j for jobs in per_config for j in jobs]
    results = engine.run_many(flat)
    scores: List[float] = []
    cursor = 0
    for jobs in per_config:
        scores.append(objective.combine(results[cursor:cursor + len(jobs)]))
        cursor += len(jobs)
    return scores


def workload_objective(trace: TraceLike) -> Objective:
    """IPT of one workload on the candidate core (see
    :class:`WorkloadObjective`)."""
    return WorkloadObjective(trace)


def suite_objective(traces: Sequence[TraceLike]) -> Objective:
    """Harmonic-mean IPT over a suite (see :class:`SuiteObjective`)."""
    if not traces:
        raise ValueError("suite_objective needs at least one trace")
    return SuiteObjective(traces)


def contest_pair_objective(
    trace: TraceLike, partner: CoreConfig, grb_latency_ns: float = 1.0
) -> Objective:
    """Contested IPT of (candidate, partner) on a workload (see
    :class:`ContestPairObjective`)."""
    return ContestPairObjective(trace, partner, grb_latency_ns)


def cached(objective: Objective) -> Objective:
    """Memoise an objective on the config fingerprint (annealers revisit).

    A trace identity is folded in when the objective exposes one, so two
    caches built from different traces never alias.
    """
    memo: Dict[tuple, float] = {}

    def score(config: CoreConfig) -> float:
        key = config.fingerprint()
        if key not in memo:
            memo[key] = objective(config)
        return memo[key]

    return score
