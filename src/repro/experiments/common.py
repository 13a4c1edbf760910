"""Shared experiment infrastructure: scales, the engine façade, pair selection.

The paper simulates 100M-instruction SimPoints; we scale traces down (see
DESIGN.md).  All experiments share one :class:`ExperimentContext`, a thin
façade over :class:`repro.engine.SimEngine`: every simulation an experiment
asks for becomes a declarative job whose result is resolved through the
engine's in-memory cache, optional persistent store, and executor.  The
expensive artefacts — traces, standalone runs, 20-instruction region logs,
contested runs — are therefore computed once per (trace recipe, config,
knobs) and reused across figures, exactly as the paper's region logs feed
both Figure 1 and the pair selection of Figure 6; with a parallel executor
the batched accessors (:meth:`ExperimentContext.ipt_matrix`,
:meth:`ExperimentContext.prefetch`) fan the whole frontier out at once.
"""

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.regions import BASE_REGION, RegionLog
from repro.analysis.switching import pair_switch_time
from repro.core.system import ContestResult
from repro.faults import FaultPlan
from repro.engine import (
    ContestJob,
    RegionLogJob,
    SimEngine,
    StandaloneJob,
    TraceSpec,
)
from repro.isa.trace import Trace
from repro.isa.workloads import BENCHMARKS
from repro.uarch.config import APPENDIX_A_CORES, CoreConfig, core_config
from repro.uarch.run import StandaloneResult


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs trading fidelity for wall-clock time."""

    name: str
    trace_len: int
    #: how many candidate pairs (by oracle pruning) to actually contest per
    #: benchmark when searching for the best contesting pair
    pair_candidates: int
    seed: int = 11


SCALES: Dict[str, ExperimentScale] = {
    "tiny": ExperimentScale("tiny", 6_000, 3),
    "small": ExperimentScale("small", 20_000, 4),
    "default": ExperimentScale("default", 60_000, 6),
    "full": ExperimentScale("full", 100_000, 8),
}


class ExperimentContext:
    """Resolves traces and simulation results shared across experiments.

    A façade over :class:`repro.engine.SimEngine`: accessors build jobs
    keyed by the full (config fingerprint, trace fingerprint, knobs)
    identity — never by benchmark name alone, so a changed seed or scale
    can never alias a stale cache entry — and repeated requests return the
    engine's cached object.

    Parameters
    ----------
    engine:
        The :class:`~repro.engine.SimEngine` to resolve jobs through; by
        default a serial, memory-cache-only engine (no persistence).
    """

    def __init__(
        self,
        scale: str = "default",
        grb_latency_ns: float = 1.0,
        benchmarks: Sequence[str] = BENCHMARKS,
        seed: Optional[int] = None,
        engine: Optional[SimEngine] = None,
    ) -> None:
        try:
            preset = SCALES[scale]
        except KeyError:
            raise ValueError(
                f"unknown scale {scale!r}; expected one of {sorted(SCALES)}"
            ) from None
        if seed is not None:
            preset = ExperimentScale(
                name=preset.name,
                trace_len=preset.trace_len,
                pair_candidates=preset.pair_candidates,
                seed=seed,
            )
        self.scale = preset
        self.grb_latency_ns = grb_latency_ns
        self.benchmarks: Tuple[str, ...] = tuple(benchmarks)
        self.core_names: Tuple[str, ...] = tuple(APPENDIX_A_CORES)
        self.engine = engine or SimEngine()
        self._traces: Dict[str, Trace] = {}

    # --- primitives ----------------------------------------------------

    def trace_spec(self, bench: str) -> TraceSpec:
        """The benchmark's trace recipe at this context's scale/seed (the
        identity every cache key is derived from)."""
        return TraceSpec(
            profile=bench, length=self.scale.trace_len, seed=self.scale.seed
        )

    def trace(self, bench: str) -> Trace:
        """The benchmark's materialised trace (cached per context)."""
        if bench not in self._traces:
            self._traces[bench] = self.trace_spec(bench).materialise()
        return self._traces[bench]

    def standalone(self, bench: str, config: CoreConfig) -> StandaloneResult:
        """Standalone run of the benchmark on a config (engine-cached)."""
        return self.engine.run(StandaloneJob(config, self.trace_spec(bench)))

    def standalone_ipt(self, bench: str, core_name: str) -> float:
        """IPT of the benchmark on a named Appendix-A core."""
        return self.standalone(bench, core_config(core_name)).ipt

    def region_logs(self, bench: str) -> Dict[str, RegionLog]:
        """20-instruction region logs of ``bench`` on every core type,
        resolved as one engine batch."""
        spec = self.trace_spec(bench)
        jobs = [
            RegionLogJob(core_config(name), spec, BASE_REGION)
            for name in self.core_names
        ]
        logs = self.engine.run_many(jobs)
        return dict(zip(self.core_names, logs))

    def contest(
        self,
        bench: str,
        configs: Sequence[CoreConfig],
        grb_latency_ns: Optional[float] = None,
        max_lag: int = 0,
        sat_grace_ns: float = 400.0,
        lagger_policy: str = "disable",
        faults: Optional[FaultPlan] = None,
    ) -> ContestResult:
        """Contested run of the benchmark on the given cores (engine-cached).

        ``max_lag`` / ``sat_grace_ns`` / ``lagger_policy`` / ``faults``
        forward to :class:`~repro.core.system.ContestingSystem` and
        participate in the cache key.
        """
        latency = (
            self.grb_latency_ns if grb_latency_ns is None else grb_latency_ns
        )
        return self.engine.run(self._contest_job(
            bench, configs, latency, max_lag, sat_grace_ns, lagger_policy,
            faults,
        ))

    def _contest_job(
        self,
        bench: str,
        configs: Sequence[CoreConfig],
        latency: float,
        max_lag: int = 0,
        sat_grace_ns: float = 400.0,
        lagger_policy: str = "disable",
        faults: Optional[FaultPlan] = None,
    ) -> ContestJob:
        return ContestJob(
            configs=tuple(configs),
            trace=self.trace_spec(bench),
            grb_latency_ns=latency,
            max_lag=max_lag,
            sat_grace_ns=sat_grace_ns,
            lagger_policy=lagger_policy,
            faults=faults,
        )

    # --- derived artefacts ----------------------------------------------

    def ipt_matrix(self) -> Dict[str, Dict[str, float]]:
        """The Appendix-A matrix: matrix[benchmark][core_type] -> IPT.

        All |benchmarks| x |cores| standalone jobs are submitted as one
        engine batch, so a parallel executor fills the matrix concurrently.
        """
        cells = [
            (bench, name)
            for bench in self.benchmarks
            for name in self.core_names
        ]
        results = self.engine.run_many([
            StandaloneJob(core_config(name), self.trace_spec(bench))
            for bench, name in cells
        ])
        matrix: Dict[str, Dict[str, float]] = {
            bench: {} for bench in self.benchmarks
        }
        for (bench, name), result in zip(cells, results):
            matrix[bench][name] = result.ipt
        return matrix

    def prefetch(self, contests: bool = True) -> None:
        """Batch-submit the artefacts every figure shares — the standalone
        matrix, all region logs, and (optionally) the candidate contests —
        so a parallel executor computes them with full fan-out before the
        figures run serially over warm caches."""
        jobs: List = []
        for bench in self.benchmarks:
            spec = self.trace_spec(bench)
            for name in self.core_names:
                jobs.append(StandaloneJob(core_config(name), spec))
                jobs.append(RegionLogJob(core_config(name), spec, BASE_REGION))
        self.engine.run_many(jobs)
        if contests:
            contest_jobs = [
                self._contest_job(
                    bench, [core_config(a), core_config(b)],
                    self.grb_latency_ns,
                )
                for bench in self.benchmarks
                for a, b in self.candidate_pairs(bench)
            ]
            self.engine.run_many(contest_jobs)

    def candidate_pairs(self, bench: str) -> List[Tuple[str, str]]:
        """Candidate contesting pairs for a benchmark, by oracle pruning.

        The paper contests the pair giving the highest performance; we prune
        the 55 pairs with the Section-2 oracle (which we already compute for
        Figure 1): the top pairs by oracle switching at a systematic
        granularity (640 instructions) and at the finest (20), deduplicated,
        capped at ``scale.pair_candidates``.  The oracle is a strict upper
        bound on contesting, so the true best pair is in this set for any
        realistic realisation ratio.
        """
        logs = self.region_logs(bench)
        ranked: List[Tuple[int, Tuple[str, str]]] = []
        coarse = {n: log.coarsen(32) for n, log in logs.items()}
        for a, b in itertools.combinations(sorted(logs), 2):
            t640 = pair_switch_time(coarse[a], coarse[b])
            ranked.append((t640, (a, b)))
        ranked.sort()
        fine: List[Tuple[int, Tuple[str, str]]] = []
        for a, b in itertools.combinations(sorted(logs), 2):
            t20 = pair_switch_time(logs[a], logs[b])
            fine.append((t20, (a, b)))
        fine.sort()
        seen: List[Tuple[str, str]] = []
        budget = self.scale.pair_candidates
        for _, pair in itertools.chain(
            ranked[: (budget + 1) // 2], fine
        ):
            if pair not in seen:
                seen.append(pair)
            if len(seen) >= budget:
                break
        return seen

    def best_contest(
        self, bench: str
    ) -> Tuple[Tuple[str, str], ContestResult]:
        """Contest the candidate pairs (one engine batch); return the best
        pair and its result."""
        pairs = self.candidate_pairs(bench)
        results = self.engine.run_many([
            self._contest_job(
                bench, [core_config(a), core_config(b)], self.grb_latency_ns
            )
            for a, b in pairs
        ])
        best: Optional[Tuple[Tuple[str, str], ContestResult]] = None
        for pair, result in zip(pairs, results):
            if best is None or result.ipt > best[1].ipt:
                best = (pair, result)
        assert best is not None
        return best
