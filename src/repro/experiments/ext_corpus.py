"""Extension experiment: sweep a corpus sample through streaming traces.

Not a paper figure — this exercises the trace-corpus registry
(:mod:`repro.corpus`) end to end: a deterministic sample of named corpus
workloads is resolved to streaming :class:`~repro.engine.TraceSpec`
recipes (``stream=True``), simulated standalone on a small set of
Appendix-A cores through the engine (so every run is cached under the
workload's content-hashed profile key), and rolled up per workload into a
typed :class:`~repro.telemetry.StatRegistry`.

The sweep doubles as a living conformance check: the engine resolves each
spec to a :class:`~repro.isa.stream.StreamingTrace`, so these IPCs are
produced without any workload ever being fully resident — the parity
suite (``tests/corpus``) pins that they equal the materialised numbers.
"""

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.corpus import corpus_names, corpus_spec, profile_key
from repro.engine import StandaloneJob, TraceSpec
from repro.experiments.common import ExperimentContext
from repro.telemetry import StatRegistry
from repro.uarch.config import core_config
from repro.util.tables import format_table

#: Appendix-A cores each sampled workload is measured on: the widest
#: machine, a mid-width one, and the narrowest — enough spread to rank
#: workloads by core sensitivity without sweeping all ten.
SWEEP_CORES: Tuple[str, ...] = ("gcc", "crafty", "mcf")


def sample_workloads(seed: int, count: int) -> List[str]:
    """A deterministic sample of registered corpus workload names.

    Seeded so the same scale resolves the same workloads run over run
    (and therefore replays from the engine cache); sampling without
    replacement over the sorted registry keeps the choice stable under
    registry *growth* only when the seed changes, which is exactly the
    cache-invalidation behaviour a content-addressed sweep wants.
    """
    names = list(corpus_names())
    if count >= len(names):
        return names
    return sorted(random.Random(seed).sample(names, count))


@dataclass
class ExtCorpusResult:
    """Per-workload IPCs plus the typed rollup registry."""

    #: workload name -> core name -> IPC (all via streaming traces)
    ipcs: Dict[str, Dict[str, float]]
    #: workload name -> 12-hex content-hash prefix (the cache-key suffix)
    keys: Dict[str, str]
    #: typed per-workload and aggregate rollups
    registry: StatRegistry

    def render(self) -> str:
        """IPC table plus the aggregate rollup lines."""
        rows: List[List[object]] = []
        for name in sorted(self.ipcs):
            per_core = self.ipcs[name]
            best = max(per_core, key=lambda c: per_core[c])
            rows.append(
                [name.removeprefix("corpus/"), self.keys[name]]
                + [per_core[core] for core in SWEEP_CORES]
                + [best]
            )
        table = format_table(
            ["workload", "key", *(f"ipc@{c}" for c in SWEEP_CORES), "best"],
            rows,
            title="Extension: streaming sweep over a corpus sample",
        )
        lines = [table, "corpus sweep rollups:"]
        for stat in self.registry:
            if stat.name.startswith("corpus.workload."):
                continue  # per-workload detail; the table above shows it
            lines.append(f"  {stat.name}: {stat.snapshot_value()} {stat.unit}")
        return "\n".join(lines)


def run(
    ctx: ExperimentContext, workloads_to_run: int = 8
) -> ExtCorpusResult:
    """Sweep a deterministic corpus sample on the sweep cores."""
    workloads = sample_workloads(ctx.scale.seed, workloads_to_run)
    specs = {
        name: TraceSpec(
            profile=name, length=ctx.scale.trace_len,
            seed=ctx.scale.seed, stream=True,
        )
        for name in workloads
    }

    # one engine batch: |workloads| x |cores| streaming standalone jobs
    cells = [(name, core) for name in workloads for core in SWEEP_CORES]
    results = ctx.engine.run_many([
        StandaloneJob(core_config(core), specs[name])
        for name, core in cells
    ])

    ipcs: Dict[str, Dict[str, float]] = {name: {} for name in workloads}
    for (name, core), result in zip(cells, results):
        ipcs[name][core] = result.ipc

    registry = StatRegistry()
    registry.counter(
        "corpus.workloads", "workloads", "corpus workloads swept"
    ).inc(len(workloads))
    registry.counter(
        "corpus.jobs", "jobs", "streaming standalone jobs resolved"
    ).inc(len(cells))
    registry.counter(
        "corpus.instructions", "instructions",
        "dynamic instructions simulated (streamed, never resident)",
    ).inc(len(cells) * ctx.scale.trace_len)
    templates = registry.histogram(
        "corpus.templates", "workloads",
        "sampled workloads per phase template",
    )
    for name in workloads:
        spec = corpus_spec(name)
        for phase in spec.phases:
            templates.add(phase.template)
        per_core = ipcs[name]
        short = name.removeprefix("corpus/")
        for core in SWEEP_CORES:
            registry.gauge(
                f"corpus.workload.{short}.ipc.{core}", "ipc",
                f"streamed IPC of {name} on the {core} core",
            ).set(per_core[core])
        registry.gauge(
            f"corpus.workload.{short}.spread", "ratio",
            f"best/worst IPC ratio of {name} across the sweep cores",
        ).set(max(per_core.values()) / min(per_core.values()))
    all_ipcs = [v for per_core in ipcs.values() for v in per_core.values()]
    registry.gauge(
        "corpus.ipc.mean", "ipc", "mean IPC over the whole sweep"
    ).set(sum(all_ipcs) / len(all_ipcs))
    registry.gauge(
        "corpus.ipc.best", "ipc", "best single (workload, core) IPC"
    ).set(max(all_ipcs))

    return ExtCorpusResult(
        ipcs=ipcs,
        keys={
            name: profile_key(name).rsplit("@", 1)[1] for name in workloads
        },
        registry=registry,
    )
