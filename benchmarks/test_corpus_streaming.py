"""Streaming-generation throughput, with a materialised no-regression gate.

``corpus_streaming_throughput`` records simulated-instructions/second for
a corpus workload consumed region by region (generation interleaved with
simulation, nothing fully resident).  The gates pin the two properties
streaming must keep: results stay bit-identical to the materialised path,
and the legacy materialised path keeps its throughput — streaming rides
on the same generator and scheduler, so a slowdown on either side is a
regression, not a trade.
"""

import dataclasses
import time

from repro.corpus import PhaseSpec, WorkloadSpec
from repro.isa.generator import generate_trace
from repro.isa.stream import StreamingTrace
from repro.uarch.config import core_config
from repro.uarch.run import run_standalone

LENGTH = 200_000
SEED = 11


def _compute_only_mix():
    """A compute-only corpus-grammar workload (no loads or stores), so the
    two resident forms differ only in how the trace is held."""
    spec = WorkloadSpec(
        name="corpus/bench-compute",
        phases=(
            PhaseSpec("compute_mul", params=(
                ("branch_bias", 0.95),
                ("branch_frac", 0.06),
                ("dep1_frac", 0.0),
                ("idiv_frac", 0.0),
                ("imul_frac", 0.05),
                ("load_frac", 0.0),
                ("store_frac", 0.0),
                ("two_src_frac", 0.0),
            )),
        ),
    )
    return spec.build_mix()


def _best_of(n, fn, *args, **kwargs):
    best = float("inf")
    result = None
    for _ in range(n):
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - started)
    return result, best


def _streamed_run(mix, config):
    """Generation + simulation end to end, nothing resident up front."""
    trace = StreamingTrace(mix, LENGTH, seed=SEED)
    return run_standalone(config, trace)


def _materialised_run(mix, config):
    trace = generate_trace(mix, LENGTH, seed=SEED)
    return run_standalone(config, trace)


def test_corpus_streaming_throughput(benchmark, capsys):
    """Acceptance: streamed execution costs <=1.5x the materialised path
    end to end (it redoes no work — same generator, same scheduler, plus
    a bounded chunk window), bit-identically."""
    mix = _compute_only_mix()
    config = core_config("gcc")

    materialised, mat_s = _best_of(3, _materialised_run, mix, config)

    benchmark.pedantic(
        _streamed_run, args=(mix, config), rounds=3, iterations=1
    )
    stream_s = benchmark.stats.stats.min
    streamed = _streamed_run(mix, config)
    assert dataclasses.asdict(streamed) == dataclasses.asdict(materialised)

    overhead = stream_s / max(mat_s, 1e-9)
    benchmark.extra_info["instructions"] = streamed.instructions
    benchmark.extra_info["instrs_per_sec"] = streamed.instructions / stream_s
    benchmark.extra_info["instrs_per_sec_materialised"] = (
        materialised.instructions / mat_s
    )
    benchmark.extra_info["streaming_overhead"] = overhead
    with capsys.disabled():
        print(f"\ncorpus streaming: {streamed.instructions} instrs, "
              f"{streamed.instructions / stream_s:,.0f}/s streamed vs "
              f"{materialised.instructions / mat_s:,.0f}/s materialised "
              f"({overhead:.2f}x)")
    assert overhead <= 1.5
    # the no-regression gate for the legacy materialised path: generation
    # plus simulation throughput must stay in its historical band
    assert materialised.instructions / mat_s >= 50_000
