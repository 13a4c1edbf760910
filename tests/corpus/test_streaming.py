"""Streaming-vs-materialised differential parity.

The streaming trace's contract is *bit-identical* simulation: for any
profile and any chunk size, running the streamed trace must produce
exactly the result of running the materialised trace — every stat, every
per-region retire time at ``region_size=1``, every cache counter.  The
fast slice covers a representative spread on every push; the
``slow``-marked full legacy matrix plus the sampled grammar matrix runs
nightly.
"""

import dataclasses

import pytest

from repro.engine import SimEngine, StandaloneJob, TraceSpec
from repro.engine.jobs import resolve_trace
from repro.isa.stream import StreamingTrace
from repro.isa.trace import Trace
from repro.isa.workloads import BENCHMARKS, workload_profile
from repro.corpus import corpus_spec, resolve_profile
from repro.uarch.config import core_config
from repro.uarch.run import run_standalone

from tests.corpus.sampling import sample_specs
from tests.differential.diffutil import _assert_dicts_equal


def assert_streaming_identical(
    config, mix, length, seed=11, chunk_size=None, **kwargs,
):
    """Run materialised and streamed and require bit-identical results."""
    from repro.isa.generator import generate_trace

    materialised = generate_trace(mix, length, seed=seed)
    stream_kwargs = {} if chunk_size is None else {"chunk_size": chunk_size}
    streamed = StreamingTrace(mix, length, seed=seed, **stream_kwargs)
    want = run_standalone(config, materialised, **kwargs)
    got = run_standalone(config, streamed, **kwargs)
    _assert_dicts_equal(
        dataclasses.asdict(got),
        dataclasses.asdict(want),
        f"streaming {config.name} on {mix.name}",
    )
    assert streamed.fingerprint() == materialised.fingerprint()


# --- fast slice (every push) ------------------------------------------


@pytest.mark.parametrize("profile", ("gcc", "mcf", "twolf"))
def test_legacy_profile_parity_reference(profile):
    assert_streaming_identical(
        core_config(profile), workload_profile(profile), 3000,
        region_size=1,
    )


@pytest.mark.parametrize(
    "name", ("corpus/stream-f64k-b92", "corpus/wide_ilp+branchy-r50-d1")
)
def test_corpus_workload_parity_reference(name):
    assert_streaming_identical(
        core_config("gcc"), resolve_profile(name), 3000, region_size=1,
    )


def test_parity_at_tiny_chunk_sizes():
    # chunk boundaries inside every pipeline structure: the carried-state
    # paths (window eviction, backward reads) all exercise
    assert_streaming_identical(
        core_config("crafty"), workload_profile("vpr"), 2000,
        chunk_size=97, region_size=1,
    )


def test_backward_access_restarts_generation():
    mix = workload_profile("gcc")
    trace = StreamingTrace(mix, 6000, seed=11, chunk_size=64)
    ops = trace.decoded().ops
    ops[5999]
    before = trace.restarts
    assert ops[0] == Trace("x", list(trace.materialise()), 11).decoded().ops[0]
    assert trace.restarts > before


class TestEngineIntegration:
    def test_stream_flag_keys_the_cache_separately(self):
        base = TraceSpec("gcc", 2000)
        streamed = TraceSpec("gcc", 2000, stream=True)
        job = StandaloneJob(core_config("gcc"), base)
        sjob = StandaloneJob(core_config("gcc"), streamed)
        assert job.cache_key() != sjob.cache_key()

    def test_streamed_job_result_equals_materialised(self):
        engine = SimEngine()
        config = core_config("gcc")
        want = engine.run(StandaloneJob(config, TraceSpec("gcc", 2000)))
        got = engine.run(
            StandaloneJob(config, TraceSpec("gcc", 2000, stream=True))
        )
        assert dataclasses.asdict(got) == dataclasses.asdict(want)

    def test_resolve_trace_returns_fresh_streams(self):
        spec = TraceSpec("gcc", 1000, stream=True)
        a = resolve_trace(spec)
        b = resolve_trace(spec)
        assert isinstance(a, StreamingTrace)
        assert a is not b  # no memo: windows/restart counters are not shared

    def test_corpus_spec_fingerprint_carries_the_content_hash(self):
        name = "corpus/serial_chain-f16k-b98"
        fp = TraceSpec(name, 2000).fingerprint()
        assert corpus_spec(name).content_hash()[:12] in fp
        assert TraceSpec(name, 2000, stream=True).fingerprint() == (
            fp + "/stream"
        )


# --- full matrix (nightly) --------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("profile", BENCHMARKS)
def test_full_legacy_parity_matrix(profile):
    """All 11 legacy profiles, retire streams pinned."""
    assert_streaming_identical(
        core_config(profile), workload_profile(profile), 6000,
        region_size=1,
    )


@pytest.mark.slow
@pytest.mark.parametrize("index", range(10))
def test_sampled_grammar_parity_matrix(index):
    """Sampled grammar workloads on contrasting cores, both directions."""
    spec = sample_specs(10)[index]
    core = ("gcc", "mcf", "crafty")[index % 3]
    assert_streaming_identical(
        core_config(core), spec.build_mix(), 5000, region_size=1,
    )
    assert_streaming_identical(
        core_config(core), spec.build_mix(), 5000,
        chunk_size=256, region_size=1,
    )
