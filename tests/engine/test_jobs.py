"""Job identity: cache keys must track exactly the result-relevant inputs."""

import pytest

from repro.engine import jobs
from repro.engine.jobs import (
    ContestJob,
    RegionLogJob,
    StandaloneJob,
    TraceSpec,
    resolve_trace,
    trace_fingerprint,
)
from repro.experiments.common import SCALES
from repro.isa.generator import generate_trace
from repro.isa.workloads import BENCHMARKS, workload_profile
from repro.uarch.config import core_config

SPEC = TraceSpec("gcc", 1200, seed=11)


class TestTraceSpec:
    def test_materialise_matches_generate(self):
        direct = generate_trace(workload_profile("gcc"), 1200, seed=11)
        assert SPEC.materialise().fingerprint() == direct.fingerprint()

    def test_resolve_memoised(self):
        assert resolve_trace(SPEC) is resolve_trace(SPEC)

    def test_resolve_passthrough(self, small_trace):
        assert resolve_trace(small_trace) is small_trace

    def test_spec_and_value_key_spaces_disjoint(self):
        # a recipe fingerprint must never collide with a content fingerprint
        assert trace_fingerprint(SPEC).startswith("spec/")
        assert trace_fingerprint(SPEC.materialise()).startswith("trace/")


class TestTraceMemo:
    """The per-process memo is bounded by entries and by instructions."""

    @pytest.fixture(autouse=True)
    def small_memo(self, monkeypatch):
        monkeypatch.setattr(jobs, "_TRACE_MEMO", {})
        monkeypatch.setattr(jobs, "_TRACE_MEMO_INSTRS", 1000)

    def test_oldest_evicted_to_fit_the_instruction_budget(self):
        a, b, c = (TraceSpec("gcc", 400, seed=s) for s in (1, 2, 3))
        first = resolve_trace(a)
        resolve_trace(b)
        resolve_trace(c)
        assert list(jobs._TRACE_MEMO) == [b, c]
        assert resolve_trace(a) is not first
        assert list(jobs._TRACE_MEMO) == [c, a]

    def test_oldest_evicted_at_the_entry_cap(self, monkeypatch):
        monkeypatch.setattr(jobs, "_TRACE_MEMO_CAP", 2)
        specs = [TraceSpec("gcc", 100, seed=s) for s in range(3)]
        for spec in specs:
            resolve_trace(spec)
        assert list(jobs._TRACE_MEMO) == specs[1:]

    def test_trace_over_the_budget_is_never_memoised(self):
        small = TraceSpec("gcc", 300, seed=1)
        resolve_trace(small)
        big = TraceSpec("gcc", 1001, seed=1)
        assert resolve_trace(big) is not resolve_trace(big)
        assert len(resolve_trace(big)) == 1001
        # nothing was evicted to make room for it
        assert list(jobs._TRACE_MEMO) == [small]


def test_memo_budget_holds_the_full_scale_paper_traces():
    assert jobs._TRACE_MEMO_CAP == 32
    full = len(BENCHMARKS) * SCALES["full"].trace_len
    assert jobs._TRACE_MEMO_INSTRS == full


class TestCacheKeys:
    def test_deterministic(self):
        job = StandaloneJob(core_config("gcc"), SPEC)
        assert job.cache_key() == StandaloneJob(
            core_config("gcc"), SPEC
        ).cache_key()

    def test_config_distinguishes(self):
        a = StandaloneJob(core_config("gcc"), SPEC)
        b = StandaloneJob(core_config("vpr"), SPEC)
        assert a.cache_key() != b.cache_key()

    @pytest.mark.parametrize("other", [
        TraceSpec("vpr", 1200, 11),     # profile
        TraceSpec("gcc", 1300, 11),     # length
        TraceSpec("gcc", 1200, 12),     # seed
    ])
    def test_trace_recipe_distinguishes(self, other):
        a = StandaloneJob(core_config("gcc"), SPEC)
        b = StandaloneJob(core_config("gcc"), other)
        assert a.cache_key() != b.cache_key()

    def test_kind_distinguishes(self):
        alone = StandaloneJob(core_config("gcc"), SPEC, region_size=20)
        log = RegionLogJob(core_config("gcc"), SPEC, region_size=20)
        assert alone.cache_key() != log.cache_key()

    def test_contest_knobs_distinguish(self):
        cfgs = (core_config("gcc"), core_config("vpr"))
        base = ContestJob(cfgs, SPEC)
        assert base.cache_key() != ContestJob(
            cfgs, SPEC, grb_latency_ns=5.0
        ).cache_key()
        assert base.cache_key() != ContestJob(
            cfgs, SPEC, max_lag=128
        ).cache_key()
        assert base.cache_key() != ContestJob(
            cfgs, SPEC, lagger_policy="resync"
        ).cache_key()

    def test_config_order_distinguishes(self):
        a = ContestJob((core_config("gcc"), core_config("vpr")), SPEC)
        b = ContestJob((core_config("vpr"), core_config("gcc")), SPEC)
        assert a.cache_key() != b.cache_key()


class TestExecution:
    def test_standalone_runs(self):
        result = StandaloneJob(core_config("gcc"), SPEC).run()
        assert result.instructions == 1200
        assert result.ipt > 0

    def test_region_log_runs(self):
        log = RegionLogJob(core_config("gcc"), SPEC, region_size=20).run()
        assert log.region_size == 20
        assert sum(log.times_ps) > 0

    def test_contest_runs(self):
        result = ContestJob(
            (core_config("gcc"), core_config("vpr")), SPEC
        ).run()
        assert result.instructions == 1200
