"""SimEngine layering: memory cache, persistent store, executor, counters."""

from repro.engine import ParallelExecutor, ResultStore, SimEngine
from repro.engine.jobs import ContestJob, StandaloneJob, TraceSpec
from repro.uarch.config import core_config

SPEC = TraceSpec("gcc", 1000, seed=11)


def _job(core="gcc"):
    return StandaloneJob(core_config(core), SPEC)


class TestMemoryLayer:
    def test_hit_returns_same_object(self):
        engine = SimEngine()
        assert engine.run(_job()) is engine.run(_job())
        assert engine.stats.memory_hits == 1
        assert engine.stats.misses == 1

    def test_batch_deduplicates(self):
        engine = SimEngine()
        results = engine.run_many([_job(), _job(), _job("vpr")])
        assert results[0] is results[1]
        assert engine.stats.misses == 2  # gcc once, vpr once

    def test_distinct_jobs_not_aliased(self):
        engine = SimEngine()
        a = engine.run(_job("gcc"))
        b = engine.run(_job("vpr"))
        assert a.config_name != b.config_name


class TestStoreLayer:
    def test_cross_engine_persistence(self, tmp_path):
        first = SimEngine(store=ResultStore(tmp_path))
        cold = first.run(_job())
        second = SimEngine(store=ResultStore(tmp_path))
        warm = second.run(_job())
        assert warm == cold
        assert second.stats.store_hits == 1
        assert second.stats.misses == 0
        assert second.stats.sim_seconds == 0.0

    def test_corrupt_store_falls_back_to_recompute(self, tmp_path):
        engine = SimEngine(store=ResultStore(tmp_path))
        expected = engine.run(_job())
        # clobber the store file wholesale
        store_path = engine.store.path
        store_path.write_bytes(b"\x00garbage\nnot even json\n")
        fresh = SimEngine(store=ResultStore(tmp_path))
        recomputed = fresh.run(_job())
        assert recomputed == expected
        assert fresh.stats.misses == 1  # recomputed, no crash

    def test_no_store_means_no_persistence(self, tmp_path):
        SimEngine().run(_job())
        assert list(tmp_path.iterdir()) == []


class TestExecutorLayer:
    def test_parallel_engine_matches_serial(self, tmp_path):
        jobs = [
            _job("gcc"), _job("vpr"),
            ContestJob((core_config("gcc"), core_config("vpr")), SPEC),
        ]
        serial = SimEngine().run_many(jobs)
        with ParallelExecutor(workers=2) as executor:
            parallel = SimEngine(executor=executor).run_many(jobs)
        assert serial == parallel

    def test_executed_counts_by_kind(self):
        engine = SimEngine()
        engine.run_many([
            _job(),
            ContestJob((core_config("gcc"), core_config("vpr")), SPEC),
        ])
        assert engine.stats.executed == {"standalone": 1, "contest": 1}


class TestReporting:
    def test_stats_line_mentions_counters(self, tmp_path):
        engine = SimEngine(store=ResultStore(tmp_path))
        engine.run(_job())
        engine.run(_job())
        line = engine.stats_line()
        assert "1 memory hits" in line
        assert "1 misses" in line
        assert "store:" in line

    def test_jobs_total(self):
        engine = SimEngine()
        engine.run(_job())
        engine.run(_job())
        assert engine.stats.jobs == 2
