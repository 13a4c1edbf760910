"""Executor equivalence: where a job runs must never change its result.

Also the worker pool's lifetime: one pool per executor, reused by every
batch and joined by ``close()``, its workers each pinned to a CPU.
"""

import os

import pytest

from repro.engine.executors import ParallelExecutor, SerialExecutor
from repro.engine.executors import _pin_to_own_cpu
from repro.engine.jobs import ContestJob, RegionLogJob, StandaloneJob
from repro.engine.jobs import TraceSpec
from repro.uarch.config import core_config

from tests.engine.duck_jobs import CpuJob, PidJob, worker_pids

#: the CPUs this process may use (empty without an affinity API)
CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()

SPEC = TraceSpec("gcc", 1000, seed=11)
SPEC_B = TraceSpec("vpr", 1000, seed=11)

JOBS = [
    StandaloneJob(core_config("gcc"), SPEC),
    StandaloneJob(core_config("vpr"), SPEC),
    StandaloneJob(core_config("mcf"), SPEC_B),
    RegionLogJob(core_config("gcc"), SPEC),
    ContestJob((core_config("gcc"), core_config("vpr")), SPEC),
    ContestJob((core_config("bzip"), core_config("mcf")), SPEC_B),
]


@pytest.fixture(scope="module")
def shared():
    """One two-worker executor for the module: one pool start, not one
    per test."""
    with ParallelExecutor(workers=2, chunk_size=2) as executor:
        yield executor


class TestEquivalence:
    def test_parallel_results_bit_identical_to_serial(self, shared):
        serial = [r for r, _ in SerialExecutor().run(JOBS)]
        parallel = [r for r, _ in shared.run(JOBS)]
        # dataclass equality is deep: every cycle count, per-region time,
        # and per-core RunStats must match exactly
        assert serial == parallel

    def test_order_preserved(self, shared):
        results = [r for r, _ in shared.run(JOBS[:3])]
        assert [r.config_name for r in results] == ["gcc", "vpr", "mcf"]
        assert results[2].trace_name == "vpr"


class TestPoolLifecycle:
    def test_batches_reuse_the_same_workers(self, shared):
        first = worker_pids(shared)
        second = worker_pids(shared)
        assert len(first) == 2 and os.getpid() not in first
        assert second == first

    def test_single_job_batches_run_in_process(self, shared):
        (pid, _), = shared.run([PidJob(0, hold_s=0.0)])
        assert pid == os.getpid()

    @pytest.mark.skipif(
        len(CPUS) < 2, reason="needs an affinity API and two CPUs"
    )
    def test_workers_pinned_to_cpus_of_their_own(self, shared):
        cpus = dict(r for r, _ in shared.run([CpuJob(i) for i in range(4)]))
        assert len(cpus) == 2
        assert all(len(mask) == 1 for mask in cpus.values())
        assert len(set(cpus.values())) == 2

    @pytest.mark.skipif(not CPUS, reason="needs an affinity API")
    def test_more_workers_than_cpus_are_left_unpinned(self):
        try:
            _pin_to_own_cpu(0, len(CPUS) + 1)
            assert os.sched_getaffinity(0) == CPUS
        finally:
            os.sched_setaffinity(0, CPUS)


class TestHarness:
    def test_empty_batch(self, shared):
        assert shared.run([]) == []

    def test_single_worker_falls_back_to_serial(self):
        results = ParallelExecutor(workers=1).run(JOBS[:1])
        assert len(results) == 1

    def test_timings_reported(self):
        timed = SerialExecutor().run(JOBS[:2])
        assert all(seconds >= 0 for _, seconds in timed)

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            ParallelExecutor(workers=-1)

    def test_derived_worker_count(self):
        assert ParallelExecutor().workers >= 1
