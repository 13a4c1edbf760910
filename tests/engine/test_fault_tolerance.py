"""Crash paths of the parallel executor: raise, SIGKILL, hang, torn writes.

The misbehaving duck jobs live in :mod:`tests.engine.duck_jobs`.  Every
test closes the executor it owns, so no worker outlives its test.
"""

import multiprocessing
import os
import time

import pytest

from repro.analysis.regions import RegionLog
from repro.engine import executors
from repro.engine import (
    JobFailure,
    ParallelExecutor,
    ResultStore,
    RetryPolicy,
    SerialExecutor,
    SimEngine,
    StandaloneJob,
    TraceSpec,
    derive_chunk_size,
)
from repro.uarch.config import core_config

from tests.engine.duck_jobs import (
    HangingJob,
    HangOnceJob,
    PidJob,
    RaisingJob,
    SuicideJob,
    worker_pids,
)

SPEC = TraceSpec("gcc", 1000, seed=11)

GOOD_JOBS = [
    StandaloneJob(core_config("gcc"), SPEC),
    StandaloneJob(core_config("vpr"), SPEC),
    StandaloneJob(core_config("mcf"), SPEC),
]


FAST_RETRY = RetryPolicy(max_attempts=2, backoff_s=0.01)


class TestRaisingJob:
    def test_failure_reported_others_succeed(self):
        jobs = GOOD_JOBS[:2] + [RaisingJob()] + GOOD_JOBS[2:]
        with ParallelExecutor(
            workers=2, chunk_size=2, retry=FAST_RETRY
        ) as executor:
            timed = executor.run(jobs)
        results = [r for r, _ in timed]
        failure = results[2]
        assert isinstance(failure, JobFailure)
        assert failure.error_type == "ValueError"
        assert "boom" in failure.message
        serial = [r for r, _ in SerialExecutor().run(GOOD_JOBS)]
        assert [results[0], results[1], results[3]] == serial

    def test_traceback_carried(self):
        with ParallelExecutor(workers=2, retry=FAST_RETRY) as executor:
            (failure, _), = executor.run(
                [RaisingJob(), RaisingJob("other")]
            )[:1]
        assert isinstance(failure, JobFailure)
        assert "ValueError" in failure.traceback


class TestKilledWorker:
    def test_pool_survives_and_every_job_answers(self):
        # The acceptance scenario: a worker is SIGKILLed mid-batch.  The
        # batch must still return one entry per job — the poisoned job as
        # a JobFailure, every other job bit-identical to a serial run.
        jobs = [GOOD_JOBS[0], SuicideJob(), GOOD_JOBS[1], GOOD_JOBS[2]]
        with ParallelExecutor(
            workers=2, chunk_size=2, retry=FAST_RETRY
        ) as executor:
            timed = executor.run(jobs)
        assert len(timed) == len(jobs)
        results = [r for r, _ in timed]
        failure = results[1]
        assert isinstance(failure, JobFailure)
        assert failure.error_type == "WorkerDied"
        assert failure.attempts == FAST_RETRY.max_attempts
        serial = [r for r, _ in SerialExecutor().run(GOOD_JOBS)]
        assert [results[0], results[2], results[3]] == serial

    def test_chunk_mates_of_the_killed_job_still_succeed(self):
        # chunk_size=4 guarantees the killer shares a chunk with victims
        jobs = [SuicideJob()] + GOOD_JOBS
        with ParallelExecutor(
            workers=2, chunk_size=4, retry=FAST_RETRY
        ) as executor:
            results = [r for r, _ in executor.run(jobs)]
        assert isinstance(results[0], JobFailure)
        assert [r for r in results[1:] if isinstance(r, JobFailure)] == []


class TestHangingJob:
    def test_watchdog_times_the_job_out(self):
        policy = RetryPolicy(
            max_attempts=1, backoff_s=0.01, job_timeout_s=0.5
        )
        started = time.monotonic()
        with ParallelExecutor(
            workers=2, chunk_size=1, retry=policy
        ) as executor:
            timed = executor.run([HangingJob(), GOOD_JOBS[0]])
        elapsed = time.monotonic() - started
        failure = timed[0][0]
        assert isinstance(failure, JobFailure)
        assert failure.error_type == "JobTimeout"
        assert not isinstance(timed[1][0], JobFailure)
        assert elapsed < 60  # the 300s sleep was interrupted


class TestTimedOutRetryPath:
    """The timed-out single-chunk path: a timeout spends an attempt and
    the job is *retried*, not failed outright (nor retried forever)."""

    def test_transient_hang_recovers_on_retry(self, tmp_path):
        policy = RetryPolicy(
            max_attempts=3, backoff_s=0.01, job_timeout_s=0.5
        )
        job = HangOnceJob(str(tmp_path / "first-attempt.sentinel"))
        with ParallelExecutor(
            workers=2, chunk_size=1, retry=policy
        ) as executor:
            timed = executor.run([job, GOOD_JOBS[0]])
        # the first attempt wedged (the sentinel proves it ran) but the
        # retry completed: no JobFailure anywhere
        assert timed[0][0] == "recovered"
        assert (tmp_path / "first-attempt.sentinel").exists()
        assert not isinstance(timed[1][0], JobFailure)

    def test_attempts_counted_to_budget_then_job_timeout(self):
        policy = RetryPolicy(
            max_attempts=2, backoff_s=0.01, job_timeout_s=0.4
        )
        with ParallelExecutor(
            workers=2, chunk_size=1, retry=policy
        ) as executor:
            timed = executor.run([HangingJob(), GOOD_JOBS[0]])
        failure = timed[0][0]
        assert isinstance(failure, JobFailure)
        assert failure.error_type == "JobTimeout"
        # every permitted attempt was spent on the timeout path — not
        # one (fail fast) and not more (retry forever)
        assert failure.attempts == policy.max_attempts
        assert "wall-clock" in failure.message
        assert not isinstance(timed[1][0], JobFailure)

    def test_timed_out_multi_job_chunk_splits_before_spending(self):
        # a multi-job chunk that overruns cannot tell which member is
        # wedged: it splits into singles at the SAME attempt, so the
        # innocent chunk-mate succeeds and the hanger still gets its
        # full per-attempt budget
        policy = RetryPolicy(
            max_attempts=2, backoff_s=0.01, job_timeout_s=0.4
        )
        with ParallelExecutor(
            workers=2, chunk_size=2, retry=policy
        ) as executor:
            timed = executor.run(
                [HangingJob(), GOOD_JOBS[0], GOOD_JOBS[1], GOOD_JOBS[2]]
            )
        failure = timed[0][0]
        assert isinstance(failure, JobFailure)
        assert failure.error_type == "JobTimeout"
        assert failure.attempts == policy.max_attempts
        serial = [r for r, _ in SerialExecutor().run(GOOD_JOBS)]
        assert [r for r, _ in timed[1:]] == serial

    def test_timeout_failures_are_never_cached(self, tmp_path):
        policy = RetryPolicy(
            max_attempts=2, backoff_s=0.01, job_timeout_s=0.4
        )
        with ParallelExecutor(
            workers=2, chunk_size=1, retry=policy
        ) as executor:
            engine = SimEngine(
                executor=executor, store=ResultStore(tmp_path / "store"),
            )
            results = engine.run_many([HangingJob(), GOOD_JOBS[0]])
            assert isinstance(results[0], JobFailure)
            assert results[0].error_type == "JobTimeout"
            assert engine.stats.failures == 1
            # only the good job's record landed in the store
            assert len(engine.store) == 1
            assert engine.store.get("hanging", "hanging") is None
            # a re-run re-executes the timed-out job (no poisoned record),
            # while the good job is a pure cache hit; a second fresh job
            # rides along so the uncached remainder keeps the pool path
            # (a singleton batch would run serially, with no watchdog)
            again = engine.run_many(
                [HangingJob(), GOOD_JOBS[0], GOOD_JOBS[1]]
            )
        assert isinstance(again[0], JobFailure)
        assert engine.stats.failures == 2
        assert engine.stats.memory_hits == 1


class TestPoolLifecycle:
    def test_pool_respawned_after_a_break_is_reused(self):
        with ParallelExecutor(
            workers=2, chunk_size=1, retry=FAST_RETRY
        ) as executor:
            broken = executor.run([SuicideJob(), GOOD_JOBS[0]])
            assert broken[0][0].error_type == "WorkerDied"
            first = worker_pids(executor)
            second = worker_pids(executor)
        assert len(first) == 2 and os.getpid() not in first
        assert second == first

    def test_pool_start_is_not_charged_to_the_job_budget(self):
        # a fresh executor's first batch pays the spawn start-up; the
        # watchdog budget below is a fraction of it, yet tiny jobs pass
        started = time.perf_counter()
        with ParallelExecutor(workers=2) as probe:
            probe.run([PidJob(0, hold_s=0.0), PidJob(1, hold_s=0.0)])
        start_up_s = time.perf_counter() - started
        policy = RetryPolicy(max_attempts=1, job_timeout_s=start_up_s / 2)
        tiny = [
            StandaloneJob(core_config("gzip"), TraceSpec("gzip", 120, seed))
            for seed in (1, 2)
        ]
        with ParallelExecutor(
            workers=2, chunk_size=1, retry=policy
        ) as executor:
            timed = executor.run(tiny)
        assert [r for r, _ in timed] == [
            r for r, _ in SerialExecutor().run(tiny)
        ]

    def test_batch_runs_serially_when_no_pool_starts(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise OSError("no process slots left")

        monkeypatch.setattr(executors, "ProcessPoolExecutor", no_pool)
        with ParallelExecutor(workers=2, retry=FAST_RETRY) as executor:
            timed = executor.run(GOOD_JOBS)
        serial = [r for r, _ in SerialExecutor().run(GOOD_JOBS)]
        assert [r for r, _ in timed] == serial

    def test_close_and_with_leave_no_child(self):
        executor = ParallelExecutor(workers=2)
        executor.run(GOOD_JOBS[:2])
        assert len(multiprocessing.active_children()) == 2
        executor.close()
        assert multiprocessing.active_children() == []
        executor.close()  # idempotent
        with ParallelExecutor(workers=2) as executor:
            executor.run(GOOD_JOBS[:2])
            assert len(multiprocessing.active_children()) == 2
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        not os.path.isdir("/proc"), reason="reads process states from /proc"
    )
    def test_workers_exit_when_their_owner_dies(self):
        ctx = multiprocessing.get_context("spawn")
        receiver, sender = ctx.Pipe(duplex=False)
        owner = ctx.Process(target=_abandon_pool, args=(sender,))
        owner.start()
        sender.close()
        pids = receiver.recv()
        receiver.close()
        owner.join(timeout=60)
        assert owner.exitcode == 0
        deadline = time.monotonic() + 30
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert len(pids) == 2 and not any(map(_running, pids))


def _abandon_pool(conn):
    """Owner process: start a pool, report its workers, then exit without
    closing it (as a crash would)."""
    executor = ParallelExecutor(workers=2)
    conn.send(worker_pids(executor))
    conn.close()
    os._exit(0)


def _running(pid):
    """Whether ``pid`` is a live process (an exited, unreaped one is not)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestConcurrentStoreAppends:
    def test_two_processes_no_torn_lines(self, tmp_path):
        count = 150
        procs = [
            multiprocessing.Process(
                target=_append_records, args=(str(tmp_path), wid, count)
            )
            for wid in (1, 2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        store = ResultStore(tmp_path)
        assert store.corrupt_lines == 0
        assert len(store) == 2 * count
        sample = store.get("key-1-0", "region_log")
        assert isinstance(sample, RegionLog)


def _append_records(path: str, worker_id: int, count: int) -> None:
    store = ResultStore(path)
    for k in range(count):
        log = RegionLog(
            config_name=f"core-{worker_id}",
            trace_name="trace",
            region_size=20,
            times_ps=list(range(worker_id * 1000, worker_id * 1000 + 60)),
        )
        store.put(f"key-{worker_id}-{k}", "region_log", log)


class TestChunkDerivation:
    def test_small_batches_not_fragmented(self):
        # regression: 6 jobs on 4 workers used to chunk as ceil(6/16)=1
        # (maximum IPC overhead); one chunk per worker is as parallel
        assert derive_chunk_size(6, 4) == 2
        assert derive_chunk_size(16, 4) == 4

    def test_tiny_batches_stay_single(self):
        assert derive_chunk_size(3, 4) == 1
        assert derive_chunk_size(1, 8) == 1

    def test_large_batches_load_balance(self):
        assert derive_chunk_size(100, 4) == 7  # ~4 chunks per worker

    def test_requested_wins(self):
        assert derive_chunk_size(100, 4, requested=5) == 5

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            derive_chunk_size(0, 4)
        with pytest.raises(ValueError):
            derive_chunk_size(4, 0)


class _AlwaysFailingExecutor:
    workers = 1

    def __init__(self):
        self.calls = 0

    def run(self, jobs):
        self.calls += 1
        return [
            (
                JobFailure(
                    job_kind="raising", error_type="ValueError", message="x"
                ),
                0.0,
            )
            for _ in jobs
        ]


class TestEngineFailureHandling:
    def test_failures_surface_but_are_never_cached(self, tmp_path):
        engine = SimEngine(
            executor=_AlwaysFailingExecutor(), store=ResultStore(tmp_path)
        )
        job = RaisingJob()
        first = engine.run(job)
        assert isinstance(first, JobFailure)
        assert engine.stats.failures == 1
        # a re-run misses both cache layers and executes again
        second = engine.run(job)
        assert isinstance(second, JobFailure)
        assert engine.executor.calls == 2
        assert len(engine.store) == 0

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(job_timeout_s=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
