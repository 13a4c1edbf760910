"""Crash paths of the parallel executor: raise, SIGKILL, hang, torn writes.

The misbehaving duck jobs live in :mod:`tests.engine.duck_jobs`.  Every
test closes the executor it owns, so no worker outlives its test.
"""

import multiprocessing
import os
import time
from multiprocessing.connection import Connection

import pytest

from repro.analysis.regions import RegionLog
from repro.engine import (
    JobFailure,
    ParallelExecutor,
    ResultStore,
    RetryPolicy,
    SerialExecutor,
    SimEngine,
    StandaloneJob,
    TraceSpec,
)
from repro.uarch.config import core_config

from tests.engine.duck_jobs import (
    HangingJob,
    HangOnceJob,
    LockResultJob,
    LogJob,
    PidJob,
    RaisingJob,
    SuicideJob,
    UnpicklableJob,
    worker_pids,
)

SPEC = TraceSpec("gcc", 1000, seed=11)

GOOD_JOBS = [
    StandaloneJob(core_config("gcc"), SPEC),
    StandaloneJob(core_config("vpr"), SPEC),
    StandaloneJob(core_config("mcf"), SPEC),
]


FAST_RETRY = RetryPolicy(max_attempts=2)


class TestRaisingJob:
    def test_failure_reported_others_succeed(self):
        jobs = GOOD_JOBS[:2] + [RaisingJob()] + GOOD_JOBS[2:]
        with ParallelExecutor(workers=2, retry=FAST_RETRY) as executor:
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


class TestUnpicklable:
    def test_job_that_does_not_pickle_fails_alone(self):
        with ParallelExecutor(workers=2, retry=FAST_RETRY) as executor:
            timed = executor.run([UnpicklableJob(), *GOOD_JOBS[:2]])
        failure = timed[0][0]
        assert isinstance(failure, JobFailure)
        assert "pickle" in failure.message and failure.attempts == 1
        serial = [r for r, _ in SerialExecutor().run(GOOD_JOBS[:2])]
        assert [r for r, _ in timed[1:]] == serial

    def test_result_that_does_not_pickle_is_retried_then_run_here(self):
        # reported like a raise: retried in a worker, then the final
        # in-process attempt returns it
        with ParallelExecutor(workers=2, retry=FAST_RETRY) as executor:
            timed = executor.run([LockResultJob(), GOOD_JOBS[0]])
        result = timed[0][0]
        assert not isinstance(result, JobFailure)
        assert result[0] == os.getpid()
        assert timed[1][0] == SerialExecutor().run(GOOD_JOBS[:1])[0][0]


class TestKilledWorker:
    def test_pool_survives_and_every_job_answers(self):
        # The acceptance scenario: a worker is SIGKILLed mid-batch.  The
        # batch must still return one entry per job — the poisoned job as
        # a JobFailure, every other job bit-identical to a serial run.
        jobs = [GOOD_JOBS[0], SuicideJob(), GOOD_JOBS[1], GOOD_JOBS[2]]
        with ParallelExecutor(workers=2, retry=FAST_RETRY) as executor:
            timed = executor.run(jobs)
        assert len(timed) == len(jobs)
        results = [r for r, _ in timed]
        failure = results[1]
        assert isinstance(failure, JobFailure)
        assert failure.error_type == "WorkerDied"
        assert failure.attempts == FAST_RETRY.max_attempts
        serial = [r for r, _ in SerialExecutor().run(GOOD_JOBS)]
        assert [results[0], results[2], results[3]] == serial

    def test_batch_mates_of_the_killed_job_still_succeed(self):
        jobs = [SuicideJob()] + GOOD_JOBS
        with ParallelExecutor(workers=2, retry=FAST_RETRY) as executor:
            results = [r for r, _ in executor.run(jobs)]
        assert isinstance(results[0], JobFailure)
        assert [r for r in results[1:] if isinstance(r, JobFailure)] == []

    def test_only_the_dead_worker_is_replaced(self):
        policy = RetryPolicy(max_attempts=1)
        with ParallelExecutor(workers=2, retry=policy) as executor:
            before = worker_pids(executor)
            timed = executor.run([SuicideJob(), GOOD_JOBS[0]])
            after = worker_pids(executor)
        assert timed[0][0].error_type == "WorkerDied"
        assert len(before) == 2 and len(after) == 2
        # the survivor still answers; the dead worker's slot has a new pid
        assert len(before & after) == 1


class TestHangingJob:
    def test_watchdog_times_the_job_out(self):
        policy = RetryPolicy(max_attempts=1, job_timeout_s=0.5)
        started = time.monotonic()
        with ParallelExecutor(workers=2, retry=policy) as executor:
            timed = executor.run([HangingJob(), GOOD_JOBS[0]])
        elapsed = time.monotonic() - started
        failure = timed[0][0]
        assert isinstance(failure, JobFailure)
        assert failure.error_type == "JobTimeout"
        assert not isinstance(timed[1][0], JobFailure)
        assert elapsed < 60  # the 300s sleep was interrupted

    def test_watchdog_kill_reruns_no_other_job(self, tmp_path):
        # every job but the hanger logs one line per run: each must run
        # exactly once, none charged for the hanger's overrun
        log = tmp_path / "runs.log"
        policy = RetryPolicy(max_attempts=1, job_timeout_s=1.0)
        jobs = [HangingJob()] + [
            LogJob(str(log), tag, hold_s=0.3) for tag in range(8)
        ]
        with ParallelExecutor(workers=2, retry=policy) as executor:
            timed = executor.run(jobs)
        failure = timed[0][0]
        assert isinstance(failure, JobFailure)
        assert failure.error_type == "JobTimeout"
        assert [r for r, _ in timed[1:]] == list(range(8))
        assert sorted(log.read_text().split()) == [str(t) for t in range(8)]


class TestTimedOutRetryPath:
    """The timed-out path: a timeout spends an attempt and the job is
    *retried*, not failed outright (nor retried forever)."""

    def test_transient_hang_recovers_on_retry(self, tmp_path):
        policy = RetryPolicy(max_attempts=3, job_timeout_s=0.5)
        job = HangOnceJob(str(tmp_path / "first-attempt.sentinel"))
        with ParallelExecutor(workers=2, retry=policy) as executor:
            timed = executor.run([job, GOOD_JOBS[0]])
        # the first attempt wedged (the sentinel proves it ran) but the
        # retry completed: no JobFailure anywhere
        assert timed[0][0] == "recovered"
        assert (tmp_path / "first-attempt.sentinel").exists()
        assert not isinstance(timed[1][0], JobFailure)

    def test_attempts_counted_to_budget_then_job_timeout(self):
        policy = RetryPolicy(max_attempts=2, job_timeout_s=0.4)
        with ParallelExecutor(workers=2, retry=policy) as executor:
            timed = executor.run([HangingJob(), GOOD_JOBS[0]])
        failure = timed[0][0]
        assert isinstance(failure, JobFailure)
        assert failure.error_type == "JobTimeout"
        # every permitted attempt was spent on the timeout path — not
        # one (fail fast) and not more (retry forever)
        assert failure.attempts == policy.max_attempts
        assert "wall-clock" in failure.message
        assert not isinstance(timed[1][0], JobFailure)

    def test_batch_mates_of_a_timed_out_job_still_succeed(self):
        # the watchdog kills only the wedged job's worker: the other jobs
        # succeed, and the hanger spends each of its attempts in full
        policy = RetryPolicy(max_attempts=2, job_timeout_s=0.4)
        with ParallelExecutor(workers=2, retry=policy) as executor:
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
        policy = RetryPolicy(max_attempts=2, job_timeout_s=0.4)
        with ParallelExecutor(workers=2, retry=policy) as executor:
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
        with ParallelExecutor(workers=2, retry=FAST_RETRY) as executor:
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
        with ParallelExecutor(workers=2, retry=policy) as executor:
            timed = executor.run(tiny)
        assert [r for r, _ in timed] == [
            r for r, _ in SerialExecutor().run(tiny)
        ]

    def test_wait_for_a_free_worker_is_not_charged_to_the_budget(self):
        # nine 0.2 s jobs on two workers: the last waits ~0.8 s for a free
        # worker, longer than its budget, yet runs well within it
        policy = RetryPolicy(max_attempts=1, job_timeout_s=0.5)
        jobs = [PidJob(tag, hold_s=0.2) for tag in range(9)]
        with ParallelExecutor(workers=2, retry=policy) as executor:
            timed = executor.run(jobs)
        assert [r for r, _ in timed if isinstance(r, JobFailure)] == []

    def test_batch_runs_serially_when_no_pool_starts(self, monkeypatch):
        def no_start(process):
            raise OSError("no process slots left")

        monkeypatch.setattr(
            multiprocessing.get_context("spawn").Process, "start", no_start
        )
        with ParallelExecutor(workers=2, retry=FAST_RETRY) as executor:
            timed = executor.run(GOOD_JOBS)
        serial = [r for r, _ in SerialExecutor().run(GOOD_JOBS)]
        assert [r for r, _ in timed] == serial

    def test_batch_runs_serially_when_no_worker_can_be_replaced(
        self, monkeypatch
    ):
        def broken_pipe(conn, obj):
            raise BrokenPipeError("worker gone")

        def no_start(process):
            raise OSError("no process slots left")

        with ParallelExecutor(workers=2, retry=FAST_RETRY) as executor:
            assert len(worker_pids(executor)) == 2
            # every hand-over breaks its pipe and no replacement starts
            monkeypatch.setattr(Connection, "send", broken_pipe)
            monkeypatch.setattr(
                multiprocessing.get_context("spawn").Process, "start",
                no_start,
            )
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
