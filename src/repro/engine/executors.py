"""Job executors: serial in-process, or fanned out over worker processes.

Both executors implement one method — ``run(jobs) -> [(result, seconds)]``
with results in submission order — so the engine is indifferent to where
jobs execute.  Simulations are deterministic pure functions of their job,
so the two executors return bit-identical results on the success path
(asserted in ``tests/engine/test_executors.py``); parallelism changes
wall-clock time only.

The parallel executor ships jobs, not traces: jobs built on a
:class:`~repro.engine.jobs.TraceSpec` pickle to a few hundred bytes and
the worker regenerates (and memoises) the trace locally.  Jobs are batched
into chunks so per-task IPC overhead amortises across many short
simulations.

Fault tolerance (see ``docs/engine.md``): the parallel executor submits
each chunk as its own future and survives every per-job failure mode —

* a job that **raises** is captured in the worker and retried under the
  :class:`RetryPolicy` (bounded attempts, exponential backoff + seeded
  jitter), with a final in-process serial attempt before it is reported
  as a :class:`~repro.engine.failures.JobFailure`;
* a worker that **dies** (OOM kill, segfault) breaks the process pool; the
  pool is respawned and only the lost chunks re-run.  A break in full
  parallelism is unattributable (every in-flight future reports
  ``BrokenProcessPool``), so lost chunks re-run with no attempt spent and
  the executor drops into *quarantine*: one chunk in flight at a time,
  where a break is definitively that chunk's fault — it is split to
  isolate the poisoned job, whose attempts then burn down to a failure
  while its innocent chunk-mates complete;
* a job that **hangs** past ``job_timeout_s`` is detected by a watchdog
  that kills the workers (a hung worker cannot be cancelled) and respawns
  the pool; the timed-out job spends an attempt and is retried under the
  same policy — only exhausting ``max_attempts`` reports a ``JobTimeout``
  failure (multi-job chunks are first split to attribute the overrun);
  chunks lost as collateral re-run without spending an attempt;
* if the pool cannot be (re)created at all, everything left degrades to a
  guarded serial run in the calling process.

A batch therefore always returns one entry per job: failed jobs as
``JobFailure`` results, successes intact and bit-identical to serial.

The worker pool lives as long as its executor: the first batch that needs
workers spawns it, every later batch reuses it (warm imports, warm trace
memo), and only a break or a watchdog kill replaces it.  Workers are
started with the ``spawn`` method, because the service runs batches from
a thread and ``fork`` is unsafe in a process with threads; a fresh pool
has every worker started before any chunk is submitted, so start-up is
never charged to a job's time budget.  :meth:`ParallelExecutor.close`
(or a ``with`` block) joins the workers.
"""

import logging
import multiprocessing
import os
import threading
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from multiprocessing import connection
from random import Random
from typing import (
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

from repro.chaos.hooks import Action, apply_action
from repro.engine.failures import JobFailure, job_kind
from repro.engine.jobs import SimJob, execute_job
from repro.util.rng import substream

if TYPE_CHECKING:  # typing only; the chaos runtime is an optional observer
    from multiprocessing.synchronize import Barrier

    from repro.chaos.engine import HarnessChaos

_log = logging.getLogger("repro.engine")

#: watchdog / completion poll interval (seconds)
_POLL_S = 0.05
#: longest a fresh worker waits for the rest of its pool to start (seconds)
_START_TIMEOUT_S = 60.0


def derive_chunk_size(n_jobs: int, workers: int, requested: int = 0) -> int:
    """Jobs per worker task.

    ``requested`` wins when non-zero.  Otherwise aim for ~4 chunks per
    worker so stragglers load-balance — but never fragment a small batch
    into 1-job chunks when fewer, larger chunks give the same makespan:
    with ``workers < n_jobs <= 4 * workers`` the naive ``ceil(n / 4w)``
    is 1 (maximum per-task IPC overhead) while one chunk per worker keeps
    every worker exactly as busy with a fraction of the round trips.
    """
    if n_jobs < 1 or workers < 1:
        raise ValueError("n_jobs and workers must be >= 1")
    if requested:
        return requested
    size = -(-n_jobs // (4 * workers))
    if size == 1 and n_jobs > workers:
        size = -(-n_jobs // workers)
    return size


def _run_chunk(
    jobs: List[SimJob],
    actions: Optional[Tuple[Optional["Action"], ...]] = None,
) -> List[Tuple[object, ...]]:
    """Worker-side chunk runner with per-job exception capture.

    Returns one outcome per job, in order: ``("ok", result, seconds)`` or
    ``("err", type_name, message, formatted_traceback, seconds)``.  A
    raising job therefore never poisons its chunk-mates; only a death of
    the worker process itself (OOM, SIGKILL) loses the chunk.

    ``actions`` is the chaos side-channel (``ParallelExecutor(chaos=...)``):
    one optional directive per job slot, applied blindly before that job
    runs — the parent makes every injection decision, workers hold no
    chaos state (:mod:`repro.chaos.hooks`).  ``None`` (the invariable
    production value) skips the branch entirely.
    """
    out: List[Tuple[object, ...]] = []
    for slot, job in enumerate(jobs):
        action = actions[slot] if actions is not None else None
        started = time.perf_counter()
        try:
            if action is not None:
                apply_action(action)
            result = job.run()
        except Exception as exc:
            out.append((
                "err", type(exc).__name__, str(exc),
                traceback.format_exc(), time.perf_counter() - started,
            ))
        else:
            out.append(("ok", result, time.perf_counter() - started))
    return out


def _start_worker(barrier: "Barrier") -> None:
    """Pool initializer: hold every worker until the whole pool is up.

    A spawned worker unpickles this function, so by the time it runs the
    worker has imported this module and with it every job module.  The
    barrier keeps the pool's first tasks waiting until all its workers
    have got this far, which lets :meth:`ParallelExecutor._start_pool`
    wait for the whole pool with one round of tasks.  A daemon thread
    ends the worker if its parent dies without closing the pool (a
    crashed service or harness), so no worker outlives its owner.
    """
    parent = multiprocessing.parent_process()
    if parent is not None:
        threading.Thread(
            target=_exit_with_parent, args=(parent.sentinel,), daemon=True
        ).start()
    _pin_to_own_cpu(barrier.wait(_START_TIMEOUT_S), barrier.parties)


def _pin_to_own_cpu(index: int, workers: int) -> None:
    """Pin worker ``index`` of a ``workers``-process pool to a CPU of its
    own, when the process may use at least ``workers`` CPUs.

    Workers sleep between batches, and the kernel may wake all of a
    batch's workers onto one CPU while another stays idle.  On a 2-vCPU
    VM it did so for every 4-core sweep of some ``repro-serve`` runs and
    for few sweeps of others, so a worker job's wall time was up to twice
    its CPU time and the service's simulation speed changed ~1.5x from
    one run to the next.  Pinning keeps a batch on as many CPUs as it has
    workers.  The first CPU is rotated by the owner's pid, so pools of
    different owners on a large machine do not all start at the same
    CPU.  Without an affinity API, or with more workers than CPUs,
    placement is left to the kernel.
    """
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return
    if workers > len(cpus):
        return
    cpu = cpus[(os.getppid() + index) % len(cpus)]
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError as exc:  # CPU withdrawn from the process's set
        _log.debug("cannot pin worker %d to CPU %d: %s", index, cpu, exc)


def _exit_with_parent(parent_sentinel: int) -> None:
    """Exit the worker as soon as its parent process has gone."""
    connection.wait([parent_sentinel])
    os._exit(1)


def _kill_workers(pool: ProcessPoolExecutor) -> None:
    """SIGKILL every worker of ``pool`` (a hung worker cannot be
    cancelled through the executor API)."""
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.kill()
        except OSError as exc:
            # already-reaped worker: nothing to kill, nothing lost
            _log.debug("kill of worker %s: %s", proc, exc)


def _guarded_execute(job: SimJob, attempts: int = 1) -> Tuple[object, float]:
    """Run a job in-process, converting an exception into a JobFailure."""
    started = time.perf_counter()
    try:
        return execute_job(job)
    except Exception as exc:
        return (
            JobFailure(
                job_kind=job_kind(job),
                error_type=type(exc).__name__,
                message=str(exc),
                traceback=traceback.format_exc(),
                attempts=attempts,
            ),
            time.perf_counter() - started,
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry policy for the parallel executor.

    Parameters
    ----------
    max_attempts:
        Executions attempted per chunk before its jobs are failed
        (worker deaths) or handed to the final serial fallback (raised
        exceptions).
    backoff_s / backoff_multiplier / jitter:
        Sleep before retry ``k`` is ``backoff_s * multiplier**(k-1)``
        scaled by ``1 ± jitter`` — exponential backoff with jitter so
        co-scheduled runs don't respawn pools in lockstep.
    jitter_seed:
        Seed of the jitter stream (deterministic scheduling for tests).
    job_timeout_s:
        Per-job wall-clock budget; a chunk of ``k`` jobs gets ``k`` times
        this.  ``None`` disables the watchdog.
    """

    max_attempts: int = 3
    backoff_s: float = 0.05
    backoff_multiplier: float = 2.0
    jitter: float = 0.25
    jitter_seed: int = 0
    job_timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_s < 0 or self.backoff_multiplier < 1:
            raise ValueError("backoff_s >= 0 and backoff_multiplier >= 1")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be in [0, 1]")
        if self.job_timeout_s is not None and self.job_timeout_s <= 0:
            raise ValueError("job_timeout_s must be positive")

    def backoff(self, attempt: int, rng: Random) -> float:
        """Sleep before running ``attempt`` (attempt 2 is the first retry)."""
        base = self.backoff_s * self.backoff_multiplier ** max(0, attempt - 2)
        return base * (1.0 + self.jitter * rng.uniform(-1.0, 1.0))


class _Chunk:
    """One schedulable unit: indices into the job list + retry state."""

    __slots__ = ("indices", "attempt", "running_since", "timed_out")

    def __init__(self, indices: Tuple[int, ...], attempt: int = 1) -> None:
        self.indices = indices
        self.attempt = attempt
        self.running_since: Optional[float] = None
        self.timed_out = False


class SerialExecutor:
    """Run every job in the calling process, in order.

    Exceptions propagate (a serial run has a usable traceback and nothing
    else in flight to protect); the parallel executor is the layer that
    converts failures into :class:`~repro.engine.failures.JobFailure`.
    """

    #: degree of parallelism (for reporting)
    workers = 1

    def run(self, jobs: Sequence[SimJob]) -> List[Tuple[object, float]]:
        """Execute the jobs one after another."""
        return [execute_job(job) for job in jobs]

    def close(self) -> None:
        """Nothing to release (the parallel executor's counterpart joins
        its worker pool)."""


class ParallelExecutor:
    """Fan jobs out over one ``ProcessPoolExecutor``, fault-tolerantly.

    The pool is spawned by the first batch of two or more jobs and reused
    by every later one; :meth:`close` (or leaving a ``with`` block) joins
    its workers.  One :meth:`run` at a time: the executor is not
    thread-safe.

    Parameters
    ----------
    workers:
        Worker process count; 0 derives ``os.cpu_count()``.
    chunk_size:
        Jobs per worker task; 0 derives via :func:`derive_chunk_size`.
    retry:
        The :class:`RetryPolicy`; ``None`` uses the defaults (3 attempts,
        50 ms base backoff, no per-job timeout).
    chaos:
        Optional :class:`~repro.chaos.engine.HarnessChaos` fault injector
        (tests): may break the pool at submit and attach worker-side
        directives (kill/hang/slow/backend-fail) to chunk submissions.
        ``None`` — the production value — takes none of those branches.
    """

    def __init__(
        self,
        workers: int = 0,
        chunk_size: int = 0,
        retry: Optional[RetryPolicy] = None,
        chaos: Optional["HarnessChaos"] = None,
    ) -> None:
        if workers < 0 or chunk_size < 0:
            raise ValueError("workers and chunk_size must be >= 0")
        self.workers = workers or os.cpu_count() or 1
        self.chunk_size = chunk_size
        self.retry = retry or RetryPolicy()
        self._chaos = chaos
        self._pool: Optional[ProcessPoolExecutor] = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker pool down and join its workers.

        Idempotent; a later multi-job batch would spawn a fresh pool.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

    def run(self, jobs: Sequence[SimJob]) -> List[Tuple[object, float]]:
        """Execute the jobs across worker processes; order is preserved.

        Every job gets an entry: successes as ``(result, seconds)``,
        unrecoverable failures as ``(JobFailure, seconds)``.  A batch of
        one job (or an executor of one worker) runs in this process.
        """
        jobs = list(jobs)
        if not jobs:
            return []
        if min(self.workers, len(jobs)) <= 1:
            return [_guarded_execute(job) for job in jobs]
        return self._run_pool(jobs)

    # ------------------------------------------------------------------

    def _start_pool(self) -> Optional[ProcessPoolExecutor]:
        """A fresh pool with every worker started, or ``None`` when no
        pool can be started.

        One round of ``workers`` tasks, all held at the start barrier
        (:func:`_start_worker`) until every worker has imported the job
        modules: a chunk submitted afterwards starts on a ready worker,
        so the watchdog never charges a job for the pool's start-up.
        """
        ctx = multiprocessing.get_context("spawn")
        try:
            pool = self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=ctx,
                initializer=_start_worker,
                initargs=(ctx.Barrier(self.workers),),
            )
            ready = [pool.submit(os.getpid) for _ in range(self.workers)]
            for fut in ready:
                fut.result()
        except (OSError, BrokenExecutor) as exc:
            _log.warning(
                "cannot start a worker pool (%s); running the rest of "
                "the batch serially", exc,
            )
            self._discard_pool()
            return None
        return pool

    def _discard_pool(self) -> None:
        """Kill and join the pool (broken, watchdog-killed, failed to
        start, or left mid-batch); the next round that needs workers
        starts a fresh one."""
        pool, self._pool = self._pool, None
        if pool is not None:
            _kill_workers(pool)
            pool.shutdown()

    def _run_pool(self, jobs: List[SimJob]) -> List[Tuple[object, float]]:
        policy = self.retry
        # Backoff jitter draws from a *named* seeded substream
        # (repro.util.rng is the sanctioned randomness entry point), so
        # scheduling noise can never bleed into — or be perturbed by —
        # any other stochastic component sharing the process.
        rng = substream(policy.jitter_seed, "engine", "backoff-jitter")
        n = len(jobs)
        results: List[Optional[Tuple[object, float]]] = [None] * n
        size = derive_chunk_size(n, self.workers, self.chunk_size)
        queue: Deque[_Chunk] = deque(
            _Chunk(tuple(range(i, min(i + size, n))))
            for i in range(0, n, size)
        )
        quarantine = False
        try:
            while queue:
                retry_round = any(c.attempt > 1 for c in queue)
                if retry_round:
                    time.sleep(policy.backoff(
                        max(c.attempt for c in queue), rng
                    ))
                pool = self._pool or self._start_pool()
                if pool is None:
                    while queue:
                        chunk = queue.popleft()
                        for i in chunk.indices:
                            results[i] = _guarded_execute(
                                jobs[i], attempts=chunk.attempt
                            )
                    break
                if quarantine:
                    # one chunk in flight: a pool break is *this* chunk's
                    # fault, so attempts are spent with exact attribution
                    solo: Deque[_Chunk] = deque([queue.popleft()])
                    broken = self._drive(
                        pool, jobs, solo, results, attribute_breaks=True
                    )
                    queue.extendleft(reversed(solo))
                else:
                    broken = self._drive(pool, jobs, queue, results)
                    if broken:
                        quarantine = True
                        _log.warning(
                            "worker pool broke; re-running %d lost "
                            "chunk(s) one at a time to isolate the "
                            "culprit", len(queue),
                        )
                if broken:
                    self._discard_pool()
        except BaseException:
            # an aborted batch may leave chunks running: the next batch
            # must not queue behind them
            self._discard_pool()
            raise
        out: List[Tuple[object, float]] = []
        for i, slot in enumerate(results):
            if slot is None:  # defensive: no job may go unanswered
                slot = _guarded_execute(jobs[i])
            out.append(slot)
        return out

    def _drive(
        self,
        pool: ProcessPoolExecutor,
        jobs: List[SimJob],
        queue: Deque[_Chunk],
        results: List[Optional[Tuple[object, float]]],
        attribute_breaks: bool = False,
    ) -> bool:
        """Submit everything queued and absorb completions.

        Returns True when the pool broke (caller respawns); the queue then
        holds exactly the work that still needs a pool.  With
        ``attribute_breaks`` a pool break charges the lost chunk an attempt
        (quarantine mode: the caller guarantees one chunk in flight, so the
        break is attributable); otherwise lost chunks are collateral and
        re-run for free.
        """
        policy = self.retry
        collateral = not attribute_breaks
        inflight: Dict["Future[List[Tuple[object, ...]]]", _Chunk] = {}
        broken = False
        while queue:
            chunk = queue.popleft()
            try:
                actions = None
                if self._chaos is not None:
                    # both hooks inside the try: an injected pool break is
                    # recovered by the very machinery it exercises
                    self._chaos.before_submit()
                    actions = self._chaos.chunk_actions(
                        len(chunk.indices), chunk.attempt,
                        policy.max_attempts,
                    )
                fut = pool.submit(
                    _run_chunk, [jobs[i] for i in chunk.indices], actions
                )
            except (BrokenExecutor, RuntimeError):
                queue.appendleft(chunk)
                broken = True
                break
            inflight[fut] = chunk
        while inflight and not broken:
            done, _ = wait(
                list(inflight), timeout=_POLL_S,
                return_when=FIRST_COMPLETED,
            )
            for fut in done:
                chunk = inflight.pop(fut)
                broken |= self._absorb(
                    fut, chunk, jobs, queue, results, collateral=collateral
                )
            if not broken and policy.job_timeout_s is not None:
                if self._watchdog(pool, inflight):
                    broken = True
        # Pool broke: every in-flight future resolves (ok if it finished
        # first, BrokenExecutor otherwise) — drain so only lost chunks
        # re-run.  (A chunk the watchdog marked timed_out is handled by
        # that flag regardless of the collateral setting.)
        for fut, chunk in inflight.items():
            self._absorb(
                fut, chunk, jobs, queue, results,
                draining=True, collateral=collateral,
            )
        return broken

    def _absorb(
        self,
        fut: "Future[List[Tuple[object, ...]]]",
        chunk: _Chunk,
        jobs: List[SimJob],
        queue: Deque[_Chunk],
        results: List[Optional[Tuple[object, float]]],
        draining: bool = False,
        collateral: bool = False,
    ) -> bool:
        """Fold one finished future into results/queue; True if pool broke."""
        policy = self.retry
        try:
            outcomes = fut.result(timeout=30 if draining else None)
        except BrokenExecutor:
            self._requeue_lost(chunk, jobs, queue, results, collateral)
            return True
        except Exception as exc:  # unpicklable job/result etc.
            for i in chunk.indices:
                results[i] = (
                    JobFailure(
                        job_kind=job_kind(jobs[i]),
                        error_type=type(exc).__name__,
                        message=str(exc),
                        attempts=chunk.attempt,
                    ),
                    0.0,
                )
            return False
        for i, outcome in zip(chunk.indices, outcomes):
            if outcome[0] == "ok":
                results[i] = (outcome[1], outcome[2])
                continue
            _, err_type, message, tb, seconds = outcome
            if chunk.attempt < policy.max_attempts:
                queue.append(_Chunk((i,), attempt=chunk.attempt + 1))
                continue
            # Final serial fallback: one in-process attempt, then report.
            _log.warning(
                "job %d failed %d time(s) in workers (%s: %s); trying "
                "serially", i, chunk.attempt, err_type, message,
            )
            result, secs = _guarded_execute(
                jobs[i], attempts=chunk.attempt + 1
            )
            if isinstance(result, JobFailure):
                result = JobFailure(
                    job_kind=result.job_kind, error_type=err_type,
                    message=message, traceback=tb,
                    attempts=chunk.attempt + 1,
                )
            results[i] = (result, secs + seconds)
        return False

    def _requeue_lost(
        self,
        chunk: _Chunk,
        jobs: List[SimJob],
        queue: Deque[_Chunk],
        results: List[Optional[Tuple[object, float]]],
        collateral: bool = False,
    ) -> None:
        """Reschedule (or fail) a chunk whose worker vanished.

        ``collateral`` marks chunks lost only because the watchdog killed
        the pool for *another* chunk's overrun: they re-run with no
        attempt spent.
        """
        policy = self.retry
        if chunk.timed_out:
            if len(chunk.indices) == 1:
                # a timeout spends an attempt like any other failure: a
                # transiently wedged run (I/O stall, injected hang) gets
                # retried; only exhausting the budget fails the job
                if chunk.attempt < policy.max_attempts:
                    queue.append(
                        _Chunk(chunk.indices, attempt=chunk.attempt + 1)
                    )
                    return
                i = chunk.indices[0]
                results[i] = (
                    JobFailure(
                        job_kind=job_kind(jobs[i]),
                        error_type="JobTimeout",
                        message=(
                            f"exceeded {policy.job_timeout_s}s wall-clock "
                            "budget"
                        ),
                        attempts=chunk.attempt,
                    ),
                    policy.job_timeout_s or 0.0,
                )
            else:
                # split to attribute the overrun; same attempt — the
                # singles each get their own (smaller) budget
                for i in chunk.indices:
                    queue.append(_Chunk((i,), attempt=chunk.attempt))
            return
        if collateral:
            fresh = _Chunk(chunk.indices, attempt=chunk.attempt)
            fresh.running_since = None
            queue.append(fresh)
            return
        if chunk.attempt >= policy.max_attempts:
            for i in chunk.indices:
                results[i] = (
                    JobFailure(
                        job_kind=job_kind(jobs[i]),
                        error_type="WorkerDied",
                        message=(
                            "worker process died (killed or crashed) "
                            f"after {chunk.attempt} attempt(s)"
                        ),
                        attempts=chunk.attempt,
                    ),
                    0.0,
                )
        elif len(chunk.indices) > 1:
            # isolate the poison: innocent chunk-mates succeed as singles
            for i in chunk.indices:
                queue.append(_Chunk((i,), attempt=chunk.attempt + 1))
        else:
            queue.append(_Chunk(chunk.indices, attempt=chunk.attempt + 1))

    def _watchdog(
        self,
        pool: ProcessPoolExecutor,
        inflight: Dict["Future[List[Tuple[object, ...]]]", _Chunk],
    ) -> bool:
        """Kill the pool when a running chunk exceeds its time budget.

        A hung worker cannot be cancelled through the executor API, so the
        watchdog kills the worker processes: in-flight futures then raise
        ``BrokenProcessPool`` and the drain path re-runs everything except
        the timed-out chunk (marked here), which is failed or split.
        """
        policy = self.retry
        now = time.monotonic()
        fired = False
        for fut, chunk in inflight.items():
            if not fut.running():
                continue
            if chunk.running_since is None:
                chunk.running_since = now
            elif (
                now - chunk.running_since
                > policy.job_timeout_s * len(chunk.indices)
            ):
                chunk.timed_out = True
                fired = True
        if fired:
            _log.warning(
                "watchdog: job exceeded %.1fs budget; recycling the "
                "worker pool", policy.job_timeout_s,
            )
            _kill_workers(pool)
        return fired
