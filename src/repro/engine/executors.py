"""Job executors: serial in-process, or fanned out over worker processes.

Both executors implement one method — ``run(jobs) -> [(result, seconds)]``
with results in submission order — so the engine is indifferent to where
jobs execute.  Simulations are deterministic pure functions of their job,
so the two executors return bit-identical results on the success path
(asserted in ``tests/engine/test_executors.py``); parallelism changes
wall-clock time only.

The parallel executor ships jobs, not traces: jobs built on a
:class:`~repro.engine.jobs.TraceSpec` pickle to a few hundred bytes and
the worker regenerates (and memoises) the trace locally.

Each worker process runs one job at a time, handed to it over a pipe of
its own, so every failure belongs to one known job (see
``docs/engine.md``):

* a job that **raises** is captured in the worker and retried under the
  :class:`RetryPolicy`, with a final in-process serial attempt before it
  is reported as a :class:`~repro.engine.failures.JobFailure`;
* a worker that **dies** (OOM kill, segfault) charges one attempt to the
  job it held, and only that worker is replaced;
* a job that **hangs** past ``job_timeout_s`` has its worker killed by
  the watchdog and replaced; the timed-out job spends an attempt and is
  retried under the same policy — only exhausting ``max_attempts``
  reports a ``JobTimeout`` failure;
* a job that cannot be handed to its worker (a broken pipe) goes back to
  the queue with no attempt spent, and that worker is replaced;
* a job that does not pickle fails at once; a result that does not
  pickle is reported by the worker as a raise;
* if no worker can be started at all, everything left degrades to a
  guarded serial run in the calling process.

A batch therefore always returns one entry per job: failed jobs as
``JobFailure`` results, successes intact and bit-identical to serial.

The workers live as long as their executor: the first batch that needs
workers starts them, every later batch reuses them (warm imports, warm
trace memo), and only a death or a watchdog kill replaces one.  Workers
are started with the ``spawn`` method, because the service runs batches
from a thread and ``fork`` is unsafe in a process with threads.  A job's
time budget starts only when the job is handed to a started, idle
worker, so neither a worker's start-up nor a wait for a free worker is
ever charged to it.  :meth:`ParallelExecutor.close` (or a ``with``
block) stops the workers.
"""

import logging
import math
import multiprocessing
import os
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection
from multiprocessing.connection import Connection
from multiprocessing.reduction import ForkingPickler
from typing import (
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
    Union,
    cast,
)

from repro.chaos.hooks import Action, apply_action
from repro.engine.failures import JobFailure, job_kind
from repro.engine.jobs import SimJob, execute_job

if TYPE_CHECKING:  # typing only; the chaos runtime is an optional observer
    from multiprocessing.process import BaseProcess

    from repro.chaos.engine import HarnessChaos

_log = logging.getLogger("repro.engine")

#: longest a stopped idle worker gets to exit before it is killed (seconds)
_STOP_TIMEOUT_S = 5.0


def _run_job(
    job: SimJob, action: Optional[Action] = None
) -> Tuple[object, ...]:
    """Worker-side job runner with exception capture.

    Returns ``("ok", result, seconds)`` or ``("err", type_name, message,
    formatted_traceback, seconds)``; only a death of the worker process
    itself (OOM, SIGKILL) loses the job.

    ``action`` is the chaos side-channel (``ParallelExecutor(chaos=...)``):
    an optional directive applied blindly before the job runs — the parent
    makes every injection decision, workers hold no chaos state
    (:mod:`repro.chaos.hooks`).  ``None`` (the invariable production
    value) skips the branch entirely.
    """
    started = time.perf_counter()
    try:
        if action is not None:
            apply_action(action)
        result = job.run()
    except Exception as exc:
        return (
            "err", type(exc).__name__, str(exc),
            traceback.format_exc(), time.perf_counter() - started,
        )
    return ("ok", result, time.perf_counter() - started)


def _worker_main(conn: Connection, slot: int, workers: int) -> None:
    """Worker process: say it is ready, then run one job per message.

    A spawned worker unpickles this function, so by the time it runs the
    worker has imported this module and with it every job module; its
    first message tells the owner it may hand it a job.  It exits when
    the owner closes the pipe.  A daemon thread ends the worker if its
    parent dies without closing it (a crashed service or harness), so no
    worker outlives its owner.
    """
    parent = multiprocessing.parent_process()
    if parent is not None:
        threading.Thread(
            target=_exit_with_parent, args=(parent.sentinel,), daemon=True
        ).start()
    _pin_to_own_cpu(slot, workers)
    conn.send(None)
    while True:
        try:
            job, action = conn.recv()
        except EOFError:  # the owner closed the pipe
            return
        reply = _run_job(job, action)
        try:
            payload = ForkingPickler.dumps(reply)
        except Exception as exc:  # the result does not pickle
            payload = ForkingPickler.dumps((
                "err", type(exc).__name__, f"result does not pickle: {exc}",
                traceback.format_exc(), reply[-1],
            ))
        conn.send_bytes(payload)


def _pin_to_own_cpu(index: int, workers: int) -> None:
    """Pin worker ``index`` of ``workers`` worker processes to a CPU of
    its own, when the process may use at least ``workers`` CPUs.

    Workers sleep between batches, and the kernel may wake all of a
    batch's workers onto one CPU while another stays idle.  On a 2-vCPU
    VM it did so for every 4-core sweep of some ``repro-serve`` runs and
    for few sweeps of others, so a worker job's wall time was up to twice
    its CPU time and the service's simulation speed changed ~1.5x from
    one run to the next.  Pinning keeps a batch on as many CPUs as it has
    workers; a replacement worker takes its slot's index, and with it the
    same CPU.  The first CPU is rotated by the owner's pid, so workers of
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
        Executions attempted per job in workers before it is failed
        (worker deaths, timeouts) or handed to the final serial attempt
        (raised exceptions).
    job_timeout_s:
        Per-job wall-clock budget, counted from the job's hand-over to an
        idle worker.  ``None`` disables the watchdog.
    """

    max_attempts: int = 3
    job_timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.job_timeout_s is not None and self.job_timeout_s <= 0:
            raise ValueError("job_timeout_s must be positive")


class _Worker:
    """One owned worker process, the owner's end of its pipe, and the job
    it holds."""

    __slots__ = ("slot", "process", "conn", "ready", "job", "deadline")

    def __init__(
        self, slot: int, process: "BaseProcess", conn: Connection
    ) -> None:
        self.slot = slot
        self.process = process
        self.conn = conn
        #: set by the worker's first message: it has started
        self.ready = False
        #: the ``(job index, attempt)`` it runs, or ``None`` when idle
        self.job: Optional[Tuple[int, int]] = None
        #: monotonic time at which the watchdog kills it
        self.deadline = math.inf


class _Batch:
    """The jobs of one :meth:`ParallelExecutor.run`, those waiting for a
    worker, and the results so far."""

    def __init__(self, jobs: List[SimJob], policy: RetryPolicy) -> None:
        self.jobs = jobs
        self.policy = policy
        #: ``(job index, attempt it is about to make)``, in hand-out order
        self.queue: Deque[Tuple[int, int]] = deque(
            (i, 1) for i in range(len(jobs))
        )
        self.results: List[Optional[Tuple[object, float]]] = [None] * len(jobs)

    def fold(self, i: int, attempt: int, reply: Tuple[object, ...]) -> None:
        """Fold a worker's reply for job ``i``: its result, or a raise
        that is retried and at last gets one in-process attempt."""
        if reply[0] == "ok":
            self.results[i] = (reply[1], cast(float, reply[2]))
            return
        _, err_type, message, tb, seconds = cast(
            Tuple[str, str, str, str, float], reply
        )
        if attempt < self.policy.max_attempts:
            self.queue.append((i, attempt + 1))
            return
        _log.warning(
            "job %d failed %d time(s) in workers (%s: %s); trying "
            "serially", i, attempt, err_type, message,
        )
        result, secs = _guarded_execute(self.jobs[i], attempts=attempt + 1)
        if isinstance(result, JobFailure):
            result = JobFailure(
                job_kind=result.job_kind, error_type=err_type,
                message=message, traceback=tb, attempts=attempt + 1,
            )
        self.results[i] = (result, secs + seconds)

    def charge(
        self, i: int, attempt: int, error_type: str, message: str,
        seconds: float = 0.0,
    ) -> None:
        """Spend ``attempt`` of job ``i`` on a worker death or timeout:
        retry the job, or fail it once its attempts are used up."""
        if attempt < self.policy.max_attempts:
            self.queue.append((i, attempt + 1))
            return
        self.fail(i, attempt, error_type, message, seconds)

    def fail(
        self, i: int, attempt: int, error_type: str, message: str,
        seconds: float = 0.0,
    ) -> None:
        """Report job ``i`` failed after ``attempt`` attempts."""
        self.results[i] = (
            JobFailure(
                job_kind=job_kind(self.jobs[i]), error_type=error_type,
                message=message, attempts=attempt,
            ),
            seconds,
        )


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
        """Nothing to release (the parallel executor's counterpart stops
        its worker processes)."""


class ParallelExecutor:
    """Fan jobs out over worker processes it owns, fault-tolerantly.

    The workers are started by the first batch of two or more jobs and
    reused by every later one; :meth:`close` (or leaving a ``with``
    block) stops them.  One :meth:`run` at a time: the executor is not
    thread-safe.

    Parameters
    ----------
    workers:
        Worker process count; 0 derives ``os.cpu_count()``.
    retry:
        The :class:`RetryPolicy`; ``None`` uses the defaults (3 attempts,
        no per-job timeout).
    chaos:
        Optional :class:`~repro.chaos.engine.HarnessChaos` fault injector
        (tests): may break a worker's pipe at hand-over and attach a
        worker-side directive (kill/hang/slow/backend-fail) to a job.
        ``None`` — the production value — takes none of those branches.
    """

    def __init__(
        self,
        workers: int = 0,
        retry: Optional[RetryPolicy] = None,
        chaos: Optional["HarnessChaos"] = None,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.workers = workers or os.cpu_count() or 1
        self.retry = retry or RetryPolicy()
        self._chaos = chaos
        #: the live workers by slot (a slot's worker pins to its CPU)
        self._pool: Dict[int, _Worker] = {}

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Stop every worker and wait for it to exit.

        Idempotent; a later multi-job batch would start fresh workers.
        """
        workers = list(self._pool.values())
        for worker in workers:  # every idle worker starts to exit at once
            worker.conn.close()
        for worker in workers:
            self._stop(worker)

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
        return self._run_workers(jobs)

    # ------------------------------------------------------------------

    def _start(self, slot: int) -> None:
        """Start the worker of ``slot``, or log why it cannot start.

        The worker is not ready until its first message arrives.
        """
        ctx = multiprocessing.get_context("spawn")
        try:
            conn, child = ctx.Pipe()
        except OSError as exc:
            _log.warning("cannot start worker %d: %s", slot, exc)
            return
        process = ctx.Process(
            target=_worker_main, args=(child, slot, self.workers),
            name=f"repro-worker-{slot}", daemon=True,
        )
        try:
            process.start()
        except OSError as exc:
            _log.warning("cannot start worker %d: %s", slot, exc)
            conn.close()
            return
        finally:
            child.close()  # the started worker holds its own copy
        self._pool[slot] = _Worker(slot, process, conn)

    def _stop(self, worker: _Worker) -> None:
        """Retire ``worker``: an idle one exits when its pipe closes; a
        busy, starting or stuck one is killed."""
        del self._pool[worker.slot]
        worker.conn.close()
        process = worker.process
        if worker.ready and worker.job is None:
            process.join(_STOP_TIMEOUT_S)
        if process.exitcode is None:
            try:
                process.kill()
            except OSError as exc:  # exited and reaped meanwhile
                _log.debug("kill of worker %d: %s", worker.slot, exc)
            process.join()

    def _replace(self, worker: _Worker) -> None:
        """Stop ``worker`` and start a fresh one in its slot."""
        self._stop(worker)
        self._start(worker.slot)

    def _run_workers(self, jobs: List[SimJob]) -> List[Tuple[object, float]]:
        batch = _Batch(jobs, self.retry)
        try:
            for slot in range(self.workers):
                if slot not in self._pool:
                    self._start(slot)
            while batch.queue or any(
                w.job is not None for w in self._pool.values()
            ):
                if not self._pool:
                    _log.warning(
                        "no worker process could be started; running "
                        "the rest of the batch serially"
                    )
                    while batch.queue:
                        i, attempt = batch.queue.popleft()
                        batch.results[i] = _guarded_execute(jobs[i], attempt)
                    break
                self._hand_out(batch)
                if self._pool:  # a hand-over may have lost every worker
                    self._wait(batch)
        except BaseException:
            # an aborted batch may leave jobs running: the next batch
            # must not read their replies
            self.close()
            raise
        return [
            slot if slot is not None else _guarded_execute(jobs[i])
            for i, slot in enumerate(batch.results)
        ]

    def _hand_out(self, batch: _Batch) -> None:
        """Give queued jobs to idle workers; each job's budget starts at
        its hand-over."""
        policy = self.retry
        for worker in list(self._pool.values()):
            if not batch.queue:
                return
            if not worker.ready or worker.job is not None:
                continue
            i, attempt = batch.queue.popleft()
            try:
                action = None
                if self._chaos is not None:
                    # both hooks inside the try: an injected broken pipe
                    # is recovered by the very path it exercises
                    self._chaos.before_submit()
                    action = self._chaos.job_action(
                        attempt, policy.max_attempts
                    )
                worker.conn.send((batch.jobs[i], action))
            except OSError as exc:
                _log.warning(
                    "cannot hand a job to worker %d (%s); replacing it",
                    worker.slot, exc,
                )
                batch.queue.appendleft((i, attempt))
                self._replace(worker)
                continue
            except Exception as exc:  # the job does not pickle
                batch.fail(i, attempt, type(exc).__name__, str(exc))
                continue
            worker.job = (i, attempt)
            if policy.job_timeout_s is not None:
                worker.deadline = time.monotonic() + policy.job_timeout_s

    def _wait(self, batch: _Batch) -> None:
        """Wait for replies and worker exits, then fire the watchdog on
        every job past its budget."""
        workers = list(self._pool.values())
        handles: List[Union[Connection, int]] = []
        for worker in workers:
            handles.extend((worker.conn, worker.process.sentinel))
        deadline = min(w.deadline for w in workers)
        timeout = None
        if deadline < math.inf:
            timeout = max(0.0, deadline - time.monotonic())
        woken = set(connection.wait(handles, timeout))
        for worker in workers:
            if woken.isdisjoint((worker.conn, worker.process.sentinel)):
                continue
            alive = True
            if worker.conn.poll():  # a reply, or end of file on exit
                try:
                    reply = worker.conn.recv()
                except (EOFError, OSError):
                    alive = False
                else:
                    if not worker.ready:  # its first message
                        worker.ready = True
                    elif worker.job is not None:
                        (i, attempt), worker.job = worker.job, None
                        worker.deadline = math.inf
                        batch.fold(i, attempt, reply)
            if not alive or not worker.process.is_alive():
                self._lost(worker, batch)
        now = time.monotonic()
        budget = self.retry.job_timeout_s
        for worker in list(self._pool.values()):
            if worker.job is None or now < worker.deadline:
                continue
            if worker.conn.poll():  # it answered after all: next round
                continue
            i, attempt = worker.job
            _log.warning(
                "watchdog: job %d exceeded its %.1fs budget; replacing "
                "its worker", i, budget,
            )
            self._replace(worker)
            batch.charge(
                i, attempt, "JobTimeout",
                f"exceeded {budget}s wall-clock budget", budget or 0.0,
            )

    def _lost(self, worker: _Worker, batch: _Batch) -> None:
        """Handle the exit of ``worker``: charge the job it held, if any,
        and replace it — unless it never started, which would only fail
        again within this batch."""
        if not worker.ready:
            _log.warning(
                "worker %d exited before it started (exit code %s)",
                worker.slot, worker.process.exitcode,
            )
            self._stop(worker)
            return
        held = worker.job
        self._replace(worker)
        if held is not None:
            i, attempt = held
            batch.charge(
                i, attempt, "WorkerDied",
                "worker process died (killed or crashed) after "
                f"{attempt} attempt(s)",
            )
