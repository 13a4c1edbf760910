"""``SimService`` — the asyncio job API over the simulation engine.

One service instance owns one :class:`~repro.engine.engine.SimEngine`
(persistent :class:`~repro.engine.store.ResultStore` + fault-tolerant
:class:`~repro.engine.executors.ParallelExecutor`) and serves it over a
minimal HTTP/1.1 API (:mod:`repro.service.http`):

========================== ===========================================
``POST /v1/jobs``          submit ``{"jobs": [...]}`` (``X-Tenant``)
``GET /v1/jobs/<id>``      poll one job's status
``GET /v1/jobs/<id>/result`` fetch the finished result (canonical JSON)
``GET /v1/jobs/<id>/events`` server-sent-event stream of status changes
``GET /v1/stats``          service/engine/store counters
``GET /v1/manifest``       a live :class:`~repro.telemetry.manifest.RunManifest`
``GET /v1/healthz``        liveness + drain state
========================== ===========================================

**Content-addressed job ids.**  A job's id *is* its engine cache key, so
deduplication is structural: resubmitting a job — same tenant or not —
lands on the same record.  At submit time each job resolves through three
layers, cheapest first: a completed in-service record (``service.cache_hits``),
the persistent store (``service.cache_hits``), an in-flight record
(``service.dedup_inflight``); only genuinely new work is admitted to the
queue.  The batch executor then deduplicates once more inside
``SimEngine.run_many`` — the same key discipline end to end.

**Admission control.**  A submission is charged against its tenant's
token bucket first (429 + ``Retry-After`` when broke — quota outranks
capacity so rejections are a pure function of the submission sequence),
then its new jobs must fit the bounded admission queue whole (503 +
``Retry-After`` otherwise, with the quota tokens refunded — the tenant
paid for nothing).  A draining service rejects every submission with 503.

**Execution off the event loop.**  Admitted jobs queue in submission
order; a single batcher task gathers up to ``batch_max`` of them (after a
short ``batch_window_s`` gather window) and runs the batch through
``SimEngine.run_many`` on a dedicated worker thread, so the event loop
keeps serving polls and streams while simulations run.  Every admitted
job reaches a terminal state — ``done`` or ``failed`` — even under
drain: :meth:`SimService.drain` stops admissions, lets the queue empty,
then closes the listener (pinned by the conformance suite).

All ``service.*`` telemetry flows through the PR-5
:class:`~repro.telemetry.registry.StatRegistry` and is folded into the
run manifest (``GET /v1/manifest``, and ``repro-serve`` writes one on
exit).  A :class:`~repro.chaos.engine.HarnessChaos` runtime passed as
``chaos=`` is threaded into both the executor and the store, which is how
the chaos-under-service suite kills workers and tears store writes while
the service is serving (``tests/service/test_chaos_service.py``).
"""

import asyncio
import dataclasses
import logging
import math
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import (
    Deque,
    Dict,
    List,
    Optional,
    Set,
    Tuple,
    TYPE_CHECKING,
)

from repro.engine.engine import SimEngine
from repro.engine.executors import ParallelExecutor, RetryPolicy
from repro.engine.failures import JobFailure
from repro.engine.jobs import SimJob
from repro.engine.store import ResultStore, encode_result
from repro.service.codec import CodecError, decode_jobs
from repro.service.http import (
    HttpError,
    Request,
    json_body,
    read_request,
    render_response,
    sse_event,
    sse_preamble,
)
from repro.service.quota import Clock, QuotaManager
from repro.telemetry.manifest import RunManifest, build_manifest
from repro.telemetry.registry import StatRegistry

if TYPE_CHECKING:  # chaos is an observer layer, never a load-bearing import
    from repro.chaos.engine import HarnessChaos

_log = logging.getLogger("repro.service")

#: job lifecycle states
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: ``X-Tenant`` default when a client sends none
DEFAULT_TENANT = "public"

#: batch-latency histogram bucket upper bounds (seconds → label)
_LATENCY_BUCKETS: Tuple[Tuple[float, str], ...] = (
    (0.001, "<=1ms"),
    (0.01, "<=10ms"),
    (0.1, "<=100ms"),
    (1.0, "<=1s"),
    (10.0, "<=10s"),
    (math.inf, ">10s"),
)


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of one service instance (all bounded, all explicit)."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (read it back from ``SimService.port``)
    port: int = 0
    #: parallel-executor worker processes (0 derives from the CPU count)
    workers: int = 2
    #: jobs per worker task (0 derives; see ``derive_chunk_size``)
    chunk_size: int = 0
    #: executor retry budget per chunk
    max_attempts: int = 3
    #: per-job wall-clock watchdog budget (None disables)
    job_timeout_s: Optional[float] = None
    #: admission-queue capacity in jobs; a submission whose new jobs do
    #: not fit whole is rejected with 503
    queue_limit: int = 256
    #: most jobs handed to one executor batch
    batch_max: int = 32
    #: gather window after the first admitted job before a batch launches
    batch_window_s: float = 0.01
    #: per-tenant token-bucket refill rate (jobs/second; 0 never refills)
    quota_rate_per_s: float = 50.0
    #: per-tenant burst capacity (bucket size, in jobs)
    quota_burst: float = 200.0
    #: result-store location (None: ``$REPRO_CACHE_DIR``/``~/.cache/repro``)
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers < 0 or self.chunk_size < 0:
            raise ValueError("workers and chunk_size must be >= 0")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.queue_limit < 1 or self.batch_max < 1:
            raise ValueError("queue_limit and batch_max must be >= 1")
        if self.batch_window_s < 0:
            raise ValueError("batch_window_s must be >= 0")
        if self.quota_rate_per_s < 0 or self.quota_burst <= 0:
            raise ValueError("quota_rate_per_s >= 0, quota_burst > 0")


class JobRecord:
    """Mutable service-side state of one content-addressed job.

    All mutation happens on the event loop (batch results are applied
    after the ``run_in_executor`` await resumes), so no locking: pollers
    and SSE streams read a consistent snapshot between awaits.
    """

    __slots__ = ("key", "job", "state", "result", "tenants", "_changed")

    def __init__(self, key: str, job: SimJob, state: str, tenant: str) -> None:
        self.key = key
        self.job = job
        self.state = state
        self.result: Optional[object] = None
        #: tenants that have submitted this job (dedup audit trail)
        self.tenants: List[str] = [tenant]
        self._changed = asyncio.Event()

    @property
    def terminal(self) -> bool:
        return self.state in (DONE, FAILED)

    def transition(self, state: str, result: Optional[object] = None) -> None:
        """Move to ``state`` and wake every waiter."""
        self.state = state
        if result is not None:
            self.result = result
        changed, self._changed = self._changed, asyncio.Event()
        changed.set()

    async def wait_changed(self) -> None:
        """Block until the next :meth:`transition` (terminal or not)."""
        await self._changed.wait()

    def status_payload(self) -> Dict[str, object]:
        """The JSON the status endpoint and SSE stream emit."""
        payload: Dict[str, object] = {
            "id": self.key,
            "kind": self.job.kind,
            "state": self.state,
            "tenants": sorted(set(self.tenants)),
        }
        if self.state == FAILED and isinstance(self.result, JobFailure):
            payload["failure"] = {
                "error_type": self.result.error_type,
                "message": self.result.message,
                "attempts": self.result.attempts,
            }
        return payload


class SimService:
    """The running service: engine + admission control + HTTP front end.

    Parameters
    ----------
    config:
        The :class:`ServiceConfig`.
    registry:
        Telemetry registry to declare ``service.*`` stats on (a private
        one is created when omitted).
    chaos:
        Optional :class:`~repro.chaos.engine.HarnessChaos`, threaded into
        the executor and the store (tests only).
    quota_clock:
        Injectable monotonic clock for the quota buckets (tests pin
        rejection determinism with a manual clock).
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        registry: Optional[StatRegistry] = None,
        chaos: Optional["HarnessChaos"] = None,
        quota_clock: Optional[Clock] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.registry = registry if registry is not None else StatRegistry()
        self.store = ResultStore(self.config.cache_dir, chaos=chaos)
        self.engine = SimEngine(
            executor=ParallelExecutor(
                workers=self.config.workers,
                chunk_size=self.config.chunk_size,
                retry=RetryPolicy(
                    max_attempts=self.config.max_attempts,
                    job_timeout_s=self.config.job_timeout_s,
                ),
                chaos=chaos,
            ),
            store=self.store,
        )
        self.quotas = QuotaManager(
            self.config.quota_rate_per_s,
            self.config.quota_burst,
            clock=quota_clock,
        )
        self._records: Dict[str, JobRecord] = {}
        self._queue: Deque[JobRecord] = deque()
        self._work = asyncio.Event()
        self._inflight = 0
        self._draining = False
        self._started_at = time.monotonic()
        self._server: Optional[asyncio.Server] = None
        self._batcher: Optional["asyncio.Task[None]"] = None
        self._batch_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service-batch"
        )
        self._declare_stats()

    # ------------------------------------------------------------ telemetry

    def _declare_stats(self) -> None:
        reg = self.registry
        self._stat_submitted = reg.counter(
            "service.submitted", "jobs", "jobs received in submissions"
        )
        self._stat_admitted = reg.counter(
            "service.admitted", "jobs", "new jobs admitted to the queue"
        )
        self._stat_cache_hits = reg.counter(
            "service.cache_hits", "jobs",
            "submitted jobs served from a completed record or the store",
        )
        self._stat_dedup = reg.counter(
            "service.dedup_inflight", "jobs",
            "submitted jobs coalesced onto an in-flight record",
        )
        self._stat_rej_quota = reg.counter(
            "service.rejected_quota", "submissions",
            "submissions rejected 429 by a tenant token bucket",
        )
        self._stat_rej_capacity = reg.counter(
            "service.rejected_capacity", "submissions",
            "submissions rejected 503 by the bounded admission queue",
        )
        self._stat_batches = reg.counter(
            "service.batches", "batches", "executor batches dispatched"
        )
        self._stat_completed = reg.counter(
            "service.completed", "jobs", "jobs reaching the done state"
        )
        self._stat_failed = reg.counter(
            "service.failed", "jobs", "jobs reaching the failed state"
        )
        self._stat_requests = reg.counter(
            "service.requests", "requests", "HTTP requests handled"
        )
        self._stat_errors = reg.counter(
            "service.errors", "requests", "requests answered 5xx by a bug"
        )
        self._stat_depth = reg.gauge(
            "service.queue_depth", "jobs", "admission-queue depth"
        )
        self._stat_latency = reg.histogram(
            "service.batch_latency", "batches",
            "executor batch wall latency, bucketed",
        )

    def _observe_latency(self, seconds: float) -> None:
        for bound, label in _LATENCY_BUCKETS:
            if seconds <= bound:
                self._stat_latency.add(label)
                return

    # ------------------------------------------------------------ lifecycle

    @property
    def port(self) -> int:
        """The bound port (valid once started)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("service is not listening")
        sock = self._server.sockets[0]
        return int(sock.getsockname()[1])

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> None:
        """Bind the listener and start the batcher task."""
        if self._server is not None:
            raise RuntimeError("service already started")
        self._batcher = asyncio.get_running_loop().create_task(
            self._batch_loop()
        )
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host,
            port=self.config.port,
        )
        _log.info(
            "repro service listening on %s:%d (store: %s)",
            self.config.host, self.port, self.store.path,
        )

    async def drain(self) -> None:
        """Graceful shutdown: refuse new work, finish everything admitted.

        Order matters: submissions are refused first, the queue and the
        in-flight batch then run dry (no admitted job is ever dropped),
        and only then do the batcher, the listener, the worker thread and
        finally the executor's worker processes go away.
        """
        self._draining = True
        while self._queue or self._inflight:
            await asyncio.sleep(0.005)
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
            self._batcher = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # shutdown(wait=True) joins the worker thread — off-loop, so a
        # long final batch cannot stall health checks while we drain;
        # with no batch left to use it, the process pool is joined too
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._batch_pool.shutdown)
        await loop.run_in_executor(None, self.engine.executor.close)

    def manifest(self) -> RunManifest:
        """A live provenance manifest: engine + store + service counters."""
        return build_manifest(
            scale="service",
            experiments=("service",),
            jobs=self.engine.executor.workers,
            cache_dir=str(self.store.path),
            no_cache=False,
            seed=0,
            wall_seconds=time.monotonic() - self._started_at,
            engine=self.engine,
            registry=self.registry,
        )

    # ------------------------------------------------------------- batching

    async def _batch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await self._work.wait()
            if self.config.batch_window_s:
                # gather window: let a burst of submissions coalesce into
                # one executor batch instead of many single-job ones
                await asyncio.sleep(self.config.batch_window_s)
            if not self._queue:
                self._work.clear()
                continue
            batch: List[JobRecord] = []
            while self._queue and len(batch) < self.config.batch_max:
                batch.append(self._queue.popleft())
            if not self._queue:
                self._work.clear()
            self._stat_depth.set(float(len(self._queue)))
            self._inflight = len(batch)
            for record in batch:
                record.transition(RUNNING)
            self._stat_batches.inc()
            started = time.monotonic()
            try:
                results = await loop.run_in_executor(
                    self._batch_pool,
                    self.engine.run_many,
                    [record.job for record in batch],
                )
            except Exception as exc:
                # the engine itself failing (not a job) must not strand
                # records in "running" — fail them loudly instead
                _log.exception("batch execution raised")
                for record in batch:
                    record.transition(
                        FAILED,
                        JobFailure(
                            job_kind=record.job.kind,
                            error_type=type(exc).__name__,
                            message=str(exc),
                        ),
                    )
                self._stat_failed.inc(len(batch))
                self._inflight = 0
                continue
            self._observe_latency(time.monotonic() - started)
            for record, result in zip(batch, results):
                if isinstance(result, JobFailure):
                    record.transition(FAILED, result)
                    self._stat_failed.inc()
                else:
                    record.transition(DONE, result)
                    self._stat_completed.inc()
            self._inflight = 0

    # ------------------------------------------------------------ admission

    def _submit(self, tenant: str, jobs: List[SimJob]) -> Tuple[int, object]:
        """Admission control + dedup for one submission (loop thread)."""
        if self._draining:
            raise HttpError(
                503, "service is draining; resubmit elsewhere",
                headers={"Retry-After": "1"},
            )
        self._stat_submitted.inc(len(jobs))
        admitted, retry_after = self.quotas.admit(tenant, len(jobs))
        if not admitted:
            self._stat_rej_quota.inc()
            after = "inf" if math.isinf(retry_after) else str(
                max(1, math.ceil(retry_after))
            )
            raise HttpError(
                429,
                f"tenant {tenant!r} is over quota for {len(jobs)} job(s)",
                headers={"Retry-After": after},
            )
        # classify before creating anything, so a 503 leaves no half-batch;
        # a FAILED record counts as new work — failures are never cached
        # (engine discipline), a resubmission retries the job
        plan: List[Tuple[str, SimJob, Optional[JobRecord], Optional[object]]] = []
        new_jobs = 0
        seen_new: Set[str] = set()
        for job in jobs:
            key = job.cache_key()
            record = self._records.get(key)
            cached: Optional[object] = None
            if record is None:
                cached = self.store.get(key, job.kind)
            needs_slot = (
                cached is None if record is None else record.state == FAILED
            )
            if needs_slot and key not in seen_new:
                seen_new.add(key)
                new_jobs += 1
            plan.append((key, job, record, cached))
        if new_jobs > self.config.queue_limit - len(self._queue):
            self.quotas.bucket(tenant).refund(len(jobs))
            self._stat_rej_capacity.inc()
            raise HttpError(
                503,
                f"admission queue full ({len(self._queue)}/"
                f"{self.config.queue_limit}); retry later",
                headers={"Retry-After": "1"},
            )
        out: List[Dict[str, object]] = []
        any_queued = False
        for key, job, record, cached in plan:
            if record is None and cached is not None:
                record = JobRecord(key, job, DONE, tenant)
                record.result = cached
                self._records[key] = record
                self._stat_cache_hits.inc()
            elif record is None:
                record = JobRecord(key, job, QUEUED, tenant)
                self._records[key] = record
                self._queue.append(record)
                self._stat_admitted.inc()
                any_queued = True
            else:
                record.tenants.append(tenant)
                if record.state == FAILED:
                    record.result = None
                    record.transition(QUEUED)
                    self._queue.append(record)
                    self._stat_admitted.inc()
                    any_queued = True
                elif record.state == DONE:
                    self._stat_cache_hits.inc()
                else:
                    self._stat_dedup.inc()
            out.append({"id": key, "kind": job.kind, "state": record.state})
        if any_queued:
            self._stat_depth.set(float(len(self._queue)))
            self._work.set()
        return (202 if any_queued else 200), {"jobs": out}

    # ----------------------------------------------------------------- HTTP

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    writer.write(render_response(
                        exc.status,
                        json_body({"error": exc.message}),
                        headers=exc.headers, keep_alive=False,
                    ))
                    await writer.drain()
                    break
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                if request is None:
                    break
                if not await self._serve_one(request, writer):
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_one(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> bool:
        """Dispatch one request; returns whether to keep the connection."""
        self._stat_requests.inc()
        try:
            if request.method == "GET" and request.path.startswith(
                "/v1/jobs/"
            ) and request.path.endswith("/events"):
                await self._stream_events(request, writer)
                return False  # SSE always closes
            status, payload, headers = await self._route(request)
        except HttpError as exc:
            status, payload, headers = (
                exc.status, {"error": exc.message}, exc.headers
            )
        except Exception:
            _log.exception("request handler raised")
            self._stat_errors.inc()
            status, payload, headers = (
                500, {"error": "internal service error"}, {}
            )
        writer.write(render_response(
            status, json_body(payload), headers=headers,
            keep_alive=request.keep_alive,
        ))
        await writer.drain()
        return request.keep_alive

    async def _route(
        self, request: Request
    ) -> Tuple[int, object, Dict[str, str]]:
        path, method = request.path, request.method
        if path == "/v1/jobs":
            if method != "POST":
                raise HttpError(405, f"{method} not allowed on {path}")
            tenant = request.headers.get("x-tenant", DEFAULT_TENANT)[:64]
            try:
                jobs = decode_jobs(request.json())
            except CodecError as exc:
                raise HttpError(400, str(exc))
            status, payload = self._submit(tenant or DEFAULT_TENANT, jobs)
            return status, payload, {}
        if path.startswith("/v1/jobs/"):
            if method != "GET":
                raise HttpError(405, f"{method} not allowed on {path}")
            suffix = path[len("/v1/jobs/"):]
            key, _, tail = suffix.partition("/")
            record = self._records.get(key)
            if record is None:
                raise HttpError(404, f"unknown job id {key!r}")
            if tail == "":
                return 200, record.status_payload(), {}
            if tail == "result":
                return 200, self._result_payload(record), {}
            raise HttpError(404, f"unknown job endpoint {tail!r}")
        if path == "/v1/stats":
            if method != "GET":
                raise HttpError(405, f"{method} not allowed on {path}")
            return 200, self._stats_payload(), {}
        if path == "/v1/manifest":
            if method != "GET":
                raise HttpError(405, f"{method} not allowed on {path}")
            return 200, dataclasses.asdict(self.manifest()), {}
        if path == "/v1/healthz":
            if method != "GET":
                raise HttpError(405, f"{method} not allowed on {path}")
            return 200, {
                "status": "draining" if self._draining else "ok",
                "queue_depth": len(self._queue),
                "inflight": self._inflight,
            }, {}
        raise HttpError(404, f"no route for {path}")

    def _result_payload(self, record: JobRecord) -> Dict[str, object]:
        if record.state == FAILED:
            raise HttpError(
                409, f"job {record.key} failed; see its status for details"
            )
        if record.state != DONE or record.result is None:
            raise HttpError(
                409, f"job {record.key} is not finished (state: "
                f"{record.state})"
            )
        return {
            "id": record.key,
            "kind": record.job.kind,
            "value": encode_result(record.result),
        }

    def _stats_payload(self) -> Dict[str, object]:
        states: Dict[str, int] = {}
        for record in self._records.values():
            states[record.state] = states.get(record.state, 0) + 1
        submitted = self._stat_submitted.value
        hits = self._stat_cache_hits.value
        return {
            "service": self.registry.snapshot(),
            "engine": {
                "memory_hits": self.engine.stats.memory_hits,
                "store_hits": self.engine.stats.store_hits,
                "misses": self.engine.stats.misses,
                "failures": self.engine.stats.failures,
                "sim_seconds": self.engine.stats.sim_seconds,
            },
            "store": self.store.counters(),
            "jobs_by_state": states,
            "queue_depth": len(self._queue),
            "tenants": self.quotas.tenants,
            "cache_hit_ratio": (hits / submitted) if submitted else 0.0,
            "draining": self._draining,
        }

    async def _stream_events(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> None:
        suffix = request.path[len("/v1/jobs/"):]
        key = suffix[: -len("/events")].rstrip("/")
        record = self._records.get(key)
        if record is None:
            writer.write(render_response(
                404, json_body({"error": f"unknown job id {key!r}"}),
                keep_alive=False,
            ))
            await writer.drain()
            return
        writer.write(sse_preamble())
        writer.write(sse_event("status", record.status_payload()))
        await writer.drain()
        while not record.terminal:
            await record.wait_changed()
            writer.write(sse_event("status", record.status_payload()))
            await writer.drain()
        writer.write(sse_event("end", {"id": record.key}))
        await writer.drain()
