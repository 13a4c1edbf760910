"""End-to-end service conformance: a real listener, real sockets.

Every test binds a :class:`SimService` on an ephemeral 127.0.0.1 port and
drives it with the stdlib :class:`ServiceClient`.  The acceptance
scenario (:func:`test_hundred_jobs_eight_tenants`) is the suite's
centrepiece: 100 mixed submissions by 8 concurrent tenants must complete
with exact dedup accounting — the engine simulates each unique job
exactly once — and every result fetched over HTTP must be canonically
bit-identical to a direct serial :class:`SimEngine` run of the same job.
"""

import asyncio

import pytest

from repro.engine.jobs import StandaloneJob, TraceSpec
from repro.service import ServiceClient, ServiceError
from repro.service.codec import MAX_MATERIALISED_LENGTH
from repro.uarch.config import core_config

from tests.service.conftest import (
    SPEC_A,
    canonical,
    job_pool,
    run,
    service_config,
    serving,
)


def snapshot(stats):
    """The ``service.*`` counter block of a ``/v1/stats`` payload."""
    return stats["service"]


# ------------------------------------------------------------------ lifecycle


def test_single_job_lifecycle(tmp_path, direct_results):
    job = job_pool()[0]

    async def scenario():
        async with serving(service_config(tmp_path)) as (service, client):
            rows = await client.submit([job], tenant="alice")
            assert [row["kind"] for row in rows] == ["standalone"]
            assert rows[0]["state"] == "queued"
            job_id = rows[0]["id"]
            # the job id IS the engine cache key: dedup is structural
            assert job_id == job.cache_key()

            status = await client.wait(job_id)
            assert status["state"] == "done"
            assert status["tenants"] == ["alice"]

            fetched = await client.result(job_id)
            assert fetched["id"] == job_id
            assert fetched["kind"] == "standalone"
            return fetched["value"], await client.stats()

    value, stats = run(scenario())
    # the HTTP-fetched result is canonically identical to a direct run
    assert canonical_of_payload(value) == direct_results[job.cache_key()]
    service_stats = snapshot(stats)
    assert service_stats["service.submitted"] == 1
    assert service_stats["service.admitted"] == 1
    assert service_stats["service.completed"] == 1
    assert service_stats["service.failed"] == 0


def canonical_of_payload(value):
    """Canonical JSON of an already-encoded result payload."""
    import json

    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def test_resubmission_is_a_cache_hit(tmp_path):
    job = job_pool()[1]

    async def scenario():
        async with serving(service_config(tmp_path)) as (service, client):
            first = await client.submit([job], tenant="alice")
            await client.wait(first[0]["id"])
            # same job, different tenant: served straight from the record
            second = await client.submit([job], tenant="bob")
            assert second[0]["id"] == first[0]["id"]
            assert second[0]["state"] == "done"
            status = await client.status(first[0]["id"])
            assert status["tenants"] == ["alice", "bob"]
            stats = snapshot(await client.stats())
            assert stats["service.admitted"] == 1
            assert stats["service.cache_hits"] == 1
            assert stats["service.dedup_inflight"] == 0
            # a warm persistent store also answers a fresh service: the
            # second submission here must not re-simulate
            assert service.engine.stats.misses == 1
        # same store directory, brand-new service instance
        async with serving(service_config(tmp_path)) as (service, client):
            rows = await client.submit([job], tenant="carol")
            assert rows[0]["state"] == "done"
            assert snapshot(await client.stats())["service.cache_hits"] == 1
            assert service.engine.stats.misses == 0

    run(scenario())


def test_inflight_duplicates_coalesce(tmp_path):
    job = job_pool()[2]

    async def scenario():
        config = service_config(tmp_path, batch_window_s=0.3)
        async with serving(config) as (service, client):
            rows = await client.submit([job], tenant="alice")
            # still inside the gather window: the duplicate coalesces
            # onto the queued record instead of queueing again
            duplicate = await client.submit([job, job], tenant="bob")
            assert {row["id"] for row in duplicate} == {rows[0]["id"]}
            assert all(row["state"] == "queued" for row in duplicate)
            await client.wait(rows[0]["id"])
            stats = snapshot(await client.stats())
            assert stats["service.admitted"] == 1
            assert stats["service.dedup_inflight"] == 2
            assert stats["service.completed"] == 1

    run(scenario())


def test_result_before_completion_is_409(tmp_path):
    job = job_pool()[3]

    async def scenario():
        config = service_config(tmp_path, batch_window_s=0.5)
        async with serving(config) as (service, client):
            rows = await client.submit([job])
            with pytest.raises(ServiceError) as excinfo:
                await client.result(rows[0]["id"])
            assert excinfo.value.status == 409
            await client.wait(rows[0]["id"])
            fetched = await client.result(rows[0]["id"])
            assert fetched["id"] == rows[0]["id"]

    run(scenario())


# ----------------------------------------------------------------- streaming


def test_sse_stream_reaches_terminal_end(tmp_path):
    job = job_pool()[4]

    async def scenario():
        config = service_config(tmp_path, batch_window_s=0.1)
        async with serving(config) as (service, client):
            rows = await client.submit([job])
            frames = []
            async for event, payload in client.events(rows[0]["id"]):
                frames.append((event, payload))
            return rows[0]["id"], frames

    job_id, frames = run(scenario())
    events = [event for event, _ in frames]
    assert events[-1] == "end"
    assert set(events[:-1]) == {"status"}
    states = [payload["state"] for event, payload in frames[:-1]]
    # monotone lifecycle: whatever prefix the stream caught, it ends done
    assert states[-1] == "done"
    assert states == sorted(
        states, key=["queued", "running", "done"].index
    )
    assert frames[-1][1] == {"id": job_id}


def test_sse_unknown_job_is_404(tmp_path):
    async def scenario():
        async with serving(service_config(tmp_path)) as (service, client):
            with pytest.raises(ServiceError) as excinfo:
                async for _ in client.events("f" * 64):
                    pass
            assert excinfo.value.status == 404

    run(scenario())


# -------------------------------------------------------------------- errors


def test_error_statuses(tmp_path):
    async def scenario():
        async with serving(service_config(tmp_path)) as (service, client):
            for method, path, payload, expected in (
                ("GET", "/v1/jobs/" + "e" * 64, None, 404),
                ("GET", "/v1/nope", None, 404),
                ("GET", "/v1/jobs", None, 405),
                ("POST", "/v1/stats", {}, 405),
                ("POST", "/v1/jobs", {"jobs": [{"kind": "warmup"}]}, 400),
                ("POST", "/v1/jobs", ["not", "an", "object"], 400),
            ):
                with pytest.raises(ServiceError) as excinfo:
                    await client.request(method, path, payload=payload)
                assert excinfo.value.status == expected, (method, path)
            stats = snapshot(await client.stats())
            # client errors are not service errors, and a malformed
            # submission admits nothing
            assert stats["service.errors"] == 0
            assert stats["service.submitted"] == 0
            assert stats["service.requests"] >= 6

    run(scenario())


def test_unstreamed_trace_over_the_cap_is_a_400(tmp_path):
    # one length past the cap: were it admitted, the service itself would
    # materialise it (a single-job batch runs in the service process)
    trace = {"profile": "gcc", "length": MAX_MATERIALISED_LENGTH + 1}
    job = {"kind": "standalone", "config": "gcc", "trace": trace}

    async def scenario():
        async with serving(service_config(tmp_path)) as (service, client):
            with pytest.raises(ServiceError) as excinfo:
                await client.request(
                    "POST", "/v1/jobs", payload={"jobs": [job]}
                )
            assert excinfo.value.status == 400
            assert '"stream": true' in excinfo.value.payload["error"]
            assert snapshot(await client.stats())["service.submitted"] == 0

    run(scenario())


def test_health_manifest_and_keepalive(tmp_path):
    async def scenario():
        async with serving(service_config(tmp_path)) as (service, client):
            health = await client.request("GET", "/v1/healthz")
            assert health["status"] == "ok"
            rows = await client.submit([job_pool()[5]])
            await client.wait(rows[0]["id"])
            manifest = await client.request("GET", "/v1/manifest")
            # every exchange above shared one keep-alive connection
            assert client._writer is not None
            return manifest

    manifest = run(scenario())
    stats = manifest["engine_stats"]
    assert stats["service.submitted"] == 1.0
    assert stats["service.completed"] == 1.0
    assert stats["misses"] == 1.0
    assert manifest["scale"] == "service"
    assert any(key.startswith("store_") for key in stats)


# ------------------------------------------------------------------ failures


def test_failed_job_is_reported_never_cached_and_retryable(tmp_path):
    # a job far slower than the watchdog budget, with a one-attempt
    # retry policy: deterministic JobTimeout failure.  Each submission
    # pairs it with a cheap companion so the batch takes the pool path
    # (a singleton batch runs serially, where no watchdog applies).
    slow_job = StandaloneJob(
        core_config("gcc"), TraceSpec("gcc", 150_000, seed=5)
    )
    fast = [
        StandaloneJob(core_config("gzip"), TraceSpec("gzip", 120, seed=s))
        for s in (1, 2)
    ]

    async def scenario():
        config = service_config(
            tmp_path, job_timeout_s=0.25, max_attempts=1,
        )
        async with serving(config) as (service, client):
            rows = await client.submit([slow_job, fast[0]])
            status = await client.wait(rows[0]["id"], timeout_s=60)
            assert status["state"] == "failed"
            assert status["failure"]["error_type"] == "JobTimeout"
            assert status["failure"]["attempts"] == 1
            assert (await client.wait(rows[1]["id"]))["state"] == "done"
            with pytest.raises(ServiceError) as excinfo:
                await client.result(rows[0]["id"])
            assert excinfo.value.status == 409
            # engine discipline holds through the service: the failure
            # was never written to the persistent store
            assert service.store.get(slow_job.cache_key(), "standalone") is None
            # resubmitting a failed job retries it (no poisoned record)
            retry = await client.submit([slow_job, fast[1]])
            assert retry[0]["state"] == "queued"
            status = await client.wait(rows[0]["id"], timeout_s=60)
            assert status["state"] == "failed"
            stats = snapshot(await client.stats())
            assert stats["service.failed"] == 2
            assert stats["service.admitted"] == 4
            assert stats["service.completed"] == 2

    run(scenario())


# ------------------------------------------------- the acceptance scenario


def test_hundred_jobs_eight_tenants(tmp_path, direct_results):
    """100 mixed jobs, 8 concurrent tenants, exact dedup accounting."""
    pool = job_pool()
    tenants = [f"tenant-{i}" for i in range(8)]
    # 4 tenants submit 13 jobs, 4 submit 12: 100 total, every pool entry
    # covered, heavy overlap across tenants (the dedup pressure)
    assignments = {
        tenant: [pool[(5 * i + k) % len(pool)]
                 for k in range(13 if i < 4 else 12)]
        for i, tenant in enumerate(tenants)
    }
    assert sum(len(jobs) for jobs in assignments.values()) == 100

    async def one_tenant(host, port, tenant, jobs):
        client = ServiceClient(host, port)
        try:
            rows = []
            # a few separate submissions per tenant, interleaved with
            # every other tenant's on the loop
            for start in range(0, len(jobs), 5):
                rows.extend(await client.submit(
                    jobs[start:start + 5], tenant=tenant
                ))
                await asyncio.sleep(0)
            terminal = {}
            for row in rows:
                status = await client.wait(row["id"], timeout_s=120)
                terminal[row["id"]] = status["state"]
            values = {
                job_id: (await client.result(job_id))["value"]
                for job_id in terminal
            }
            return rows, terminal, values
        finally:
            await client.close()

    async def scenario():
        config = service_config(tmp_path, batch_window_s=0.02)
        async with serving(config) as (service, client):
            outcomes = await asyncio.gather(*(
                one_tenant(config.host, service.port, tenant, jobs)
                for tenant, jobs in assignments.items()
            ))
            stats = await client.stats()
            return outcomes, stats, service.engine.stats.misses

    outcomes, stats, misses = run(scenario())

    all_rows = [row for rows, _, _ in outcomes for row in rows]
    assert len(all_rows) == 100
    assert {row["id"] for row in all_rows} == set(direct_results)
    for rows, terminal, values in outcomes:
        assert set(terminal.values()) == {"done"}
        for job_id, value in values.items():
            # every fetched result is bit-identical to the direct run
            assert canonical_of_payload(value) == direct_results[job_id]

    service_stats = snapshot(stats)
    assert service_stats["service.submitted"] == 100
    # each unique job was admitted exactly once; every other submission
    # resolved to a cache hit or coalesced onto the in-flight record
    assert service_stats["service.admitted"] == len(pool)
    assert (
        service_stats["service.admitted"]
        + service_stats["service.cache_hits"]
        + service_stats["service.dedup_inflight"]
    ) == 100
    assert service_stats["service.completed"] == len(pool)
    assert service_stats["service.failed"] == 0
    assert service_stats["service.rejected_quota"] == 0
    assert service_stats["service.rejected_capacity"] == 0
    # the engine simulated each unique job exactly once
    assert misses == len(pool)
    assert stats["tenants"] == 8
    assert stats["jobs_by_state"] == {"done": len(pool)}
