"""Admission control over HTTP: quotas, capacity, and graceful drain.

Rejections must be *deterministic*: with a zero refill rate a tenant's
bucket is a pure counter, so which submission in a sequence draws the 429
depends only on the sequence — pinned here by replaying the same sequence
against a fresh service and by a pure-Python bucket model (the slow
matrix).  Capacity 503s must refund the quota they charged, and a
draining service must refuse new work while finishing every admitted job.
"""

import asyncio
import multiprocessing

import pytest

from repro.service import ServiceError
from repro.service.server import DONE

from tests.service.conftest import run, service_config, serving, tiny_job


async def submit_sizes(client, tenant, sizes, seed_start=0):
    """Submit a sequence of batches (all-unique tiny jobs); returns the
    per-batch outcome: ``True`` (admitted) or the :class:`ServiceError`."""
    outcomes = []
    seed = seed_start
    for size in sizes:
        jobs = [tiny_job(seed + i) for i in range(size)]
        seed += size
        try:
            await client.submit(jobs, tenant=tenant)
            outcomes.append(True)
        except ServiceError as error:
            outcomes.append(error)
    return outcomes


def test_quota_rejection_is_deterministic(tmp_path):
    sizes = (2, 2, 1, 1)

    async def scenario(store):
        config = service_config(
            tmp_path / store, workers=1,
            quota_rate_per_s=0.0, quota_burst=4.0,
        )
        async with serving(config) as (service, client):
            outcomes = await submit_sizes(client, "alice", sizes)
            # an unrelated tenant has its own full bucket
            bob = await submit_sizes(client, "bob", (3,), seed_start=50)
            stats = (await client.stats())["service"]
            return outcomes, bob, stats

    for store in ("first", "second"):  # same sequence, fresh service
        outcomes, bob, stats = run(scenario(store))
        assert outcomes[0] is True and outcomes[1] is True
        for rejected in outcomes[2:]:
            assert isinstance(rejected, ServiceError)
            assert rejected.status == 429
            # zero refill: this submission can never be admitted
            assert rejected.retry_after == "inf"
        assert bob == [True]
        assert stats["service.rejected_quota"] == 2
        assert stats["service.admitted"] == 7
        assert stats["service.submitted"] == 9


def test_quota_charges_cache_hits_too(tmp_path):
    # quota outranks dedup on purpose: rejection behaviour must be a pure
    # function of the submission sequence, not of cache state
    job = tiny_job(900)

    async def scenario():
        config = service_config(
            tmp_path, workers=1, quota_rate_per_s=0.0, quota_burst=2.0,
        )
        async with serving(config) as (service, client):
            rows = await client.submit([job], tenant="alice")
            await client.wait(rows[0]["id"])
            assert (await client.submit([job], tenant="alice"))[0][
                "state"] == "done"
            with pytest.raises(ServiceError) as excinfo:
                await client.submit([job], tenant="alice")
            assert excinfo.value.status == 429

    run(scenario())


def test_capacity_rejection_refunds_quota(tmp_path):
    async def scenario():
        config = service_config(
            tmp_path, workers=1, queue_limit=2, batch_window_s=0.8,
            quota_rate_per_s=0.0, quota_burst=100.0,
        )
        async with serving(config) as (service, client):
            admitted = await client.submit(
                [tiny_job(0), tiny_job(1)], tenant="alice"
            )
            # still inside the gather window: the queue is full
            with pytest.raises(ServiceError) as excinfo:
                await client.submit(
                    [tiny_job(2), tiny_job(3)], tenant="alice"
                )
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after == "1"
            # the rejected submission's quota charge was refunded: alice
            # has paid for exactly the two admitted jobs
            assert service.quotas.bucket("alice").tokens == pytest.approx(98.0)
            # duplicates of queued jobs need no slot, so they still land
            dup = await client.submit([tiny_job(0)], tenant="bob")
            assert dup[0]["state"] == "queued"
            for row in admitted:
                assert (await client.wait(row["id"]))["state"] == "done"
            stats = (await client.stats())["service"]
            assert stats["service.rejected_capacity"] == 1
            assert stats["service.admitted"] == 2

    run(scenario())


def test_drain_finishes_admitted_work_and_refuses_new(tmp_path):
    async def scenario():
        config = service_config(tmp_path, batch_window_s=0.3)
        async with serving(config) as (service, client):
            rows = await client.submit(
                [tiny_job(i) for i in range(4)], tenant="alice"
            )
            drain = asyncio.get_running_loop().create_task(service.drain())
            await asyncio.sleep(0.02)
            assert service.draining
            health = await client.request("GET", "/v1/healthz")
            assert health["status"] == "draining"
            # a draining service admits nothing, whatever the quota says
            with pytest.raises(ServiceError) as excinfo:
                await client.submit([tiny_job(99)], tenant="alice")
            assert excinfo.value.status == 503
            await client.close()  # the listener is about to go away
            await drain
            # drain lost nothing: every admitted job reached done
            states = {
                row["id"]: service._records[row["id"]].state for row in rows
            }
            assert set(states.values()) == {DONE}
            stats = service.registry.snapshot()
            assert stats["service.completed"] == 4
            assert stats["service.failed"] == 0
            # and left no worker process behind (the 4-job batch ran on
            # the process pool)
            assert multiprocessing.active_children() == []

    run(scenario())


@pytest.mark.slow
@pytest.mark.parametrize("burst", (1.0, 2.0, 3.0, 5.0, 8.0))
def test_quota_matrix_matches_pure_counter_model(tmp_path, burst):
    """The nightly matrix: HTTP rejections == a pure bucket simulation."""
    sizes = (1, 2, 1, 3, 1, 1, 2, 1, 4, 1)

    def model(burst_tokens):
        balance = burst_tokens
        expected = []
        for size in sizes:
            if size <= balance:
                balance -= size
                expected.append(True)
            else:
                expected.append(False)
        return expected

    async def scenario():
        config = service_config(
            tmp_path, workers=1,
            quota_rate_per_s=0.0, quota_burst=burst,
        )
        async with serving(config) as (service, client):
            outcomes = await submit_sizes(client, "alice", sizes)
            return [o is True for o in outcomes]

    assert run(scenario()) == model(burst)
