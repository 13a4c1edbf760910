"""Chaos under the service: serve through faults, converge bit-identical.

The PR-7 :class:`HarnessChaos` runtime is threaded into a live
:class:`SimService` — the same instance reaches the
:class:`ParallelExecutor` (worker kills, benign slow-downs, broken
pipes at hand-over) and the :class:`ResultStore` (failed, torn, and bit-flipped
appends) — while two tenants submit the shared chaos batch over real
sockets.  The convergence invariant carries over from ``tests/chaos``
verbatim: every admitted job must end **done** with a result
bit-identical to the chaos-free serial baseline, and the store must be
``repro-store fsck``-clean after drain.

Crash and hang schedules stay out on purpose: ``crash_after_writes``
``os._exit``-s the harness process (here: the test process), and hangs
need a watchdog budget that would slow every push; the forked-harness
soak in ``tests/chaos/test_convergence.py`` owns both.

The 4-seed slice runs on every push; the 50-seed soak rides nightly CI.
"""

import asyncio
import json

import pytest

from repro.chaos import ChaosPlan, HarnessChaos
from repro.engine import store_cli
from repro.service import ServiceClient

from tests.chaos.conftest import clean_results, make_batch
from tests.service.conftest import run, service_config, serving

__all__ = ["clean_results"]  # re-exported session fixture from tests.chaos

#: seeds of the fast, every-push slice
FAST_SEEDS = tuple(range(4))
#: seeds of the nightly soak (``-m slow``)
SOAK_SEEDS = tuple(range(4, 54))


def service_plan(seed):
    """One seeded schedule of every in-process-safe fault site."""
    return ChaosPlan(
        seed=seed,
        kill_worker_rate=0.25,
        slow_worker_rate=0.15,
        slow_s=0.02,
        pool_break_rate=0.1,
        write_fail_rate=0.15,
        torn_write_rate=0.35,
        bitflip_rate=0.2,
        max_per_site=2,
    )


def serve_batch_under_chaos(tmp_path, seed):
    """One schedule: serve the chaos batch through a chaotic service.

    Returns ``(results-by-id, chaos counters, store path)``.
    """
    chaos = HarnessChaos(service_plan(seed))
    config = service_config(
        tmp_path, batch_window_s=0.02, max_attempts=3,
    )

    async def tenant(host, port, name, jobs):
        client = ServiceClient(host, port)
        try:
            rows = await client.submit(jobs, tenant=name)
            values = {}
            for row in rows:
                status = await client.wait(row["id"], timeout_s=120)
                assert status["state"] == "done", (
                    f"seed {seed}: job {row['id']} ended {status!r} "
                    f"(injections: {chaos.counters()})"
                )
                values[row["id"]] = (await client.result(row["id"]))["value"]
            return values
        finally:
            await client.close()

    async def scenario():
        async with serving(config, chaos=chaos) as (service, client):
            batch = make_batch()
            # two tenants, overlapping halves: dedup stays exercised
            # while the faults fire
            outcomes = await asyncio.gather(
                tenant(config.host, service.port, "left", batch[:5]),
                tenant(config.host, service.port, "right", batch[4:]),
            )
            stats = service.registry.snapshot()
            assert stats["service.failed"] == 0
            return outcomes, service.store.path

    outcomes, store_path = run(scenario())
    values = {}
    for mapping in outcomes:
        values.update(mapping)
    return values, chaos.counters(), store_path


def assert_schedule_converges(tmp_path, seed, clean):
    batch = make_batch()
    expected = dict(zip((job.cache_key() for job in batch), clean))
    values, counters, store_path = serve_batch_under_chaos(tmp_path, seed)
    assert set(values) == set(expected)
    for job_id, value in values.items():
        assert json.dumps(
            value, sort_keys=True, separators=(",", ":")
        ) == expected[job_id], (
            f"seed {seed}: HTTP result diverged from the chaos-free "
            f"baseline (injections: {counters})"
        )
    # the store ends fsck-clean: repair anything the final appends left
    # behind (e.g. a torn last write), then verify
    assert store_cli.main(
        ["--path", str(store_path), "fsck", "--repair"]
    ) == 0
    assert store_cli.main(["--path", str(store_path), "fsck"]) == 0
    return counters


@pytest.fixture(scope="module")
def converged():
    """seed -> injection counters of each schedule converged so far, so
    ``test_fast_slice_actually_injects`` reads the fast slice's counters
    instead of serving every schedule a second time."""
    return {}


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_fast_slice_converges_under_service(
    tmp_path, seed, clean_results, converged
):
    converged[seed] = assert_schedule_converges(tmp_path, seed, clean_results)


def test_fast_slice_actually_injects(tmp_path, clean_results, converged):
    # convergence proves nothing if the schedules are quiet: across the
    # fast slice, faults must fire on both the worker and store paths
    totals = {}
    for seed in FAST_SEEDS:
        if seed not in converged:
            converged[seed] = assert_schedule_converges(
                tmp_path / f"s{seed}", seed, clean_results
            )
        for name, count in converged[seed].items():
            totals[name] = totals.get(name, 0) + count
    assert totals.get("kills", 0) + totals.get("slows", 0) > 0, totals
    store_faults = (
        totals.get("write_fails", 0)
        + totals.get("torn_writes", 0)
        + totals.get("bitflips", 0)
    )
    assert store_faults > 0, totals


@pytest.mark.slow
@pytest.mark.parametrize("seed", SOAK_SEEDS)
def test_soak_converges_under_service(tmp_path, seed, clean_results):
    assert_schedule_converges(tmp_path, seed, clean_results)
