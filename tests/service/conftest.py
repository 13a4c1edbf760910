"""Shared machinery for the service conformance suite.

The dependency set has no async pytest plugin, so every test owns its
event loop explicitly: :func:`run` wraps ``asyncio.run``, and
:func:`serving` is an async context manager that binds a **real**
:class:`~repro.service.server.SimService` listener on an ephemeral
127.0.0.1 port, hands the test a connected
:class:`~repro.service.client.ServiceClient`, and guarantees a graceful
drain on the way out.  Each test passes its own ``cache_dir`` (via
:func:`service_config`), so dedup and cache-hit counters start from an
empty store every time.

The bit-identity baseline (:func:`direct_results`) runs the shared job
pool through a serial, store-less :class:`~repro.engine.engine.SimEngine`
once per session: the conformance suite's core claim is that a result
fetched over HTTP is canonically equal to that direct run.
"""

import asyncio
import contextlib
import json

import pytest

from repro.engine import SerialExecutor, SimEngine
from repro.engine.jobs import (
    ContestJob,
    RegionLogJob,
    StandaloneJob,
    TraceSpec,
)
from repro.engine.store import encode_result
from repro.service import ServiceClient, ServiceConfig, SimService
from repro.uarch.config import core_config

SPEC_A = TraceSpec("gcc", 260, seed=7)
SPEC_B = TraceSpec("gzip", 240, seed=9)


def job_pool():
    """Twelve unique mixed jobs — every kind, several cores, both traces.

    Small enough that the whole pool simulates in well under a second;
    diverse enough that dedup accounting over it is meaningful.
    """
    return [
        StandaloneJob(core_config("gcc"), SPEC_A),
        StandaloneJob(core_config("vpr"), SPEC_A),
        StandaloneJob(core_config("mcf"), SPEC_B),
        StandaloneJob(core_config("crafty"), SPEC_B, prewarm=False),
        StandaloneJob(core_config("gcc"), SPEC_B, region_size=40),
        StandaloneJob(core_config("gzip"), SPEC_B),
        RegionLogJob(core_config("gzip"), SPEC_A),
        RegionLogJob(core_config("mcf"), SPEC_A, region_size=40),
        ContestJob((core_config("gcc"), core_config("gzip")), SPEC_A),
        ContestJob((core_config("vpr"), core_config("mcf")), SPEC_B),
        ContestJob(
            (core_config("gcc"), core_config("vpr")), SPEC_B,
            lagger_policy="resync",
        ),
        ContestJob(
            (core_config("crafty"), core_config("gcc")), SPEC_A, max_lag=64,
        ),
    ]


def tiny_job(seed):
    """A near-instant unique job (quota/backpressure tests submit many)."""
    return StandaloneJob(core_config("gzip"), TraceSpec("gzip", 120, seed=seed))


def canonical(result):
    """One result in the store's canonical JSON form (bit-comparable)."""
    return json.dumps(
        encode_result(result), sort_keys=True, separators=(",", ":")
    )


def run(coro):
    """Drive one test scenario on a fresh event loop."""
    return asyncio.run(coro)


@contextlib.asynccontextmanager
async def serving(config, **service_kwargs):
    """A started service + connected client; drains on exit."""
    service = SimService(config, **service_kwargs)
    await service.start()
    client = ServiceClient(config.host, service.port)
    try:
        yield service, client
    finally:
        await client.close()
        await service.drain()


def service_config(tmp_path, **overrides):
    """A test-sized :class:`ServiceConfig` with an isolated store."""
    settings = {
        "workers": 2,
        "batch_window_s": 0.005,
        "cache_dir": str(tmp_path / "svc-store"),
    }
    settings.update(overrides)
    return ServiceConfig(**settings)


@pytest.fixture(scope="session")
def direct_results():
    """Key → canonical result of the job pool run directly (no service)."""
    engine = SimEngine(executor=SerialExecutor())
    jobs = job_pool()
    return {
        job.cache_key(): canonical(result)
        for job, result in zip(jobs, engine.run_many(jobs))
    }
