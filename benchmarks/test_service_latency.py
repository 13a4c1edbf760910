"""Service-level performance gates: submit→result latency, warm throughput.

Not a paper figure — this pins the overhead the simulation-as-a-service
layer adds on top of the engine: the full HTTP round trip (submit, poll
to terminal, fetch result) per cold job, and the warm-cache path where
every submission resolves to a stored record without touching a worker.
The measured numbers are persisted to the repo-root ``BENCH_service.json``
(and into the pytest-benchmark ``extra_info``), so service-perf history
is inspectable per commit next to ``BENCH_simulator.json``.

Run with ``pytest benchmarks/test_service_latency.py --benchmark-only``.
"""

import asyncio
import json
import math
from pathlib import Path

from conftest import run_once

from repro.engine.jobs import StandaloneJob, TraceSpec
from repro.service import ServiceClient, ServiceConfig, SimService
from repro.uarch.config import core_config

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_service.json"

#: cold jobs measured one full HTTP lifecycle at a time
N_JOBS = 32

#: generous CI-runner gates — catching order-of-magnitude regressions
#: (an accidental sleep in the poll path, a batch that stopped batching),
#: not micro-drift
GATE_P99_S = 2.0
GATE_WARM_JOBS_PER_S = 100.0


def _jobs():
    return [
        StandaloneJob(core_config("gzip"), TraceSpec("gzip", 150, seed=s))
        for s in range(N_JOBS)
    ]


def _percentile(samples, q):
    ordered = sorted(samples)
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[rank]


async def _measure(cache_dir):
    config = ServiceConfig(
        workers=2,
        batch_window_s=0.002,
        quota_rate_per_s=100_000.0,
        quota_burst=100_000.0,
        cache_dir=str(cache_dir),
    )
    service = SimService(config)
    await service.start()
    client = ServiceClient(config.host, service.port)
    loop = asyncio.get_running_loop()
    try:
        latencies = []
        for job in _jobs():
            started = loop.time()
            row = (await client.submit([job]))[0]
            await client.wait(row["id"], timeout_s=120.0, poll_s=0.002)
            await client.result(row["id"])
            latencies.append(loop.time() - started)
        # warm path: one submission of the full batch, every job already
        # terminal, every result served from the record/store
        started = loop.time()
        rows = await client.submit(_jobs())
        assert all(row["state"] == "done" for row in rows)
        for row in rows:
            await client.result(row["id"])
        warm_seconds = loop.time() - started
    finally:
        await client.close()
        await service.drain()
    return latencies, warm_seconds


def test_service_latency_and_warm_throughput(benchmark, tmp_path):
    latencies, warm_seconds = run_once(
        benchmark, lambda: asyncio.run(_measure(tmp_path / "store"))
    )
    assert len(latencies) == N_JOBS
    payload = {
        "jobs": N_JOBS,
        "submit_to_result_p50_s": round(_percentile(latencies, 0.50), 6),
        "submit_to_result_p99_s": round(_percentile(latencies, 0.99), 6),
        "warm_cache_jobs_per_s": round(N_JOBS / warm_seconds, 2),
        "gates": {
            "submit_to_result_p99_s_max": GATE_P99_S,
            "warm_cache_jobs_per_s_min": GATE_WARM_JOBS_PER_S,
        },
    }
    benchmark.extra_info.update(payload)
    BENCH_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    assert payload["submit_to_result_p99_s"] < GATE_P99_S
    assert payload["warm_cache_jobs_per_s"] > GATE_WARM_JOBS_PER_S
