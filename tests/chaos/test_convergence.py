"""The convergence soak: every chaos schedule ends bit-identical to clean.

For each seeded :meth:`ChaosPlan.sample` schedule, a forked child process
runs the shared mixed batch through a ``ParallelExecutor`` and a shared
``ResultStore`` with the full chaos runtime attached — workers killed and
hung, the pool broken at submit, store writes failed/torn/bit-flipped,
single jobs failed in the worker, and (on crash schedules) the whole
harness ``os._exit``-ing mid-batch.  The driver restarts crashed harnesses
against the same store until a run completes, then asserts the invariant
the whole layer exists for:

* the completed run's results are **bit-identical** to the chaos-free
  serial baseline (no ``JobFailure``, no corrupt record served);
* ``repro-store fsck`` leaves (and then finds) a **clean store**.

The fast slice runs on every push; the full soak
(:data:`SOAK_SEEDS` schedules, ``-m slow``) rides the nightly CI job.
"""

import dataclasses
import multiprocessing
import os

import pytest

from repro.chaos import CRASH_EXIT_STATUS, ChaosPlan, HarnessChaos
from repro.engine import (
    ParallelExecutor,
    ResultStore,
    RetryPolicy,
    SimEngine,
)
from repro.engine import store_cli

from tests.chaos.conftest import canonical, make_batch

#: seeds of the fast, every-push slice (two of them crash mid-batch)
FAST_SEEDS = tuple(range(8))
#: seeds of the nightly soak; with the fast slice this exceeds the
#: 200-schedule acceptance floor
SOAK_SEEDS = tuple(range(8, 208))

#: retry budget every schedule runs under: enough attempts that the
#: clean-last-attempt guarantee has room, timeouts generous enough that
#: only injected hangs trip the watchdog
RETRY = RetryPolicy(max_attempts=3, backoff_s=0.01, job_timeout_s=1.5)

#: restart ceiling per schedule (a crash schedule restarts once, with
#: ``crash_after_writes`` disabled; more would mean a convergence bug)
MAX_RUNS = 4


def _harness_main(store_path, plan, conn):
    """Child-process harness: the full engine stack under one chaos plan.

    Sends ``(results, chaos_counters, store_counters)`` on success; a
    crash schedule never reaches the send and exits with
    :data:`CRASH_EXIT_STATUS` instead.
    """
    chaos = HarnessChaos(plan)
    store = ResultStore(store_path, chaos=chaos)
    executor = ParallelExecutor(
        workers=2,
        chunk_size=2,
        retry=dataclasses.replace(RETRY, jitter_seed=plan.seed),
        chaos=chaos,
    )
    engine = SimEngine(executor=executor, store=store)
    results = engine.run_many(make_batch())
    conn.send((canonical(results), chaos.counters(), store.counters()))
    conn.close()


def _run_once(store_path, plan):
    """One harness child run; returns ``(exitcode, payload-or-None)``."""
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_harness_main, args=(store_path, plan, sender)
    )
    proc.start()
    sender.close()
    try:
        payload = receiver.recv()
    except EOFError:  # child died (crash schedule) before sending
        payload = None
    finally:
        receiver.close()
    proc.join(timeout=120)
    if proc.is_alive():  # pragma: no cover - would be a convergence bug
        proc.kill()
        proc.join()
        raise AssertionError(f"harness child hung under {plan!r}")
    return proc.exitcode, payload


def run_schedule(store_path, seed, clean_results):
    """Drive one schedule to completion and assert the soak invariant."""
    plan = ChaosPlan.sample(seed)
    payload = None
    crashes = 0
    for _ in range(MAX_RUNS):
        exitcode, payload = _run_once(store_path, plan)
        if exitcode == CRASH_EXIT_STATUS:
            # the harness died mid-batch as scheduled; restart against
            # the same store with only the crash disabled — every other
            # fault stays armed for the recovery run
            crashes += 1
            plan = dataclasses.replace(plan, crash_after_writes=0)
            continue
        assert exitcode == 0, (
            f"seed {seed}: harness exited {exitcode} under {plan!r}"
        )
        break
    assert payload is not None, (
        f"seed {seed}: no completed run within {MAX_RUNS} starts"
    )
    results, chaos_counters, store_counters = payload
    assert results == clean_results, (
        f"seed {seed}: results diverged from the chaos-free baseline "
        f"(injections: {chaos_counters})"
    )
    if ChaosPlan.sample(seed).crash_after_writes:
        assert crashes >= 1, f"seed {seed}: crash schedule never crashed"
    # the store must end fsck-clean: repair anything the final appends
    # left behind (e.g. a torn last write), then verify
    assert store_cli.main(["--path", str(store_path), "fsck", "--repair"]) == 0
    assert store_cli.main(["--path", str(store_path), "fsck"]) == 0
    return chaos_counters, store_counters


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_fast_slice_converges(tmp_path, seed, clean_results):
    store_path = tmp_path / "store.jsonl"
    run_schedule(store_path, seed, clean_results)


def test_fast_slice_actually_injects(tmp_path, clean_results):
    # the soak proves nothing if the sampled schedules are quiet: across
    # the fast slice, faults must actually fire on both the executor and
    # the store paths
    totals = {}
    for seed in FAST_SEEDS:
        chaos_counters, _ = run_schedule(
            tmp_path / f"s{seed}.jsonl", seed, clean_results
        )
        for name, count in chaos_counters.items():
            totals[name] = totals.get(name, 0) + count
    assert sum(totals.values()) > 0
    store_faults = (
        totals["write_fails"] + totals["torn_writes"] + totals["bitflips"]
    )
    worker_faults = totals["kills"] + totals["hangs"] + totals["slows"]
    assert store_faults > 0, totals
    assert worker_faults > 0, totals


@pytest.mark.slow
@pytest.mark.parametrize("seed", SOAK_SEEDS)
def test_soak_converges(tmp_path, seed, clean_results):
    store_path = tmp_path / "store.jsonl"
    run_schedule(store_path, seed, clean_results)
