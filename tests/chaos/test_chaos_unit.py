"""Unit behaviour of the chaos layer: plans, budgets, hooks, counters."""

import dataclasses

import pytest

from repro.chaos import (
    ChaosBackendError,
    ChaosPlan,
    HarnessChaos,
    SITES,
    apply_action,
)
from repro.chaos.plan import (
    SITE_BACKEND_FAIL,
    SITE_POOL_BREAK,
    SITE_WORKER_HANG,
    SITE_WORKER_KILL,
    SITE_WORKER_SLOW,
    SITE_WRITE_BITFLIP,
    SITE_WRITE_FAIL,
    SITE_WRITE_TORN,
)
from repro.engine import ContestJob, StandaloneJob
from repro.engine.executors import _run_job
from repro.uarch.config import core_config

from tests.chaos.conftest import SPEC_A


class TestChaosPlan:
    def test_default_plan_is_inert(self):
        plan = ChaosPlan()
        assert not plan.perturbs_anything
        assert all(not plan.fires(site, t) for site in SITES for t in range(50))

    def test_decisions_are_pure(self):
        plan = ChaosPlan(seed=3, kill_worker_rate=0.5)
        draws = [plan.fires(SITE_WORKER_KILL, t) for t in range(100)]
        again = [plan.fires(SITE_WORKER_KILL, t) for t in range(100)]
        assert draws == again
        assert any(draws) and not all(draws)

    def test_sites_have_independent_streams(self):
        plan = ChaosPlan(seed=3, kill_worker_rate=0.5, hang_worker_rate=0.5)
        kills = [plan.fires(SITE_WORKER_KILL, t) for t in range(64)]
        hangs = [plan.fires(SITE_WORKER_HANG, t) for t in range(64)]
        assert kills != hangs

    @pytest.mark.parametrize(
        "field", [
            "kill_worker_rate", "hang_worker_rate", "slow_worker_rate",
            "pool_break_rate", "write_fail_rate", "torn_write_rate",
            "bitflip_rate", "backend_fail_rate",
        ],
    )
    def test_rate_validation(self, field):
        with pytest.raises(ValueError):
            ChaosPlan(**{field: 1.5})

    def test_other_validation(self):
        with pytest.raises(ValueError):
            ChaosPlan(hang_s=-1)
        with pytest.raises(ValueError):
            ChaosPlan(crash_after_writes=-1)
        with pytest.raises(ValueError):
            ChaosPlan(max_per_site=0)
        with pytest.raises(ValueError):
            ChaosPlan().rate_for("no-such-site")

    def test_sample_is_deterministic_and_active(self):
        for seed in range(40):
            plan = ChaosPlan.sample(seed)
            assert plan == ChaosPlan.sample(seed)
            assert plan.perturbs_anything
            assert plan.fingerprint() == ChaosPlan.sample(seed).fingerprint()

    def test_sample_crashes_every_fourth_seed(self):
        crash_seeds = [s for s in range(40) if ChaosPlan.sample(s).crash_after_writes]
        assert crash_seeds == [s for s in range(40) if s % 4 == 0]


class TestBudgets:
    def test_site_budget_bounds_injections(self):
        plan = ChaosPlan(seed=1, write_fail_rate=1.0, max_per_site=2)
        chaos = HarnessChaos(plan)
        fails = 0
        for _ in range(20):
            try:
                chaos.store_write_bytes(b'{"k":1}\n')
            except OSError:
                fails += 1
        assert fails == 2
        assert chaos.stats.write_fails == 2

    def test_pool_break_budget(self):
        chaos = HarnessChaos(ChaosPlan(seed=1, pool_break_rate=1.0))
        breaks = 0
        for _ in range(10):
            try:
                chaos.before_submit()
            except BrokenPipeError:
                breaks += 1
        assert breaks == 2


class TestChunkActions:
    def test_clean_plan_returns_none(self):
        chaos = HarnessChaos(ChaosPlan())
        assert chaos.job_action(attempt=1, max_attempts=3) is None

    def test_last_attempt_is_always_clean_of_destruction(self):
        plan = ChaosPlan(
            seed=5, kill_worker_rate=1.0, hang_worker_rate=1.0,
            backend_fail_rate=1.0, max_per_site=100,
        )
        chaos = HarnessChaos(plan)
        for _ in range(20):
            action = chaos.job_action(attempt=3, max_attempts=3)
            assert action is None
        assert chaos.stats.kills == 0
        assert chaos.stats.hangs == 0
        assert chaos.stats.backend_fails == 0

    def test_slow_is_allowed_on_last_attempt(self):
        plan = ChaosPlan(seed=5, slow_worker_rate=1.0, slow_s=0.001)
        chaos = HarnessChaos(plan)
        action = chaos.job_action(attempt=3, max_attempts=3)
        assert action == ("slow", 0.001)

    def test_kill_scheduled_before_last_attempt(self):
        plan = ChaosPlan(seed=5, kill_worker_rate=1.0)
        chaos = HarnessChaos(plan)
        action = chaos.job_action(attempt=1, max_attempts=3)
        assert action is not None
        assert action == ("kill", 0.0)


class TestStoreWriteBytes:
    LINE = b'{"crc":1,"key":"k","kind":"standalone","v":2,"value":{}}\n'

    def test_torn_write_strips_newline_and_truncates(self):
        chaos = HarnessChaos(ChaosPlan(seed=2, torn_write_rate=1.0))
        out = chaos.store_write_bytes(self.LINE)
        assert 0 < len(out) < len(self.LINE)
        assert not out.endswith(b"\n")
        assert self.LINE.startswith(out)

    def test_bitflip_changes_exactly_one_bit_not_the_newline(self):
        chaos = HarnessChaos(ChaosPlan(seed=2, bitflip_rate=1.0))
        out = chaos.store_write_bytes(self.LINE)
        assert len(out) == len(self.LINE)
        assert out.endswith(b"\n")
        diff = [
            (a ^ b) for a, b in zip(self.LINE, out) if a != b
        ]
        assert len(diff) == 1
        assert bin(diff[0]).count("1") == 1

    def test_passthrough_when_inert(self):
        chaos = HarnessChaos(ChaosPlan())
        assert chaos.store_write_bytes(self.LINE) == self.LINE


class TestApplyAction:
    def test_backend_fail_hits_its_own_job_and_nothing_after(self):
        # a directive handed over with a contest must fail that contest,
        # and must leave nothing armed for a later job sent clean
        contest = ContestJob((core_config("gcc"), core_config("gzip")), SPEC_A)
        standalone = StandaloneJob(core_config("gcc"), SPEC_A)
        failed = _run_job(contest, ("backend-fail", 0.0))
        assert failed[:2] == ("err", ChaosBackendError.__name__)
        clean = _run_job(standalone, None)
        assert clean[0] == "ok"

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            apply_action(("explode", 0.0))


class TestCounters:
    def test_counters_cover_every_site_field(self):
        chaos = HarnessChaos(ChaosPlan())
        counters = chaos.counters()
        assert set(counters) == {
            "kills", "hangs", "slows", "pool_breaks", "write_fails",
            "torn_writes", "bitflips", "backend_fails", "crashes",
        }
        assert all(v == 0 for v in counters.values())
        assert chaos.stats.total_injections == 0

    def test_register_into_telemetry(self):
        from repro.telemetry.registry import StatRegistry

        chaos = HarnessChaos(ChaosPlan(seed=1, slow_worker_rate=1.0))
        for _ in range(3):
            chaos.job_action(attempt=1, max_attempts=3)
        registry = StatRegistry()
        chaos.register_into(registry)
        assert registry.get("chaos.slows").value == chaos.stats.slows
        assert chaos.stats.slows > 0

    def test_crash_counts_via_replace(self):
        # crash_after_writes=0 never crashes; the plan is frozen so the
        # soak driver disables it with dataclasses.replace
        plan = ChaosPlan.sample(4)
        assert plan.crash_after_writes > 0
        disabled = dataclasses.replace(plan, crash_after_writes=0)
        chaos = HarnessChaos(disabled)
        for _ in range(10):
            chaos.after_store_write()  # must not exit the process
        assert chaos.stats.crashes == 0
