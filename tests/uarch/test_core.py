"""Behavioural tests of the cycle-stepped pipeline model."""

import pytest

from repro.isa.instructions import Instr, OpClass
from repro.isa.trace import Trace
from repro.uarch.cache import CacheConfig
from repro.uarch.config import APPENDIX_A_CORES, CoreConfig, core_config
from repro.uarch.core import Core
from repro.uarch.run import run_standalone


def _simple_config(**kw):
    params = dict(
        name="test",
        clock_period_ns=0.5,
        width=2,
        rob_size=32,
        iq_size=16,
        lsq_size=16,
        frontend_depth=3,
        sched_depth=0,
        awaken_latency=0,
        mem_latency=50,
        l1=CacheConfig(2, 64, 16, 1),
        l2=CacheConfig(4, 64, 64, 5),
    )
    params.update(kw)
    return CoreConfig(**params)


def _alu_trace(n, deps=False):
    instrs = []
    for i in range(n):
        dep = i - 1 if deps and i > 0 else -1
        instrs.append(Instr(OpClass.IALU, pc=4 * (i % 32), dep1=dep))
    return Trace("alu", instrs)


class TestBasicExecution:
    def test_completes(self):
        result = run_standalone(_simple_config(), _alu_trace(200))
        assert result.instructions == 200
        assert result.cycles > 0
        assert result.time_ps == result.cycles * 500

    def test_ipc_reaches_width_on_independent_alu(self):
        result = run_standalone(_simple_config(width=4), _alu_trace(4000))
        assert result.ipc > 3.5

    def test_serial_chain_one_per_cycle(self):
        result = run_standalone(
            _simple_config(width=4), _alu_trace(2000, deps=True)
        )
        # fully serial single-cycle ALU chain: ~1 IPC regardless of width
        assert 0.9 < result.ipc <= 1.05

    def test_awaken_latency_divides_chain_rate(self):
        fast = run_standalone(
            _simple_config(awaken_latency=0), _alu_trace(2000, deps=True)
        )
        slow = run_standalone(
            _simple_config(awaken_latency=2), _alu_trace(2000, deps=True)
        )
        ratio = fast.ipc / slow.ipc
        assert 2.5 < ratio < 3.5  # 1 cycle/link vs 3 cycles/link

    @pytest.mark.parametrize("name", sorted(APPENDIX_A_CORES))
    def test_dependent_alu_chain_cost_per_link(
        self, name
    ):
        # closed form: issue charges the scheduler depth on top of the
        # 1-cycle IALU latency, and the dependant wakes awaken_latency
        # cycles after completion, on every link of the chain
        config = APPENDIX_A_CORES[name]
        short = run_standalone(
            config, _alu_trace(200, deps=True), prewarm=False
        )
        long = run_standalone(
            config, _alu_trace(400, deps=True), prewarm=False
        )
        per_link = config.sched_depth + 1 + config.awaken_latency
        assert long.cycles - short.cycles == 200 * per_link

    def test_ipt_folds_clock(self):
        a = run_standalone(_simple_config(clock_period_ns=0.5), _alu_trace(1000))
        b = run_standalone(_simple_config(clock_period_ns=0.25), _alu_trace(1000))
        assert b.ipt == pytest.approx(2 * a.ipt, rel=0.01)

    def test_deadlock_guard(self):
        with pytest.raises(RuntimeError):
            run_standalone(_simple_config(), _alu_trace(500), max_cycles=10)

    def test_step_after_done_ok(self):
        core = Core(_simple_config(), _alu_trace(10))
        while not core.done:
            core.step()
        assert core.commit_count == 10


class TestBranches:
    def _branch_trace(self, n, taken_every=2, predictable=True):
        instrs = []
        for i in range(n):
            if i % 4 == 3:
                if predictable:
                    taken = (i // 4) % taken_every == 0
                else:
                    taken = (i * 2654435761) % 7 < 3  # pseudo-random
                instrs.append(Instr(OpClass.BRANCH, pc=4 * (i % 64), taken=taken))
            else:
                instrs.append(Instr(OpClass.IALU, pc=4 * (i % 64)))
        return Trace("br", instrs)

    def test_branch_stats(self):
        result = run_standalone(_simple_config(), self._branch_trace(1000))
        assert result.stats.branches == 250

    def test_mispredicts_slow_execution(self):
        good = run_standalone(
            _simple_config(), self._branch_trace(2000, predictable=True)
        )
        bad = run_standalone(
            _simple_config(), self._branch_trace(2000, predictable=False)
        )
        assert bad.stats.mispredict_rate > good.stats.mispredict_rate
        assert bad.ipc < good.ipc

    def test_deeper_frontend_pays_more(self):
        shallow = run_standalone(
            _simple_config(frontend_depth=3),
            self._branch_trace(2000, predictable=False),
        )
        deep = run_standalone(
            _simple_config(frontend_depth=12),
            self._branch_trace(2000, predictable=False),
        )
        assert deep.cycles > shallow.cycles


class TestMemory:
    def _load_trace(self, n, footprint, dep_chain=False):
        instrs = []
        prev_load = -1
        for i in range(n):
            if i % 3 == 0:
                addr = 0x100000 + (i * 2654435761) % footprint
                addr -= addr % 8
                instrs.append(
                    Instr(OpClass.LOAD, pc=4 * (i % 32),
                          dep1=prev_load if dep_chain else -1, addr=addr)
                )
                prev_load = i
            else:
                instrs.append(Instr(OpClass.IALU, pc=4 * (i % 32)))
        return Trace("mem", instrs)

    def test_bigger_footprint_slower(self):
        small = run_standalone(
            _simple_config(), self._load_trace(3000, 1024, dep_chain=True),
            prewarm=True,
        )
        big = run_standalone(
            _simple_config(), self._load_trace(3000, 1 << 22, dep_chain=True),
            prewarm=True,
        )
        assert big.cycles > small.cycles * 2

    def test_prewarm_warms_cache(self):
        trace = self._load_trace(3000, 8192)
        cold = run_standalone(_simple_config(), trace, prewarm=False)
        warm = run_standalone(_simple_config(), trace, prewarm=True)
        assert warm.cycles <= cold.cycles

    def test_mshrs_bound_mlp(self):
        # independent scattered misses: few MSHRs serialise them
        trace = self._load_trace(3000, 1 << 22)
        few = run_standalone(_simple_config(mshrs=1), trace)
        many = run_standalone(_simple_config(mshrs=16), trace)
        assert few.cycles > many.cycles * 1.5


class TestStructuralLimits:
    def test_small_rob_hurts_memory_overlap(self):
        trace = TestMemory()._load_trace(3000, 1 << 22)
        small = run_standalone(_simple_config(rob_size=8, mshrs=16), trace)
        big = run_standalone(_simple_config(rob_size=128, mshrs=16), trace)
        assert small.cycles > big.cycles

    def test_region_log(self):
        result = run_standalone(
            _simple_config(), _alu_trace(400), region_size=20
        )
        assert len(result.region_times_ps) == 20
        assert all(
            a < b for a, b in zip(result.region_times_ps, result.region_times_ps[1:])
        )
        assert result.region_times_ps[-1] == result.time_ps

    def test_region_sum_matches_total(self):
        result = run_standalone(
            _simple_config(), _alu_trace(400), region_size=20
        )
        deltas = [result.region_times_ps[0]] + [
            b - a
            for a, b in zip(result.region_times_ps, result.region_times_ps[1:])
        ]
        assert sum(deltas) == result.time_ps


class TestSyscalls:
    def test_syscall_penalty(self):
        plain = _alu_trace(500)
        instrs = list(plain)
        instrs[250] = Instr(OpClass.SYSCALL, pc=0x999)
        with_sys = Trace("sys", instrs)
        a = run_standalone(_simple_config(), plain)
        b = run_standalone(_simple_config(), with_sys)
        from repro.uarch.core import SYSCALL_PENALTY
        assert b.cycles >= a.cycles + SYSCALL_PENALTY - 50

    def test_multiple_syscalls(self, syscall_trace, gcc_core):
        result = run_standalone(gcc_core, syscall_trace)
        assert result.instructions == len(syscall_trace)


class TestWorkloadsOnRealCores:
    def test_gcc_trace_all_cores(self, small_trace):
        for name in ("gcc", "mcf", "crafty"):
            result = run_standalone(core_config(name), small_trace)
            assert result.instructions == len(small_trace)
            assert 0.05 < result.ipt < 50

    def test_determinism(self, small_trace, gcc_core):
        a = run_standalone(gcc_core, small_trace)
        b = run_standalone(gcc_core, small_trace)
        assert a.time_ps == b.time_ps
        assert a.stats.mispredicts == b.stats.mispredicts
