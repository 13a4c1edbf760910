"""Standalone (non-contesting) execution of a trace on one core."""

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.isa.trace import TraceSource
from repro.uarch.config import CoreConfig
from repro.uarch.core import Core, RunStats

if TYPE_CHECKING:  # telemetry is an observer layer, never a model import
    from repro.telemetry import Tracer


@dataclass
class StandaloneResult:
    """Outcome of running one trace to completion on one core."""

    config_name: str
    trace_name: str
    instructions: int
    cycles: int
    time_ps: int
    stats: RunStats
    region_times_ps: List[int]

    @property
    def ipt(self) -> float:
        """Instructions per nanosecond — the paper's performance metric."""
        return self.instructions * 1000.0 / self.time_ps

    @property
    def ipc(self) -> float:
        """Instructions per cycle (frequency-blind; diagnostics only)."""
        return self.instructions / self.cycles


def run_standalone(
    config: CoreConfig,
    trace: TraceSource,
    region_size: int = 0,
    max_cycles: int = 0,
    prewarm: bool = True,
    skip_ahead: bool = True,
    tracer: Optional["Tracer"] = None,
) -> StandaloneResult:
    """Execute ``trace`` to completion on a core built from ``config``.

    Parameters
    ----------
    region_size:
        If non-zero, log elapsed time at every ``region_size``-th retirement
        (used by the Section-2 oracle switching analysis).
    max_cycles:
        Safety bound; 0 derives a generous limit from the trace length.
        Exceeding it raises ``RuntimeError`` (it indicates a model bug, not a
        slow workload).
    skip_ahead:
        Event-driven fast path (default): after each worked cycle, jump the
        clock straight to :meth:`Core.next_event_cycle` instead of stepping
        through cycles in which no stage can do anything.  Results are
        bit-identical to cycle stepping (pinned by ``tests/differential``);
        disable only to cross-check or profile the reference loop.
    tracer:
        Optional :class:`repro.telemetry.Tracer`; records skip-ahead jumps
        and per-op retirement counts without perturbing any result.
    """
    core = Core(
        config, trace, region_size=region_size, prewarm=prewarm,
        tracer=tracer,
    )
    limit = max_cycles or (len(trace) * (config.mem_latency + 64) + 100_000)
    if skip_ahead:
        while not core.done:
            core.step()
            if core.cycle > limit:
                raise RuntimeError(
                    f"core {config.name} exceeded {limit} cycles on trace "
                    f"{trace.name}: likely a pipeline deadlock"
                )
            if core.done:
                break
            nxt = core.next_event_cycle()
            if nxt > core.cycle:
                # a deadlocked core has no event at all: land just past the
                # limit so the step above raises exactly as the slow loop
                core.skip_to(min(nxt, limit + 1))
    else:
        while not core.done:
            core.step()
            if core.cycle > limit:
                raise RuntimeError(
                    f"core {config.name} exceeded {limit} cycles on trace "
                    f"{trace.name}: likely a pipeline deadlock"
                )
    core.collect_cache_stats()
    if tracer is not None:
        tracer.finalise_core(
            core.core_id, core.stats.committed, core.cycle, core.time_ps
        )
        tracer.finish(core.time_ps)
    return StandaloneResult(
        config_name=config.name,
        trace_name=trace.name,
        instructions=len(trace),
        cycles=core.cycle,
        time_ps=core.time_ps,
        stats=core.stats,
        region_times_ps=list(core.stats.region_times_ps),
    )
