"""The parent-side chaos runtime: site ticks, budgets, injected faults.

One :class:`HarnessChaos` instance is shared by every component under
test — typically a :class:`~repro.engine.executors.ParallelExecutor` and
a :class:`~repro.engine.store.ResultStore` built over the same instance —
so its per-site tick counters advance in hook-invocation order and its
budgets bound the *total* injections across the whole harness.  All
hooks are behind hoisted ``is not None`` checks at their call sites
(executors, store), so a harness without a runtime attached pays a
single pointer comparison per site.
"""

import os
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Dict, Optional

from repro.chaos.hooks import Action
from repro.chaos.plan import (
    SITE_BACKEND_FAIL,
    SITE_POOL_BREAK,
    SITE_WORKER_HANG,
    SITE_WORKER_KILL,
    SITE_WORKER_SLOW,
    SITE_WRITE_BITFLIP,
    SITE_WRITE_FAIL,
    SITE_WRITE_TORN,
    SITES,
    ChaosPlan,
    _unit,
)

if TYPE_CHECKING:  # telemetry is optional at runtime; typing only here
    from repro.telemetry.registry import StatRegistry

#: exit status of a chaos-crashed harness process (``crash_after_writes``)
CRASH_EXIT_STATUS = 86


@dataclass
class ChaosStats:
    """Injection counters for one :class:`HarnessChaos` instance."""

    #: worker processes hard-killed mid-job
    kills: int = 0
    #: worker hangs injected (watchdog bait)
    hangs: int = 0
    #: benign worker slowdowns injected
    slows: int = 0
    #: ``BrokenPipeError`` raised at a job's hand-over to a worker
    pool_breaks: int = 0
    #: store appends failed with an injected ``OSError``
    write_fails: int = 0
    #: store appends truncated to a prefix (torn tail)
    torn_writes: int = 0
    #: store appends with one payload bit flipped
    bitflips: int = 0
    #: single jobs failed in a worker (``backend-fail`` directives)
    backend_fails: int = 0
    #: harness crashes fired (``crash_after_writes``)
    crashes: int = 0

    def as_dict(self) -> Dict[str, int]:
        """All counters as a plain name→count dict."""
        return {f.name: int(getattr(self, f.name)) for f in fields(self)}

    @property
    def total_injections(self) -> int:
        """Sum over every counter."""
        return sum(self.as_dict().values())


#: site → ChaosStats field charged when that site fires
_SITE_COUNTER = {
    SITE_WORKER_KILL: "kills",
    SITE_WORKER_HANG: "hangs",
    SITE_WORKER_SLOW: "slows",
    SITE_POOL_BREAK: "pool_breaks",
    SITE_WRITE_FAIL: "write_fails",
    SITE_WRITE_TORN: "torn_writes",
    SITE_WRITE_BITFLIP: "bitflips",
    SITE_BACKEND_FAIL: "backend_fails",
}


class HarnessChaos:
    """Drives one :class:`~repro.chaos.plan.ChaosPlan` (see module doc)."""

    def __init__(self, plan: ChaosPlan) -> None:
        self.plan = plan
        self.stats = ChaosStats()
        self._ticks: Dict[str, int] = {site: 0 for site in SITES}
        self._writes_completed = 0

    def _draw(self, site: str) -> bool:
        """Advance ``site``'s tick; True when it fires within budget."""
        tick = self._ticks[site]
        self._ticks[site] = tick + 1
        counter = _SITE_COUNTER[site]
        if getattr(self.stats, counter) >= self.plan.max_per_site:
            return False
        if not self.plan.fires(site, tick):
            return False
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        return True

    # ---------------------------------------------------------- executor

    def job_action(
        self, attempt: int, max_attempts: int
    ) -> Optional[Action]:
        """The directive for one job's hand-over to a worker, if any.

        Destructive actions (kill, hang, backend-fail) are never
        scheduled on the job's final permitted attempt — the structural
        guarantee that every job retains a clean shot within its retry
        budget (see :mod:`repro.chaos.plan`).  Returns ``None`` for a
        clean hand-over, so the worker-side fast path stays untouched.
        """
        last_chance = attempt >= max_attempts
        if not last_chance and self._draw(SITE_WORKER_KILL):
            return ("kill", 0.0)
        if not last_chance and self._draw(SITE_WORKER_HANG):
            return ("hang", self.plan.hang_s)
        if not last_chance and self._draw(SITE_BACKEND_FAIL):
            return ("backend-fail", 0.0)
        if self._draw(SITE_WORKER_SLOW):
            return ("slow", self.plan.slow_s)
        return None

    def before_submit(self) -> None:
        """Hand-over hook: may raise an injected ``BrokenPipeError``.

        That is what a send to a dead worker raises, so the executor
        takes the path it takes for a real broken pipe: the job goes back
        to the queue with no attempt spent and the worker is replaced.
        """
        if self._draw(SITE_POOL_BREAK):
            raise BrokenPipeError("chaos: injected broken pipe at hand-over")

    # ------------------------------------------------------------- store

    def store_write_bytes(self, data: bytes) -> bytes:
        """Store-append hook: fail, tear, or bit-flip one framed record.

        Raises ``OSError`` for an injected write failure; returns a
        newline-less prefix for a torn write (a crash mid-``write(2)``);
        returns the record with one payload bit flipped for latent media
        corruption (CRC32 framing detects every single-bit flip at load).
        """
        if self._draw(SITE_WRITE_FAIL):
            raise OSError("chaos: injected store write failure")
        if self._draw(SITE_WRITE_TORN) and len(data) > 2:
            cut = 1 + int(
                _unit(self.plan.seed, "torn-cut", self._ticks[SITE_WRITE_TORN])
                * (len(data) - 2)
            )
            return data[:cut]
        if self._draw(SITE_WRITE_BITFLIP) and len(data) > 1:
            tick = self._ticks[SITE_WRITE_BITFLIP]
            # never the trailing newline: the line must stay a line
            index = int(
                _unit(self.plan.seed, "flip-byte", tick) * (len(data) - 1)
            )
            bit = int(_unit(self.plan.seed, "flip-bit", tick) * 8)
            flipped = bytes([data[index] ^ (1 << bit)])
            return data[:index] + flipped + data[index + 1:]
        return data

    def after_store_write(self) -> None:
        """Post-append hook: fires the mid-batch harness crash.

        ``os._exit`` — no atexit, no flushing, no executor shutdown —
        because that is what a SIGKILL'd or power-cut harness looks like
        to the store and to the next run.
        """
        self._writes_completed += 1
        crash_at = self.plan.crash_after_writes
        if crash_at and self._writes_completed >= crash_at:
            self.stats.crashes += 1
            os._exit(CRASH_EXIT_STATUS)

    # -------------------------------------------------------- reporting

    def counters(self) -> Dict[str, int]:
        """Injection counters as a plain dict (manifest / assertions)."""
        return self.stats.as_dict()

    def register_into(self, registry: "StatRegistry") -> None:
        """Declare every injection counter on a telemetry registry as
        ``chaos.<name>`` (idempotent, like all registry declaration)."""
        for name, value in self.counters().items():
            registry.counter(
                f"chaos.{name}", "injections",
                f"harness-chaos '{name}' injections this run",
            ).inc(value)
