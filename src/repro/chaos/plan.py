"""Seeded fault plans for the *harness* (complementing ``repro.faults``).

A :class:`~repro.faults.FaultPlan` perturbs the simulated machine; a
:class:`ChaosPlan` perturbs the machinery that runs it — worker processes,
their pipes, the persistent :class:`~repro.engine.store.ResultStore`, and
single jobs in a worker.  The two layers share one methodology
(*Validating Simplified Processor Models in Architectural Studies*): keep
a complex, failure-prone path honest by differencing it against a trusted
clean path.  Here the invariant under test is **convergence**: a batch run
under any chaos schedule must end with results bit-identical to a
chaos-free run, with no job lost, no corrupt record served, and no write
silently dropped (``tests/chaos``).

Like ``FaultPlan``, decisions are **counter-based**: whether the ``tick``-th
visit to an injection *site* fires is a pure ``blake2b`` hash of
``(seed, site, tick)`` — no RNG state, no wall clock — so a schedule is a
pure decision function.  Site ticks are advanced by the
:class:`~repro.chaos.engine.HarnessChaos` runtime in hook-invocation
order; under a serial executor that order is fully reproducible, under a
parallel executor it is reproducible up to completion interleaving (the
convergence invariant is interleaving-independent by design).

Two properties make every schedule *convergent by construction*:

* **budgets** — each site fires at most ``max_per_site`` times per
  :class:`~repro.chaos.engine.HarnessChaos` instance, so no job can be
  starved forever (a job whose hand-over breaks goes back to the queue
  with no attempt spent, and an unbounded break rate would otherwise
  break every hand-over of it);
* **a clean last attempt** — destructive worker actions are never
  scheduled on a job's final permitted attempt (the executor passes the
  attempt counter to the runtime), so the retry budget always has one
  clean shot left.

Store faults need neither guard: a failed or torn write degrades a cached
record to a recompute and a bit-flipped record is rejected by the CRC
frame at load (``docs/robustness.md``), so they can never change a
result, only its cost.
"""

import hashlib
from dataclasses import dataclass, fields
from typing import Dict, Tuple

#: Injection sites, each with its own tick stream and budget.
SITE_WORKER_KILL = "worker-kill"
SITE_WORKER_HANG = "worker-hang"
SITE_WORKER_SLOW = "worker-slow"
SITE_POOL_BREAK = "pool-break"
SITE_WRITE_FAIL = "write-fail"
SITE_WRITE_TORN = "write-torn"
SITE_WRITE_BITFLIP = "write-bitflip"
SITE_BACKEND_FAIL = "backend-fail"

#: Every site, in a stable order (counter surfacing, docs, tests).
SITES: Tuple[str, ...] = (
    SITE_WORKER_KILL,
    SITE_WORKER_HANG,
    SITE_WORKER_SLOW,
    SITE_POOL_BREAK,
    SITE_WRITE_FAIL,
    SITE_WRITE_TORN,
    SITE_WRITE_BITFLIP,
    SITE_BACKEND_FAIL,
)


def _unit(seed: int, *parts: object) -> float:
    """Deterministic uniform [0, 1) from a seed and a counter tuple
    (same construction as :func:`repro.faults._unit`)."""
    payload = "/".join(str(p) for p in (seed,) + parts).encode()
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


@dataclass(frozen=True)
class ChaosPlan:
    """A seeded, declarative description of harness faults to inject.

    All fields default to "no fault"; a default-constructed plan is a
    no-op.  Rates are per site visit (one job's hand-over to a worker,
    one store append) and each site fires at most
    ``max_per_site`` times per runtime instance.
    """

    seed: int = 0
    #: per-hand-over probability the worker process SIGKILLs itself
    kill_worker_rate: float = 0.0
    #: per-hand-over probability the worker sleeps ``hang_s`` (watchdog bait)
    hang_worker_rate: float = 0.0
    hang_s: float = 2.0
    #: per-hand-over probability of a benign ``slow_s`` sleep
    slow_worker_rate: float = 0.0
    slow_s: float = 0.01
    #: per-hand-over probability of an injected ``BrokenPipeError``
    pool_break_rate: float = 0.0
    #: per-append probability the store write raises ``OSError``
    write_fail_rate: float = 0.0
    #: per-append probability only a prefix of the record reaches disk
    torn_write_rate: float = 0.0
    #: per-append probability one bit of the framed record is flipped
    bitflip_rate: float = 0.0
    #: per-hand-over probability the job fails before it runs
    backend_fail_rate: float = 0.0
    #: hard-exit the process after this many completed store writes
    #: (0 = never).  Simulates a harness crash mid-batch; the soak
    #: harness restarts against the same store and must converge.
    crash_after_writes: int = 0
    #: per-site injection budget (see the module docstring)
    max_per_site: int = 2

    def __post_init__(self) -> None:
        for name in (
            "kill_worker_rate", "hang_worker_rate", "slow_worker_rate",
            "pool_break_rate", "write_fail_rate", "torn_write_rate",
            "bitflip_rate", "backend_fail_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate!r}")
        if self.hang_s < 0 or self.slow_s < 0:
            raise ValueError("hang_s and slow_s must be >= 0")
        if self.crash_after_writes < 0:
            raise ValueError("crash_after_writes must be >= 0")
        if self.max_per_site < 1:
            raise ValueError("max_per_site must be >= 1")

    def rate_for(self, site: str) -> float:
        """The firing rate of one injection site."""
        try:
            return self._rates()[site]
        except KeyError:
            raise ValueError(f"unknown chaos site {site!r}") from None

    def _rates(self) -> Dict[str, float]:
        return {
            SITE_WORKER_KILL: self.kill_worker_rate,
            SITE_WORKER_HANG: self.hang_worker_rate,
            SITE_WORKER_SLOW: self.slow_worker_rate,
            SITE_POOL_BREAK: self.pool_break_rate,
            SITE_WRITE_FAIL: self.write_fail_rate,
            SITE_WRITE_TORN: self.torn_write_rate,
            SITE_WRITE_BITFLIP: self.bitflip_rate,
            SITE_BACKEND_FAIL: self.backend_fail_rate,
        }

    @property
    def perturbs_anything(self) -> bool:
        """Whether any hook can ever fire under this plan."""
        return bool(
            any(rate > 0.0 for rate in self._rates().values())
            or self.crash_after_writes
        )

    def fires(self, site: str, tick: int) -> bool:
        """Whether the ``tick``-th visit to ``site`` injects a fault.

        Pure in its arguments and the plan — the budget bound is the
        runtime's job (:class:`~repro.chaos.engine.HarnessChaos`), not
        part of the decision function.
        """
        rate = self.rate_for(site)
        if rate <= 0.0:
            return False
        return _unit(self.seed, site, tick) < rate

    def fingerprint(self) -> str:
        """Stable identity (field order is part of it), for logs/tests."""
        return "chaosplan/" + "/".join(
            f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)
        )

    @classmethod
    def sample(cls, seed: int) -> "ChaosPlan":
        """A deterministic pseudo-random plan for the convergence soak.

        Draws, from ``seed`` alone, a subset of active sites and their
        rates; every fourth seed also crashes the harness mid-batch.
        Sampled plans keep ``max_per_site`` at 2 and moderate hang/slow
        windows so a schedule is aggressive but terminates quickly.
        """
        active = {
            site: _unit(seed, "sample-active", site) < 0.45 for site in SITES
        }
        if not any(active.values()):
            active[SITE_WRITE_TORN] = True

        def rate(site: str) -> float:
            if not active[site]:
                return 0.0
            return 0.25 + 0.5 * _unit(seed, "sample-rate", site)

        return cls(
            seed=seed,
            kill_worker_rate=rate(SITE_WORKER_KILL),
            hang_worker_rate=rate(SITE_WORKER_HANG),
            hang_s=2.5,
            slow_worker_rate=rate(SITE_WORKER_SLOW),
            slow_s=0.02,
            pool_break_rate=rate(SITE_POOL_BREAK),
            write_fail_rate=rate(SITE_WRITE_FAIL),
            torn_write_rate=rate(SITE_WRITE_TORN),
            bitflip_rate=rate(SITE_WRITE_BITFLIP),
            backend_fail_rate=rate(SITE_BACKEND_FAIL),
            crash_after_writes=2 + seed // 4 % 3 if seed % 4 == 0 else 0,
            max_per_site=2,
        )
