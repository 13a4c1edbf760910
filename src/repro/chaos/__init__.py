"""``repro.chaos`` — deterministic fault injection for the harness.

``repro.faults`` breaks the *simulated* machine; this package breaks the
machinery running it: worker processes, their pipes, persistent store
writes, and single jobs in a worker.  A seeded
:class:`~repro.chaos.plan.ChaosPlan` drives a
:class:`~repro.chaos.engine.HarnessChaos` runtime whose hooks hang off
``ParallelExecutor(chaos=...)`` and ``ResultStore(chaos=...)`` — hoisted
``is not None`` checks, zero cost when absent (the same observer pattern
as telemetry).  ``tests/chaos`` pins the convergence invariant: under any
schedule, a batch ends bit-identical to a chaos-free run with an
fsck-clean store.  See ``docs/robustness.md``.
"""

from repro.chaos.engine import CRASH_EXIT_STATUS, ChaosStats, HarnessChaos
from repro.chaos.hooks import (
    Action,
    ChaosBackendError,
    KILL_EXIT_STATUS,
    apply_action,
)
from repro.chaos.plan import SITES, ChaosPlan

__all__ = [
    "Action",
    "CRASH_EXIT_STATUS",
    "ChaosBackendError",
    "ChaosPlan",
    "ChaosStats",
    "HarnessChaos",
    "KILL_EXIT_STATUS",
    "SITES",
    "apply_action",
]
