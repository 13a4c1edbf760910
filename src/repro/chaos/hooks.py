"""Worker-side chaos action application.

The parent-side :class:`~repro.chaos.engine.HarnessChaos` runtime makes
every injection *decision*; worker processes receive explicit, picklable
:data:`Action` directives and execute them blindly through
:func:`apply_action`.  Keeping workers decision-free is what makes
schedules convergent: a replacement worker holds no chaos state, so a
retried job can never be re-killed by a stale counter — the parent's
monotone site ticks alone decide, and their budgets bound total
injections.

A ``backend-fail`` directive raises :class:`ChaosBackendError` on the
spot.  :func:`apply_action` runs inside the job runner's ``try``, so the
failure lands on exactly the job the directive was handed over with —
whatever its kind — and the executor's ordinary retry path re-runs it
clean.
"""

import os
import time
from typing import Tuple

#: One worker-side directive: ``(kind, arg)`` with kinds ``"kill"``
#: (SIGKILL-equivalent hard exit), ``"hang"`` / ``"slow"`` (sleep ``arg``
#: seconds), ``"backend-fail"`` (fail the job the directive is attached to).
Action = Tuple[str, float]

#: exit status of a chaos-killed worker (distinguishable in core dumps /
#: logs from a real OOM kill, identical to one for the executor)
KILL_EXIT_STATUS = 113


class ChaosBackendError(RuntimeError):
    """Injected failure of one job in a worker process."""


def apply_action(action: Action) -> None:
    """Execute one directive in the current (worker) process.

    ``kill`` must bypass every ``finally``/atexit path — a real OOM kill
    gives no chance to clean up, and the executor's recovery machinery is
    exactly what is under test — hence ``os._exit``.
    """
    kind, arg = action
    if kind == "kill":
        os._exit(KILL_EXIT_STATUS)
    elif kind == "hang" or kind == "slow":
        time.sleep(arg)
    elif kind == "backend-fail":
        raise ChaosBackendError("chaos: injected job failure")
    else:
        raise ValueError(f"unknown chaos action {kind!r}")
