"""Duck-typed jobs for the executor tests, each misbehaving in one way.

They are module-level frozen dataclasses so the process pool can pickle
them.  A spawned worker imports this module when it first unpickles one,
inside the chunk's time budget, so it imports nothing beyond the standard
library.
"""

import os
import signal
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class RaisingJob:
    """Raises in the worker on every attempt."""

    marker: str = "boom"
    kind = "raising"

    def cache_key(self):
        return f"raising-{self.marker}"

    def run(self):
        raise ValueError(self.marker)


@dataclass(frozen=True)
class SuicideJob:
    """SIGKILLs its worker process (an OOM kill's observable behaviour)."""

    kind = "suicide"

    def cache_key(self):
        return "suicide"

    def run(self):
        os.kill(os.getpid(), signal.SIGKILL)


@dataclass(frozen=True)
class HangingJob:
    """Never returns within any reasonable budget."""

    kind = "hanging"

    def cache_key(self):
        return "hanging"

    def run(self):
        time.sleep(300)


@dataclass(frozen=True)
class HangOnceJob:
    """Hangs on its first attempt, returns promptly ever after.

    The sentinel file is the cross-process attempt memory: the first
    worker to run the job creates it and then wedges; any later attempt
    sees it and succeeds.  This is the transiently-wedged-run shape (an
    I/O stall, a cold NFS mount) the timed-out retry path exists for.
    """

    sentinel: str
    kind = "hang_once"

    def cache_key(self):
        return f"hang-once-{self.sentinel}"

    def run(self):
        if os.path.exists(self.sentinel):
            return "recovered"
        with open(self.sentinel, "w") as handle:
            handle.write("attempt 1 hung here\n")
        time.sleep(300)


@dataclass(frozen=True)
class PidJob:
    """Answers with the pid of the process that ran it, after ``hold_s``
    (long enough that both workers of a pool take a share of a batch)."""

    tag: int
    hold_s: float = 0.1
    kind = "pid"

    def cache_key(self):
        return f"pid-{self.tag}-{self.hold_s}"

    def run(self):
        time.sleep(self.hold_s)
        return os.getpid()


@dataclass(frozen=True)
class CpuJob:
    """Answers with the pid of the process that ran it and the CPUs that
    process may run on, after ``hold_s``."""

    tag: int
    hold_s: float = 0.1
    kind = "cpus"

    def cache_key(self):
        return f"cpus-{self.tag}-{self.hold_s}"

    def run(self):
        time.sleep(self.hold_s)
        return os.getpid(), tuple(sorted(os.sched_getaffinity(0)))


def worker_pids(executor):
    """The pids that answer a four-job batch on ``executor``."""
    return {pid for pid, _ in executor.run([PidJob(i) for i in range(4)])}
