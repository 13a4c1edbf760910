"""Reference-speed scaling.

The host's speed drifts in phases lasting seconds to minutes (a fixed
pure-Python loop runs anywhere between about 1.1x and 1.7x of its best
time), and the program slows with it.  A probe -- a fixed loop of integer,
dict, list and small-allocation work that runs no repository code -- is
timed many times per run, only while the system under test is idle, and
every timing is multiplied by ``PROBE_REF_S`` over the probe time local to
it.  Scaled seconds therefore read as seconds on the reference host, and
run-to-run spread measures the program rather than the neighbours.

Set-ups are scaled by a probe of their own kind: a fresh interpreter
importing a fixed set of standard-library modules (:func:`setup_probe`),
timed right before and right after each set-up.  It does the same kind of
work as a set-up -- process start, unmarshalling, module bodies -- with no
repository code, so it slows with the host as a set-up does; the loop
probe does not (see README.md).

The probe medians are also an A/A control: when one differs between two
commits' run sets by more than its own spread, the comparison is void.
"""

import statistics
import subprocess
import sys
import time
from typing import Dict, List, Mapping

#: Median probe time on the reference host (2-vCPU x86-64 VM, CPython
#: 3.11).  A unit conversion only: it never changes between commits.
PROBE_REF_S = 0.0025

#: loop iterations of one probe (about 2-4 ms on the reference host)
_PROBE_ITERATIONS = 6000

#: what the set-up probe's fresh interpreter runs, and its time on the
#: reference host, where it ranges over about 0.13-0.19 s with the speed
#: phases (a unit conversion, like ``PROBE_REF_S``)
_SETUP_PROBE_SOURCE = "import asyncio, dataclasses, json, statistics"
SETUP_PROBE_REF_S = 0.16


def _probe_work() -> int:
    table: Dict[int, int] = {}
    window: List[tuple] = []
    acc = 0
    for i in range(_PROBE_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFFF
        table[i & 255] = acc
        window.append((i, acc))
        if len(window) > 64:
            window.pop(0)
        acc ^= table.get((i * 7) & 255, 0)
    return acc


class Probe:
    """The probe timings of one run, and the scale factor they give."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, repeats: int = 1) -> float:
        """Time the probe ``repeats`` times; return the median of these."""
        batch = []
        for _ in range(repeats):
            started = time.perf_counter()
            _probe_work()
            batch.append(time.perf_counter() - started)
        self.samples.extend(batch)
        return statistics.median(batch)

    def median(self) -> float:
        """Median probe seconds over the whole run."""
        return statistics.median(self.samples)

    def factor(self) -> float:
        """Multiplier taking raw seconds of this run to reference seconds."""
        return PROBE_REF_S / self.median()


def setup_probe(env: Mapping[str, str]) -> float:
    """Seconds a fresh interpreter takes to start and import the set-up
    probe's modules."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE_SOURCE], env=env, check=True,
        timeout=60,
    )
    return time.perf_counter() - started
