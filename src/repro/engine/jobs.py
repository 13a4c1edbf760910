"""Declarative simulation jobs and their cache identity.

A *job* is a frozen, picklable description of one simulation — which trace,
which core configuration(s), which run knobs — decoupled from its
execution.  Jobs are the engine's unit of scheduling (an executor maps
``execute_job`` over them, possibly in worker processes) and of caching
(:meth:`~SimJob.cache_key` is a content hash of the core fingerprints, the
trace fingerprint, and every knob that can change the result).

Traces are referenced either **by value** (a concrete
:class:`~repro.isa.trace.Trace`, keyed by its content fingerprint) or **by
recipe** (a :class:`TraceSpec` — profile name, length, seed — keyed by the
recipe).  A spec is a few dozen bytes to pickle and is regenerated inside
the worker process, so parallel executors never ship full traces across
process boundaries; generation is bit-deterministic, so the recipe is a
sound cache identity.  The two forms hash into disjoint key spaces — a
spec-keyed entry is never aliased by a by-value trace or vice versa.

``SCHEMA_VERSION`` participates in every key: bump it whenever simulator or
trace-generator semantics change, and every persistent cache entry keyed
under the old behaviour is invalidated at once.
"""

import hashlib
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from repro.analysis.regions import BASE_REGION, RegionLog, region_log
from repro.core.system import ContestingSystem, ContestResult
from repro.corpus.registry import profile_key, resolve_profile
from repro.faults import FaultPlan
from repro.isa.generator import generate_trace
from repro.isa.stream import StreamingTrace
from repro.isa.trace import Trace
from repro.uarch.config import CoreConfig
from repro.uarch.run import StandaloneResult, run_standalone

#: Bump when a change to the simulator or the trace generator makes results
#: computed under the previous version stale.  Participates in every cache
#: key, so a bump invalidates the whole persistent store at once.
#: History: 2 — trace fingerprints moved to the streamable per-field
#: recipe (``repro-trace/2``) and spec keys to corpus-aware profile keys.
SCHEMA_VERSION = 2


@dataclass(frozen=True)
class TraceSpec:
    """A trace *recipe*: enough to regenerate the trace bit-identically.

    ``profile`` names either a legacy benchmark or a corpus workload
    (resolved through :func:`repro.corpus.registry.resolve_profile`);
    generation is deterministic in ``(profile, length, seed)``, so a spec
    is a sound — and tiny — stand-in for the trace it describes.

    ``stream=True`` resolves to a :class:`~repro.isa.stream.StreamingTrace`
    instead of a materialised :class:`~repro.isa.trace.Trace`: the
    simulation consumes generated regions through a bounded window, so the
    recipe's length is no longer capped by memory.  Streaming execution is
    bit-identical to materialised execution (pinned by ``tests/corpus``),
    but the flag still keys the cache — a key describes the requested
    computation.
    """

    profile: str
    length: int
    seed: int = 11
    stream: bool = False

    def materialise(self) -> Trace:
        """Generate the described trace in full."""
        return generate_trace(
            resolve_profile(self.profile), self.length, seed=self.seed
        )

    def resolve(self) -> "AnyTrace":
        """The trace this spec describes, in its requested resident form."""
        if self.stream:
            return StreamingTrace(
                resolve_profile(self.profile), self.length, seed=self.seed
            )
        return self.materialise()

    def fingerprint(self) -> str:
        """Stable identity of the recipe (not of the generated content).

        Corpus profiles contribute their content hash through
        :func:`~repro.corpus.registry.profile_key`, so registry entries
        join the engine cache key without any schema change here.
        """
        key = f"spec/{profile_key(self.profile)}/{self.length}/{self.seed}"
        if self.stream:
            key += "/stream"
        return key


#: A concrete trace in either resident form.
AnyTrace = Union[Trace, StreamingTrace]

#: A trace by value or by recipe; every job accepts either.
TraceLike = Union[Trace, TraceSpec]


def trace_fingerprint(trace: TraceLike) -> str:
    """Cache identity of a :class:`Trace` or :class:`TraceSpec`.

    Concrete traces use their content hash (``trace/<sha256>``); specs use
    the recipe (``spec/...``).  The prefixes keep the two key spaces
    disjoint.
    """
    if isinstance(trace, TraceSpec):
        return trace.fingerprint()
    return f"trace/{trace.fingerprint()}"


#: Per-process memo of materialised specs, so a worker that receives many
#: jobs against the same spec generates the trace once.  Pool workers live
#: as long as their executor, so the memo is bounded twice: by entries and
#: by instructions held.  The instruction budget holds the 11 ``full``-scale
#: paper traces (100k instructions each).
_TRACE_MEMO: Dict[TraceSpec, Trace] = {}
_TRACE_MEMO_CAP = 32
_TRACE_MEMO_INSTRS = 1_100_000


def resolve_trace(trace: TraceLike) -> AnyTrace:
    """Resolve a :class:`TraceSpec` or pass a concrete trace through.

    Materialised specs are memoised per process (a worker receiving many
    jobs against one spec generates the trace once), evicting the oldest
    entries to stay within ``_TRACE_MEMO_CAP`` entries and
    ``_TRACE_MEMO_INSTRS`` instructions; a trace longer than that budget is
    never memoised.  Streaming specs are *not* memoised: a
    :class:`~repro.isa.stream.StreamingTrace` is lazy — construction costs
    nothing — and sharing one across jobs would share its chunk window and
    restart accounting.
    """
    if not isinstance(trace, TraceSpec):
        return trace
    if trace.stream:
        return trace.resolve()
    if trace in _TRACE_MEMO:
        return _TRACE_MEMO[trace]
    resolved = trace.materialise()
    if trace.length > _TRACE_MEMO_INSTRS:
        return resolved
    held = sum(spec.length for spec in _TRACE_MEMO)
    while _TRACE_MEMO and (
        len(_TRACE_MEMO) >= _TRACE_MEMO_CAP
        or held + trace.length > _TRACE_MEMO_INSTRS
    ):
        oldest = next(iter(_TRACE_MEMO))
        del _TRACE_MEMO[oldest]
        held -= oldest.length
    _TRACE_MEMO[trace] = resolved
    return resolved


def _digest(*parts: object) -> str:
    """Hash the repr of the parts (ints, floats, strs, bools, tuples —
    all with stable reprs) into a hex cache key."""
    payload = "\x1e".join(repr(p) for p in parts)
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class StandaloneJob:
    """One trace to completion on one core (``repro.uarch.run``)."""

    config: CoreConfig
    trace: TraceLike
    region_size: int = 0
    prewarm: bool = True

    #: result-store record type
    kind = "standalone"

    def cache_key(self) -> str:
        """Content hash of config, trace and run knobs."""
        return _digest(
            SCHEMA_VERSION, self.kind, self.config.fingerprint(),
            trace_fingerprint(self.trace), self.region_size, self.prewarm,
        )

    def run(self) -> StandaloneResult:
        """Execute the job in this process."""
        return run_standalone(
            self.config, resolve_trace(self.trace),
            region_size=self.region_size, prewarm=self.prewarm,
        )


@dataclass(frozen=True)
class RegionLogJob:
    """Per-region execution-time log of one trace on one core (the paper's
    Section-2 20-instruction logs)."""

    config: CoreConfig
    trace: TraceLike
    region_size: int = BASE_REGION

    kind = "region_log"

    def cache_key(self) -> str:
        """Content hash of config, trace and region size."""
        return _digest(
            SCHEMA_VERSION, self.kind, self.config.fingerprint(),
            trace_fingerprint(self.trace), self.region_size,
        )

    def run(self) -> RegionLog:
        """Execute the job in this process."""
        return region_log(
            self.config, resolve_trace(self.trace), self.region_size
        )


@dataclass(frozen=True)
class ContestJob:
    """N-way contested execution of one trace (``repro.core.system``)."""

    configs: Tuple[CoreConfig, ...]
    trace: TraceLike
    grb_latency_ns: float = 1.0
    max_lag: int = 0
    sat_grace_ns: float = 400.0
    lagger_policy: str = "disable"
    resync_penalty_cycles: int = 100
    #: optional fault-injection plan (see :mod:`repro.faults`)
    faults: Optional[FaultPlan] = None

    kind = "contest"

    def cache_key(self) -> str:
        """Content hash of every config, the trace, and the contest knobs.

        A fault plan joins the key only when one is installed, so every
        pre-existing (fault-free) cache entry keeps its identity.
        """
        parts = (
            SCHEMA_VERSION, self.kind,
            tuple(c.fingerprint() for c in self.configs),
            trace_fingerprint(self.trace), self.grb_latency_ns,
            self.max_lag, self.sat_grace_ns, self.lagger_policy,
            self.resync_penalty_cycles,
        )
        if self.faults is not None:
            parts = parts + (("faults", self.faults.fingerprint()),)
        return _digest(*parts)

    def run(self) -> ContestResult:
        """Execute the job in this process."""
        system = ContestingSystem(
            list(self.configs), resolve_trace(self.trace),
            grb_latency_ns=self.grb_latency_ns, max_lag=self.max_lag,
            sat_grace_ns=self.sat_grace_ns, lagger_policy=self.lagger_policy,
            resync_penalty_cycles=self.resync_penalty_cycles,
            faults=self.faults,
        )
        return system.run()


#: Any of the three job variants.
SimJob = Union[StandaloneJob, RegionLogJob, ContestJob]

#: What each job kind computes, for store decoding.
RESULT_KINDS = ("standalone", "region_log", "contest")


def execute_job(job: SimJob) -> Tuple[object, float]:
    """Run one job and time it; the unit of work executors map over.

    Returns ``(result, wall_seconds)``.  Module-level so that
    ``ProcessPoolExecutor`` can pickle a reference to it.
    """
    started = time.perf_counter()
    result = job.run()
    return result, time.perf_counter() - started
