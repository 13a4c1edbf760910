"""Unified simulation engine: jobs, executors, layered result caching.

Everything that runs a simulation — experiment figures, the annealing
explorer, the CLI tools — goes through this package:

* :mod:`repro.engine.jobs` — declarative :data:`~repro.engine.jobs.SimJob`
  descriptions (standalone / region-log / contest) with content-hash cache
  keys,
* :mod:`repro.engine.executors` — a serial executor and a parallel one
  over worker processes it owns, interchangeable and bit-identical,
* :mod:`repro.engine.store` — the persistent JSON-lines result store,
* :mod:`repro.engine.engine` — :class:`~repro.engine.engine.SimEngine`,
  which layers the in-memory cache and the store beneath an executor.

See ``docs/engine.md`` for the cache layout and invalidation rules.
"""

from repro.engine.engine import EngineStats, SimEngine
from repro.engine.executors import (
    ParallelExecutor,
    RetryPolicy,
    SerialExecutor,
)
from repro.engine.failures import JobFailure
from repro.engine.jobs import (
    SCHEMA_VERSION,
    ContestJob,
    RegionLogJob,
    SimJob,
    StandaloneJob,
    TraceSpec,
    execute_job,
    trace_fingerprint,
)
from repro.engine.store import ResultStore, default_cache_dir

__all__ = [
    "SCHEMA_VERSION",
    "ContestJob",
    "EngineStats",
    "JobFailure",
    "ParallelExecutor",
    "RegionLogJob",
    "ResultStore",
    "RetryPolicy",
    "SerialExecutor",
    "SimEngine",
    "SimJob",
    "StandaloneJob",
    "TraceSpec",
    "default_cache_dir",
    "execute_job",
    "trace_fingerprint",
]
