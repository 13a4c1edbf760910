"""JSON wire format for simulation jobs (submission side of the API).

A submission payload describes one :data:`~repro.engine.jobs.SimJob` as a
plain JSON object; the codec validates it field by field and constructs
the frozen job dataclass the engine runs.  Decoding is strict — unknown
keys, wrong types, and out-of-range values raise :class:`CodecError`
(rendered as 400), because a silently coerced field would change the
job's cache key and poison the shared result cache with a mislabelled
entry.

Shapes (full reference in ``docs/service.md``)::

    {"kind": "standalone",
     "config": "gcc" | {<CoreConfig fields, l1/l2 as objects>},
     "trace": {"profile": "gcc", "length": 300, "seed": 7},
     "region_size": 0, "prewarm": true}

    {"kind": "region_log", "config": ..., "trace": ..., "region_size": 20}

    {"kind": "contest", "configs": [..., ...], "trace": ...,
     "grb_latency_ns": 1.0, "max_lag": 0, "sat_grace_ns": 400.0,
     "lagger_policy": "disable", "resync_penalty_cycles": 100,
     "faults": null | {<FaultPlan fields>}}

Core configurations come **by name** (the Appendix-A palette) or **by
value** (every :class:`~repro.uarch.config.CoreConfig` field inline).
Traces come only **by recipe** (:class:`~repro.engine.jobs.TraceSpec`):
by-value traces would make submissions megabytes large and are exactly
what the spec-keyed cache identity exists to avoid.
"""

import dataclasses
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Type

from repro.corpus.registry import profile_key
from repro.engine.jobs import (
    ContestJob,
    RegionLogJob,
    SimJob,
    StandaloneJob,
    TraceSpec,
)
from repro.faults import FaultPlan
from repro.uarch.cache import CacheConfig
from repro.uarch.config import APPENDIX_A_CORES, CoreConfig, core_config

#: job kinds the service accepts, mapped to their dataclass
JOB_KINDS: Dict[str, type] = {
    "standalone": StandaloneJob,
    "region_log": RegionLogJob,
    "contest": ContestJob,
}


#: Longest trace the service materialises in full (the length the corpus
#: memory test materialises, ~100 MB resident); a longer trace must be
#: streamed.  Single-job batches run inside the service process, so this
#: bounds the service's own memory, not only a worker's.
MAX_MATERIALISED_LENGTH = 1_000_000


class CodecError(ValueError):
    """A submission payload that does not describe a valid job."""


def _require_mapping(payload: object, what: str) -> Mapping[str, Any]:
    if not isinstance(payload, Mapping):
        raise CodecError(f"{what} must be a JSON object, got {type(payload).__name__}")
    return payload


def _check_keys(
    payload: Mapping[str, Any], allowed: Sequence[str], what: str
) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise CodecError(
            f"unknown {what} field(s): {', '.join(unknown)} "
            f"(allowed: {', '.join(sorted(allowed))})"
        )


def _typed(
    payload: Mapping[str, Any],
    key: str,
    types: Tuple[Type[Any], ...],
    what: str,
    default: object = dataclasses.MISSING,
) -> Any:
    """Fetch ``payload[key]`` checking its JSON type (bool never passes
    for a numeric slot — JSON ``true`` is not a number)."""
    if key not in payload:
        if default is dataclasses.MISSING:
            raise CodecError(f"{what} is missing required field {key!r}")
        return default
    value = payload[key]
    if isinstance(value, bool) and bool not in types:
        raise CodecError(f"{what}.{key} must not be a boolean")
    if not isinstance(value, types):
        names = "/".join(t.__name__ for t in types)
        raise CodecError(
            f"{what}.{key} must be {names}, got {type(value).__name__}"
        )
    return value


# ------------------------------------------------------------- components


def decode_trace_spec(payload: object) -> TraceSpec:
    """A :class:`TraceSpec` from
    ``{"profile", "length", "seed"?, "stream"?}``.

    ``profile`` accepts legacy benchmark names and corpus workload names
    alike, validated eagerly — a request naming a profile that cannot
    resolve fails at decode time, not inside a worker.  ``stream`` opts
    the job into streaming generation (bounded-memory, bit-identical
    results; see :class:`repro.engine.jobs.TraceSpec`); a trace longer
    than :data:`MAX_MATERIALISED_LENGTH` is accepted only streamed.
    """
    spec = _require_mapping(payload, "trace")
    _check_keys(spec, ("profile", "length", "seed", "stream"), "trace")
    profile = _typed(spec, "profile", (str,), "trace")
    length = _typed(spec, "length", (int,), "trace")
    seed = _typed(spec, "seed", (int,), "trace", default=11)
    stream = _typed(spec, "stream", (bool,), "trace", default=False)
    if length < 1:
        raise CodecError(f"trace.length must be >= 1, got {length}")
    if length > MAX_MATERIALISED_LENGTH and not stream:
        raise CodecError(
            f"trace.length {length} exceeds {MAX_MATERIALISED_LENGTH}, the "
            'longest trace materialised in full; send "stream": true to '
            "simulate it in bounded memory"
        )
    try:
        profile_key(profile)  # reject unresolvable profiles at the edge
        return TraceSpec(profile, length, seed=seed, stream=stream)
    except (KeyError, ValueError) as exc:
        raise CodecError(f"bad trace spec: {exc}")


def _decode_cache(payload: object, what: str) -> CacheConfig:
    cache = _require_mapping(payload, what)
    fields = tuple(f.name for f in dataclasses.fields(CacheConfig))
    _check_keys(cache, fields, what)
    kwargs = {
        name: _typed(cache, name, (int,), what) for name in fields
    }
    try:
        return CacheConfig(**kwargs)
    except ValueError as exc:
        raise CodecError(f"bad {what}: {exc}")


def decode_core_config(payload: object) -> CoreConfig:
    """A :class:`CoreConfig` by Appendix-A name or by full value."""
    if isinstance(payload, str):
        try:
            return core_config(payload)
        except KeyError:
            raise CodecError(
                f"unknown core type {payload!r}; expected one of "
                f"{', '.join(sorted(APPENDIX_A_CORES))} or a full config "
                "object"
            )
    config = _require_mapping(payload, "config")
    fields = {f.name: f for f in dataclasses.fields(CoreConfig)}
    _check_keys(config, tuple(fields), "config")
    kwargs: Dict[str, Any] = {}
    for name, field in fields.items():
        if name in ("l1", "l2"):
            if name not in config:
                raise CodecError(f"config is missing required field {name!r}")
            kwargs[name] = _decode_cache(config[name], f"config.{name}")
            continue
        types: Tuple[Type[Any], ...]
        if field.type in ("float", float):
            types = (int, float)
        elif field.type in ("bool", bool):
            types = (bool,)
        elif field.type in ("str", str):
            types = (str,)
        else:
            types = (int,)
        default: object = dataclasses.MISSING
        if field.default is not dataclasses.MISSING:
            default = field.default
        kwargs[name] = _typed(config, name, types, "config", default=default)
    try:
        return CoreConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise CodecError(f"bad config: {exc}")


def decode_fault_plan(payload: object) -> Optional[FaultPlan]:
    """A :class:`FaultPlan` from a JSON object (``None`` passes through)."""
    if payload is None:
        return None
    plan = _require_mapping(payload, "faults")
    fields = {f.name: f for f in dataclasses.fields(FaultPlan)}
    _check_keys(plan, tuple(fields), "faults")
    kwargs: Dict[str, Any] = {}
    for name, value in plan.items():
        if name in ("kill_core", "stall_core", "standalone_core"):
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, int)
            ):
                raise CodecError(f"faults.{name} must be an int or null")
            kwargs[name] = value
        elif name.endswith(("_rate", "_ns")):
            kwargs[name] = _typed(plan, name, (int, float), "faults")
        else:
            kwargs[name] = _typed(plan, name, (int,), "faults")
    try:
        return FaultPlan(**kwargs)
    except ValueError as exc:
        raise CodecError(f"bad fault plan: {exc}")


# ------------------------------------------------------------------- jobs


def decode_job(payload: object) -> SimJob:
    """One :data:`SimJob` from its JSON description (see module doc)."""
    job = _require_mapping(payload, "job")
    kind = _typed(job, "kind", (str,), "job")
    if kind == "standalone":
        _check_keys(
            job,
            ("kind", "config", "trace", "region_size", "prewarm"),
            "standalone job",
        )
        return StandaloneJob(
            config=decode_core_config(job.get("config")),
            trace=decode_trace_spec(job.get("trace")),
            region_size=_typed(job, "region_size", (int,), "job", default=0),
            prewarm=_typed(job, "prewarm", (bool,), "job", default=True),
        )
    if kind == "region_log":
        _check_keys(job, ("kind", "config", "trace", "region_size"), "region_log job")
        return RegionLogJob(
            config=decode_core_config(job.get("config")),
            trace=decode_trace_spec(job.get("trace")),
            region_size=_typed(job, "region_size", (int,), "job", default=20),
        )
    if kind == "contest":
        _check_keys(
            job,
            ("kind", "configs", "trace", "grb_latency_ns", "max_lag",
             "sat_grace_ns", "lagger_policy", "resync_penalty_cycles",
             "faults"),
            "contest job",
        )
        raw_configs = job.get("configs")
        if not isinstance(raw_configs, list) or len(raw_configs) < 2:
            raise CodecError("job.configs must be a list of >= 2 core configs")
        policy = _typed(job, "lagger_policy", (str,), "job", default="disable")
        if policy not in ("disable", "resync"):
            raise CodecError(
                f"job.lagger_policy must be 'disable' or 'resync', got {policy!r}"
            )
        try:
            return ContestJob(
                configs=tuple(decode_core_config(c) for c in raw_configs),
                trace=decode_trace_spec(job.get("trace")),
                grb_latency_ns=float(
                    _typed(job, "grb_latency_ns", (int, float), "job", default=1.0)
                ),
                max_lag=_typed(job, "max_lag", (int,), "job", default=0),
                sat_grace_ns=float(
                    _typed(job, "sat_grace_ns", (int, float), "job", default=400.0)
                ),
                lagger_policy=policy,
                resync_penalty_cycles=_typed(
                    job, "resync_penalty_cycles", (int,), "job", default=100
                ),
                faults=decode_fault_plan(job.get("faults")),
            )
        except ValueError as exc:
            raise CodecError(f"bad contest job: {exc}")
    raise CodecError(
        f"job.kind must be one of {', '.join(sorted(JOB_KINDS))}, got {kind!r}"
    )


def decode_jobs(payload: object) -> List[SimJob]:
    """The submission body: ``{"jobs": [<job>, ...]}`` (non-empty)."""
    body = _require_mapping(payload, "submission")
    _check_keys(body, ("jobs",), "submission")
    raw = body.get("jobs")
    if not isinstance(raw, list) or not raw:
        raise CodecError("submission.jobs must be a non-empty list")
    return [decode_job(item) for item in raw]


# ----------------------------------------------------------- round-tripping


def encode_job(job: SimJob) -> Dict[str, Any]:
    """The JSON description of a job (inverse of :func:`decode_job`).

    Used by the client helper and the key-schema tooling; decoding the
    result reconstructs an equal job (round-trip pinned in
    ``tests/service/test_codec.py``).  Core configs are always encoded by
    value — a name round-trips to the identical palette entry anyway.
    """
    def cache(c: CacheConfig) -> Dict[str, Any]:
        return dataclasses.asdict(c)

    def core(c: CoreConfig) -> Dict[str, Any]:
        data = dataclasses.asdict(c)
        data["l1"], data["l2"] = cache(c.l1), cache(c.l2)
        return data

    if not isinstance(job.trace, TraceSpec):
        raise CodecError("only TraceSpec-based jobs are encodable on the wire")
    trace: Dict[str, Any] = {
        "profile": job.trace.profile,
        "length": job.trace.length,
        "seed": job.trace.seed,
    }
    # encoded only when set, so pre-existing wire forms stay byte-identical
    if job.trace.stream:
        trace["stream"] = True
    if isinstance(job, StandaloneJob):
        return {
            "kind": "standalone", "config": core(job.config), "trace": trace,
            "region_size": job.region_size, "prewarm": job.prewarm,
        }
    if isinstance(job, RegionLogJob):
        return {
            "kind": "region_log", "config": core(job.config), "trace": trace,
            "region_size": job.region_size,
        }
    return {
        "kind": "contest",
        "configs": [core(c) for c in job.configs],
        "trace": trace,
        "grb_latency_ns": job.grb_latency_ns,
        "max_lag": job.max_lag,
        "sat_grace_ns": job.sat_grace_ns,
        "lagger_policy": job.lagger_policy,
        "resync_penalty_cycles": job.resync_penalty_cycles,
        "faults": (
            None if job.faults is None else dataclasses.asdict(job.faults)
        ),
    }
