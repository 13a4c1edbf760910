"""The job wire codec: lossless round-trips and strict rejection.

The codec is the cache's immune system — the round-trip half pins that a
job travelling over HTTP reconstructs with the **identical cache key**,
and the rejection half pins that anything else (unknown fields, coerced
types, out-of-palette names) is refused with a :class:`CodecError`
instead of silently becoming a different job.
"""

import json

import pytest

from repro.engine.jobs import ContestJob, StandaloneJob, TraceSpec
from repro.faults import FaultPlan
from repro.service.codec import (
    CodecError,
    decode_core_config,
    decode_job,
    decode_jobs,
    decode_trace_spec,
    encode_job,
)
from repro.uarch.config import core_config

from tests.service.conftest import SPEC_A, job_pool


def wire_round_trip(job):
    """Encode → JSON bytes → decode, as the client/server pair does."""
    return decode_job(json.loads(json.dumps(encode_job(job))))


# --------------------------------------------------------------- round-trips


@pytest.mark.parametrize(
    "job", job_pool(), ids=lambda j: f"{j.kind}-{j.cache_key()[:8]}"
)
def test_pool_round_trips_with_identical_cache_key(job):
    decoded = wire_round_trip(job)
    assert decoded == job
    assert decoded.cache_key() == job.cache_key()


def test_contest_with_faults_round_trips():
    job = ContestJob(
        (core_config("gcc"), core_config("gzip")),
        SPEC_A,
        faults=FaultPlan(seed=3, drop_rate=0.01, kill_core=1,
                         kill_at_commit=100),
    )
    decoded = wire_round_trip(job)
    assert decoded == job
    assert decoded.cache_key() == job.cache_key()


def test_config_by_name_matches_palette():
    assert decode_core_config("gcc") == core_config("gcc")


def test_trace_spec_seed_defaults():
    assert decode_trace_spec({"profile": "gcc", "length": 50}) == TraceSpec(
        "gcc", 50
    )


# ----------------------------------------------------------------- rejection


def rejects(payload):
    with pytest.raises(CodecError):
        decode_job(payload)


def test_rejects_non_object_and_unknown_kind():
    rejects(["standalone"])
    rejects({"kind": "warmup"})
    rejects({"config": "gcc"})  # kind missing entirely


def test_rejects_unknown_field():
    payload = encode_job(StandaloneJob(core_config("gcc"), SPEC_A))
    payload["nice_to_have"] = True
    rejects(payload)


def test_rejects_bool_in_numeric_slot():
    # JSON true is not a number; silently coercing it would repr() into a
    # different cache key than the submitter intended
    payload = encode_job(StandaloneJob(core_config("gcc"), SPEC_A))
    payload["region_size"] = True
    rejects(payload)


def test_rejects_unknown_core_name_and_bad_trace():
    rejects({"kind": "standalone", "config": "spice",
             "trace": {"profile": "gcc", "length": 50}})
    rejects({"kind": "standalone", "config": "gcc",
             "trace": {"profile": "gcc", "length": 0}})
    rejects({"kind": "standalone", "config": "gcc",
             "trace": {"profile": "gcc"}})


def test_rejects_partial_inline_config():
    payload = encode_job(StandaloneJob(core_config("gcc"), SPEC_A))
    del payload["config"]["l2"]
    rejects(payload)


@pytest.mark.parametrize(
    "job",
    [
        StandaloneJob(core_config("gcc"), SPEC_A),
        ContestJob((core_config("gcc"), core_config("gzip")), SPEC_A),
    ],
    ids=lambda j: j.kind,
)
def test_rejects_backend_as_an_unknown_field(job):
    # jobs carry no backend: the key is refused, never silently dropped
    payload = dict(encode_job(job), backend="reference")
    with pytest.raises(CodecError, match="unknown .* field.*: backend"):
        decode_job(payload)


def test_rejects_short_contest_and_bad_policy():
    contest = encode_job(
        ContestJob((core_config("gcc"), core_config("gzip")), SPEC_A)
    )
    solo = dict(contest, configs=contest["configs"][:1])
    rejects(solo)
    rejects(dict(contest, lagger_policy="shrug"))


def test_rejects_unknown_fault_field():
    contest = encode_job(
        ContestJob((core_config("gcc"), core_config("gzip")), SPEC_A)
    )
    rejects(dict(contest, faults={"drop_rate": 0.1, "spite": 1}))


def test_submission_shape_is_strict():
    with pytest.raises(CodecError):
        decode_jobs([])
    with pytest.raises(CodecError):
        decode_jobs({"jobs": []})
    with pytest.raises(CodecError):
        decode_jobs({"jobs": "all of them"})
    with pytest.raises(CodecError):
        decode_jobs({"jobs": [], "priority": "high"})
    jobs = decode_jobs(
        {"jobs": [encode_job(StandaloneJob(core_config("gcc"), SPEC_A))]}
    )
    assert jobs == [StandaloneJob(core_config("gcc"), SPEC_A)]


def test_by_value_traces_are_not_encodable():
    # jobs constructed with a concrete trace (not a TraceSpec recipe)
    # cannot travel over the wire — the codec refuses loudly
    job = StandaloneJob(core_config("gcc"), SPEC_A)
    object.__setattr__(job, "trace", ("not", "a", "spec"))
    with pytest.raises(CodecError):
        encode_job(job)
