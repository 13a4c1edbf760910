"""Golden pinning of job cache keys (the engine's identity contract).

Failure here means job identity moved.  If that was intended, bump
``SCHEMA_VERSION`` (retiring the old store generation) and regenerate the
fixture — see ``tests/engine/cache_key_fixture.py`` — reviewing the diff
label by label.  If it was not intended: the change just orphaned every
previously cached result, and possibly aliased distinct jobs; fix the
regression instead.
"""

import re

from repro.engine.jobs import SCHEMA_VERSION

from tests.engine.cache_key_fixture import (
    current_values,
    job_matrix,
    load_goldens,
)

REGENERATE = (
    "regenerate (after review!) with: "
    "PYTHONPATH=src python -m tests.engine.cache_key_fixture"
)


def test_cache_keys_match_golden_file():
    golden = load_goldens()
    current = current_values()
    assert current["schema_version"] == golden["schema_version"], (
        "SCHEMA_VERSION moved without regenerating the golden keys; "
        + REGENERATE
    )
    assert current["fingerprints"] == golden["fingerprints"], REGENERATE
    mismatched = {
        label: (golden["cache_keys"].get(label), key)
        for label, key in current["cache_keys"].items()
        if golden["cache_keys"].get(label) != key
    }
    assert not mismatched, (
        f"cache keys diverged from golden for {sorted(mismatched)}; "
        + REGENERATE
    )
    assert set(golden["cache_keys"]) == set(current["cache_keys"]), (
        "matrix labels changed; " + REGENERATE
    )


def test_matrix_keys_are_distinct_hex_digests():
    keys = {label: job.cache_key() for label, job in job_matrix().items()}
    for label, key in keys.items():
        assert re.fullmatch(r"[0-9a-f]{64}", key), (label, key)
    # every matrix entry describes a *different* simulation: no aliasing
    assert len(set(keys.values())) == len(keys)


def test_schema_version_joins_every_key():
    # the golden file itself records the generation it pins
    assert load_goldens()["schema_version"] == SCHEMA_VERSION
