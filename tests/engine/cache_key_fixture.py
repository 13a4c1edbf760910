"""The golden cache-key matrix: pinned job identities.

A job's :meth:`cache_key` is the engine's *wire format with the past*:
every store record, every dedup decision, and every cross-session cache
hit keys on it.  An accidental change — a reordered repr field, an int
drifting to float, a renamed knob — silently orphans every cached result
and (worse) can alias two different jobs.  This fixture freezes the keys
of a representative job matrix — every job kind, faults on and off,
spec- and value-identity traces — in a checked-in JSON file that
``tests/engine/test_cache_key_golden.py`` compares against on every run.

After an **intended** identity change (which must come with a
``SCHEMA_VERSION`` bump — the version is part of every key, so bumping it
retires the old store generation wholesale), regenerate with::

    PYTHONPATH=src python -m tests.engine.cache_key_fixture

and review the diff label by label: each changed digest is a claim that
that job's identity was supposed to move.
"""

import json
from pathlib import Path
from typing import Dict

from repro.engine.jobs import (
    SCHEMA_VERSION,
    ContestJob,
    RegionLogJob,
    StandaloneJob,
    TraceSpec,
    trace_fingerprint,
)
from repro.faults import FaultPlan
from repro.uarch.config import core_config

GOLDEN_PATH = Path(__file__).with_name("golden_cache_keys.json")

SPEC = TraceSpec("gcc", 300, seed=7)
ALT_SPEC = TraceSpec("gzip", 260, seed=9)
FAULTS = FaultPlan(seed=3, drop_rate=0.01, kill_core=1, kill_at_commit=150)


def job_matrix():
    """Label → job: every kind × fault arrangement that joins the key,
    plus the knobs that must perturb it."""
    gcc, gzip_, vpr, mcf = (
        core_config(name) for name in ("gcc", "gzip", "vpr", "mcf")
    )
    return {
        "standalone/gcc": StandaloneJob(gcc, SPEC),
        "standalone/gcc/alt-trace": StandaloneJob(gcc, ALT_SPEC),
        "standalone/gcc/cold": StandaloneJob(gcc, SPEC, prewarm=False),
        "standalone/gcc/region-40": StandaloneJob(gcc, SPEC, region_size=40),
        "standalone/vpr": StandaloneJob(vpr, SPEC),
        "region_log/mcf": RegionLogJob(mcf, SPEC),
        "region_log/gzip/region-40": RegionLogJob(gzip_, ALT_SPEC,
                                                  region_size=40),
        "contest/gcc-gzip": ContestJob((gcc, gzip_), SPEC),
        "contest/gcc-gzip/faults": ContestJob((gcc, gzip_), SPEC,
                                              faults=FAULTS),
        "contest/gcc-gzip/resync": ContestJob(
            (gcc, gzip_), SPEC, lagger_policy="resync",
            resync_penalty_cycles=80,
        ),
        "contest/gcc-gzip/lag-64": ContestJob((gcc, gzip_), SPEC, max_lag=64),
        "contest/gcc-gzip/grb-3ns": ContestJob((gcc, gzip_), SPEC,
                                               grb_latency_ns=3.0),
        "contest/gcc-vpr-mcf": ContestJob((gcc, vpr, mcf), ALT_SPEC),
        "contest/order-swapped": ContestJob((gzip_, gcc), SPEC),
    }


def current_values() -> Dict[str, object]:
    """Everything the golden file pins, freshly computed."""
    values: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "cache_keys": {
            label: job.cache_key() for label, job in job_matrix().items()
        },
        "fingerprints": {
            "trace-spec/gcc": SPEC.fingerprint(),
            "trace-spec/gzip": ALT_SPEC.fingerprint(),
            "trace/materialised": trace_fingerprint(SPEC.materialise()),
            "faults": FAULTS.fingerprint(),
        },
    }
    return values


def load_goldens() -> Dict[str, object]:
    with GOLDEN_PATH.open(encoding="utf-8") as handle:
        return json.load(handle)


def save_goldens() -> Path:
    GOLDEN_PATH.write_text(
        json.dumps(current_values(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return GOLDEN_PATH


if __name__ == "__main__":
    print(f"wrote {save_goldens()}")
