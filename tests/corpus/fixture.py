"""Golden corpus fixtures: named workloads pinned end to end.

``tests/golden/corpus/corpus_golden.json`` pins, for a family-spanning
slice of the registry, the workload's grammar content hash, the streamed
trace fingerprint, the phase summary, and the timing result on one
Appendix-A configuration.  Any change to the grammar serialization, the
generator, the hash recipe, or the timing model shows up as a named cell;
an intended change is ratified by regenerating:

    PYTHONPATH=src python -m tests.corpus.regenerate
"""

import json
from pathlib import Path
from typing import Dict

from repro.corpus import PhaseSpec, WorkloadSpec, corpus_spec
from repro.isa.generator import trace_phase_summary
from repro.isa.stream import StreamingTrace
from repro.uarch.config import core_config
from repro.uarch.run import run_standalone

GOLDEN_PATH = (
    Path(__file__).parents[1] / "golden" / "corpus" / "corpus_golden.json"
)

#: one workload per single-phase family plus both paired shapes
WORKLOADS = (
    "corpus/wide_ilp-f64k-b92",
    "corpus/serial_chain-f16k-b98",
    "corpus/stream-f256k-b85",
    "corpus/branchy-f16k-b85",
    "corpus/windowed_mem-f1m-b92",
    "corpus/pointer_chase-f4m-b92",
    "corpus/compute_mul-f64k-b98",
    "corpus/branchy+compute_mul-r25-d1",
    "corpus/wide_ilp+stream-r50-d3",
)
LENGTH = 2500
SEED = 11
CONFIG = "gcc"


def compute_only_spec() -> WorkloadSpec:
    """A compute-only grammar workload (no loads or stores), so memory is
    all trace: shared by the memory-cap and streaming-throughput checks."""
    return WorkloadSpec(
        name="corpus/compute-only",
        phases=(
            PhaseSpec("compute_mul", params=(
                ("branch_bias", 0.95),
                ("branch_frac", 0.06),
                ("dep1_frac", 0.0),
                ("idiv_frac", 0.0),
                ("imul_frac", 0.05),
                ("load_frac", 0.0),
                ("store_frac", 0.0),
                ("two_src_frac", 0.0),
            )),
        ),
    )


def compute_goldens() -> Dict[str, Dict[str, object]]:
    """Pin every fixture workload: identity, content, and timing."""
    goldens: Dict[str, Dict[str, object]] = {}
    config = core_config(CONFIG)
    for name in WORKLOADS:
        spec = corpus_spec(name)
        trace = StreamingTrace(spec.build_mix(), LENGTH, seed=SEED)
        result = run_standalone(config, trace)
        goldens[name] = {
            "content_hash": spec.content_hash(),
            "fingerprint": trace.fingerprint(),
            "phases": trace_phase_summary(trace.materialise()),
            "instructions": result.instructions,
            "cycles": result.cycles,
            "time_ps": result.time_ps,
        }
    return goldens


def load_goldens() -> Dict[str, Dict[str, object]]:
    return json.loads(GOLDEN_PATH.read_text())


def save_goldens() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(compute_goldens(), indent=1, sort_keys=True) + "\n"
    )
