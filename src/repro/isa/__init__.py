"""Synthetic instruction-set substrate.

The paper drives its simulator with 100M-instruction SimPoints of SPEC2000
integer benchmarks.  Those traces (and the Alpha binaries behind them) are not
available here, so this package provides the closest synthetic equivalent:
deterministic trace generators whose *fine-grain phase structure* — the
property the whole paper rests on (Section 2) — is explicit and calibrated
per benchmark.

A trace is six parallel columns (:class:`~repro.isa.trace.Trace`) carrying
everything a timing model needs per dynamic instruction: opcode class,
static PC (so branch predictors can learn), register producer links, memory
address, and the branch outcome.  No functional values are simulated;
contesting is a timing phenomenon and the models in :mod:`repro.uarch` and
:mod:`repro.core` only consume timing-relevant fields.  One instruction as
an object is an :class:`~repro.isa.instructions.Instr` row, built on demand
by ``trace[i]`` and iteration, or written by hand to build a small trace.
"""

from repro.isa.generator import generate_trace
from repro.isa.serialize import load_trace, save_trace
from repro.isa.stats import TraceCharacter, characterize, working_set_curve
from repro.isa.instructions import Instr, OpClass
from repro.isa.phases import PhaseMix, PhaseType
from repro.isa.trace import Trace
from repro.isa.workloads import BENCHMARKS, workload_profile

__all__ = [
    "BENCHMARKS",
    "Instr",
    "OpClass",
    "PhaseMix",
    "PhaseType",
    "Trace",
    "TraceCharacter",
    "characterize",
    "generate_trace",
    "load_trace",
    "save_trace",
    "workload_profile",
    "working_set_curve",
]
