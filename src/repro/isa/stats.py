"""Trace characterisation: the quantities workload calibration reasons about.

These diagnostics summarise a trace the way a configurational workload
characterisation (the paper's XpScalar companion, "Configurational Workload
Characterization", ISPASS 2008) would: instruction mix, dependence
structure (ideal ILP under an infinite machine), branch predictability
entropy, and working-set/reuse profiles.  They are model-free — computed
from the trace alone — and are used by the calibration tests and the
``trace_report`` example output.
"""

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.isa.instructions import MEMORY_OPS, OpClass
from repro.isa.trace import Trace


@dataclass
class TraceCharacter:
    """Summary statistics of one trace."""

    name: str
    length: int
    mix: Dict[str, float]
    #: mean dataflow-graph depth increase per instruction; 1/ilp_ideal is
    #: the critical-path fraction
    ilp_ideal: float
    #: mean dependence distance (producer to consumer, in instructions)
    mean_dep_distance: float
    #: fraction of instructions with at least one register source
    dep_frac: float
    #: per-static-branch outcome entropy in bits (0 = perfectly biased)
    branch_entropy_bits: float
    taken_frac: float
    #: distinct 64-byte blocks touched
    footprint_blocks: int
    #: fraction of memory accesses whose 64B block was seen in the last 64
    #: accesses (short-range temporal locality)
    reuse_short: float
    #: fraction of accesses continuing a +/-64B neighbourhood of the
    #: previous access (spatial locality)
    spatial_frac: float
    phase_transitions: int = 0
    mean_phase_dwell: float = 0.0

    def rows(self) -> List[List[object]]:
        """Key/value rows for table rendering."""
        return [
            ["instructions", self.length],
            ["ideal ILP", round(self.ilp_ideal, 2)],
            ["dep fraction", round(self.dep_frac, 3)],
            ["mean dep distance", round(self.mean_dep_distance, 1)],
            ["branch entropy (bits)", round(self.branch_entropy_bits, 3)],
            ["taken fraction", round(self.taken_frac, 3)],
            ["footprint (64B blocks)", self.footprint_blocks],
            ["short-range reuse", round(self.reuse_short, 3)],
            ["spatial fraction", round(self.spatial_frac, 3)],
            ["phase transitions", self.phase_transitions],
            ["mean phase dwell", round(self.mean_phase_dwell, 1)],
        ]


def _entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def characterize(trace: Trace) -> TraceCharacter:
    """Compute :class:`TraceCharacter` for a trace (single pass, O(n))."""
    n = len(trace)
    mix_counts: Counter = Counter()

    # ideal ILP: dataflow depth under infinite resources, unit latencies
    depth = [0] * n
    max_depth = 0
    dep_count = 0
    dep_distance_sum = 0

    # branches
    outcomes: Dict[int, List[int]] = defaultdict(lambda: [0, 0])
    taken = 0
    branches = 0

    # memory
    blocks_seen = set()
    recent_blocks: List[int] = []
    recent_set: Dict[int, int] = {}
    reuse_hits = 0
    spatial_hits = 0
    mem_ops = 0
    prev_addr = None

    for seq, (op, pc, dep1, dep2, addr, is_taken) in enumerate(zip(
        trace.ops, trace.pcs, trace.deps1, trace.deps2, trace.addrs,
        trace.takens,
    )):
        mix_counts[OpClass(op).name] += 1

        d = 0
        for dep in (dep1, dep2):
            if dep >= 0:
                if depth[dep] > d:
                    d = depth[dep]
                dep_distance_sum += seq - dep
                dep_count += 1
        depth[seq] = d + 1
        if depth[seq] > max_depth:
            max_depth = depth[seq]

        if op == OpClass.BRANCH:
            branches += 1
            pair = outcomes[pc]
            pair[int(is_taken)] += 1
            if is_taken:
                taken += 1
        elif op in MEMORY_OPS:
            mem_ops += 1
            block = addr >> 6
            blocks_seen.add(block)
            if block in recent_set:
                reuse_hits += 1
            recent_blocks.append(block)
            recent_set[block] = recent_set.get(block, 0) + 1
            if len(recent_blocks) > 64:
                old = recent_blocks.pop(0)
                if recent_set[old] == 1:
                    del recent_set[old]
                else:
                    recent_set[old] -= 1
            if prev_addr is not None and abs(addr - prev_addr) <= 64:
                spatial_hits += 1
            prev_addr = addr

    if branches:
        entropy = sum(
            _entropy(t / (f + t)) * (f + t)
            for f, t in outcomes.values()
        ) / branches
    else:
        entropy = 0.0

    has_dep = sum(
        1 for d1, d2 in zip(trace.deps1, trace.deps2) if d1 >= 0 or d2 >= 0
    )

    starts = trace.phase_starts
    if len(starts) >= 2:
        dwells = [b - a for a, b in zip(starts, starts[1:])]
        dwells.append(n - starts[-1])
        mean_dwell = sum(dwells) / len(dwells)
    else:
        mean_dwell = float(n)

    return TraceCharacter(
        name=trace.name,
        length=n,
        mix={k: v / n for k, v in mix_counts.items()},
        ilp_ideal=n / max_depth if max_depth else float(n),
        mean_dep_distance=(dep_distance_sum / dep_count) if dep_count else 0.0,
        dep_frac=has_dep / n,
        branch_entropy_bits=entropy,
        taken_frac=(taken / branches) if branches else 0.0,
        footprint_blocks=len(blocks_seen),
        reuse_short=(reuse_hits / mem_ops) if mem_ops else 0.0,
        spatial_frac=(spatial_hits / mem_ops) if mem_ops else 0.0,
        phase_transitions=max(0, len(starts) - 1),
        mean_phase_dwell=mean_dwell,
    )


def working_set_curve(
    trace: Trace, window_sizes: Sequence[int] = (256, 1024, 4096, 16384)
) -> Dict[int, float]:
    """Mean distinct 64B blocks touched per window of each size.

    A compact working-set profile: how the touched-set grows with the
    observation window, the quantity cache capacities are sized against.
    """
    curve: Dict[int, float] = {}
    mem = [
        addr >> 6
        for op, addr in zip(trace.ops, trace.addrs)
        if op in MEMORY_OPS
    ]
    if not mem:
        return {w: 0.0 for w in window_sizes}
    for window in window_sizes:
        if window <= 0:
            raise ValueError("window sizes must be positive")
        counts = []
        for start in range(0, len(mem), window):
            chunk = mem[start : start + window]
            if len(chunk) >= window // 2 or start == 0:
                counts.append(len(set(chunk)))
        curve[window] = sum(counts) / len(counts)
    return curve
