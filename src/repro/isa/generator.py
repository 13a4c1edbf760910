"""Deterministic synthetic trace generation from a phase mixture.

Generation walks a Markov chain over the mixture's phase types (geometric
dwell, no self-transitions) and emits one dynamic instruction per step.
It is fully determined by ``(mix, length, seed)``.

Generation is *chunked* at its core: :func:`generate_chunks` yields
column-major :class:`~repro.isa.trace.TraceChunk` regions one at a time,
drawing from the seeded RNG in a strictly per-instruction order, so a
million-instruction trace can be produced and consumed region by region
without ever materialising (see :class:`repro.isa.stream.StreamingTrace`).
:func:`generate_trace` is a thin consumer that assembles the chunks into a
concrete :class:`~repro.isa.trace.Trace` with
:meth:`~repro.isa.trace.Trace.from_chunks`; the two paths are
bit-identical by construction and pinned by ``tests/corpus``.
"""

from collections import deque
from typing import Deque, Dict, Iterator, Optional

from repro.isa.instructions import OpClass, PRODUCING_OPS
from repro.isa.phases import PhaseMix, PhaseType
from repro.isa.trace import Trace, TraceChunk
from repro.util.rng import Random, substream

#: Default streaming-generation region size, in instructions.  A runtime
#: knob only: chunking never changes the emitted instruction stream or the
#: trace fingerprint (pinned by ``tests/corpus/test_grammar.py``), so it
#: deliberately does NOT participate in any cache identity.
DEFAULT_CHUNK_SIZE = 4096


class _PhaseRuntime:
    """Mutable per-phase state that persists across re-entries of a phase."""

    __slots__ = (
        "phase",
        "pc_base",
        "data_base",
        "body_pos",
        "stream_off",
        "branch_dirs",
        "next_branch",
        "obj_base",
        "obj_pos",
    )

    def __init__(
        self, phase: PhaseType, index: int, region_id: int, rng: Random
    ) -> None:
        self.phase = phase
        # Distinct PC regions per phase type keep predictor behaviour
        # attributable to the phase; the data region may be shared between
        # phases carrying the same region tag (see PhaseType.region).
        self.pc_base = (index + 1) << 20
        self.data_base = (region_id + 1) << 26
        self.body_pos = 0
        self.stream_off = 0
        self.obj_base = 0
        self.obj_pos = phase.obj_words  # force a fresh object first
        # Fixed per-static-branch bias direction; predictability then comes
        # entirely from the phase's branch_bias parameter.
        self.branch_dirs = [
            rng.random() < phase.taken_frac
            for _ in range(phase.n_static_branches)
        ]
        self.next_branch = 0


def _sample_dwell(rng: Random, mean: int) -> int:
    """Geometric-ish dwell with the configured mean, never below 8."""
    return max(8, int(rng.expovariate(1.0 / mean)))


def generate_chunks(
    mix: PhaseMix,
    length: int,
    seed: int = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[TraceChunk]:
    """Generate the trace for ``(mix, length, seed)`` as a chunk stream.

    Yields consecutive :class:`TraceChunk` regions of ``chunk_size``
    instructions (the final one may be shorter).  The RNG draw order is
    strictly per-instruction and independent of ``chunk_size``, so the
    concatenated chunks are bit-identical to :func:`generate_trace` for
    any chunking — the invariant the corpus parity suite pins.
    """
    if length <= 0:
        raise ValueError("trace length must be positive")
    if chunk_size <= 0:
        raise ValueError("chunk size must be positive")
    rng = substream(seed, "trace", mix.name)

    region_names = []
    region_ids = []
    for i, (p, _) in enumerate(mix.entries):
        tag = p.region or f"__private_{i}"
        if tag not in region_names:
            region_names.append(tag)
        region_ids.append(region_names.index(tag))
    runtimes = [
        _PhaseRuntime(p, i, region_ids[i], rng)
        for i, (p, _) in enumerate(mix.entries)
    ]
    weights = mix.weights

    indices = list(range(len(runtimes)))
    transitions = mix.transitions

    def pick_phase(current: int) -> int:
        # With an explicit transition matrix, draw the successor from the
        # current phase's row.  Otherwise: weighted draw *including* the
        # current phase — by renewal theory the long-run instruction share
        # of phase i is then exactly weight_i * dwell_i / sum_j w_j * d_j.
        # (Excluding the current phase would cap any dominant phase near
        # 50% regardless of its weight.)  A self-draw simply extends the
        # dwell; a phase boundary is only recorded on an actual change.
        if transitions is not None and current >= 0:
            return rng.choices(indices, weights=transitions[current], k=1)[0]
        return rng.choices(indices, weights=weights, k=1)[0]

    chunk = TraceChunk(start=0, phase_starts=[0])
    producers: Deque[int] = deque(maxlen=64)
    last_load_seq = -1

    current = pick_phase(-1)
    dwell = _sample_dwell(rng, runtimes[current].phase.mean_dwell)

    for seq in range(length):
        if dwell <= 0:
            chosen = pick_phase(current)
            dwell = _sample_dwell(rng, runtimes[chosen].phase.mean_dwell)
            if chosen != current:
                current = chosen
                chunk.phase_starts.append(seq)
        dwell -= 1

        state = runtimes[current]
        phase = state.phase

        # --- choose the op class from the phase mix
        r = rng.random()
        if phase.syscall_rate and rng.random() < phase.syscall_rate:
            op = OpClass.SYSCALL
        elif r < phase.load_frac:
            op = OpClass.LOAD
        elif r < phase.load_frac + phase.store_frac:
            op = OpClass.STORE
        elif r < phase.load_frac + phase.store_frac + phase.branch_frac:
            op = OpClass.BRANCH
        elif r < (
            phase.load_frac
            + phase.store_frac
            + phase.branch_frac
            + phase.imul_frac
        ):
            op = OpClass.IMUL
        elif r < (
            phase.load_frac
            + phase.store_frac
            + phase.branch_frac
            + phase.imul_frac
            + phase.idiv_frac
        ):
            op = OpClass.IDIV
        else:
            op = OpClass.IALU

        # --- program counter
        if op == OpClass.BRANCH:
            j = state.next_branch
            state.next_branch = (j + 1) % phase.n_static_branches
            pc = state.pc_base + 4 * (phase.body_size + j)
        else:
            pc = state.pc_base + 4 * state.body_pos
            state.body_pos = (state.body_pos + 1) % phase.body_size

        # --- register dependences
        dep1 = -1
        dep2 = -1
        if op != OpClass.NOP:
            dep1_prob = phase.dep1_frac
            if op == OpClass.BRANCH:
                # conditions are usually computed shortly before the branch
                dep1_prob *= phase.branch_dep_scale
            if (
                op == OpClass.LOAD
                and phase.pointer_chase
                and last_load_seq >= 0
            ):
                dep1 = last_load_seq
            elif producers and rng.random() < dep1_prob:
                if rng.random() < phase.chain_frac:
                    dep1 = producers[-1]
                else:
                    window = min(phase.dep_window, len(producers))
                    dep1 = producers[-1 - rng.randrange(window)]
            if producers and rng.random() < phase.two_src_frac:
                window = min(phase.dep_window, len(producers))
                dep2 = producers[-1 - rng.randrange(window)]

        # --- memory address
        addr = 0
        if op == OpClass.LOAD or op == OpClass.STORE:
            if rng.random() < phase.seq_frac:
                state.stream_off = (
                    state.stream_off + phase.stride
                ) % phase.footprint
                offset = state.stream_off
            else:
                # Skewed-random *object* within the footprint, walked
                # densely word by word: temporal locality falls off with
                # rank (see PhaseType docs), so larger caches capture a
                # larger share.  Ranks are scattered over the address space
                # with a multiplicative hash so the hot set spreads across
                # all cache sets instead of packing into the low ones.
                if state.obj_pos >= phase.obj_words:
                    obj_bytes = phase.obj_words * 8
                    objects = max(1, phase.footprint // obj_bytes)
                    rank = int(objects * (rng.random() ** phase.zipf_skew))
                    state.obj_base = ((rank * 2654435761) % objects) * obj_bytes
                    state.obj_pos = 0
                offset = state.obj_base + state.obj_pos * 8
                state.obj_pos += 1
            addr = state.data_base + offset

        # --- branch outcome
        taken = False
        if op == OpClass.BRANCH:
            direction = state.branch_dirs[
                (pc // 4 - phase.body_size) % phase.n_static_branches
            ]
            taken = (
                direction
                if rng.random() < phase.branch_bias
                else not direction
            )

        chunk.ops.append(int(op))
        chunk.pcs.append(pc)
        chunk.deps1.append(dep1)
        chunk.deps2.append(dep2)
        chunk.addrs.append(addr)
        chunk.takens.append(taken)

        if op in PRODUCING_OPS:
            producers.append(seq)
            if op == OpClass.LOAD:
                last_load_seq = seq

        if len(chunk.ops) >= chunk_size:
            yield chunk
            chunk = TraceChunk(start=seq + 1)

    if chunk.ops:
        yield chunk


def generate_trace(
    mix: PhaseMix,
    length: int,
    seed: int = 0,
    name: Optional[str] = None,
) -> Trace:
    """Generate a ``length``-instruction trace for the given phase mixture.

    Parameters
    ----------
    mix:
        The workload's phase mixture (see :mod:`repro.isa.workloads`).
    length:
        Number of dynamic instructions to emit.
    seed:
        Root seed; traces are bit-identical for identical arguments.
    name:
        Trace name; defaults to the mixture name.
    """
    return Trace.from_chunks(
        name or mix.name, seed, generate_chunks(mix, length, seed)
    )


def trace_phase_summary(trace: Trace) -> Dict[str, float]:
    """Summary diagnostics: mean phase dwell and transition count."""
    starts = trace.phase_starts
    if len(starts) < 2:
        return {"transitions": 0, "mean_dwell": float(len(trace))}
    dwells = [b - a for a, b in zip(starts, starts[1:])]
    dwells.append(len(trace) - starts[-1])
    return {
        "transitions": float(len(starts) - 1),
        "mean_dwell": sum(dwells) / len(dwells),
    }
