"""Streaming traces: chunked generation behind the ``TraceSource`` protocol.

A :class:`StreamingTrace` is a trace *recipe bound to a window*: it knows
its mixture, length and seed up front, regenerates its instruction stream
on demand through :func:`repro.isa.generator.generate_chunks`, and exposes
the same structural surface the simulators consume from a concrete
:class:`~repro.isa.trace.Trace` — ``len()``, ``decoded()`` columns,
``fingerprint()`` — while keeping only a bounded window of recent chunks
resident.  A million-instruction run therefore holds a few chunks of
columns at a time instead of the whole trace's columns (the RSS bound is
pinned by ``tests/corpus/test_memory.py``).

Access pattern contract
-----------------------
The reference core reads columns inside its in-flight window (between the
commit and fetch points) and sweeps forward; the window serves those reads
from resident chunks and generates forward as the fetch point advances,
evicting chunks that fall behind.  A read *behind* the window restarts
generation from the beginning — correct for any access pattern, merely
slower — and is counted on :attr:`StreamingTrace.restarts` so tests can
assert the expected number of passes.  Code that genuinely needs the whole
trace resident (contests, serialisation) calls :meth:`materialise`.

Chunk size is a runtime knob: it never changes the generated stream or the
fingerprint (``tests/corpus/test_grammar.py``), so it deliberately stays
out of every cache identity.
"""

from typing import Dict, Generic, Iterator, List, Optional, TypeVar

from repro.isa.generator import DEFAULT_CHUNK_SIZE, generate_chunks
from repro.isa.instructions import Instr
from repro.isa.phases import PhaseMix
from repro.isa.trace import Trace, TraceChunk, TraceHasher

T = TypeVar("T")

#: Resident chunks retained behind the newest one.  With the default chunk
#: size this keeps ~32k instructions addressable backwards — comfortably
#: past any core's in-flight window (ROB + fetch queue) — while bounding
#: memory at a few chunks of columns.
_KEEP_CHUNKS = 8


class _ChunkWindow:
    """Bounded cache of recent :class:`TraceChunk` regions of one stream.

    Serves random reads by chunk index: forward misses advance the
    generator (evicting chunks more than ``keep`` behind), backward misses
    restart it from chunk zero.  Restarting is deterministic — generation
    is a pure function of the recipe — so the window only trades time for
    memory, never results.
    """

    def __init__(self, trace: "StreamingTrace", keep: int = _KEEP_CHUNKS) -> None:
        self._trace = trace
        self.chunk_size = trace.chunk_size
        self._keep = max(1, keep)
        #: chunk index -> resident chunk
        self.resident: Dict[int, TraceChunk] = {}
        self._iter: Optional[Iterator[TraceChunk]] = None
        self._produced = 0  # chunks consumed from the current pass

    def chunk(self, index: int) -> TraceChunk:
        """The chunk containing absolute instruction ``index``."""
        ci = index // self.chunk_size
        got = self.resident.get(ci)
        if got is not None:
            return got
        if self._iter is None or ci < self._produced:
            self._iter = self._trace.chunks()
            self._produced = 0
            self.resident.clear()
        while True:
            chunk = next(self._iter)
            self.resident[self._produced] = chunk
            self.resident.pop(self._produced - self._keep, None)
            self._produced += 1
            if self._produced > ci:
                return chunk


class _Column(Generic[T]):
    """One windowed column of a streaming trace (a
    :class:`repro.isa.trace.Column`)."""

    __slots__ = ("_window", "_field", "_length")

    def __init__(self, window: _ChunkWindow, field: str, length: int) -> None:
        self._window = window
        self._field = field
        self._length = length

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index: int) -> T:
        window = self._window
        # the hot loop reads inside resident chunks: serve those without
        # the bounds checks and the window call (an index past the end of
        # the final chunk still raises IndexError from the list)
        chunk = window.resident.get(index // window.chunk_size)
        if chunk is None:
            if index < 0:
                index += self._length
            if not 0 <= index < self._length:
                raise IndexError(index)
            chunk = window.chunk(index)
        value: T = getattr(chunk, self._field)[index - chunk.start]
        return value

    def __iter__(self) -> Iterator[T]:
        size = self._window.chunk_size
        for start in range(0, self._length, size):
            column: List[T] = getattr(self._window.chunk(start), self._field)
            yield from column


class StreamingDecoded:
    """Windowed column-major view of a streaming trace.

    Satisfies :class:`repro.isa.trace.DecodedColumns`: six parallel
    columns sharing one :class:`_ChunkWindow`, so the core's interleaved
    per-stage reads (ops at fetch, addrs at issue, takens at commit) hit
    the same resident chunks.
    """

    __slots__ = ("ops", "pcs", "deps1", "deps2", "addrs", "takens")

    def __init__(self, trace: "StreamingTrace") -> None:
        window = _ChunkWindow(trace)
        n = len(trace)
        self.ops: _Column[int] = _Column(window, "ops", n)
        self.pcs: _Column[int] = _Column(window, "pcs", n)
        self.deps1: _Column[int] = _Column(window, "deps1", n)
        self.deps2: _Column[int] = _Column(window, "deps2", n)
        self.addrs: _Column[int] = _Column(window, "addrs", n)
        self.takens: _Column[bool] = _Column(window, "takens", n)


class StreamingTrace:
    """A trace generated region by region, never fully resident.

    Satisfies the :class:`~repro.isa.trace.TraceSource` protocol, so
    ``run_standalone`` consumes it directly: the core reads the windowed
    :meth:`decoded` columns.  ``fingerprint()`` streams the v2 hash recipe
    and is bit-identical to the materialised trace's (``tests/corpus``
    pins both surfaces).
    """

    def __init__(
        self,
        mix: PhaseMix,
        length: int,
        seed: int = 0,
        name: Optional[str] = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        if length <= 0:
            raise ValueError("a trace must contain at least one instruction")
        if chunk_size <= 0:
            raise ValueError("chunk size must be positive")
        self.mix = mix
        self.name = name or mix.name
        self.length = length
        self.seed = seed
        self.chunk_size = chunk_size
        #: generation passes started (diagnostics; parity tests assert the
        #: expected pass count, the memory test that no pass materialises)
        self.restarts = 0
        self._decoded: Optional[StreamingDecoded] = None
        self._fingerprint: Optional[str] = None
        self._phase_starts: Optional[List[int]] = None

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, index: int) -> Instr:
        """Random access to one instruction (windowed; diagnostics only)."""
        decoded = self.decoded()
        return Instr(
            op=decoded.ops[index],
            pc=decoded.pcs[index],
            dep1=decoded.deps1[index],
            dep2=decoded.deps2[index],
            addr=decoded.addrs[index],
            taken=decoded.takens[index],
        )

    def chunks(self) -> Iterator[TraceChunk]:
        """A fresh generation pass over the trace, chunk by chunk."""
        self.restarts += 1
        return generate_chunks(
            self.mix, self.length, self.seed, chunk_size=self.chunk_size
        )

    def decoded(self) -> StreamingDecoded:
        """The cached windowed column view (one shared chunk window)."""
        if self._decoded is None:
            self._decoded = StreamingDecoded(self)
        return self._decoded

    @property
    def phase_starts(self) -> List[int]:
        """Phase-start indices; requires one full pass on first access."""
        if self._phase_starts is None:
            starts: List[int] = []
            for chunk in self.chunks():
                starts.extend(chunk.phase_starts)
            self._phase_starts = starts
        return self._phase_starts

    def fingerprint(self) -> str:
        """Streaming content hash — equal to the materialised trace's."""
        if self._fingerprint is None:
            hasher = TraceHasher()
            starts: List[int] = []
            for chunk in self.chunks():
                hasher.update(
                    chunk.ops, chunk.pcs, chunk.deps1, chunk.deps2,
                    chunk.addrs, chunk.takens,
                )
                starts.extend(chunk.phase_starts)
            self._phase_starts = starts
            self._fingerprint = hasher.digest(self.name, self.seed, starts)
        return self._fingerprint

    def materialise(self) -> Trace:
        """The concrete :class:`Trace` of this recipe (full generation).

        Contested execution re-forks cores at arbitrary points of the
        trace, so :class:`repro.core.system.ContestingSystem` materialises
        streaming traces up front rather than thrash the window.
        """
        return Trace.from_chunks(self.name, self.seed, self.chunks())

    def __repr__(self) -> str:
        return (
            f"StreamingTrace(name={self.name!r}, len={self.length}, "
            f"seed={self.seed}, chunk={self.chunk_size})"
        )
