"""Trace containers: six instruction columns plus provenance metadata.

A trace is column-major: six parallel columns indexed by dynamic sequence
number (op class, static PC, two producer links, memory address, branch
outcome), exactly the fields the timing models read.  Generation emits
:class:`TraceChunk` regions of those columns, and :meth:`Trace.from_chunks`
is the one place regions are assembled into a resident trace.

Two trace shapes satisfy the :class:`TraceSource` protocol the simulators
consume: the concrete :class:`Trace` here (every column resident) and
:class:`repro.isa.stream.StreamingTrace` (regions generated on demand,
never all resident).  Both fingerprint through the shared
:class:`TraceHasher`, so the streaming and materialised hash of one recipe
are identical by construction.  :class:`~repro.isa.instructions.Instr`
rows are only ever views built on demand (``trace[i]``, iteration) or the
input of a hand-built trace.
"""

import hashlib
import sys
from array import array
from dataclasses import dataclass, field
from typing import (
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    TypeVar,
)

from repro.isa.instructions import Instr

T_co = TypeVar("T_co", covariant=True)


class Column(Protocol[T_co]):
    """Read-only indexed access to one instruction field — the exact
    surface the simulator hot loops use (index, iterate, len)."""

    def __len__(self) -> int: ...

    def __getitem__(self, index: int) -> T_co: ...

    def __iter__(self) -> Iterator[T_co]: ...


class DecodedColumns(Protocol):
    """Column-major instruction fields, as the simulator hot loops read
    them: six parallel columns indexed by dynamic sequence number.

    Satisfied by :class:`Trace` and :class:`TraceChunk` (plain lists) and
    by the windowed streaming columns of
    :class:`repro.isa.stream.StreamingDecoded`.
    """

    @property
    def ops(self) -> Column[int]: ...

    @property
    def pcs(self) -> Column[int]: ...

    @property
    def deps1(self) -> Column[int]: ...

    @property
    def deps2(self) -> Column[int]: ...

    @property
    def addrs(self) -> Column[int]: ...

    @property
    def takens(self) -> Column[bool]: ...


class TraceSource(Protocol):
    """What a standalone simulation needs from a trace, structurally.

    :class:`Trace` satisfies it with its own resident columns;
    :class:`repro.isa.stream.StreamingTrace` satisfies it with windowed
    columns over chunked generation.  Code that needs the full trace
    resident (contests, serialisation) takes :class:`Trace` explicitly.
    """

    @property
    def name(self) -> str: ...

    @property
    def seed(self) -> int: ...

    def __len__(self) -> int: ...

    def __getitem__(self, index: int) -> Instr: ...

    def decoded(self) -> DecodedColumns:
        """Column-major view of the timing-relevant instruction fields."""
        ...

    def fingerprint(self) -> str:
        """Stable content hash of the trace (hex digest)."""
        ...


@dataclass
class TraceChunk:
    """One contiguous, column-major region of a trace.

    ``start`` is the absolute index of the first instruction;
    ``phase_starts`` holds the *absolute* indices (within this chunk) at
    which a new fine-grain phase begins.  Columns mirror :class:`Trace`
    field for field.
    """

    start: int
    ops: List[int] = field(default_factory=list)
    pcs: List[int] = field(default_factory=list)
    deps1: List[int] = field(default_factory=list)
    deps2: List[int] = field(default_factory=list)
    addrs: List[int] = field(default_factory=list)
    takens: List[bool] = field(default_factory=list)
    phase_starts: List[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ops)


#: ``array`` typecode of each column, in column order (ops, pcs, deps1,
#: deps2, addrs, takens): the byte layout the fingerprint hashes and the
#: ``.rtrc`` file format stores
COLUMN_TYPECODES = ("B", "q", "q", "q", "q", "B")


def column_bytes(
    ops: Iterable[int],
    pcs: Iterable[int],
    deps1: Iterable[int],
    deps2: Iterable[int],
    addrs: Iterable[int],
    takens: Iterable[bool],
) -> List[bytes]:
    """The six columns as little-endian bytes, takens as 0/1 bytes."""
    values = (
        ops, pcs, deps1, deps2, addrs, (1 if t else 0 for t in takens),
    )
    out = []
    for typecode, column in zip(COLUMN_TYPECODES, values):
        arr = array(typecode, column)
        if arr.itemsize > 1 and sys.byteorder == "big":
            arr.byteswap()
        out.append(arr.tobytes())
    return out


class TraceHasher:
    """Chunk-incremental trace fingerprint (recipe ``repro-trace/2``).

    The v2 recipe hashes each instruction field through its own sha256
    sub-hasher, then combines the six sub-digests with a header (name,
    seed, length) and a phase-start trailer.  Per-field sub-hashers make
    the digest computable in a single pass over *chunked* generation —
    field bytes arrive interleaved per region, not field-major — and the
    trailer placement lets phase starts be folded in after the last chunk,
    when they are first fully known.  Chunking therefore cannot affect the
    digest: feeding one whole-trace chunk or a thousand single-instruction
    chunks yields identical bytes into every sub-hasher (pinned by
    ``tests/corpus/test_grammar.py``).
    """

    def __init__(self) -> None:
        self._subs = [hashlib.sha256() for _ in COLUMN_TYPECODES]
        self._length = 0

    def update(
        self,
        ops: Sequence[int],
        pcs: Sequence[int],
        deps1: Sequence[int],
        deps2: Sequence[int],
        addrs: Sequence[int],
        takens: Sequence[bool],
    ) -> None:
        """Fold one region's columns into the running digest."""
        data = column_bytes(ops, pcs, deps1, deps2, addrs, takens)
        for sub, field_bytes in zip(self._subs, data):
            sub.update(field_bytes)
        self._length += len(ops)

    def digest(
        self, name: str, seed: int, phase_starts: Sequence[int]
    ) -> str:
        """Finalise: header + per-field sub-digests + phase-start trailer."""
        h = hashlib.sha256()
        h.update(f"repro-trace/2\x00{name}\x00{seed}\x00{self._length}".encode())
        for sub in self._subs:
            h.update(sub.digest())
        h.update(("\x00" + ",".join(map(str, phase_starts))).encode())
        return h.hexdigest()


class Trace:
    """A resident trace: six parallel instruction columns plus provenance.

    The columns are plain lists because the cycle-stepped core touches one
    or two fields per stage, and a list index is far cheaper than an
    attribute read through an :class:`Instr`.  :meth:`decoded` is the trace
    itself, so N cores contesting one trace share one set of columns.
    ``trace[i]`` and iteration build :class:`Instr` row views on demand.
    Traces are immutable by convention; the simulators never mutate them.

    ``Trace(name, instructions, seed, phase_starts)`` builds a trace from
    hand-written rows, decoding them once; generated, streamed and loaded
    traces are assembled by :meth:`from_chunks`.
    """

    def __init__(
        self,
        name: str,
        instructions: Sequence[Instr],
        seed: int = 0,
        phase_starts: Sequence[int] = (),
    ) -> None:
        rows = TraceChunk(
            start=0,
            ops=[i.op for i in instructions],
            pcs=[i.pc for i in instructions],
            deps1=[i.dep1 for i in instructions],
            deps2=[i.dep2 for i in instructions],
            addrs=[i.addr for i in instructions],
            takens=[i.taken for i in instructions],
            phase_starts=list(phase_starts),
        )
        self._assemble(name, seed, (rows,))

    @classmethod
    def from_chunks(
        cls, name: str, seed: int, chunks: Iterable[TraceChunk]
    ) -> "Trace":
        """Concatenate consecutive column regions into one trace."""
        trace = cls.__new__(cls)
        trace._assemble(name, seed, chunks)
        return trace

    def _assemble(
        self, name: str, seed: int, chunks: Iterable[TraceChunk]
    ) -> None:
        self.name = name
        self.seed = seed
        self.ops: List[int] = []
        self.pcs: List[int] = []
        self.deps1: List[int] = []
        self.deps2: List[int] = []
        self.addrs: List[int] = []
        self.takens: List[bool] = []
        #: indices at which a new fine-grain phase begins (diagnostics only)
        self.phase_starts: List[int] = []
        for chunk in chunks:
            self.ops.extend(chunk.ops)
            self.pcs.extend(chunk.pcs)
            self.deps1.extend(chunk.deps1)
            self.deps2.extend(chunk.deps2)
            self.addrs.extend(chunk.addrs)
            self.takens.extend(chunk.takens)
            self.phase_starts.extend(chunk.phase_starts)
        if not self.ops:
            raise ValueError("a trace must contain at least one instruction")
        self._fingerprint: Optional[str] = None

    def __len__(self) -> int:
        return len(self.ops)

    def __getitem__(self, index: int) -> Instr:
        return Instr(
            self.ops[index], self.pcs[index], self.deps1[index],
            self.deps2[index], self.addrs[index], self.takens[index],
        )

    def __iter__(self) -> Iterator[Instr]:
        return map(
            Instr, self.ops, self.pcs, self.deps1, self.deps2,
            self.addrs, self.takens,
        )

    def decoded(self) -> "Trace":
        """The column-major view the simulators read: the trace itself."""
        return self

    def fingerprint(self) -> str:
        """Stable content hash of the trace (hex digest).

        Covers every timing-relevant instruction field plus the provenance
        metadata (profile/trace name, generator seed, phase starts), so two
        traces share a fingerprint iff a simulator cannot distinguish them.
        The digest is platform-independent (fields are serialised
        little-endian) and cached — traces are immutable by convention.
        Computed through :class:`TraceHasher` (one whole-trace chunk), so a
        :class:`repro.isa.stream.StreamingTrace` of the same recipe hashes
        to the same digest without materialising.
        """
        if self._fingerprint is None:
            hasher = TraceHasher()
            hasher.update(
                self.ops, self.pcs, self.deps1, self.deps2, self.addrs,
                self.takens,
            )
            self._fingerprint = hasher.digest(
                self.name, self.seed, self.phase_starts
            )
        return self._fingerprint

    def __repr__(self) -> str:
        return (
            f"Trace(name={self.name!r}, len={len(self)}, seed={self.seed}, "
            f"phases={len(self.phase_starts)})"
        )
