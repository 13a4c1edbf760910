"""Trace serialization: save and reload generated traces.

Traces are deterministic given (profile, length, seed), but generation of
large traces is not free and downstream users may want to archive the exact
traces behind a result.  The format is a compact single-file binary:
a JSON header line (name, seed, length, phase starts, format version)
followed by six little-endian arrays (op, pc, dep1, dep2, addr, taken).
"""

import json
import sys
from array import array
from pathlib import Path
from typing import Union

from repro.isa.trace import COLUMN_TYPECODES, Trace, TraceChunk, column_bytes

#: bump when the on-disk layout changes
FORMAT_VERSION = 1

_MAGIC = b"RTRC"

#: payload bytes per instruction: one item of each column
_RECORD_BYTES = sum(array(code).itemsize for code in COLUMN_TYPECODES)


def save_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write ``trace`` to ``path`` (overwrites)."""
    header = json.dumps(
        {
            "version": FORMAT_VERSION,
            "name": trace.name,
            "seed": trace.seed,
            "length": len(trace),
            "phase_starts": trace.phase_starts,
        }
    ).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(len(header).to_bytes(4, "little"))
        fh.write(header)
        for data in column_bytes(
            trace.ops, trace.pcs, trace.deps1, trace.deps2, trace.addrs,
            trace.takens,
        ):
            fh.write(data)


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace previously written by :func:`save_trace`.

    Raises :class:`ValueError` unless the payload after the header is
    exactly one item of each column per instruction the header declares,
    so a truncated, padded or mis-headed file never loads as a trace with
    misaligned columns.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a trace file (bad magic)")
        header_len = int.from_bytes(fh.read(4), "little")
        header = json.loads(fh.read(header_len).decode())
        if header.get("version") != FORMAT_VERSION:
            raise ValueError(
                f"{path}: unsupported trace format version "
                f"{header.get('version')!r}"
            )
        payload = fh.read()
    n = header["length"]
    if len(payload) != n * _RECORD_BYTES:
        raise ValueError(
            f"{path}: payload is {len(payload)} bytes, but a "
            f"{n}-instruction trace needs {n * _RECORD_BYTES}"
        )
    columns = []
    offset = 0
    for typecode in COLUMN_TYPECODES:
        arr = array(typecode)
        end = offset + n * arr.itemsize
        arr.frombytes(payload[offset:end])
        if arr.itemsize > 1 and sys.byteorder == "big":
            arr.byteswap()
        columns.append(arr.tolist())
        offset = end
    ops, pcs, deps1, deps2, addrs, takens = columns
    chunk = TraceChunk(
        start=0, ops=ops, pcs=pcs, deps1=deps1, deps2=deps2, addrs=addrs,
        takens=[bool(t) for t in takens],
        phase_starts=header["phase_starts"],
    )
    return Trace.from_chunks(header["name"], header["seed"], (chunk,))
