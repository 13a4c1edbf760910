import hashlib
import json

import pytest

from repro.isa.generator import generate_trace
from repro.isa.instructions import Instr, OpClass
from repro.isa.serialize import FORMAT_VERSION, load_trace, save_trace
from repro.isa.trace import Trace
from repro.isa.workloads import workload_profile


def _rewrite_header(path, **fields):
    """Rewrite header fields of a saved trace, keeping its payload."""
    blob = path.read_bytes()
    header_len = int.from_bytes(blob[4:8], "little")
    header = json.loads(blob[8 : 8 + header_len].decode())
    header.update(fields)
    new_header = json.dumps(header).encode()
    path.write_bytes(
        blob[:4]
        + len(new_header).to_bytes(4, "little")
        + new_header
        + blob[8 + header_len:]
    )


class TestRoundTrip:
    def test_identical_after_reload(self, small_trace, tmp_path):
        path = tmp_path / "t.rtrc"
        save_trace(small_trace, path)
        loaded = load_trace(path)
        assert loaded.name == small_trace.name
        assert loaded.seed == small_trace.seed
        assert loaded.phase_starts == small_trace.phase_starts
        assert len(loaded) == len(small_trace)
        for a, b in zip(small_trace, loaded):
            assert (a.op, a.pc, a.dep1, a.dep2, a.addr, a.taken) == (
                b.op, b.pc, b.dep1, b.dep2, b.addr, b.taken
            )

    def test_simulation_identical_on_reload(self, small_trace, tmp_path, gcc_core):
        from repro.uarch.run import run_standalone

        path = tmp_path / "t.rtrc"
        save_trace(small_trace, path)
        loaded = load_trace(path)
        assert (
            run_standalone(gcc_core, loaded).time_ps
            == run_standalone(gcc_core, small_trace).time_ps
        )

    def test_file_bytes_pinned(self, tmp_path):
        # pinned digest of the on-disk format: header layout, column order,
        # little-endian widths and the 0/1 taken byte
        trace = Trace("hand", [
            Instr(int(OpClass.IALU), pc=0x10),
            Instr(int(OpClass.LOAD), pc=0x14, dep1=0, addr=0x1000),
            Instr(int(OpClass.BRANCH), pc=0x18, dep1=1, taken=True),
            Instr(int(OpClass.STORE), pc=0x1C, dep1=0, dep2=1, addr=0x2000),
        ], seed=7, phase_starts=[0, 2])
        path = tmp_path / "hand.rtrc"
        save_trace(trace, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "90e3f2beeda7d1ec3e43c286be6310d5c41783dc21c47dd8eaa708d3dbd0bbb4"
        )

    def test_file_is_compact(self, small_trace, tmp_path):
        path = tmp_path / "t.rtrc"
        save_trace(small_trace, path)
        # 34 bytes/instruction + header
        assert path.stat().st_size < len(small_trace) * 40 + 1024


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rtrc"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_trace(path)

    def test_bad_version(self, small_trace, tmp_path):
        path = tmp_path / "t.rtrc"
        save_trace(small_trace, path)
        _rewrite_header(path, version=FORMAT_VERSION + 1)
        with pytest.raises(ValueError, match="version"):
            load_trace(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.rtrc"
        save_trace(generate_trace(workload_profile("gcc"), 300, seed=1), path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(ValueError, match="payload"):
            load_trace(path)

    def test_header_understating_length(self, tmp_path):
        # read as 200 instructions, the 300-instruction payload would
        # misalign every column after the first
        path = tmp_path / "t.rtrc"
        save_trace(generate_trace(workload_profile("gcc"), 300, seed=1), path)
        _rewrite_header(path, length=200)
        with pytest.raises(ValueError, match="payload"):
            load_trace(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "t.rtrc"
        save_trace(generate_trace(workload_profile("gcc"), 300, seed=1), path)
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(ValueError, match="payload"):
            load_trace(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trace(tmp_path / "nothing.rtrc")
