import pickle

import pytest

from repro.isa.instructions import Instr, OpClass
from repro.isa.stats import characterize
from repro.isa.trace import Trace


def _make_trace(n=100):
    instrs = []
    for i in range(n):
        if i % 10 == 0:
            instrs.append(Instr(OpClass.LOAD, pc=4 * i, addr=64 * i))
        elif i % 10 == 5:
            instrs.append(Instr(OpClass.BRANCH, pc=4 * i, taken=i % 20 == 5))
        else:
            instrs.append(Instr(OpClass.IALU, pc=4 * i))
    return Trace("t", instrs, seed=1, phase_starts=[0, 50])


class TestTrace:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Trace("empty", [])

    def test_len_and_indexing(self):
        t = _make_trace(100)
        assert len(t) == 100
        assert t[0].op == OpClass.LOAD
        assert t[1].op == OpClass.IALU

    def test_iteration(self):
        t = _make_trace(30)
        assert sum(1 for _ in t) == 30

    def test_op_histogram(self):
        mix = characterize(_make_trace(100)).mix
        assert mix == {"LOAD": 0.1, "BRANCH": 0.1, "IALU": 0.8}

    def test_memory_footprint(self):
        # loads at addresses 0, 640, 1280 ... 64*90 -> 10 distinct 64B blocks
        assert characterize(_make_trace(100)).footprint_blocks == 10

    def test_repr(self):
        assert "len=100" in repr(_make_trace(100))


class TestFingerprint:
    def _hand_trace(self):
        instrs = [
            Instr(int(OpClass.IALU), pc=0x10),
            Instr(int(OpClass.LOAD), pc=0x14, dep1=0, addr=0x1000),
            Instr(int(OpClass.BRANCH), pc=0x18, dep1=1, taken=True),
            Instr(int(OpClass.STORE), pc=0x1C, dep1=0, dep2=1, addr=0x2000),
        ]
        return Trace("hand", instrs, seed=7, phase_starts=[0, 2])

    def test_stable_across_constructions(self):
        assert (
            self._hand_trace().fingerprint()
            == self._hand_trace().fingerprint()
        )

    def test_stable_literal(self):
        # pinned digest: changing the hash recipe silently invalidates every
        # persistent cache, so it must be a deliberate, visible change
        # (recipe repro-trace/2: per-field sub-digests, streamable)
        assert self._hand_trace().fingerprint() == (
            "bbebd198e3ef9c27a2ab455d1e9b5318a9fa94f86200443a040b93c183992ec8"
        )

    def test_cached_on_instance(self):
        t = self._hand_trace()
        assert t.fingerprint() is t.fingerprint()

    def test_seed_and_name_distinguish(self):
        base = self._hand_trace()
        renamed = Trace("other", list(base), seed=7, phase_starts=[0, 2])
        reseeded = Trace("hand", list(base), seed=8, phase_starts=[0, 2])
        assert base.fingerprint() != renamed.fingerprint()
        assert base.fingerprint() != reseeded.fingerprint()

    def test_content_distinguishes(self):
        base = self._hand_trace()
        mutated = list(base)
        mutated[1] = Instr(int(OpClass.LOAD), pc=0x14, dep1=0, addr=0x1008)
        other = Trace("hand", mutated, seed=7, phase_starts=[0, 2])
        assert base.fingerprint() != other.fingerprint()

    def test_generated_traces_deterministic(self):
        from repro.isa.generator import generate_trace
        from repro.isa.workloads import workload_profile

        a = generate_trace(workload_profile("gcc"), 1500, seed=3)
        b = generate_trace(workload_profile("gcc"), 1500, seed=3)
        c = generate_trace(workload_profile("gcc"), 1500, seed=4)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()


def test_no_path_builds_instr_rows(monkeypatch, tmp_path):
    # A trace is its six columns: generating, hashing, pickling, saving,
    # loading, streaming and simulating it must never build Instr rows.
    from repro.core.system import ContestingSystem
    from repro.isa.generator import generate_trace
    from repro.isa.serialize import load_trace, save_trace
    from repro.isa.stream import StreamingTrace
    from repro.isa.workloads import workload_profile
    from repro.uarch.config import core_config
    from repro.uarch.run import run_standalone

    def no_rows(self, *args, **kwargs):
        raise AssertionError("an Instr row was built")

    monkeypatch.setattr(Instr, "__init__", no_rows)
    mix = workload_profile("gcc")
    trace = generate_trace(mix, 1500, seed=3)
    copy = pickle.loads(pickle.dumps(trace))
    digest = trace.fingerprint()
    assert copy.fingerprint() == digest
    save_trace(trace, tmp_path / "t.rtrc")
    assert load_trace(tmp_path / "t.rtrc").fingerprint() == digest
    streamed = StreamingTrace(mix, 1500, seed=3, chunk_size=256)
    assert streamed.materialise().fingerprint() == digest
    characterize(trace)
    gcc, vpr = core_config("gcc"), core_config("vpr")
    assert (
        run_standalone(gcc, streamed).time_ps
        == run_standalone(gcc, trace).time_ps
    )
    assert ContestingSystem([gcc, vpr], trace).run().instructions == 1500
