"""Persistent store: round-trips, corruption tolerance, eviction."""

import json

from repro.engine.jobs import SCHEMA_VERSION, ContestJob, RegionLogJob, StandaloneJob
from repro.engine.jobs import TraceSpec
from repro.engine.store import ResultStore, decode_result, encode_result
from repro.uarch.config import core_config

SPEC = TraceSpec("gcc", 1000, seed=11)


def _results():
    alone = StandaloneJob(core_config("gcc"), SPEC).run()
    log = RegionLogJob(core_config("gcc"), SPEC).run()
    contest = ContestJob((core_config("gcc"), core_config("vpr")), SPEC).run()
    return alone, log, contest


class TestRoundTrip:
    def test_codec_all_kinds(self):
        alone, log, contest = _results()
        for kind, obj in (
            ("standalone", alone), ("region_log", log), ("contest", contest)
        ):
            assert decode_result(kind, encode_result(obj)) == obj

    def test_survives_reload(self, tmp_path):
        alone, log, contest = _results()
        store = ResultStore(tmp_path)
        store.put("k1", "standalone", alone)
        store.put("k2", "region_log", log)
        store.put("k3", "contest", contest)

        fresh = ResultStore(tmp_path)
        assert fresh.get("k1", "standalone") == alone
        assert fresh.get("k2", "region_log") == log
        assert fresh.get("k3", "contest") == contest
        assert fresh.hits == 3

    def test_kind_mismatch_is_miss(self, tmp_path):
        alone, _, _ = _results()
        store = ResultStore(tmp_path)
        store.put("k", "standalone", alone)
        assert store.get("k", "contest") is None
        assert store.misses == 1

    def test_missing_key_is_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("nope", "standalone") is None


class TestCorruption:
    def test_garbage_file_loads_empty(self, tmp_path):
        path = tmp_path / f"results-v{SCHEMA_VERSION}.jsonl"
        path.write_bytes(b"\x00\xffnot json at all\n{malformed\n")
        store = ResultStore(tmp_path)
        assert len(store) == 0
        assert store.corrupt_lines == 2
        assert store.get("k", "standalone") is None  # recompute, no crash

    def test_truncated_tail_skipped(self, tmp_path):
        alone, _, _ = _results()
        store = ResultStore(tmp_path)
        store.put("good", "standalone", alone)
        # simulate a crash mid-append: final line cut short
        with open(store.path, "a") as fh:
            fh.write('{"key": "bad", "kind": "standalone", "val')
        fresh = ResultStore(tmp_path)
        assert fresh.get("good", "standalone") == alone
        assert fresh.corrupt_lines == 1

    def test_bad_payload_shape_is_miss(self, tmp_path):
        path = tmp_path / f"results-v{SCHEMA_VERSION}.jsonl"
        path.write_text(json.dumps(
            {"key": "k", "kind": "standalone", "value": {"nonsense": 1}}
        ) + "\n")
        store = ResultStore(tmp_path)
        assert store.get("k", "standalone") is None
        assert store.corrupt_lines == 1

    def test_later_lines_supersede(self, tmp_path):
        alone, log, _ = _results()
        store = ResultStore(tmp_path)
        store.put("k", "region_log", log)
        store.put("k", "standalone", alone)
        fresh = ResultStore(tmp_path)
        assert fresh.get("k", "standalone") == alone


class TestEviction:
    def test_oldest_evicted(self, tmp_path):
        alone, _, _ = _results()
        store = ResultStore(tmp_path, max_entries=2)
        store.put("a", "standalone", alone)
        store.put("b", "standalone", alone)
        store.put("c", "standalone", alone)
        assert store.evictions == 1
        assert store.get("a", "standalone") is None
        assert store.get("c", "standalone") == alone
        # the compacted file respects the bound too
        fresh = ResultStore(tmp_path, max_entries=2)
        assert len(fresh) == 2

    def test_capacity_enforced_at_load(self, tmp_path):
        alone, _, _ = _results()
        big = ResultStore(tmp_path, max_entries=10)
        for i in range(5):
            big.put(f"k{i}", "standalone", alone)
        small = ResultStore(tmp_path, max_entries=2)
        assert len(small) == 2
        assert small.evictions == 3

    def test_counters_dict(self, tmp_path):
        store = ResultStore(tmp_path)
        counters = store.counters()
        assert set(counters) >= {"hits", "misses", "evictions", "entries"}


class TestStreamingLoad:
    def test_load_never_reads_the_whole_file(self, tmp_path, monkeypatch):
        # the regression this pins: _load once did path.read_bytes(),
        # holding the entire store in memory; it must stream lines now
        alone, _, _ = _results()
        seeded = ResultStore(tmp_path)
        for i in range(5):
            seeded.put(f"k{i}", "standalone", alone)

        def no_slurp(self):
            raise AssertionError("store load must stream, not slurp")

        monkeypatch.setattr(type(seeded.path), "read_bytes", no_slurp)
        fresh = ResultStore(tmp_path)
        assert len(fresh) == 5
        assert fresh.get("k3", "standalone") == alone

    def test_records_are_crc_framed_on_disk(self, tmp_path):
        from repro.engine.store import STATUS_OK, STORE_FORMAT, scan_store

        alone, _, _ = _results()
        store = ResultStore(tmp_path)
        store.put("k", "standalone", alone)
        (record,) = scan_store(store.path)
        assert record.status == STATUS_OK
        raw = json.loads(store.path.read_bytes().splitlines()[0])
        assert raw["v"] == STORE_FORMAT
        assert isinstance(raw["crc"], int)

    def test_unframed_lines_count_as_corrupt(self, tmp_path):
        alone, _, _ = _results()
        store = ResultStore(tmp_path)
        line = json.dumps(
            {"key": "old", "kind": "standalone",
             "value": encode_result(alone)}
        )
        store.path.parent.mkdir(parents=True, exist_ok=True)
        store.path.write_text(line + "\n")
        fresh = ResultStore(tmp_path)
        assert fresh.corrupt_lines == 1
        assert fresh.get("old", "standalone") is None
