"""Store crash-consistency: framing, torn tails, fsck, and contention."""

import dataclasses
import json
import multiprocessing
import os
import re

import pytest

from repro.engine import (
    ResultStore,
    SerialExecutor,
    SimEngine,
    StandaloneJob,
    TraceSpec,
)
from repro.engine import store_cli
from repro.engine.store import (
    STATUS_CORRUPT,
    STATUS_CRC,
    STATUS_OK,
    STATUS_TORN,
    STORE_FORMAT,
    classify_line,
    frame_record,
    scan_store,
)
from repro.telemetry.manifest import build_manifest
from repro.uarch.config import core_config

VALUE = {"answer": 42, "pi": 3.5, "name": "x"}


@dataclasses.dataclass
class _FakeResult:
    """Minimal encodable stand-in (``encode_result`` needs a dataclass)."""

    answer: int = 42


def put_one(path, key="k1", seed=11):
    """Run one tiny job through an engine backed by the store at ``path``;
    returns the result object (so tests exercise the real put path)."""
    store = ResultStore(path)
    engine = SimEngine(executor=SerialExecutor(), store=store)
    job = StandaloneJob(core_config("gcc"), TraceSpec("gcc", 120, seed=seed))
    (result,) = engine.run_many([job])
    return store, job, result


class TestFraming:
    def test_round_trip(self):
        line = frame_record("k", "standalone", VALUE)
        assert line.endswith(b"\n")
        status, key, kind, value = classify_line(line.rstrip(b"\n"))
        assert (status, key, kind) == (STATUS_OK, "k", "standalone")
        assert value == VALUE

    def test_any_single_bitflip_is_detected(self):
        line = frame_record("k", "standalone", VALUE).rstrip(b"\n")
        clean = 0
        for index in range(len(line)):
            for bit in range(8):
                flipped = (
                    line[:index]
                    + bytes([line[index] ^ (1 << bit)])
                    + line[index + 1:]
                )
                status = classify_line(flipped)[0]
                if status == STATUS_OK:
                    clean += 1
        assert clean == 0

    def test_legacy_unframed_record_classifies(self):
        raw = json.dumps(
            {"key": "k", "kind": "standalone", "value": VALUE}
        ).encode()
        assert classify_line(raw)[0] == STATUS_CORRUPT

    def test_bad_shapes_are_corrupt(self):
        for raw in (
            b"not json",
            b"[1,2,3]",
            b'{"key": 7, "kind": "standalone", "value": {}}',
            b'{"key": "k", "kind": "nope", "value": {}}',
            b'{"key": "k", "kind": "standalone", "value": []}',
        ):
            assert classify_line(raw)[0] == STATUS_CORRUPT

    def test_wrong_crc_is_crc_status(self):
        body = {"key": "k", "kind": "standalone", "v": STORE_FORMAT,
                "value": VALUE, "crc": 123456}
        raw = json.dumps(body, sort_keys=True).encode()
        assert classify_line(raw)[0] == STATUS_CRC


class TestTornTail:
    def test_torn_tail_detected_and_truncated(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store, job, result = put_one(path)
        intact_size = path.stat().st_size
        torn = frame_record("k2", "standalone", VALUE)[:25]
        with open(path, "ab") as fh:
            fh.write(torn)
        reloaded = ResultStore(path)
        assert reloaded.torn_tails == 1
        assert reloaded.torn_bytes_truncated == len(torn)
        assert reloaded.counters()["corrupt_lines"] == 1
        # the torn bytes are gone from disk; the intact record survives
        assert path.stat().st_size == intact_size
        assert reloaded.get(job.cache_key(), "standalone") is not None

    def test_append_heals_unterminated_valid_tail(self, tmp_path):
        path = tmp_path / "store.jsonl"
        line = frame_record("k1", "standalone", VALUE)
        path.write_bytes(line[:-1])  # valid record, missing only its \n
        store = ResultStore(path)
        assert store.torn_tails == 0  # verifiable: not torn, just unsealed
        _, job, _ = put_one(path, seed=13)
        healed = ResultStore(path)
        assert healed.counters()["corrupt_lines"] == 0
        assert len(healed) == 2

    def test_scan_reports_torn_final_line(self, tmp_path):
        path = tmp_path / "store.jsonl"
        good = frame_record("k1", "standalone", VALUE)
        path.write_bytes(good + good[: len(good) // 2])
        statuses = [r.status for r in scan_store(path)]
        assert statuses == [STATUS_OK, STATUS_TORN]


class TestBitflip:
    def test_flipped_record_is_rejected_not_served(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store, job, result = put_one(path)
        raw = path.read_bytes()
        index = len(raw) // 2
        flipped = raw[:index] + bytes([raw[index] ^ 0x10]) + raw[index + 1:]
        path.write_bytes(flipped)
        reloaded = ResultStore(path)
        counters = reloaded.counters()
        assert counters["corrupt_lines"] == 1
        assert counters["crc_failures"] + counters["torn_tails"] >= 1
        assert reloaded.get(job.cache_key(), "standalone") is None

    def test_unframing_double_flip_is_rejected_not_served(self, tmp_path):
        # one bit flip renames the "crc" key, a second alters a result
        # value: the line still parses with a valid shape but no frame
        path = tmp_path / "store.jsonl"
        store, job, result = put_one(path)
        raw = path.read_bytes().replace(b'"crc":', b'"brc":', 1)
        last = re.search(rb'"cycles":\d+', raw).end() - 1
        raw = raw[:last] + bytes([raw[last] ^ 0x01]) + raw[last + 1:]
        path.write_bytes(raw)
        reloaded = ResultStore(path)
        assert reloaded.counters()["corrupt_lines"] == 1
        assert reloaded.get(job.cache_key(), "standalone") is None


class TestFsckCli:
    def test_clean_store_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "store.jsonl"
        put_one(path)
        assert store_cli.main(["--path", str(path), "fsck"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_corruption_found_then_repaired(self, tmp_path, capsys):
        path = tmp_path / "store.jsonl"
        store, job, _ = put_one(path)
        with open(path, "ab") as fh:
            fh.write(b"garbage line\n")
            fh.write(frame_record("k9", "standalone", VALUE)[:20])
        assert store_cli.main(["--path", str(path), "fsck"]) == 1
        assert store_cli.main(["--path", str(path), "fsck", "--repair"]) == 0
        assert store_cli.main(["--path", str(path), "fsck"]) == 0
        statuses = [r.status for r in scan_store(path)]
        assert statuses == [STATUS_OK]
        assert ResultStore(path).get(job.cache_key(), "standalone") is not None

    def test_repair_drops_unframed_records(self, tmp_path):
        path = tmp_path / "store.jsonl"
        _, job, _ = put_one(path)
        unframed = json.dumps(
            {"key": "k", "kind": "standalone", "value": VALUE}
        ).encode() + b"\n"
        with open(path, "ab") as fh:
            fh.write(unframed)
        assert store_cli.main(["--path", str(path), "fsck"]) == 1
        assert store_cli.main(["--path", str(path), "fsck", "--repair"]) == 0
        (record,) = scan_store(path)
        assert record.status == STATUS_OK
        assert record.key == job.cache_key()

    def test_compact_dedupes_and_frames(self, tmp_path, capsys):
        path = tmp_path / "store.jsonl"
        line_v1 = frame_record("k", "standalone", {"v": 1})
        line_v2 = frame_record("k", "standalone", {"v": 2})
        path.write_bytes(line_v1 + line_v2)
        assert store_cli.main(["--path", str(path), "compact"]) == 0
        (record,) = scan_store(path)
        assert record.value == {"v": 2}  # later lines win

    def test_stats_reports_shape(self, tmp_path, capsys):
        path = tmp_path / "store.jsonl"
        put_one(path)
        assert store_cli.main(["--path", str(path), "stats"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["unique_keys"] == 1
        assert payload["by_status"] == {STATUS_OK: 1}
        assert payload["by_kind"] == {"standalone": 1}

    def test_missing_store_is_clean(self, tmp_path):
        assert store_cli.main(
            ["--cache-dir", str(tmp_path / "nope"), "fsck"]
        ) == 0

    def test_directory_path_resolution(self, tmp_path):
        put_one(tmp_path)  # directory form: results-v<N>.jsonl inside it
        assert store_cli.main(["--path", str(tmp_path), "fsck"]) == 0


class TestWriteErrors:
    def test_failed_append_is_counted_and_survives_in_memory(
        self, tmp_path, monkeypatch, caplog
    ):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        real_write = os.write

        def failing_write(fd, data):
            raise OSError("disk full")

        monkeypatch.setattr(os, "write", failing_write)
        with caplog.at_level("WARNING", logger="repro.engine"):
            store.put("k", "standalone", _FakeResult())
        monkeypatch.setattr(os, "write", real_write)
        assert store.write_errors == 1
        assert store.counters()["write_errors"] == 1
        assert "write_errors" in caplog.text
        # the record still serves from memory for this process's lifetime
        assert "k" in store._entries

    def test_log_emitted_once_per_store(self, tmp_path, monkeypatch, caplog):
        store = ResultStore(tmp_path / "store.jsonl")
        monkeypatch.setattr(
            os, "write", lambda fd, data: (_ for _ in ()).throw(OSError())
        )
        with caplog.at_level("WARNING", logger="repro.engine"):
            store.put("k1", "standalone", _FakeResult())
            store.put("k2", "standalone", _FakeResult())
            store.append_metrics({"m": 1})
        assert store.write_errors == 3
        assert caplog.text.count("append failed") == 1

    def test_write_errors_surface_in_manifest(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store.jsonl")
        engine = SimEngine(executor=SerialExecutor(), store=store)
        monkeypatch.setattr(
            os, "write", lambda fd, data: (_ for _ in ()).throw(OSError())
        )
        engine.run_many(
            [StandaloneJob(core_config("gcc"), TraceSpec("gcc", 120))]
        )
        manifest = build_manifest(
            scale="tiny", experiments=(), jobs=1, cache_dir=str(tmp_path),
            no_cache=False, seed=0, wall_seconds=0.0, engine=engine,
        )
        assert manifest.engine_stats["store_write_errors"] == 1.0
        assert "store_corrupt_lines" in manifest.engine_stats


class TestFsync:
    def test_fsync_store_round_trips(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path, fsync=True)
        store.put("k", "standalone", _FakeResult())
        assert ResultStore(path, fsync=True).counters()["entries"] == 1


def _append_worker(path, worker, count):
    """Child process: append ``count`` records through the real put path."""
    store = ResultStore(path, max_entries=40)
    for i in range(count):
        store.put(f"w{worker}-r{i}", "standalone", _FakeResult())


class TestContention:
    def test_concurrent_appenders_never_interleave_bytes(self, tmp_path):
        path = tmp_path / "store.jsonl"
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_append_worker, args=(str(path), w, 25))
            for w in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        records = list(scan_store(path))
        assert records, "no records written"
        # max_entries=40 with 100 total puts forces eviction/compaction
        # races between the four writers; flock + atomic rename must keep
        # every surviving line independently verifiable
        assert all(r.status == STATUS_OK for r in records)
        store = ResultStore(path)
        assert store.counters()["corrupt_lines"] == 0
        assert store_cli.main(["--path", str(path), "fsck"]) == 0
        for record in records:
            assert record.key.startswith("w")
            assert record.value == {"answer": 42}
