"""Persistent on-disk result store (JSON-lines, crash-consistent).

One record per line, CRC-framed since format 2::

    {"crc": <crc32>, "key": <hex>, "kind": <job kind>, "v": 2, "value": {...}}

``crc`` is a CRC32 over the canonical JSON form of the other four fields,
so every record is independently verifiable: a torn tail (crash
mid-append), a bit-flipped byte, or a hand-edited line is *detected* at
load — never served — and counted.  CRC32 catches all single- and
double-bit flips and any burst up to 32 bits; anything it misses still has
to parse as JSON with a valid shape.  The format is append-only — a crash
corrupts at most the final line — so the store degrades to a recompute,
never to a crash and never to a wrong result.  Layout on disk::

    <cache_dir>/results-v<SCHEMA_VERSION>.jsonl

The job-schema version is in the filename as well as in every key (see
:mod:`repro.engine.jobs`), so bumping it simply starts a fresh file and
leaves the stale one inert.  The *record framing* version rides inside
each record (``"v"``).  Every served record is CRC-verified: a line
without a frame is corrupt, like any other unverifiable line.  (Unframed
format-1 lines predate the current file name, so no store the program
opens holds a valid one.)

Crash consistency (see ``docs/robustness.md``):

* **load** streams the file line by line (constant memory), verifies each
  frame, and counts every anomaly (``corrupt_lines``, ``crc_failures``,
  ``torn_tails``);
* an unterminated, unverifiable final line is a **torn tail**: it is
  auto-truncated (counted in ``torn_bytes_truncated``) under the store
  lock so the next append starts on a clean boundary;
* **append** first heals an unterminated tail with a newline
  (``tail_heals``) so a prior crash can never splice two records into one
  line, then issues a single ``O_APPEND`` ``write(2)``; with
  ``fsync=True`` the write is fsync'd before the fd closes;
* a failed append is **never silent**: it is counted in ``write_errors``,
  logged once per store, and surfaced through :meth:`counters`, the
  telemetry registry, and the run manifest.

Concurrency: appends are a single ``O_APPEND`` ``write(2)`` issued under
an advisory lock on a sibling ``.lock`` file, so two processes sharing a
store never interleave bytes *within* a line; compaction rewrites into a
per-pid temp file and atomically ``rename(2)``\\ s it into place under the
same lock.  On platforms without ``fcntl`` the lock degrades to nothing
and the single-write append remains the (practically sufficient) defence.

Capacity is bounded by ``max_entries``: inserting beyond it evicts the
oldest entries (insertion order) and compacts the file.  Offline
inspection and repair live in ``repro-store``
(:mod:`repro.engine.store_cli`): ``fsck`` / ``compact`` / ``stats``.

Fault injection: a :class:`~repro.chaos.engine.HarnessChaos` runtime
passed as ``chaos=`` may fail, tear, or bit-flip appends and crash the
process after a write — hoisted ``is not None`` hooks, zero cost when
absent.  ``tests/chaos`` pins that none of those faults can ever surface
as a wrong or half-read result.
"""

import dataclasses
import json
import logging
import os
import threading
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import (
    IO,
    Dict,
    Iterator,
    Optional,
    Tuple,
    TYPE_CHECKING,
    Union,
)

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

_log = logging.getLogger("repro.engine")

from repro.analysis.regions import RegionLog
from repro.core.system import ContestResult
from repro.engine.jobs import RESULT_KINDS, SCHEMA_VERSION
from repro.uarch.core import RunStats
from repro.uarch.run import StandaloneResult

if TYPE_CHECKING:  # chaos is an observer layer, never a load-bearing import
    from repro.chaos.engine import HarnessChaos

#: Default cache directory (override with $REPRO_CACHE_DIR or --cache-dir).
DEFAULT_CACHE_DIR = "~/.cache/repro"

#: Record-framing format: 2 adds the per-record CRC32 frame.
STORE_FORMAT = 2

#: Line-classification statuses produced by :func:`scan_store`.
STATUS_OK = "ok"
STATUS_CRC = "crc-mismatch"
STATUS_CORRUPT = "corrupt"
STATUS_TORN = "torn"


def default_cache_dir() -> Path:
    """The cache directory: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    return Path(
        os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
    ).expanduser()


def encode_result(result: object) -> dict:
    """Serialise a simulation result dataclass to a JSON-ready dict."""
    return dataclasses.asdict(result)


def decode_result(kind: str, payload: dict) -> object:
    """Reconstruct a result object from its JSON dict (inverse of
    :func:`encode_result`); raises on unknown kinds or bad shapes."""
    if kind == "standalone":
        data = dict(payload)
        data["stats"] = RunStats(**data["stats"])
        return StandaloneResult(**data)
    if kind == "region_log":
        return RegionLog(**payload)
    if kind == "contest":
        data = dict(payload)
        data["per_core"] = {
            name: RunStats(**stats)
            for name, stats in data["per_core"].items()
        }
        return ContestResult(**data)
    raise ValueError(f"unknown result kind {kind!r}")


# ---------------------------------------------------------------- framing


def _canonical_body(key: str, kind: str, value: dict) -> bytes:
    """The byte string the CRC covers: canonical JSON of the record body.

    ``json.dumps`` with sorted keys and tight separators round-trips
    exactly (ints are exact; floats use shortest-repr), so re-encoding a
    parsed record reproduces these bytes bit-for-bit.
    """
    return json.dumps(
        {"key": key, "kind": kind, "v": STORE_FORMAT, "value": value},
        sort_keys=True, separators=(",", ":"),
    ).encode()


def frame_record(key: str, kind: str, value: dict) -> bytes:
    """One framed, newline-terminated store line for a record."""
    crc = zlib.crc32(_canonical_body(key, kind, value))
    line = json.dumps(
        {"crc": crc, "key": key, "kind": kind, "v": STORE_FORMAT,
         "value": value},
        sort_keys=True, separators=(",", ":"),
    )
    return line.encode() + b"\n"


def classify_line(line: bytes) -> Tuple[str, str, str, dict]:
    """Classify one store line (newline already stripped).

    Returns ``(status, key, kind, value)``; for non-record statuses the
    key/kind/value slots are empty.  Statuses: :data:`STATUS_OK` (framed,
    CRC-verified), :data:`STATUS_CRC` (framed but the CRC disagrees), or
    :data:`STATUS_CORRUPT` (unparsable, unframed, or a bad shape).
    """
    try:
        record = json.loads(line)
        key = record["key"]
        kind = record["kind"]
        value = record["value"]
        crc = record["crc"]
        if not isinstance(record, dict) or not isinstance(key, str):
            raise TypeError("malformed record")
        if not isinstance(kind, str) or not isinstance(value, dict):
            raise TypeError("malformed record")
        if kind not in RESULT_KINDS:
            raise ValueError(f"unknown kind {kind!r}")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError,
            UnicodeDecodeError):
        return STATUS_CORRUPT, "", "", {}
    if record.get("v") != STORE_FORMAT or not isinstance(crc, int):
        return STATUS_CRC, key, kind, value
    if zlib.crc32(_canonical_body(key, kind, value)) != crc:
        return STATUS_CRC, key, kind, value
    return STATUS_OK, key, kind, value


@dataclasses.dataclass
class ScanRecord:
    """One classified line from :func:`scan_store`."""

    status: str
    key: str
    kind: str
    value: dict
    #: byte offset of the line start within the file
    start: int
    #: byte length of the raw line, newline included when present
    length: int
    #: whether the raw line ended with a newline
    terminated: bool


def scan_store(source: Union[str, Path, IO[bytes]]) -> Iterator[ScanRecord]:
    """Stream and classify every line of a store file.

    Reads line by line (memory stays O(longest line), never O(file)).
    An *unterminated* final line that fails verification is reported as
    :data:`STATUS_TORN` — the signature of a crash mid-append; an
    unterminated line that verifies is reported normally (only its
    newline is missing, which the next append heals).
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            yield from scan_store(fh)
        return
    offset = 0
    for raw in source:
        start = offset
        offset += len(raw)
        terminated = raw.endswith(b"\n")
        line = raw.rstrip(b"\r\n")
        if not line.strip():
            continue
        status, key, kind, value = classify_line(line)
        if not terminated and status != STATUS_OK:
            status = STATUS_TORN
        yield ScanRecord(
            status=status, key=key, kind=kind, value=value,
            start=start, length=len(raw), terminated=terminated,
        )


class ResultStore:
    """Append-only persistent cache of simulation results.

    Parameters
    ----------
    path:
        The cache *directory* (the JSON-lines file name is derived from the
        schema version) or a path ending in ``.jsonl`` to use verbatim.
    max_entries:
        Capacity bound; inserting beyond it evicts oldest-first and
        compacts the file.
    fsync:
        When True, every append (and compaction) is ``fsync``'d before its
        fd closes — the record survives an OS crash, not just a process
        crash.  Off by default: a lost cache entry is only a recompute.
    chaos:
        Optional :class:`~repro.chaos.engine.HarnessChaos` fault injector
        for the write path (tests); ``None`` takes none of those branches.
    """

    def __init__(
        self,
        path: Union[str, Path, None] = None,
        max_entries: int = 100_000,
        fsync: bool = False,
        chaos: Optional["HarnessChaos"] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        base = Path(path).expanduser() if path else default_cache_dir()
        if base.suffix == ".jsonl":
            self.path = base
        else:
            self.path = base / f"results-v{SCHEMA_VERSION}.jsonl"
        self.max_entries = max_entries
        self.fsync = fsync
        self._chaos = chaos
        self._lock_path = self.path.with_name(self.path.name + ".lock")
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: lines skipped at load/decode because they were corrupt,
        #: truncated, or CRC-invalid (umbrella counter; the finer-grained
        #: ones below partition its load-time component)
        self.corrupt_lines = 0
        #: framed records whose CRC32 did not match their body
        self.crc_failures = 0
        #: torn (unterminated, unverifiable) tails found at load
        self.torn_tails = 0
        #: bytes removed by torn-tail auto-truncation
        self.torn_bytes_truncated = 0
        #: unterminated tails healed with a newline before an append
        self.tail_heals = 0
        #: appends that failed with OSError (counted, logged once, never
        #: silent — the record stays in memory and is recomputed next run)
        self.write_errors = 0
        self._write_error_logged = False
        self._entries: Dict[str, dict] = {}
        #: serialises the in-memory view (entries dict + cache counters)
        #: across threads — the service reads on its event loop while the
        #: batcher thread runs the engine.  The flock covers file *bytes*
        #: across processes; this lock covers *memory* within one.  Never
        #: held across file I/O.
        self._mu = threading.Lock()
        self._load()

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------- load

    def _load(self) -> None:
        torn: Optional[ScanRecord] = None
        try:
            with open(self.path, "rb") as fh:
                # streamed, line-buffered: RSS stays flat however large
                # the store grew (benchmarks/test_store_load.py guards
                # the cost; tests pin that the whole-file read is gone)
                for record in scan_store(fh):
                    torn = None
                    if record.status == STATUS_OK:
                        # later lines win: appends supersede older records
                        self._entries[record.key] = {
                            "kind": record.kind, "value": record.value,
                        }
                        continue
                    self.corrupt_lines += 1
                    if record.status == STATUS_CRC:
                        self.crc_failures += 1
                    elif record.status == STATUS_TORN:
                        self.torn_tails += 1
                        torn = record
        except FileNotFoundError:
            return
        except OSError as exc:
            _log.warning("cannot read result store %s: %s", self.path, exc)
            return
        if torn is not None:
            self._truncate_torn(torn)
        self._evict_to_capacity(rewrite=False)

    def _truncate_torn(self, torn: ScanRecord) -> None:
        """Cut a torn tail off the file so appends restart on a clean
        boundary.  Skipped (harmlessly) if another writer extended the
        file since we scanned it — their append-side tail healing already
        isolated the torn bytes on their own line."""
        expected_end = torn.start + torn.length
        try:
            with self._locked():
                fd = os.open(self.path, os.O_RDWR)
                try:
                    if os.fstat(fd).st_size != expected_end:
                        return
                    os.ftruncate(fd, torn.start)
                finally:
                    os.close(fd)
        except OSError as exc:
            _log.warning(
                "could not truncate torn tail of %s: %s", self.path, exc
            )
            return
        self.torn_bytes_truncated += torn.length
        _log.warning(
            "truncated a torn %d-byte tail from %s (crash mid-append)",
            torn.length, self.path,
        )

    # -------------------------------------------------------- get / put

    def get(self, key: str, kind: str) -> Optional[object]:
        """Look up and decode a result; ``None`` (a miss) on absence, kind
        mismatch, or an undecodable payload."""
        with self._mu:
            record = self._entries.get(key)
            if record is None or record["kind"] != kind:
                self.misses += 1
                return None
            try:
                result = decode_result(kind, record["value"])
            except (TypeError, KeyError, ValueError):
                # stale shape from an older code version: treat as a miss
                del self._entries[key]
                self.corrupt_lines += 1
                self.misses += 1
                return None
            self.hits += 1
        return result

    def put(self, key: str, kind: str, result: object) -> None:
        """Insert (or supersede) a result and append it to the file."""
        record = {"kind": kind, "value": encode_result(result)}
        with self._mu:
            self._entries[key] = record
            over_capacity = len(self._entries) > self.max_entries
        if over_capacity:
            self._evict_to_capacity(rewrite=True)
            return
        data = frame_record(key, kind, record["value"])
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self._locked():
                # one O_APPEND write(2) per record: concurrent appenders
                # may interleave *lines*, never bytes within a line
                fd = os.open(
                    self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644
                )
                try:
                    self._heal_tail(fd)
                    if self._chaos is not None:
                        data = self._chaos.store_write_bytes(data)
                    os.write(fd, data)
                    if self.fsync:
                        os.fsync(fd)
                finally:
                    os.close(fd)
        except OSError as exc:
            self._count_write_error(exc)
        if self._chaos is not None:
            self._chaos.after_store_write()

    def _heal_tail(self, fd: int) -> None:
        """Terminate a torn tail before appending after it.

        A crash mid-append can leave the file without a final newline; an
        ``O_APPEND`` write landing straight after it would splice two
        records into one unparsable line, losing the *new* record too.
        One ``pread`` of the final byte prevents that for good.
        """
        if not hasattr(os, "pread"):  # pragma: no cover - non-POSIX
            return
        size = os.fstat(fd).st_size
        if size == 0:
            return
        if os.pread(fd, 1, size - 1) != b"\n":
            os.write(fd, b"\n")
            self.tail_heals += 1

    def _count_write_error(self, exc: OSError) -> None:
        self.write_errors += 1
        if not self._write_error_logged:
            self._write_error_logged = True
            _log.warning(
                "result store %s append failed (%s); counting under "
                "write_errors and continuing as a process-lifetime cache",
                self.path, exc,
            )

    @contextmanager
    def _locked(self) -> Iterator[None]:
        """Hold the store's advisory file lock (no-op without ``fcntl``)."""
        if fcntl is None:
            yield
            return
        try:
            fd = os.open(
                self._lock_path, os.O_CREAT | os.O_RDWR, 0o644
            )
        except OSError:
            yield  # unlockable filesystem: fall back to the atomic write
            return
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)

    # --------------------------------------------------- evict / rewrite

    def _evict_to_capacity(self, rewrite: bool) -> None:
        evicted = 0
        with self._mu:
            while len(self._entries) > self.max_entries:
                self._entries.pop(next(iter(self._entries)))
                evicted += 1
            self.evictions += evicted
        if rewrite and evicted:
            self._rewrite()

    def _rewrite(self) -> None:
        """Compact: rewrite the file from the in-memory view (later-lines
        -win already applied, corrupt lines dropped), then atomically
        rename into place."""
        with self._mu:
            # snapshot under the lock so a concurrent get() (which can
            # drop stale entries) never tears the iteration
            items = list(self._entries.items())
        payload = b"".join(
            frame_record(k, r["kind"], r["value"]) for k, r in items
        )
        # per-pid temp name + atomic rename: a concurrent reader sees
        # either the old file or the new one, never a half-written mix
        tmp = self.path.with_name(f"{self.path.name}.tmp.{os.getpid()}")
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self._locked():
                fd = os.open(
                    tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644
                )
                try:
                    os.write(fd, payload)
                    if self.fsync:
                        os.fsync(fd)
                finally:
                    os.close(fd)
                tmp.replace(self.path)
            _log.debug(
                "compacted %s to %d entries", self.path, len(self._entries)
            )
        except OSError as exc:
            self._count_write_error(exc)
            try:
                tmp.unlink()
            except OSError:
                _log.debug("compaction temp file %s already gone", tmp)

    # ----------------------------------------------------- metrics / API

    @property
    def metrics_path(self) -> Path:
        """The metrics sidecar file next to the result store."""
        return self.path.with_name(self.path.stem + ".metrics.jsonl")

    def append_metrics(self, record: Dict[str, object]) -> None:
        """Append one telemetry metrics record to the metrics sidecar.

        Same durability contract as :meth:`put`: one ``O_APPEND``
        ``write(2)`` under the store's advisory lock; a failed append is
        counted in ``write_errors`` (and logged once), never swallowed.
        Records are typically
        :func:`repro.telemetry.metrics.metrics_snapshot` dicts.
        """
        data = (
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        ).encode()
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self._locked():
                fd = os.open(
                    self.metrics_path,
                    os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644,
                )
                try:
                    os.write(fd, data)
                    if self.fsync:
                        os.fsync(fd)
                finally:
                    os.close(fd)
        except OSError as exc:
            self._count_write_error(exc)

    def counters(self) -> Dict[str, int]:
        """Cache and integrity counters as a plain dict.

        Everything here flows into the runner's telemetry registry
        (``store.*`` stats) and the run manifest (``store_*`` entries in
        ``engine_stats``), so a silent-drop regression is visible in
        every provenance artefact.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "corrupt_lines": self.corrupt_lines,
            "crc_failures": self.crc_failures,
            "torn_tails": self.torn_tails,
            "torn_bytes_truncated": self.torn_bytes_truncated,
            "tail_heals": self.tail_heals,
            "write_errors": self.write_errors,
            "entries": len(self._entries),
        }
