"""``repro-store`` — offline inspection and repair of a result store.

Subcommands (see ``docs/robustness.md`` for the on-disk format):

``fsck``
    Stream-scan the store file and report every line's classification
    (ok / crc-mismatch / corrupt / torn; an unframed line is corrupt).
    With ``--repair``, rewrite the file keeping only CRC-verified
    records: torn tails are truncated, corrupt and CRC-failing lines
    dropped.  Exits 0 when the file is clean (or was repaired), 1 when
    issues were found and left in place.

``compact``
    Deduplicate (later lines win), drop anything unverifiable, and
    atomically rewrite the file.

``stats``
    Print entry/byte counts, per-kind totals, and the load-time
    integrity counters as JSON.

The store file is located exactly as :class:`~repro.engine.store.ResultStore`
does: ``--path`` names the file (``*.jsonl``) or its directory; otherwise
``--cache-dir``, ``$REPRO_CACHE_DIR``, or ``~/.cache/repro``.
"""

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Set

from repro.engine.jobs import SCHEMA_VERSION
from repro.engine.store import (
    STATUS_OK,
    ResultStore,
    default_cache_dir,
    scan_store,
)

#: fsck statuses that indicate a line needing repair
_ISSUE_STATUSES = ("crc-mismatch", "corrupt", "torn")


def resolve_store_path(
    path: Optional[str], cache_dir: Optional[str]
) -> Path:
    """The store file a CLI invocation refers to."""
    if path is not None:
        p = Path(path).expanduser()
        if p.suffix == ".jsonl":
            return p
        return p / f"results-v{SCHEMA_VERSION}.jsonl"
    if cache_dir is not None:
        return (
            Path(cache_dir).expanduser() / f"results-v{SCHEMA_VERSION}.jsonl"
        )
    return default_cache_dir() / f"results-v{SCHEMA_VERSION}.jsonl"


def _scan_summary(path: Path) -> Dict[str, int]:
    """Counts per classification status for one store file."""
    counts: Counter[str] = Counter()
    for record in scan_store(path):
        counts[record.status] += 1
    return dict(counts)


def cmd_fsck(path: Path, repair: bool) -> int:
    """Verify (and optionally repair) one store file."""
    if not path.exists():
        print(f"repro-store fsck: {path}: no store file (clean)")
        return 0
    counts = _scan_summary(path)
    total = sum(counts.values())
    issues = sum(counts.get(status, 0) for status in _ISSUE_STATUSES)
    print(f"repro-store fsck: {path}")
    print(f"  lines: {total}")
    for status in (STATUS_OK,) + _ISSUE_STATUSES:
        if counts.get(status):
            print(f"  {status}: {counts[status]}")
    if issues == 0:
        print("  clean")
        return 0
    if not repair:
        print(f"  {issues} issue(s) found; rerun with --repair")
        return 1
    # Loading truncates a torn tail and drops unverifiable lines; the
    # rewrite keeps what survives and drops the rest from disk.
    store = ResultStore(path)
    store._rewrite()
    after = _scan_summary(path) if path.exists() else {}
    remaining = sum(after.get(status, 0) for status in _ISSUE_STATUSES)
    print(
        f"  repaired: kept {len(store)} record(s), dropped "
        f"{issues} bad line(s)"
    )
    if store.write_errors:
        print(f"  repair hit {store.write_errors} write error(s)")
        return 1
    return 0 if remaining == 0 else 1


def cmd_compact(path: Path) -> int:
    """Deduplicate and rewrite one store file in framed form."""
    if not path.exists():
        print(f"repro-store compact: {path}: no store file")
        return 0
    before = path.stat().st_size
    store = ResultStore(path)
    store._rewrite()
    if store.write_errors:
        print(f"repro-store compact: {path}: rewrite failed")
        return 1
    after = path.stat().st_size
    print(
        f"repro-store compact: {path}: {len(store)} entries, "
        f"{before} -> {after} bytes"
    )
    return 0


def cmd_stats(path: Path) -> int:
    """Print store statistics as JSON."""
    if not path.exists():
        print(json.dumps({"path": str(path), "exists": False}, indent=2))
        return 0
    kinds: Counter[str] = Counter()
    statuses: Counter[str] = Counter()
    keys: Set[str] = set()
    for record in scan_store(path):
        statuses[record.status] += 1
        if record.status == STATUS_OK:
            kinds[record.kind] += 1
            keys.add(record.key)
    print(
        json.dumps(
            {
                "path": str(path),
                "exists": True,
                "bytes": path.stat().st_size,
                "lines": sum(statuses.values()),
                "unique_keys": len(keys),
                "by_status": dict(statuses),
                "by_kind": dict(kinds),
            },
            indent=2, sort_keys=True,
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (the ``repro-store`` console script)."""
    parser = argparse.ArgumentParser(
        prog="repro-store",
        description="Inspect and repair a repro result store.",
    )
    parser.add_argument(
        "--path",
        help="store file (*.jsonl) or its directory "
        "(default: the cache directory)",
    )
    parser.add_argument(
        "--cache-dir",
        help="cache directory holding results-v<N>.jsonl "
        "(default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fsck = sub.add_parser("fsck", help="verify record framing and CRCs")
    fsck.add_argument(
        "--repair", action="store_true",
        help="rewrite the file keeping only verifiable records",
    )
    sub.add_parser("compact", help="deduplicate and rewrite the store")
    sub.add_parser("stats", help="print store statistics as JSON")
    args = parser.parse_args(argv)
    path = resolve_store_path(args.path, args.cache_dir)
    if args.command == "fsck":
        return cmd_fsck(path, repair=args.repair)
    if args.command == "compact":
        return cmd_compact(path)
    return cmd_stats(path)


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
