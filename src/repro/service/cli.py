"""``repro-serve`` — run the simulation service as a long-lived process.

Binds the asyncio job API (:mod:`repro.service.server`) on a host/port,
serves until SIGINT/SIGTERM, then drains gracefully: no new submissions,
every admitted job finished, and (with ``--manifest``) a provenance
:class:`~repro.telemetry.manifest.RunManifest` — engine cache counters,
store integrity counters, and every ``service.*`` stat — written on the
way out.  See ``docs/service.md`` for the API and deployment notes.
"""

import argparse
import asyncio
import logging
import signal
import sys
from typing import List, Optional

from repro.service.server import ServiceConfig, SimService
from repro.telemetry.manifest import RunManifest, write_manifest


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro-serve`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve simulation jobs over an asyncio HTTP API.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8750,
        help="listen port (0 binds an ephemeral one and prints it)",
    )
    parser.add_argument(
        "--workers", type=int, default=0,
        help="parallel-executor worker processes (0: derive from CPUs)",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=256,
        help="admission-queue capacity in jobs (beyond it: 503)",
    )
    parser.add_argument(
        "--batch-max", type=int, default=32,
        help="most jobs per executor batch",
    )
    parser.add_argument(
        "--batch-window", type=float, default=0.01, metavar="SECONDS",
        help="gather window before a batch launches",
    )
    parser.add_argument(
        "--quota-rate", type=float, default=50.0, metavar="JOBS_PER_S",
        help="per-tenant token refill rate (0 never refills)",
    )
    parser.add_argument(
        "--quota-burst", type=float, default=200.0, metavar="JOBS",
        help="per-tenant token-bucket capacity",
    )
    parser.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-job watchdog budget (default: none)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="result-store directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro)",
    )
    parser.add_argument(
        "--manifest", default=None, metavar="PATH",
        help="write a RunManifest JSON here on graceful shutdown",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log at INFO level"
    )
    return parser


async def serve(
    config: ServiceConfig, want_manifest: bool = False
) -> Optional[RunManifest]:
    """Run one service until a termination signal, then drain.

    Returns the post-drain provenance manifest when asked for one; the
    caller writes it *after* the loop exits — file I/O from a coroutine
    would block the loop (and trips the ``blocking-in-async`` lint).
    """
    service = SimService(config)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stop.set)
    await service.start()
    print(
        f"repro-serve: listening on {config.host}:{service.port} "
        f"(store: {service.store.path})",
        flush=True,
    )
    await stop.wait()
    print("repro-serve: draining", flush=True)
    await service.drain()
    manifest = service.manifest() if want_manifest else None
    print("repro-serve: drained cleanly", flush=True)
    return manifest


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (the ``repro-serve`` console script)."""
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        batch_max=args.batch_max,
        batch_window_s=args.batch_window,
        quota_rate_per_s=args.quota_rate,
        quota_burst=args.quota_burst,
        job_timeout_s=args.job_timeout,
        cache_dir=args.cache_dir,
    )
    try:
        manifest = asyncio.run(
            serve(config, want_manifest=args.manifest is not None)
        )
    except KeyboardInterrupt:
        return 130
    if manifest is not None and args.manifest is not None:
        write_manifest(args.manifest, manifest)
        print(
            f"repro-serve: manifest written to {args.manifest}", flush=True
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
