"""CLI runner: regenerate every table and figure.

Usage::

    python -m repro.experiments                 # all experiments, default scale
    python -m repro.experiments --scale small   # faster, noisier
    python -m repro.experiments fig06 table1    # a subset
    python -m repro.experiments --jobs 4        # parallel simulation
    python -m repro.experiments --no-cache      # ignore the persistent store
    python -m repro.experiments --list

Experiments share one :class:`ExperimentContext`, so e.g. the region logs
computed for fig01 are reused by fig06's pair pruning and the matrix behind
table1 feeds fig09-13.  All simulation goes through
:class:`repro.engine.SimEngine`: results persist in an on-disk store under
``~/.cache/repro`` (override with ``--cache-dir`` or ``$REPRO_CACHE_DIR``),
so a repeat invocation replays from cache, and ``--jobs N`` fans cold
simulations out over N worker processes.  Cache counters go to stderr so
rendered output stays byte-identical across cache states and job counts.
"""

import argparse
import logging
import sys
import time
import traceback
from types import ModuleType
from typing import Any, Callable, Dict, List, Optional, Sequence, TextIO

from repro.engine import ParallelExecutor, ResultStore, SimEngine
from repro.telemetry import (
    StatRegistry,
    build_manifest,
    metrics_snapshot,
    write_manifest,
)
from repro.experiments import fig01, fig06, fig07, fig08, fig09, fig10
from repro.experiments import fig11, fig12, fig13, appendix_a, table1
from repro.experiments import ext_corpus, ext_energy, ext_faults, ext_nway
from repro.experiments import ext_queueing, ext_resync, ext_robustness
from repro.experiments.common import SCALES, ExperimentContext

_log = logging.getLogger("repro.experiments")


class SuiteFailure(RuntimeError):
    """Raised by :func:`run_all` under ``keep_going`` when any experiment
    failed; carries the per-experiment tracebacks."""

    def __init__(self, errors: Dict[str, str]) -> None:
        super().__init__(
            f"{len(errors)} experiment(s) failed: {', '.join(errors)}"
        )
        self.errors = errors


def _render(module: ModuleType, result: Any) -> str:
    if hasattr(module, "render"):
        return module.render(result)
    return result.render()


#: Registry in the paper's presentation order.
EXPERIMENTS: Dict[str, Callable[[ExperimentContext], Any]] = {
    "fig01": fig01.run,
    "appendix_a": appendix_a.run,
    "fig06": fig06.run,
    "fig07": fig07.run,
    "fig08": fig08.run,
    "table1": table1.run,
    "fig09": fig09.run,
    "fig10": fig10.run,
    "fig11": fig11.run,
    "fig12": fig12.run,
    "fig13": fig13.run,
    # extensions beyond the paper's figures (see each module's docstring)
    "ext_queueing": ext_queueing.run,
    "ext_nway": ext_nway.run,
    "ext_resync": ext_resync.run,
    "ext_energy": ext_energy.run,
    "ext_robustness": ext_robustness.run,
    "ext_faults": ext_faults.run,
    "ext_corpus": ext_corpus.run,
}

_MODULES = {
    "fig01": fig01, "appendix_a": appendix_a, "fig06": fig06,
    "fig07": fig07, "fig08": fig08, "table1": table1, "fig09": fig09,
    "fig10": fig10, "fig11": fig11, "fig12": fig12, "fig13": fig13,
    "ext_queueing": ext_queueing, "ext_nway": ext_nway,
    "ext_resync": ext_resync,
    "ext_energy": ext_energy,
    "ext_robustness": ext_robustness,
    "ext_faults": ext_faults,
    "ext_corpus": ext_corpus,
}


def build_engine(
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    no_cache: bool = False,
) -> SimEngine:
    """Assemble the engine the runner uses.

    ``jobs > 1`` selects the process-pool executor; ``cache_dir`` (or the
    default ``~/.cache/repro`` when it is the string ``"default"``) attaches
    the persistent result store unless ``no_cache`` is set.  The caller
    owns the engine's executor and closes it (``engine.executor.close()``)
    when done, which joins its worker pool.
    """
    executor = ParallelExecutor(workers=jobs) if jobs > 1 else None
    store = None
    if not no_cache and cache_dir is not None:
        store = ResultStore(None if cache_dir == "default" else cache_dir)
    return SimEngine(executor=executor, store=store)


def run_all(
    scale: str = "default",
    names: Optional[Sequence[str]] = None,
    stream: Optional[Any] = None,  # anything with write(); see _Tee below
    engine: Optional[SimEngine] = None,
    keep_going: bool = False,
) -> Dict[str, Any]:
    """Run the selected experiments, print each, return the result dict.

    ``engine`` defaults to a serial, memory-cache-only
    :class:`~repro.engine.SimEngine`; pass :func:`build_engine`'s product
    for parallel execution and/or persistent caching.  With ``keep_going``
    a failing experiment is recorded (traceback and all) and the rest still
    run; a :class:`SuiteFailure` is raised at the end instead of on the
    first error.
    """
    stream = stream if stream is not None else sys.stdout
    ctx = ExperimentContext(scale=scale, engine=engine)
    selected = list(names) if names else list(EXPERIMENTS)
    results: Dict[str, Any] = {}
    errors: Dict[str, str] = {}
    for name in selected:
        if name not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {name!r}; known: {', '.join(EXPERIMENTS)}"
            )
    if ctx.engine.executor.workers > 1:
        # fan the shared artefact frontier out before the serial figure loop
        ctx.prefetch()
    for name in selected:
        started = time.time()
        try:
            result = EXPERIMENTS[name](ctx)
        except Exception:
            if not keep_going:
                raise
            errors[name] = traceback.format_exc()
            _log.error("%s failed (continuing):\n%s", name, errors[name])
            continue
        results[name] = result
        # the rendered stream carries no timings, so it is byte-identical
        # across cache states and worker counts; timing goes to the
        # ``repro.experiments`` logger (stderr under the CLI)
        print(f"\n=== {name} ===", file=stream)
        print(_render(_MODULES[name], result), file=stream)
        _log.info("%s: %.1fs", name, time.time() - started)
    _log.info("%s", ctx.engine.stats_line())
    if errors:
        raise SuiteFailure(errors)
    return results


def _engine_registry(engine: SimEngine, wall_seconds: float) -> StatRegistry:
    """Typed registry view of one runner invocation's engine counters."""
    registry = StatRegistry()
    stats = engine.stats
    registry.counter(
        "engine.memory_hits", "jobs", "jobs served from the in-memory cache"
    ).inc(stats.memory_hits)
    registry.counter(
        "engine.store_hits", "jobs", "jobs served from the persistent store"
    ).inc(stats.store_hits)
    registry.counter(
        "engine.misses", "jobs", "jobs simulated cold this invocation"
    ).inc(stats.misses)
    registry.counter(
        "engine.failures", "jobs", "jobs that resolved to a JobFailure"
    ).inc(stats.failures)
    registry.gauge(
        "engine.sim_seconds", "s", "wall time spent inside simulations"
    ).set(stats.sim_seconds)
    registry.gauge(
        "runner.wall_seconds", "s", "wall time of the whole invocation"
    ).set(wall_seconds)
    if engine.store is not None:
        for name, value in engine.store.counters().items():
            registry.counter(
                f"store.{name}", "records",
                f"persistent result store '{name}' counter",
            ).inc(value)
    return registry


def _emit_run_records(
    engine: SimEngine,
    scale: str,
    names: List[str],
    jobs: int,
    cache_dir: Optional[str],
    no_cache: bool,
    wall_seconds: float,
    manifest_path: Optional[str],
) -> None:
    """Provenance side-channel of one finished invocation: a metrics
    snapshot appended to the store sidecar (when a store is attached) and
    an optional :class:`~repro.telemetry.manifest.RunManifest` file.

    Both are observability artefacts — the rendered experiment output
    stays byte-identical whether or not they are emitted.
    """
    manifest = build_manifest(
        scale=scale,
        experiments=names or list(EXPERIMENTS),
        jobs=jobs,
        cache_dir=cache_dir,
        no_cache=no_cache,
        seed=SCALES[scale].seed,
        wall_seconds=wall_seconds,
        engine=engine,
    )
    if engine.store is not None:
        registry = _engine_registry(engine, wall_seconds)
        engine.store.append_metrics(metrics_snapshot(registry, meta={
            "source": "repro-experiments",
            "config_hash": manifest.config_hash,
            "scale": scale,
            "experiments": list(manifest.experiments),
        }))
    if manifest_path:
        write_manifest(manifest_path, manifest)
        _log.info("manifest written to %s", manifest_path)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (see module docstring for usage)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures",
    )
    parser.add_argument(
        "names", nargs="*", help="experiments to run (default: all)"
    )
    parser.add_argument(
        "--scale", default="default", choices=sorted(SCALES),
        help="trace scale / candidate budget preset",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiments and exit"
    )
    parser.add_argument(
        "--output", metavar="FILE", default=None,
        help="also write the rendered results to FILE",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="simulate cold jobs over N worker processes (default: 1)",
    )
    parser.add_argument(
        "--cache-dir", default="default", metavar="DIR",
        help="persistent result store location "
             "(default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent result store",
    )
    parser.add_argument(
        "--verbose", "-v", action="store_true",
        help="per-experiment timing and engine/store counters on stderr",
    )
    parser.add_argument(
        "--keep-going", "-k", action="store_true",
        help="on an experiment failure, record it and run the rest "
             "(exit non-zero at the end)",
    )
    parser.add_argument(
        "--manifest", default=None, metavar="FILE",
        help="write a run manifest (config hash, seed, wall time, cache "
             "hit/miss counters) to FILE; see docs/observability.md",
    )
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="[%(name)s] %(message)s",
    )
    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    engine = build_engine(
        jobs=args.jobs, cache_dir=args.cache_dir, no_cache=args.no_cache
    )
    try:
        return _run_cli(args, engine)
    finally:
        # join the worker pool: no worker outlives the command
        engine.executor.close()


def _run_cli(args: argparse.Namespace, engine: SimEngine) -> int:
    """Run the parsed invocation on ``engine``; returns the exit code."""
    started = time.time()

    def emit_records() -> None:
        _emit_run_records(
            engine, args.scale, args.names, args.jobs, args.cache_dir,
            args.no_cache, time.time() - started, args.manifest,
        )

    if args.output:
        class _Tee:
            def __init__(self, *streams: TextIO) -> None:
                self._streams = streams

            def write(self, text: str) -> None:
                for s in self._streams:
                    s.write(text)

            def flush(self) -> None:
                for s in self._streams:
                    s.flush()

        try:
            with open(args.output, "w") as fh:
                run_all(
                    scale=args.scale,
                    names=args.names or None,
                    stream=_Tee(sys.stdout, fh),
                    engine=engine,
                    keep_going=args.keep_going,
                )
        except SuiteFailure as failure:
            print(f"[runner] {failure}", file=sys.stderr)
            return 1
        finally:
            # emitted even on failure: the manifest records what was
            # attempted and how the cache behaved up to the error
            emit_records()
        return 0
    try:
        run_all(
            scale=args.scale, names=args.names or None, engine=engine,
            keep_going=args.keep_going,
        )
    except SuiteFailure as failure:
        print(f"[runner] {failure}", file=sys.stderr)
        return 1
    finally:
        emit_records()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
