"""Command-line tools.

``repro-sim`` — run one standalone or contested simulation:

    repro-sim gcc --core gcc                      # standalone
    repro-sim gcc --core gcc --core vpr           # 2-way contesting
    repro-sim twolf --core vortex --core vpr --latency-ns 5 --length 40000

Simulations resolve through the engine's persistent result store (under
``$REPRO_CACHE_DIR`` or ``~/.cache/repro``), so repeating an invocation —
or re-running a benchmark/seed/length combination any experiment already
simulated — replays from cache; pass ``--no-cache`` to force a fresh run.

``repro-trace`` — generate, save, load and characterise traces:

    repro-trace generate gcc --length 60000 --out gcc.rtrc
    repro-trace info gcc.rtrc
    repro-trace characterize gcc --length 20000
"""

import argparse
from typing import List, Optional

from repro.core.system import ContestingSystem
from repro.corpus import resolve_profile
from repro.engine import ContestJob, ResultStore, SimEngine, StandaloneJob
from repro.engine import TraceSpec
from repro.engine.jobs import TraceLike, resolve_trace
from repro.isa.generator import generate_trace
from repro.isa.phases import PhaseMix
from repro.isa.trace import Trace
from repro.isa.serialize import load_trace, save_trace
from repro.isa.stats import characterize
from repro.isa.workloads import BENCHMARKS
from repro.uarch.config import APPENDIX_A_CORES, core_config
from repro.uarch.run import run_standalone
from repro.util.tables import format_table


def _named_profile(name: str) -> PhaseMix:
    """Resolve a legacy benchmark or ``corpus/...`` workload name, turning
    a registry miss into a CLI-friendly error."""
    try:
        return resolve_profile(name)
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r}; expected one of "
            f"{', '.join(BENCHMARKS)}, a corpus workload "
            f"(list them with `python -m repro.corpus list`), "
            f"or a .rtrc file"
        ) from None


def _trace_from_args(args: argparse.Namespace) -> Trace:
    if args.workload.endswith(".rtrc"):
        return load_trace(args.workload)
    return generate_trace(
        _named_profile(args.workload), args.length, seed=args.seed
    )


def _trace_ref_from_args(args: argparse.Namespace) -> TraceLike:
    """A trace reference for engine jobs: a tiny :class:`TraceSpec` recipe
    for named benchmark/corpus profiles (cache-compatible with the
    experiment runner's keys), or the loaded trace by value for ``.rtrc``
    files."""
    if args.workload.endswith(".rtrc"):
        if getattr(args, "stream", False):
            raise SystemExit(
                "--stream regenerates the trace region by region, so it "
                "needs a named profile, not a .rtrc file"
            )
        return load_trace(args.workload)
    _named_profile(args.workload)  # validate eagerly, before any engine work
    return TraceSpec(
        args.workload, args.length, args.seed,
        stream=getattr(args, "stream", False),
    )


def sim_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-sim``."""
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Run a standalone or contested simulation",
    )
    parser.add_argument(
        "workload",
        help=f"benchmark name ({', '.join(BENCHMARKS)}), a corpus workload "
             "(corpus/...; list with `python -m repro.corpus list`), or a "
             ".rtrc trace file",
    )
    parser.add_argument(
        "--core", action="append", default=[], metavar="NAME",
        help=f"core type (repeat for contesting); one of {', '.join(APPENDIX_A_CORES)}",
    )
    parser.add_argument("--length", type=int, default=60_000)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--stream", action="store_true",
        help="generate the trace region by region instead of materialising "
             "it (bit-identical results; see docs/corpus.md); keys the "
             "cache separately from materialised runs",
    )
    parser.add_argument("--latency-ns", type=float, default=1.0)
    parser.add_argument(
        "--lagger-policy", choices=("disable", "resync"), default="disable"
    )
    fault = parser.add_argument_group(
        "fault injection (contested runs only; see docs/robustness.md)"
    )
    fault.add_argument(
        "--grb-drop", type=float, default=0.0, metavar="RATE",
        help="fraction of GRB transfers lost in flight",
    )
    fault.add_argument(
        "--grb-corrupt", type=float, default=0.0, metavar="RATE",
        help="fraction of GRB transfers garbled (detected on use; the "
             "receiver recovers by resync)",
    )
    fault.add_argument(
        "--grb-delay", type=float, default=0.0, metavar="RATE",
        help="fraction of GRB transfers delayed by --grb-delay-ns",
    )
    fault.add_argument(
        "--grb-delay-ns", type=float, default=10.0, metavar="NS",
        help="extra latency charged to delayed transfers (default: 10)",
    )
    fault.add_argument(
        "--kill-core", type=int, default=None, metavar="ID",
        help="kill this core (0-based index into the --core list) mid-run",
    )
    fault.add_argument(
        "--kill-at", type=int, default=0, metavar="COMMITS",
        help="retirement count at which --kill-core fires (default: 0)",
    )
    fault.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for the per-transfer fault decisions (default: 0)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="do not read or write the persistent result store",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result store location (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro)",
    )
    telemetry = parser.add_argument_group(
        "telemetry (see docs/observability.md)"
    )
    telemetry.add_argument(
        "--trace", default=None, metavar="FILE", dest="trace_out",
        help="write a Chrome trace_event JSON of the run (load in "
             "https://ui.perfetto.dev or chrome://tracing); forces a "
             "fresh simulation (never served from cache)",
    )
    telemetry.add_argument(
        "--metrics", default=None, metavar="FILE", dest="metrics_out",
        help="write a JSONL metrics snapshot of the run (typed registry "
             "stats with units and docs); forces a fresh simulation",
    )
    telemetry.add_argument(
        "--trace-detail", choices=("sampled", "full"), default="sampled",
        help="'full' records every individual GRB transfer as an event "
             "(large files); 'sampled' (default) aggregates them",
    )
    args = parser.parse_args(argv)

    cores = args.core or [
        args.workload if args.workload in APPENDIX_A_CORES else "gcc"
    ]
    configs = [core_config(name) for name in cores]
    trace_ref = _trace_ref_from_args(args)
    engine = SimEngine(
        store=None if args.no_cache else ResultStore(args.cache_dir)
    )
    tracer = None
    if args.trace_out or args.metrics_out:
        # telemetry must observe the run live, so never replay from cache
        from repro.telemetry import Tracer

        tracer = Tracer(detail=args.trace_detail)

    if len(configs) == 1:
        if (
            args.grb_drop or args.grb_corrupt or args.grb_delay
            or args.kill_core is not None
        ):
            parser.error("fault injection requires a contested run "
                         "(two or more --core)")
        if tracer is not None:
            result = run_standalone(
                configs[0], resolve_trace(trace_ref), tracer=tracer
            )
        else:
            result = engine.run(StandaloneJob(configs[0], trace_ref))
        print(
            f"{result.trace_name} on {configs[0].name}: {result.ipt:.3f} IPT "
            f"({result.ipc:.2f} IPC, {result.cycles} cycles, "
            f"mispredict {result.stats.mispredict_rate:.1%}, "
            f"L1 miss {result.stats.l1_misses}/{result.stats.l1_accesses})"
        )
    else:
        faults = None
        if (
            args.grb_drop or args.grb_corrupt or args.grb_delay
            or args.kill_core is not None
        ):
            from repro.faults import FaultPlan

            if args.kill_core is not None and not (
                0 <= args.kill_core < len(configs)
            ):
                parser.error(
                    f"--kill-core must index the --core list "
                    f"(0..{len(configs) - 1})"
                )
            faults = FaultPlan(
                seed=args.fault_seed,
                drop_rate=args.grb_drop,
                corrupt_rate=args.grb_corrupt,
                delay_rate=args.grb_delay,
                delay_ns=args.grb_delay_ns,
                kill_core=args.kill_core,
                kill_at_commit=args.kill_at,
            )
        if tracer is not None:
            result = ContestingSystem(
                configs, resolve_trace(trace_ref),
                grb_latency_ns=args.latency_ns,
                lagger_policy=args.lagger_policy,
                faults=faults,
                tracer=tracer,
            ).run()
        else:
            result = engine.run(ContestJob(
                configs=tuple(configs), trace=trace_ref,
                grb_latency_ns=args.latency_ns,
                lagger_policy=args.lagger_policy,
                faults=faults,
            ))
        print(
            f"{result.trace_name} contested on {'+'.join(cores)}: "
            f"{result.ipt:.3f} IPT (winner {result.winner}, "
            f"{result.lead_changes} lead changes, "
            f"saturated: {', '.join(result.saturated) or 'none'})"
        )
        for key, stats in result.per_core.items():
            print(
                f"  {key}: committed {stats.committed}, "
                f"injected {stats.injected}, "
                f"early-resolved {stats.early_resolved}"
            )
    if tracer is not None:
        from repro.telemetry import metrics_snapshot, write_chrome_trace
        from repro.telemetry import write_metrics_jsonl

        if args.trace_out:
            path = write_chrome_trace(args.trace_out, tracer)
            print(f"wrote Chrome trace to {path} "
                  f"({len(tracer.events)} events; open in Perfetto)")
        if args.metrics_out:
            path = write_metrics_jsonl(args.metrics_out, [metrics_snapshot(
                tracer.registry,
                meta={
                    "workload": args.workload, "cores": cores,
                    "length": args.length, "seed": args.seed,
                },
            )])
            print(f"wrote metrics snapshot to {path} "
                  f"({len(tracer.registry)} stats)")
    return 0


def trace_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-trace``."""
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Generate, inspect and characterise synthetic traces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate and save a trace")
    gen.add_argument(
        "workload",
        help="benchmark or corpus workload name "
             "(list the corpus with `python -m repro.corpus list`)",
    )
    gen.add_argument("--length", type=int, default=60_000)
    gen.add_argument("--seed", type=int, default=11)
    gen.add_argument("--out", required=True, metavar="FILE.rtrc")

    info = sub.add_parser("info", help="summarise a saved trace")
    info.add_argument("path", metavar="FILE.rtrc")

    char = sub.add_parser(
        "characterize", help="characterise a benchmark profile or saved trace"
    )
    char.add_argument("workload")
    char.add_argument("--length", type=int, default=20_000)
    char.add_argument("--seed", type=int, default=11)

    args = parser.parse_args(argv)

    if args.command == "generate":
        trace = generate_trace(
            _named_profile(args.workload), args.length, seed=args.seed
        )
        save_trace(trace, args.out)
        print(f"wrote {args.out}: {len(trace)} instructions, "
              f"{len(trace.phase_starts)} phase starts")
        return 0

    if args.command == "info":
        trace = load_trace(args.path)
        print(f"{args.path}: trace {trace.name!r}, {len(trace)} instructions, "
              f"seed {trace.seed}, {len(trace.phase_starts)} phase starts")
        return 0

    # characterize
    args.workload = args.workload  # may be a name or .rtrc
    trace = _trace_from_args(args)
    ch = characterize(trace)
    print(format_table(
        ["property", "value"],
        ch.rows(),
        title=f"Characterisation of {trace.name} ({len(trace)} instructions)",
    ))
    return 0
