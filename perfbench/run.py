"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 25 --trace 0

Run from the repository root.  Prints every end-to-end metric by name,
at reference speed and raw, with its unit and sample count, then the
output checks, and as its last line one JSON object::

    {"correct": true, "attempted": 135, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first makes
the same run with ``--trace 0`` in a fresh interpreter, then runs the
workload again with the tracing wrappers installed
(``perfbench/tracing.py``), and reports the per-layer metrics and the
tracing overhead (traced minus untraced).  The exit code is 1 when any
output check fails, and 2 when there is no program to measure.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("paper_cold", "paper_warm", "service_mixed")
#: percentiles tried for the tail, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 85.0, 80.0, 75.0, 50.0)


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it
    (nearest rank), as ``(percentile, value)``."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def scaled(out: Any) -> Tuple[List[float], float]:
    """Request latencies at reference speed, and the factor that takes
    the run's other raw seconds there.

    A request with a local probe time (the probes taken around it; see
    the workloads) is scaled by that; otherwise by the run's median probe.
    """
    from perfbench.probe import PROBE_REF_S

    if not out.request_probes:
        factor = out.probe.factor()
        return [lat * factor for lat in out.latencies], factor
    lats = [lat * PROBE_REF_S / local
            for lat, local in zip(out.latencies, out.request_probes)]
    return lats, sum(lats) / sum(out.latencies)


def end_to_end(out: Any) -> List[Tuple[str, float, str, int, float, str]]:
    """``(name, reference value, unit, samples, raw value, note)`` rows."""
    lats, factor = scaled(out)
    n = len(lats)
    p, t = tail(lats)
    raw_kips = out.kinstr / out.kinstr_seconds
    return [
        ("latency_p50_s", statistics.median(lats), "s", n,
         statistics.median(out.latencies), "median request"),
        ("latency_tail_s", t, "s", n, tail(out.latencies)[1], f"p{p:g}"),
        ("sim_kips", raw_kips / factor, "kinstr/s", n, raw_kips,
         f"{out.kinstr:g} kinstr"),
        ("peak_rss_mb", out.rss_mb, "MB", 1, out.rss_mb, "not scaled"),
        ("setup_s", statistics.median(out.setups), "s", len(out.setups),
         statistics.median(out.setups_raw),
         "median of fresh set-ups, each scaled by set-up probes"),
    ]


def _print(line: str) -> None:
    print(f"[perfbench] {line}", flush=True)


def _print_probe(label: str, out: Any) -> None:
    from perfbench.probe import PROBE_REF_S

    _print(
        f"{label}probe median {out.probe.median() * 1e3:.4f} ms raw over "
        f"{len(out.probe.samples)} samples; reference "
        f"{PROBE_REF_S * 1e3:.4f} ms; run scale x{out.probe.factor():.4f}, "
        f"request-weighted scale x{scaled(out)[1]:.4f}"
    )


def _print_e2e(rows: List[Tuple[str, float, str, int, float, str]]) -> None:
    _print(f"{'metric':<16}{'value':>14}{'raw':>14}  {'unit':<10}"
           f"{'samples':>8}  note")
    for name, value, unit, n, raw, note in rows:
        _print(f"{name:<16}{value:>14.6g}{raw:>14.6g}  {unit:<10}{n:>8}  "
               f"{note}")


def _untraced(args: argparse.Namespace) -> Dict[str, Any]:
    """The same run with ``--trace 0``, in a fresh interpreter: the
    baseline the tracing overhead is measured against."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(f"[untraced] {line}", flush=True)
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"untraced run exited {proc.returncode}")
    return json.loads(lines[-1])


def _traced_pass(
    fn: Any, run: Any, out_dir: Path, label: str
) -> Tuple[Any, Dict[str, Any]]:
    from perfbench import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        traced = fn(run, tracer)
    finally:
        tracing.uninstall(tracer)
    tracer.dump(out_dir / f"{label}-trace.json")
    summaries = [tracer.summary()]
    server = traced.extra.get("server_trace")
    if server:
        kept = out_dir / f"{label}-server-trace.json"
        shutil.copyfile(server, kept)
        data = json.loads(kept.read_text())
        summaries.append(tracing.summarize(
            data["spans"], data["counts"], data["values"]
        ))
    return traced, tracing.merge(summaries)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    golden = ROOT / "tests" / "golden" / "golden_ipc.json"
    if not (ROOT / "src" / "repro").is_dir() or not golden.is_file():
        print("perfbench: src/repro or the golden IPC grid is missing; "
              "nothing to measure", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    pythonpath = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    # nothing may fall back to the user's default result store
    os.environ["REPRO_CACHE_DIR"] = str(tmp / "default-store")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import tracing, workloads

    run = workloads.RunContext(
        root=ROOT, tmp=tmp, seed=args.seed, seconds=args.seconds,
        env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    fn = workloads.WORKLOADS[args.workload]
    _print(f"workload {args.workload} seed {args.seed} seconds "
           f"{args.seconds} trace {args.trace}")
    try:
        if args.trace:
            base = _untraced(args)
            label = f"{args.workload}-seed{args.seed}"
            out, summary = _traced_pass(fn, run, out_dir, label)
            checks = out.checks + [(
                "untraced run", base["correct"], "its checks, above"
            )]
            _print_probe("traced pass: ", out)
            lats = scaled(out)[0]
            traced = {"latency_p50_s": statistics.median(lats),
                      "latency_tail_s": tail(lats)[1]}
            overhead = {
                name: traced[name] - base["metrics"][name]["value"]
                for name in traced
            }
            _print(
                "tracing overhead (traced minus untraced, reference s): "
                f"latency_p50_s {overhead['latency_p50_s']:+.6f}, "
                f"latency_tail_s {overhead['latency_tail_s']:+.6f}"
            )
            extra = dict(out.extra)
            extra["trace.overhead_p50_s"] = overhead["latency_p50_s"]
            layers = tracing.per_layer_metrics(
                summary, out.probe.factor(), extra
            )
            _print(f"{'per-layer metric':<34}{'value':>16}  unit")
            for name, (value, unit) in layers.items():
                _print(f"{name:<34}{value:>16.6g}  {unit}")
            metrics = {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in layers.items()
            }
        else:
            checks = [workloads.check_golden()]
            out = fn(run)
            checks += out.checks
            rows = end_to_end(out)
            _print_probe("", out)
            _print_e2e(rows)
            _print("set-up samples, raw s: " + " ".join(
                f"{x:.4f}" for x in out.setups_raw))
            _print("set-up probe median "
                   f"{statistics.median(out.setup_probes):.4f} s raw; "
                   f"reference {workloads.SETUP_PROBE_REF_S:.4f} s")
            metrics = {
                name: {"value": value, "unit": unit}
                for name, value, unit, _, _, _ in rows
            }
        for note in out.notes:
            _print(note)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    correct = all(ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        _print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    _print("the timing model is unvalidated against hardware, so no error "
           "figure is given")
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
