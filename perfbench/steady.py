"""Steadiness record: run every workload on ten seeds in each of two
interleaved sets, and summarise each end-to-end metric's spread.

    python3 perfbench/steady.py

Run from the repository root; it writes ``perfbench/steadiness.json``.
Runs last ``run_seconds`` from ``BENCHMARK.json``.  Set A uses seeds
1..10 and set B seeds 101..110; runs alternate A, B workload by workload,
so both sets see the same host phases.  For each set the record holds
every metric's median, quartiles (``statistics.quantiles(values, n=4)``),
and spread (quartile distance over median), and the same for the medians
of the loop probe and of the set-up probe; for
each metric it also holds the shift between the two sets' medians, as a
share of the first.  The exit code is 1 when any spread or shift exceeds
its metric's bound.
"""

import json
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SET_SEEDS = (0, 100)
WORKLOADS = ("paper_cold", "paper_warm", "service_mixed")
_PROBE = re.compile(r"^\[perfbench\] probe median ([0-9.]+) ms raw")
_SETUP_PROBE = re.compile(r"^\[perfbench\] set-up probe median ([0-9.]+) s raw")


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    """One benchmark run; its metrics and probe medians."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=400,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n"
            f"{proc.stdout}\n{proc.stderr}"
        )
    result = json.loads(lines[-1])
    probe = next(float(m.group(1)) / 1e3 for m in map(_PROBE.match, lines)
                 if m)
    setup_probe = next(float(m.group(1))
                       for m in map(_SETUP_PROBE.match, lines) if m)
    return {
        "seed": seed,
        "correct": result["correct"],
        "failed": result["failed"],
        "probe_s": probe,
        "setup_probe_s": setup_probe,
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def describe(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and quartile spread over the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def summarise(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    names = list(runs[0]["metrics"])
    return {
        "probe_s": describe([r["probe_s"] for r in runs]),
        "setup_probe_s": describe([r["setup_probe_s"] for r in runs]),
        "metrics": {n: describe([r["metrics"][n] for r in runs])
                    for n in names},
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs: Dict[str, List[List[Dict[str, Any]]]] = {
        w: [[] for _ in SET_SEEDS] for w in WORKLOADS
    }
    for i in range(1, RUNS + 1):
        for w in WORKLOADS:
            for s, base in enumerate(SET_SEEDS):
                r = run_once(w, base + i, seconds)
                runs[w][s].append(r)
                shown = " ".join(f"{k}={v:.5g}" for k, v in
                                 r["metrics"].items())
                print(f"{w} set {'AB'[s]} seed {base + i}: probe "
                      f"{r['probe_s'] * 1e3:.3f} ms {shown}", flush=True)
    record: Dict[str, Any] = {"seconds": seconds, "runs": RUNS,
                              "workloads": {}}
    ok = True
    for w in WORKLOADS:
        sets = [summarise(rs) for rs in runs[w]]
        entry: Dict[str, Any] = {"sets": sets, "runs": runs[w], "shift": {}}
        for name, bound in bounds.items():
            spreads = [s["metrics"][name]["spread"] for s in sets]
            a, b = (s["metrics"][name]["median"] for s in sets)
            shift = (b - a) / a
            entry["shift"][name] = shift
            # accepted: spreads and shift within the bound; steady:
            # spreads within a third of it
            accepted = abs(shift) <= bound and max(spreads) <= bound
            ok &= accepted
            verdict = ("steady" if accepted and max(spreads) <= bound / 3
                       else "within bound" if accepted else "TOO WIDE")
            print(f"{w:<14} {name:<15} spreads "
                  f"{' '.join(f'{x:.3f}' for x in spreads)} shift "
                  f"{shift:+.3f} bound {bound} {verdict}")
        record["workloads"][w] = entry
    (ROOT / "perfbench" / "steadiness.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
