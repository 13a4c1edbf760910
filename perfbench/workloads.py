"""The benchmark's three workloads.

* ``paper_cold`` -- closed loop, one client, no think time: a cold
  reproduction of the paper's figures at the ``tiny`` scale on a fixed
  slice of profiles, through a fresh serial engine and an empty store.
  Each simulation job is one request, timed by :class:`TimingExecutor`.
* ``paper_warm`` -- closed loop, one client: each request re-renders one
  figure from the store ``paper_cold`` fills, with a fresh store, engine
  and context, as a user re-running one figure would.  No simulation runs.
* ``service_mixed`` -- open loop: Poisson submissions at a fixed rate to a
  ``repro-serve`` process over two keep-alive connections (submit, poll),
  mixing new single jobs, 4-core sweeps and repeats.

Every workload returns an :class:`Outcome` of raw seconds and the probe
times local to each request; ``run.py`` scales them to reference speed.
"""

import asyncio
import bisect
import http.client
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.corpus import corpus_names
from repro.engine import ResultStore, SerialExecutor, SimEngine
from repro.engine import StandaloneJob, TraceSpec, execute_job
from repro.engine.store import encode_result
from repro.experiments.common import SCALES
from repro.service.client import ServiceClient, ServiceError
from repro.uarch.config import APPENDIX_A_CORES, core_config
from tests.golden.fixture import compute_goldens, load_goldens

from perfbench.paper import (
    PAPER_FIGURES, SCALE, TRACE_SEED, context, render_figure, reproduce,
)
from perfbench.probe import SETUP_PROBE_REF_S, Probe, setup_probe
from perfbench.tracing import REQUEST, Tracer

#: warm re-renders per second of ``--seconds``, which fixes the count
WARM_REQUESTS_PER_S = 20.0
#: fresh set-ups per run, spread over it; setup_s is their median
SETUP_SAMPLES = 15

#: service load: submissions per second, sized so the service stays
#: under about half busy
SERVICE_RATE = 6.0
SERVICE_TRACE_LEN = 2000
#: the mix.  Nothing in the repository records real traffic, so each
#: share is an assumption (see README.md): submissions that repeat an
#: earlier one, 4-core sweeps of a new trace, and of the new single jobs
#: the share that is streamed
REPEAT_SHARE = 0.4
SWEEP_SHARE = 0.2
STREAM_SHARE = 0.3
SWEEP_CORES = 4
POLL_S = 0.005
#: idle-gap probing: how often to look for a gap, and how far off the
#: next submission must be for a probe to fit
PROBE_GAP_S = 0.03
PROBE_CLEAR_S = 0.02
TENANT = "perfbench"


@dataclass
class RunContext:
    """What a workload needs to know about its invocation."""

    root: Path
    tmp: Path
    seed: int
    seconds: int
    env: Dict[str, str]

    def scratch(self, name: str) -> Path:
        """A fresh directory under the run's scratch space."""
        path = self.tmp / f"{name}-{len(list(self.tmp.iterdir()))}"
        path.mkdir()
        return path


@dataclass
class Outcome:
    """Raw measurements of one workload pass."""

    probe: Probe
    #: request latencies, raw seconds
    latencies: List[float] = field(default_factory=list)
    #: probe seconds local to each request (see ``local_probes``); empty
    #: when only the run's median probe applies
    request_probes: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: set-up samples: raw seconds, the set-up probe seconds local to
    #: each, and each scaled by those
    setups_raw: List[float] = field(default_factory=list)
    setup_probes: List[float] = field(default_factory=list)
    setups: List[float] = field(default_factory=list)
    #: simulated kilo-instructions and the raw seconds they took
    kinstr: float = 0.0
    kinstr_seconds: float = 0.0
    rss_mb: float = 0.0
    #: (check, passed, detail)
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: per-layer numbers the workload measures itself
    extra: Dict[str, Any] = field(default_factory=dict)

    def add_setup(self, run: RunContext, setup: Callable[[], float]) -> None:
        """Take one set-up sample, scaled by the mean of the set-up probes
        right before and right after it."""
        before = setup_probe(run.env)
        seconds = setup()
        local = (before + setup_probe(run.env)) / 2
        self.setups_raw.append(seconds)
        self.setup_probes.append(local)
        self.setups.append(seconds * SETUP_PROBE_REF_S / local)


# ------------------------------------------------------------- helpers

def job_instructions(job: Any) -> int:
    """Dynamic instructions of the program a job simulates."""
    trace = job.trace
    return trace.length if isinstance(trace, TraceSpec) else len(trace)


def peak_rss_mb() -> float:
    """Peak RSS of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class TimingExecutor:
    """A serial executor that times each job as one request and runs the
    benchmark's idle work (probes, set-up samples) between jobs."""

    workers = 1

    def __init__(self, between: Callable[[], None]) -> None:
        self.latencies: List[float] = []
        self.instructions = 0
        #: seconds spent in ``between`` (not the program's time)
        self.idle_s = 0.0
        self._between = between

    def run(self, jobs: Sequence[Any]) -> List[Tuple[object, float]]:
        out = []
        for job in jobs:
            idle_from = time.perf_counter()
            self._between()
            started = time.perf_counter()
            self.idle_s += started - idle_from
            token = REQUEST.set(len(self.latencies))
            try:
                out.append(execute_job(job))
            finally:
                REQUEST.reset(token)
            self.latencies.append(time.perf_counter() - started)
            self.instructions += job_instructions(job)
        return out


def local_probes(before: Sequence[float]) -> List[float]:
    """Per request, the median of the five probes around it: the one
    right before it, the two before that and the two after it.  The host's
    speed phases last seconds, so a request is scaled by the phase it ran
    in rather than by the run's average."""
    return [statistics.median(before[max(0, i - 2):i + 3])
            for i in range(len(before))]


class Idle:
    """Between-request work: one probe, and at chosen requests a set-up
    sample."""

    def __init__(
        self, out: Outcome, run: RunContext,
        setup: Optional[Callable[[], float]], setup_at: Set[int],
    ) -> None:
        self.out = out
        self.run = run
        self.setup = setup
        self.setup_at = setup_at
        #: the probe taken right before each request
        self.before: List[float] = []

    def __call__(self) -> None:
        if self.setup is not None and len(self.before) in self.setup_at:
            self.out.add_setup(self.run, self.setup)
        self.before.append(self.out.probe.sample())


def spread(count: int, total: int) -> Set[int]:
    """``count`` request indices spread evenly over ``total``."""
    return {i * total // count for i in range(count)}


def child_setup(run: RunContext, mode: str, store_dir: Path) -> float:
    """Seconds from spawning a fresh interpreter until it reports ready."""
    cmd = [sys.executable, str(run.root / "perfbench" / "child.py"),
           mode, str(store_dir)]
    started = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, env=run.env, text=True
    )
    line = proc.stdout.readline() if proc.stdout else ""
    seconds = time.perf_counter() - started
    proc.communicate(timeout=60)
    if line.strip() != "ready" or proc.returncode:
        raise RuntimeError(f"set-up child {mode} failed: {line!r}")
    return seconds


def check_golden() -> Tuple[str, bool, str]:
    """Re-simulate the pinned golden IPC grid; every cell must match."""
    want, got = load_goldens(), compute_goldens()
    cells = [(p, c) for p in sorted(want) for c in sorted(want[p])]
    bad = [f"{p}/{c}" for p, c in cells
           if got.get(p, {}).get(c) != want[p][c]]
    detail = f"{len(cells) - len(bad)}/{len(cells)} cells match"
    if bad:
        detail += "; mismatched: " + ", ".join(bad)
    return "golden IPC grid", not bad, detail


# ---------------------------------------------------------- paper_cold

def paper_cold(run: RunContext, tracer: Optional[Tracer] = None) -> Outcome:
    """One cold reproduction; its length is fixed (about 135 requests and
    12 reference seconds), not set by ``--seconds``.  A job that raises
    ends the run."""
    probe = Probe()
    out = Outcome(probe=probe)
    setups = None
    if tracer is None:
        def setups() -> float:
            return child_setup(run, "setup-cold", run.scratch("empty"))
    idle = Idle(out, run, setups, spread(SETUP_SAMPLES, 130))
    executor = TimingExecutor(idle)
    store_dir = run.scratch("cold-store")
    engine = SimEngine(executor, ResultStore(store_dir))
    order = random.Random(f"paper_cold/{run.seed}").sample(
        PAPER_FIGURES, len(PAPER_FIGURES)
    )
    started = time.perf_counter()
    renders = reproduce(engine, TRACE_SEED, order)
    out.latencies = executor.latencies
    out.attempted = len(executor.latencies)
    out.kinstr = executor.instructions / 1000.0
    out.kinstr_seconds = time.perf_counter() - started - executor.idle_s
    if tracer is None:
        # a fresh engine re-reading the same store renders identically
        again = SimEngine(SerialExecutor(), ResultStore(store_dir))
        same = reproduce(again) == renders
        out.checks.append((
            "cold store read back", same and again.stats.misses == 0,
            f"{len(renders)} renderings, {again.stats.store_hits} store "
            f"hits, {again.stats.misses} misses",
        ))
    out.request_probes = local_probes(idle.before)
    out.rss_mb = peak_rss_mb()
    return out


# ---------------------------------------------------------- paper_warm

def _prepare_warm(run: RunContext) -> Tuple[Path, Dict[str, str]]:
    """Untimed: reproduce into a store in a child process (so the
    benchmark process's peak RSS is the warm path's) and keep the
    renderings."""
    store_dir = run.scratch("warm-store")
    subprocess.run(
        [sys.executable, str(run.root / "perfbench" / "child.py"),
         "prep", str(store_dir)],
        env=run.env, check=True, timeout=170, stdout=subprocess.DEVNULL,
    )
    return store_dir, json.loads((store_dir / "renders.json").read_text())


def paper_warm(run: RunContext, tracer: Optional[Tracer] = None) -> Outcome:
    store_dir, renders = _prepare_warm(run)
    probe = Probe()
    out = Outcome(probe=probe)
    reps = max(1, round(
        run.seconds * WARM_REQUESTS_PER_S / len(PAPER_FIGURES)
    ))
    order = list(PAPER_FIGURES) * reps
    random.Random(f"paper_warm/{run.seed}").shuffle(order)
    setups = None
    if tracer is None:
        def setups() -> float:
            return child_setup(run, "setup-warm", store_dir)
    idle = Idle(out, run, setups, spread(SETUP_SAMPLES, len(order)))
    trace_len = SCALES[SCALE].trace_len
    mismatched: List[str] = []
    misses = 0
    for i, name in enumerate(order):
        idle()
        token = REQUEST.set(i)
        started = time.perf_counter()
        engine = SimEngine(SerialExecutor(), ResultStore(store_dir))
        text = render_figure(name, context(engine))
        seconds = time.perf_counter() - started
        REQUEST.reset(token)
        out.latencies.append(seconds)
        out.attempted += 1
        # results delivered from the store, as kilo-instructions simulated
        out.kinstr += engine.stats.store_hits * trace_len / 1000.0
        out.kinstr_seconds += seconds
        misses += engine.stats.misses
        if text != renders[name]:
            mismatched.append(name)
    out.failed = len(mismatched)
    out.checks.append((
        "warm renders byte-identical", not mismatched and misses == 0,
        f"{len(order) - len(mismatched)}/{len(order)} identical, "
        f"engine.misses == {misses}",
    ))
    out.request_probes = local_probes(idle.before)
    out.rss_mb = peak_rss_mb()
    return out


# ------------------------------------------------------- service_mixed

@dataclass
class Submission:
    at: float
    jobs: List[StandaloneJob]
    kind: str


def service_plan(seed: int, seconds: int) -> List[Submission]:
    """The submission schedule.

    ``SERVICE_RATE * seconds`` arrivals of one Poisson process (uniform
    order statistics over the window), carrying a mix of fixed shares in
    a fixed order: new single jobs (some streamed), 4-core sweeps of a
    new trace, and repeats of an earlier submission.  The arrival times
    and the order of the mix are the same for every seed, so every seed
    offers the same load shape; the seed picks the corpus traces (each
    new trace a distinct workload), the cores and what a repeat repeats.
    """
    shape = random.Random("service_mixed/schedule")
    count = round(SERVICE_RATE * seconds)
    times = sorted(shape.uniform(0.0, seconds) for _ in range(count))
    repeats = round(REPEAT_SHARE * count)
    sweeps = round(SWEEP_SHARE * count)
    streamed = round(STREAM_SHARE * (count - repeats - sweeps))
    kinds = (["repeat"] * repeats + ["sweep"] * sweeps
             + ["streamed"] * streamed)
    kinds += ["single"] * (count - len(kinds))
    shape.shuffle(kinds)
    # the first submission has nothing to repeat
    first = next(i for i, kind in enumerate(kinds) if kind != "repeat")
    kinds[0], kinds[first] = kinds[first], kinds[0]
    rng = random.Random(f"service_mixed/{seed}")
    names = list(corpus_names())
    rng.shuffle(names)
    cores = sorted(APPENDIX_A_CORES)
    plan: List[Submission] = []
    traces = 0
    for at, kind in zip(times, kinds):
        if kind == "repeat":
            earlier = plan[rng.randrange(len(plan))]
            plan.append(Submission(at, earlier.jobs, kind))
            continue
        spec = TraceSpec(
            profile=names[traces % len(names)], length=SERVICE_TRACE_LEN,
            seed=seed + traces // len(names), stream=kind == "streamed",
        )
        traces += 1
        picked = rng.sample(cores, SWEEP_CORES if kind == "sweep" else 1)
        plan.append(Submission(
            at, [StandaloneJob(core_config(c), spec) for c in picked], kind
        ))
    return plan


class Service:
    """One ``repro-serve`` process, launched through ``serve.py``."""

    def __init__(self, run: RunContext, traced: bool) -> None:
        self.out = run.scratch("service")
        cmd = [
            sys.executable, str(run.root / "perfbench" / "serve.py"),
            str(self.out), "1" if traced else "0",
            "--port", "0", "--workers", "2",
            "--cache-dir", str(run.scratch("service-store")),
        ]
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, env=run.env, text=True
        )
        try:
            line = self.proc.stdout.readline() if self.proc.stdout else ""
            if "listening on" not in line:
                raise RuntimeError(f"repro-serve did not start: {line!r}")
            self.port = int(line.split("listening on ", 1)[1].split()[0]
                            .rsplit(":", 1)[1])
            conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=30
            )
            try:
                conn.request("GET", "/v1/healthz")
                response = conn.getresponse()
                response.read()
            finally:
                conn.close()
            if response.status != 200:
                raise RuntimeError(f"healthz answered {response.status}")
        except Exception:
            self.proc.kill()
            self.proc.communicate()
            raise
        #: launch until /v1/healthz answers, raw seconds
        self.setup_s = time.perf_counter() - started

    def stop(self) -> Dict[str, Any]:
        """Drain and stop; returns the launcher's exit report."""
        self.proc.send_signal(signal.SIGTERM)
        self.proc.communicate(timeout=120)
        if self.proc.returncode:
            raise RuntimeError(f"repro-serve exited {self.proc.returncode}")
        return json.loads((self.out / "usage.json").read_text())


def _launch_only(run: RunContext) -> float:
    service = Service(run, traced=False)
    service.stop()
    return service.setup_s


async def _drive(
    port: int, plan: List[Submission], seconds: int, probe: Probe,
    tracer: Optional[Tracer],
) -> Dict[str, Any]:
    """The open-loop window: a submitter on one connection, a poller on
    the other.  Latency runs from a submission's due time until all its
    results are fetched.

    A third task probes the host's speed in the window's idle gaps: when
    no submission is unanswered or unfetched and the next one is not due
    for a while, so the service has nothing to do.  Queueing makes the
    service's latency follow the host's speed more steeply than a closed
    loop's, so each submission is scaled by the probes around it."""
    submit_client = ServiceClient("127.0.0.1", port)
    poll_client = ServiceClient("127.0.0.1", port)
    due = [0.0] * len(plan)
    late: List[float] = []
    latency: Dict[int, float] = {}
    failed: Set[int] = set()
    #: submission -> its unfetched jobs, as [job id, known done]
    waiting: Dict[int, List[List[Any]]] = {}
    fetched: Dict[Tuple[int, str], Any] = {}
    all_sent = asyncio.Event()
    start = time.perf_counter() + 0.05
    deadline = start + seconds + 90.0
    #: index of the next submission to send, and whether one is in flight
    cursor = [0, False]
    #: (when, probe seconds) taken in idle gaps
    gap_probes: List[Tuple[float, float]] = []

    async def submitter() -> None:
        for i, sub in enumerate(plan):
            due[i] = start + sub.at
            delay = due[i] - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(max(0.0, time.perf_counter() - due[i]))
            cursor[:] = [i, True]
            token = REQUEST.set(i)
            try:
                rows = await submit_client.submit(sub.jobs, tenant=TENANT)
            except ServiceError:
                failed.add(i)  # 429 and 503 count as failed
                continue
            finally:
                REQUEST.reset(token)
                cursor[:] = [i + 1, False]
            waiting[i] = [[str(r["id"]), r["state"] == "done"] for r in rows]
            if tracer is not None:
                tracer.counts["service.jobs_waited"] += len(rows)
        all_sent.set()

    async def prober() -> None:
        while not all_sent.is_set():
            await asyncio.sleep(PROBE_GAP_S)
            now = time.perf_counter()
            nxt, in_flight = cursor
            if waiting or in_flight or nxt >= len(plan):
                continue
            if start + plan[nxt].at - now > PROBE_CLEAR_S:
                gap_probes.append((now, probe.sample()))

    async def collect(i: int) -> None:
        """Fetch submission ``i``'s results in order, polling the first
        unfinished job once."""
        jobs = waiting[i]
        while jobs:
            job_id, done = jobs[0]
            if not done:
                status = await poll_client.status(job_id)
                if status["state"] == "failed":
                    failed.add(i)
                    del waiting[i]
                    return
                if status["state"] != "done":
                    return
            result = await poll_client.result(job_id)
            fetched[(i, job_id)] = result["value"]
            jobs.pop(0)
        latency[i] = time.perf_counter() - due[i]
        del waiting[i]

    async def poller() -> None:
        while not (all_sent.is_set() and not waiting):
            if time.perf_counter() > deadline:
                break
            for i in list(waiting):
                token = REQUEST.set(i)
                try:
                    await collect(i)
                finally:
                    REQUEST.reset(token)
            await asyncio.sleep(POLL_S)

    try:
        await asyncio.gather(submitter(), poller(), prober())
        stats = await poll_client.stats()
    finally:
        await submit_client.close()
        await poll_client.close()
    for i in range(len(plan)):
        if i not in latency:
            failed.add(i)
    return {"latency": latency, "due": due, "late": late, "failed": failed,
            "fetched": fetched, "stats": stats, "gap_probes": gap_probes}


def bracketing_probes(
    gap_probes: List[Tuple[float, float]], start: float, end: float
) -> float:
    """Mean of the idle-gap probes right before ``start`` and right after
    ``end``: the host's speed around one submission's lifetime."""
    times = [when for when, _ in gap_probes]
    near = []
    before = bisect.bisect_left(times, start) - 1
    after = bisect.bisect_right(times, end)
    if before >= 0:
        near.append(gap_probes[before][1])
    if after < len(gap_probes):
        near.append(gap_probes[after][1])
    return statistics.mean(near)


def _check_sample(
    plan: List[Submission], fetched: Dict[Tuple[int, str], Any], seed: int
) -> Tuple[str, bool, str]:
    """Service results must equal in-process ``job.run()``."""
    jobs = {}
    for sub in plan:
        for job in sub.jobs:
            jobs.setdefault(job.cache_key(), job)
    values = {job_id: value for (_, job_id), value in fetched.items()}
    sample = random.Random(f"service_check/{seed}").sample(
        sorted(values), min(6, len(values))
    )
    bad = [
        job_id for job_id in sample
        if json.loads(json.dumps(encode_result(jobs[job_id].run())))
        != values[job_id]
    ]
    return (
        "service results equal job.run()", bool(sample) and not bad,
        f"{len(sample) - len(bad)}/{len(sample)} sampled jobs equal",
    )


def service_mixed(run: RunContext, tracer: Optional[Tracer] = None) -> Outcome:
    probe = Probe()
    out = Outcome(probe=probe)
    plan = service_plan(run.seed, run.seconds)
    # set-up samples before and after the window
    if tracer is None:
        for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2):
            out.add_setup(run, lambda: _launch_only(run))
    service = Service(run, traced=tracer is not None)
    try:
        probe.sample(40)
        window = asyncio.run(
            _drive(service.port, plan, run.seconds, probe, tracer)
        )
        probe.sample(40)
    finally:
        report = service.stop()
    if tracer is None:
        for _ in range(SETUP_SAMPLES // 2):
            out.add_setup(run, lambda: _launch_only(run))
    if report["trace"]:
        out.extra["server_trace"] = report["trace"]
    done = sorted(window["latency"])
    out.latencies = [window["latency"][i] for i in done]
    if window["gap_probes"]:
        out.request_probes = [
            bracketing_probes(
                window["gap_probes"], window["due"][i],
                window["due"][i] + window["latency"][i],
            )
            for i in done
        ]
    out.attempted = len(plan)
    out.failed = len(window["failed"])
    stats = window["stats"]
    # the service's simulation speed: executed jobs over the per-job
    # seconds its executor returned
    out.kinstr = stats["engine"]["misses"] * SERVICE_TRACE_LEN / 1000.0
    out.kinstr_seconds = stats["engine"]["sim_seconds"]
    out.rss_mb = (report["self_kb"] + report["children_kb"]) / 1024.0

    def stat(name: str) -> float:
        return float(stats["service"][name])

    submitted = stat("service.submitted")
    out.extra["service.dedup_ratio"] = (
        (stat("service.cache_hits") + stat("service.dedup_inflight"))
        / submitted if submitted else 0.0
    )
    out.extra["service.rejected"] = (
        stat("service.rejected_quota") + stat("service.rejected_capacity")
    )
    late = sorted(window["late"])
    out.notes.append(
        f"generator lateness p90 {late[int(0.9 * (len(late) - 1))] * 1e3:.2f}"
        f" ms raw; {len(plan)} submissions at {SERVICE_RATE:g}/s, "
        f"{int(stats['engine']['misses'])} jobs simulated in "
        f"{stats['engine']['sim_seconds']:.2f} executor job seconds (raw) "
        f"over the {run.seconds} s window, "
        f"{len(window['gap_probes'])} probes in idle gaps"
    )
    if tracer is None:
        out.checks.append(_check_sample(plan, window["fetched"], run.seed))
    return out


WORKLOADS = {
    "paper_cold": paper_cold,
    "paper_warm": paper_warm,
    "service_mixed": service_mixed,
}
