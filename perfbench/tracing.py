"""Traced runs: spans at every layer boundary, recorded from outside.

:func:`install` rebinds public functions and methods of each layer to
wrappers that record a span -- name, start, end, parent span and request
id -- and the counts the per-layer metrics need.  A function is rebound in
every ``repro`` module that holds it, so ``from x import f`` copies are
traced too.  Spans stay in memory and are written out when the run ends
(:meth:`Tracer.dump`).  A span's self time is its duration minus its
children's.

Nothing is recorded in any process but the one that installed the
wrappers: pool workers forked from a traced service run the original
code, and their time reaches the trace only as the per-job seconds the
executor returns.
"""

import contextvars
import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from perfbench.paper import PAPER_FIGURES

#: the span a new span is a child of (per thread and per asyncio task)
_PARENT: "contextvars.ContextVar[int]" = contextvars.ContextVar(
    "perfbench_parent", default=-1
)
#: the request a span belongs to, set by the workload around each request
REQUEST: "contextvars.ContextVar[int]" = contextvars.ContextVar(
    "perfbench_request", default=-1
)

#: span names whose per-call durations are kept (medians are reported)
_MEDIAN_SPANS = (
    "service.rtt.submit", "service.rtt.status", "service.rtt.result",
)


class Tracer:
    """Spans, counts and value lists of one process's traced run.

    ``server`` marks the tracer inside a service process, which alone
    reports executor batches and queue waits as ``service.*`` values.
    """

    def __init__(self, server: bool = False) -> None:
        self.pid = os.getpid()
        self.server = server
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.values: Dict[str, List[float]] = defaultdict(list)
        #: service job id -> when it was (re)queued
        self.queued_at: Dict[str, float] = {}
        self._undo: List[Tuple[object, str, object]] = []

    def active(self) -> bool:
        """Whether spans are recorded in the calling process."""
        return os.getpid() == self.pid

    def open(self, name: str) -> Tuple[int, float, "contextvars.Token[int]"]:
        sid = len(self.spans)
        self.spans.append((name, 0.0, 0.0, _PARENT.get(), REQUEST.get()))
        token = _PARENT.set(sid)
        return sid, time.perf_counter(), token

    def close(
        self, sid: int, started: float, token: "contextvars.Token[int]"
    ) -> float:
        ended = time.perf_counter()
        name, _, _, parent, request = self.spans[sid]
        self.spans[sid] = (name, started, ended, parent, request)
        _PARENT.reset(token)
        return ended - started

    def dump(self, path: Path) -> None:
        """Write the spans, counts and values out as JSON."""
        path.write_text(json.dumps({
            "pid": self.pid,
            "spans": self.spans,
            "counts": dict(self.counts),
            "values": dict(self.values),
        }))

    def summary(self) -> Dict[str, Any]:
        """Per-span-name calls, total and self seconds, plus counts."""
        return summarize(self.spans, self.counts, self.values)


def summarize(
    spans: Sequence[Sequence[Any]],
    counts: Dict[str, float],
    values: Dict[str, List[float]],
) -> Dict[str, Any]:
    """Aggregate spans by name: ``[calls, total_s, self_s, durations]``."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    agg: Dict[str, List[Any]] = {}
    for sid, (name, start, end, _, _) in enumerate(spans):
        row = agg.setdefault(name, [0, 0.0, 0.0, []])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child[sid]
        if name in _MEDIAN_SPANS:
            row[3].append(end - start)
    return {
        "spans": agg,
        "counts": dict(counts),
        "values": {k: list(v) for k, v in values.items()},
    }


def merge(summaries: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum summaries of several processes (client and service)."""
    out: Dict[str, Any] = {"spans": {}, "counts": defaultdict(float),
                           "values": defaultdict(list)}
    for s in summaries:
        for name, (calls, total, self_s, durs) in s["spans"].items():
            row = out["spans"].setdefault(name, [0, 0.0, 0.0, []])
            row[0] += calls
            row[1] += total
            row[2] += self_s
            row[3].extend(durs)
        for k, v in s["counts"].items():
            out["counts"][k] += v
        for k, v in s["values"].items():
            out["values"][k].extend(v)
    return out


# ------------------------------------------------------------- wrappers

#: ``before(args) -> state`` and ``after(tracer, args, result, state,
#: seconds)`` hooks that turn a call into counts
Before = Optional[Callable[[tuple], Any]]
After = Optional[Callable[["Tracer", tuple, Any, Any, float], None]]


def _wrap(
    tracer: Tracer, name: str, fn: Callable[..., Any],
    before: Before = None, after: After = None,
) -> Callable[..., Any]:
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def traced_async(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active():
                return await fn(*args, **kwargs)
            state = before(args) if before else None
            sid, started, token = tracer.open(name)
            try:
                result = await fn(*args, **kwargs)
            finally:
                seconds = tracer.close(sid, started, token)
            if after:
                after(tracer, args, result, state, seconds)
            return result
        return traced_async

    if inspect.isgeneratorfunction(fn):
        # the work happens at each next(): one span per item pulled
        @functools.wraps(fn)
        def traced_gen(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active():
                return fn(*args, **kwargs)
            tracer.counts[name + ".calls"] += 1
            return _traced_items(tracer, name, fn(*args, **kwargs))
        return traced_gen

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        if not tracer.active():
            return fn(*args, **kwargs)
        state = before(args) if before else None
        sid, started, token = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = tracer.close(sid, started, token)
        if after:
            after(tracer, args, result, state, seconds)
        return result
    return traced


def _traced_items(tracer: Tracer, name: str, items: Any) -> Any:
    try:
        while True:
            sid, started, token = tracer.open(name)
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                tracer.close(sid, started, token)
            tracer.counts[name + ".instrs"] += len(item)
            yield item
    finally:
        items.close()


# ---------------------------------------------------------------- hooks

def _standalone_done(tr: Tracer, args: tuple, result: Any, _s: Any,
                     _t: float) -> None:
    tr.counts["uarch.sim_instrs"] += result.instructions
    tr.counts["uarch.sim_cycles"] += result.cycles


def _contest_done(tr: Tracer, args: tuple, result: Any, _s: Any,
                  _t: float) -> None:
    tr.counts["core.contest.lead_changes"] += result.lead_changes


def _engine_stats(args: tuple) -> Tuple[int, int, int]:
    s = args[0].stats
    return s.memory_hits, s.store_hits, s.misses


def _engine_done(tr: Tracer, args: tuple, result: Any,
                 state: Tuple[int, int, int], seconds: float) -> None:
    now = _engine_stats(args)
    for key, was, is_ in zip(("memory_hits", "store_hits", "misses"),
                             state, now):
        tr.counts["engine." + key] += is_ - was
    if tr.server:
        tr.values["service.batch_s"].append(seconds)
        tr.values["service.batch_jobs"].append(len(args[1]))


def _store_loaded(tr: Tracer, args: tuple, _r: Any, _s: Any,
                  _t: float) -> None:
    tr.counts["engine.store.load_records"] += len(args[0])


def _store_size(args: tuple) -> int:
    try:
        return os.path.getsize(args[0].path)
    except OSError:
        return 0


def _store_put(tr: Tracer, args: tuple, _r: Any, size: int,
               _t: float) -> None:
    tr.counts["engine.store.put_bytes"] += _store_size(args) - size


def _executor_idle(args: tuple) -> float:
    return getattr(args[0], "idle_s", 0.0)


def _executor_done(tr: Tracer, args: tuple, result: Any, idle: float,
                   seconds: float) -> None:
    # executor wall minus the job seconds it returns, spread over the
    # workers that ran them (and minus any benchmark probing between jobs)
    executor = args[0]
    lanes = max(1, min(executor.workers, len(result)))
    tr.counts["engine.executor.jobs"] += len(result)
    tr.counts["engine.executor.overhead_s"] += (
        seconds - sum(s for _, s in result) / lanes
        - (getattr(executor, "idle_s", 0.0) - idle)
    )


def _record_created(tr: Tracer, args: tuple, _r: Any, _s: Any,
                    _t: float) -> None:
    record = args[0]
    if record.state == "queued":
        tr.queued_at[record.key] = time.perf_counter()


def _record_moved(tr: Tracer, args: tuple, _r: Any, _s: Any,
                  _t: float) -> None:
    record, state = args[0], args[1]
    now = time.perf_counter()
    if state == "queued":
        tr.queued_at[record.key] = now
    elif state == "running" and record.key in tr.queued_at:
        tr.values["service.queue_wait_s"].append(
            now - tr.queued_at.pop(record.key)
        )


# -------------------------------------------------------------- install

def _targets() -> List[Tuple[object, str, str, Before, After]]:
    """(owner, attribute, span name, before, after) for every wrapper.

    An owner that is a module has the function rebound wherever it was
    imported; an owner that is a class has the method replaced.
    """
    from repro.analysis import regions, switching
    from repro.cmp import designer
    from repro.core.system import ContestingSystem
    from repro.corpus import registry
    from repro.engine import engine, executors, jobs, store
    from repro.isa import generator, trace
    from repro.service import client, codec, server
    from repro.uarch import run as uarch_run
    from perfbench.workloads import TimingExecutor

    targets: List[Tuple[object, str, str, Before, After]] = [
        (generator, "generate_chunks", "isa.generate", None, None),
        (trace.Trace, "decoded", "isa.decode", None, None),
        (registry, "resolve_profile", "corpus.resolve", None, None),
        (registry, "profile_key", "corpus.resolve", None, None),
        (uarch_run, "run_standalone", "uarch.standalone", None,
         _standalone_done),
        (ContestingSystem, "run", "core.contest", None, _contest_done),
        (regions, "region_log", "analysis.region_log", None, None),
        (switching, "pair_switch_time", "analysis.pair_switch", None, None),
        (engine.SimEngine, "run_many", "engine.lookup", _engine_stats,
         _engine_done),
        (jobs.StandaloneJob, "cache_key", "engine.cache_key", None, None),
        (jobs.RegionLogJob, "cache_key", "engine.cache_key", None, None),
        (jobs.ContestJob, "cache_key", "engine.cache_key", None, None),
        (store.ResultStore, "__init__", "engine.store.load", None,
         _store_loaded),
        (store.ResultStore, "get", "engine.store.get", None, None),
        (store.ResultStore, "put", "engine.store.put", _store_size,
         _store_put),
        (executors.SerialExecutor, "run", "engine.executor", _executor_idle,
         _executor_done),
        (executors.ParallelExecutor, "run", "engine.executor",
         _executor_idle, _executor_done),
        (TimingExecutor, "run", "engine.executor", _executor_idle,
         _executor_done),
        (designer, "design_suite", "cmp.design", None, None),
        (client.ServiceClient, "submit", "service.rtt.submit", None, None),
        (client.ServiceClient, "status", "service.rtt.status", None, None),
        (client.ServiceClient, "result", "service.rtt.result", None, None),
        (codec, "decode_jobs", "service.codec", None, None),
        (codec, "encode_job", "service.codec", None, None),
        (server.JobRecord, "__init__", "service.record", None,
         _record_created),
        (server.JobRecord, "transition", "service.record", None,
         _record_moved),
    ]
    for short in PAPER_FIGURES:
        module = importlib.import_module(f"repro.experiments.{short}")
        if hasattr(module, "run"):
            targets.append((module, "run", "experiments.run", None, None))
        if inspect.isfunction(getattr(module, "render", None)):
            targets.append(
                (module, "render", "experiments.render", None, None)
            )
        for cls in vars(module).values():
            if (inspect.isclass(cls) and cls.__module__ == module.__name__
                    and "render" in vars(cls)):
                targets.append(
                    (cls, "render", "experiments.render", None, None)
                )
    return targets


def install(tracer: Tracer) -> None:
    """Rebind every traced call to its wrapper (undone by
    :func:`uninstall`)."""
    for owner, attr, name, before, after in _targets():
        if inspect.isclass(owner):
            original = vars(owner)[attr]
            setattr(owner, attr, _wrap(tracer, name, original, before, after))
            tracer._undo.append((owner, attr, original))
            continue
        original = getattr(owner, attr)
        wrapper = _wrap(tracer, name, original, before, after)
        for module in list(sys.modules.values()):
            modname = getattr(module, "__name__", "") or ""
            if modname != "repro" and not modname.startswith("repro."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    tracer._undo.append((module, key, original))


def uninstall(tracer: Tracer) -> None:
    """Restore every binding :func:`install` replaced."""
    while tracer._undo:
        owner, attr, original = tracer._undo.pop()
        setattr(owner, attr, original)


# ------------------------------------------------------ per-layer metrics

def per_layer_metrics(
    summary: Dict[str, Any], factor: float, extra: Dict[str, float]
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric, seconds scaled to reference speed.

    ``extra`` carries what the workload measured itself: the service's
    dedup ratio and rejections, and the tracing overhead.
    """
    spans = summary["spans"]
    counts = defaultdict(float, summary["counts"])
    values = summary["values"]

    def calls(name: str) -> float:
        return float(spans[name][0]) if name in spans else 0.0

    def self_s(name: str) -> float:
        return spans[name][2] * factor if name in spans else 0.0

    def total_s(name: str) -> float:
        return spans[name][1] * factor if name in spans else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def med(samples: Sequence[float]) -> float:
        return statistics.median(samples) * factor if samples else 0.0

    sims = calls("uarch.standalone") + calls("core.contest")
    resolved = (counts["engine.memory_hits"] + counts["engine.store_hits"]
                + counts["engine.misses"])
    batches = values.get("service.batch_jobs", [])
    m = {
        "isa.generate.calls": (counts["isa.generate.calls"], "count"),
        "isa.generate.self_s": (self_s("isa.generate"), "s"),
        "isa.generate.instrs": (counts["isa.generate.instrs"], "count"),
        "isa.decode.self_s": (self_s("isa.decode"), "s"),
        "isa.reuse_ratio": (ratio(sims, counts["isa.generate.calls"]),
                            "sims/trace"),
        "corpus.resolve.self_s": (self_s("corpus.resolve"), "s"),
        "uarch.standalone.calls": (calls("uarch.standalone"), "count"),
        "uarch.standalone.self_s": (self_s("uarch.standalone"), "s"),
        "uarch.sim_instrs": (counts["uarch.sim_instrs"], "count"),
        "uarch.sim_cycles": (counts["uarch.sim_cycles"], "count"),
        "uarch.us_per_instr": (
            ratio(self_s("uarch.standalone") * 1e6,
                  counts["uarch.sim_instrs"]), "us"),
        "core.contest.calls": (calls("core.contest"), "count"),
        "core.contest.self_s": (self_s("core.contest"), "s"),
        "core.contest.lead_changes": (
            counts["core.contest.lead_changes"], "count"),
        "analysis.region_log.self_s": (self_s("analysis.region_log"), "s"),
        "analysis.pair_switch.calls": (calls("analysis.pair_switch"),
                                       "count"),
        "analysis.pair_switch.self_s": (self_s("analysis.pair_switch"), "s"),
        "engine.cache_key.calls": (calls("engine.cache_key"), "count"),
        "engine.cache_key.self_s": (self_s("engine.cache_key"), "s"),
        "engine.lookup.self_s": (self_s("engine.lookup"), "s"),
        "engine.memory_hit_ratio": (
            ratio(counts["engine.memory_hits"], resolved), "ratio"),
        "engine.store_hit_ratio": (
            ratio(counts["engine.store_hits"], resolved), "ratio"),
        "engine.misses": (counts["engine.misses"], "count"),
        "engine.store.load_s": (total_s("engine.store.load"), "s"),
        "engine.store.load_records": (
            counts["engine.store.load_records"], "count"),
        "engine.store.get.self_s": (self_s("engine.store.get"), "s"),
        "engine.store.put.calls": (calls("engine.store.put"), "count"),
        "engine.store.put.self_s": (self_s("engine.store.put"), "s"),
        "engine.store.put_bytes": (counts["engine.store.put_bytes"],
                                   "bytes"),
        "engine.executor.batches": (calls("engine.executor"), "count"),
        "engine.executor.jobs_per_batch": (
            ratio(counts["engine.executor.jobs"], calls("engine.executor")),
            "jobs"),
        "engine.executor.overhead_s": (
            counts["engine.executor.overhead_s"] * factor, "s"),
        "experiments.run.self_s": (self_s("experiments.run"), "s"),
        "experiments.render.self_s": (self_s("experiments.render"), "s"),
        "cmp.design.self_s": (self_s("cmp.design"), "s"),
        "service.rtt.submit_s": (
            med(spans.get("service.rtt.submit", [0, 0, 0, []])[3]), "s"),
        "service.rtt.status_s": (
            med(spans.get("service.rtt.status", [0, 0, 0, []])[3]), "s"),
        "service.rtt.result_s": (
            med(spans.get("service.rtt.result", [0, 0, 0, []])[3]), "s"),
        "service.polls_per_job": (
            ratio(calls("service.rtt.status"),
                  counts["service.jobs_waited"]), "polls"),
        "service.queue_wait_s": (
            med(values.get("service.queue_wait_s", [])), "s"),
        "service.batch_s": (med(values.get("service.batch_s", [])), "s"),
        "service.jobs_per_batch": (ratio(sum(batches), len(batches)),
                                   "jobs"),
        "service.dedup_ratio": (extra.get("service.dedup_ratio", 0.0),
                                "ratio"),
        "service.codec.self_s": (self_s("service.codec"), "s"),
        "service.rejected": (extra.get("service.rejected", 0.0), "count"),
        "trace.overhead_p50_s": (extra.get("trace.overhead_p50_s", 0.0),
                                 "s"),
    }
    return m
