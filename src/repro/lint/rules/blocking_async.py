"""``blocking-in-async``: coroutines must not reach blocking calls."""

from __future__ import annotations

from typing import Iterator, Set

from repro.lint.dataflow import ReachAnalysis, async_functions, display_name
from repro.lint.diagnostics import Diagnostic
from repro.lint.project import ProjectContext
from repro.lint.registry import Rule, register

#: external operations that block the calling thread.  ``time.sleep`` and
#: the file/subprocess/socket ops stall the event loop outright;
#: ``Executor.shutdown`` joins worker threads (unbounded wait).
BLOCKING_SINKS = frozenset(
    {
        "time.sleep",
        "open",
        "os.open",
        "os.read",
        "os.write",
        "os.fsync",
        "os.fdatasync",
        "os.ftruncate",
        "os.truncate",
        "os.replace",
        "os.rename",
        "os.remove",
        "os.unlink",
        "os.mkdir",
        "os.makedirs",
        "os.listdir",
        "os.stat",
        "fcntl.flock",
        "fcntl.lockf",
        "pathlib.Path.write_text",
        "pathlib.Path.write_bytes",
        "pathlib.Path.read_text",
        "pathlib.Path.read_bytes",
        "pathlib.Path.mkdir",
        "pathlib.Path.unlink",
        "pathlib.Path.touch",
        "pathlib.Path.rename",
        "pathlib.Path.replace",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "socket.create_connection",
        "concurrent.futures.ThreadPoolExecutor.shutdown",
    }
)

#: project methods that are whole-simulation entry points: calling one
#: synchronously from a coroutine runs an entire batch on the loop.
PROJECT_SINK_SUFFIXES = (".SimEngine.run", ".SimEngine.run_many")


@register
class BlockingInAsync(Rule):
    """Flag ``async def`` bodies that transitively reach blocking calls."""

    name = "blocking-in-async"
    summary = (
        "async code must not reach blocking calls (sleep, file I/O, "
        "engine runs) on the event loop"
    )
    rationale = (
        "The service multiplexes every tenant on one event loop; a "
        "blocking call anywhere in a coroutine's synchronous call chain "
        "stalls admission, batching, and health checks for all of them at "
        "once — and a stalled batcher distorts the latency stats the "
        "scheduling experiments rely on. Blocking work belongs behind "
        "run_in_executor/asyncio.to_thread (the batcher's own pattern); "
        "callables handed to those APIs are recognised and exempt, as is "
        "object construction (startup wiring, not steady-state)."
    )

    def check_project(
        self, project: ProjectContext
    ) -> Iterator[Diagnostic]:
        graph = project.graph
        sinks: Set[str] = set(BLOCKING_SINKS)
        sinks.update(
            qualname
            for qualname in project.functions
            if qualname.endswith(PROJECT_SINK_SUFFIXES)
        )
        coroutines = async_functions(project)
        # Blocking other coroutines makes each offender report once, at
        # its own first synchronous hop, instead of every caller up the
        # await chain re-reporting the same sink.
        sync_reach = ReachAnalysis(graph, sinks, blocked=coroutines)
        for fn in project.iter_functions():
            if not fn.is_async:
                continue
            for site in graph.calls_from(fn.qualname):
                callee = site.callee
                if callee in coroutines:
                    continue  # awaited coroutine: reported on its own
                if callee in sinks:
                    chain = (
                        f"{display_name(fn.qualname, project)} -> {callee}"
                    )
                elif sync_reach.reaches(callee):
                    chain = (
                        f"{display_name(fn.qualname, project)} -> "
                        f"{sync_reach.path_string(callee)}"
                    )
                else:
                    continue
                yield Diagnostic(
                    rule=self.name,
                    path=site.path,
                    line=site.lineno,
                    col=getattr(site.node, "col_offset", 0),
                    message=(
                        f"blocking call reached from async "
                        f"'{fn.short_name}': {chain}; move it off the "
                        "event loop via run_in_executor or "
                        "asyncio.to_thread"
                    ),
                )
