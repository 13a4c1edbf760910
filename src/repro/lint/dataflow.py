"""Reachability queries over the call graph, with witnesses.

``blocking-in-async`` reduces to one question: *can this function reach
one of these sink operations through evidenced call edges, without
passing through a blocked node?*  A :class:`ReachAnalysis` answers it
for a whole sink set at once — one reverse BFS from the sinks, O(edges)
— and keeps, for every reaching function, the first hop of a shortest
witness path so diagnostics can print the actual chain (``handle ->
_flush -> time.sleep``) instead of asserting reachability without
evidence.

A ``blocked`` node terminates propagation: paths may not pass *through*
it, and a sink that is itself blocked reaches nothing.
``blocking-in-async`` blocks *other* ``async def`` functions, so each
offending coroutine is reported once at its own first sync hop rather
than re-reported by every caller up the stack.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.lint.callgraph import CallGraph, CallSite
from repro.lint.project import ProjectContext


class ReachAnalysis:
    """Which functions reach a sink set, and how."""

    def __init__(
        self,
        graph: CallGraph,
        sinks: Set[str],
        blocked: Optional[Set[str]] = None,
    ) -> None:
        self.graph = graph
        self.sinks = sinks
        self._next_hop: Dict[str, CallSite] = graph.reach_sinks(
            sinks, blocked=blocked
        )

    def reaches(self, qualname: str) -> bool:
        """True when ``qualname`` has a call path into the sink set."""
        return qualname in self._next_hop

    def first_hop(self, qualname: str) -> Optional[CallSite]:
        """The first call edge of ``qualname``'s witness path."""
        return self._next_hop.get(qualname)

    def witness(self, qualname: str) -> List[str]:
        """Node names from ``qualname`` down to the sink it reaches."""
        if qualname not in self._next_hop:
            return []
        return self.graph.witness_path(qualname, self._next_hop, self.sinks)

    def path_string(self, qualname: str) -> str:
        """The witness path rendered for a diagnostic message.

        Intermediate project functions are shortened to their last two
        dotted components (``ResultStore.put``); the external sink keeps
        its full dotted path (``time.sleep``) because that *is* its name.
        """
        nodes = self.witness(qualname)
        if not nodes:
            return qualname
        rendered = [display_name(n, self.graph.project) for n in nodes[:-1]]
        rendered.append(nodes[-1] if _is_external(nodes[-1], self.graph.project)
                        else display_name(nodes[-1], self.graph.project))
        return " -> ".join(rendered)


def display_name(qualname: str, project: ProjectContext) -> str:
    """A compact, unambiguous rendering of a graph node for humans."""
    if ":" in qualname:  # path-disambiguated module (stem collision)
        return qualname.rsplit(":", 1)[-1] or qualname
    parts = qualname.split(".")
    if len(parts) <= 2:
        return qualname
    return ".".join(parts[-2:])


def _is_external(node: str, project: ProjectContext) -> bool:
    return node not in project.functions


def async_functions(project: ProjectContext) -> Set[str]:
    """Qualnames of every ``async def`` in the project."""
    return {
        fn.qualname for fn in project.iter_functions() if fn.is_async
    }
