"""Best-effort intra-package call graph over a :class:`ProjectContext`.

Nodes are strings: project functions by qualname
(``repro.engine.store.ResultStore.put``) and *external* callees by dotted
path (``time.sleep``, ``os.write``, ``pathlib.Path.write_text``, the
builtin ``open``).  Two edge kinds:

* ``call`` — an evidenced call expression; the edge the reachability
  queries follow;
* ``ref`` — a function *referenced* without being called (passed to
  ``ThreadPoolExecutor.submit``, ``loop.run_in_executor``,
  ``threading.Thread(target=...)``); never followed as a call, but the
  cross-thread rule reads these to find worker entry points.

Instantiating a project class (``C(...)``) makes no edge: construction
overwhelmingly happens at startup, and no rule follows it.

Resolution forms (anything else is absent, not guessed):

* ``f()`` — module function or ``from m import f`` member;
* ``mod.f()`` — through a module import alias;
* ``self.m()`` — method of the enclosing class (bases included);
* ``self.attr.m()`` / ``local.m()`` / ``param.m()`` — when the attribute,
  local or parameter has an inferred class type (direct constructor call
  or annotation; see :func:`repro.lint.project.local_types`).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from repro.lint.project import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectContext,
    local_types,
)

#: callables whose positional argument is *executed on another thread*:
#: ``(attribute name, index of the callable argument)``.
THREAD_DISPATCH_ATTRS: Dict[str, int] = {
    "submit": 0,           # ThreadPoolExecutor.submit(fn, ...)
    "run_in_executor": 1,  # loop.run_in_executor(executor, fn, ...)
    "to_thread": 0,        # asyncio.to_thread(fn, ...)
}

#: builtins resolved as external callees without an import.
TRACKED_BUILTINS = frozenset({"open"})


def iter_body_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """Nodes of a function body, *excluding* nested def/lambda bodies.

    A nested function is its own (unindexed) scope; attributing its calls
    to the enclosing function would claim the enclosing function performs
    work it may only define.  Nested defs are therefore a documented
    blind spot, not a source of false paths.
    """
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class CallSite:
    """One evidenced edge: caller, callee node id, and where in the file."""

    __slots__ = ("caller", "callee", "node", "path", "kind")

    def __init__(
        self,
        caller: str,
        callee: str,
        node: ast.AST,
        path: str,
        kind: str = "call",
    ) -> None:
        self.caller = caller
        self.callee = callee
        self.node = node
        self.path = path
        #: ``call`` | ``ref``
        self.kind = kind

    @property
    def lineno(self) -> int:
        return getattr(self.node, "lineno", 1)

    def __repr__(self) -> str:
        return f"<CallSite {self.caller} -[{self.kind}]-> {self.callee}>"


class CallGraph:
    """Forward and reverse edge indexes plus reachability queries."""

    def __init__(self, project: ProjectContext) -> None:
        self.project = project
        #: caller qualname -> outgoing call sites (every kind)
        self.out_edges: Dict[str, List[CallSite]] = {}
        #: callee node id -> incoming call sites
        self.in_edges: Dict[str, List[CallSite]] = {}
        #: worker dispatch sites: (dispatching function, dispatched callee)
        self.dispatches: List[CallSite] = []
        for info in project.modules.values():
            _GraphBuilder(self, info).build()

    # ------------------------------------------------------------- edges

    def _add(self, site: CallSite) -> None:
        self.out_edges.setdefault(site.caller, []).append(site)
        self.in_edges.setdefault(site.callee, []).append(site)
        if site.kind == "ref":
            self.dispatches.append(site)

    def calls_from(self, qualname: str) -> List[CallSite]:
        """Outgoing ``call`` edges of one function."""
        return [
            s for s in self.out_edges.get(qualname, ()) if s.kind == "call"
        ]

    # ------------------------------------------------------- reachability

    def reach_sinks(
        self,
        sinks: Set[str],
        blocked: Optional[Set[str]] = None,
    ) -> Dict[str, CallSite]:
        """Every node with a call path to a sink, with its witness edge.

        Returns ``node -> call site`` where the site is the first hop of a
        shortest path from ``node`` toward a sink (BFS from the sinks over
        reverse ``call`` edges).  ``blocked`` nodes stop propagation:
        paths may not pass *through* them (a sink that is itself blocked
        is unreachable).  ``ref`` edges are never followed.
        """
        blocked = blocked or set()
        next_hop: Dict[str, CallSite] = {}
        frontier = [s for s in sinks if s not in blocked]
        seen = set(frontier)
        while frontier:
            nxt: List[str] = []
            for node in frontier:
                for site in self.in_edges.get(node, ()):
                    if site.kind == "ref":
                        continue
                    if site.caller in seen or site.caller in blocked:
                        continue
                    seen.add(site.caller)
                    next_hop[site.caller] = site
                    nxt.append(site.caller)
            frontier = nxt
        return next_hop

    def witness_path(
        self, start: str, next_hop: Dict[str, CallSite], sinks: Set[str]
    ) -> List[str]:
        """Node names along the witness path from ``start`` into a sink."""
        path = [start]
        node = start
        while node in next_hop and node not in sinks:
            node = next_hop[node].callee
            path.append(node)
            if len(path) > 64:  # defensive: next_hop is acyclic by BFS
                break
        return path


class _GraphBuilder:
    """Walk one module's functions and emit edges."""

    def __init__(self, graph: CallGraph, info: ModuleInfo) -> None:
        self.graph = graph
        self.project = graph.project
        self.info = info

    def build(self) -> None:
        for fn in self.info.functions.values():
            self._walk_function(fn, None)
        for cls in self.info.classes.values():
            for method in cls.methods.values():
                self._walk_function(method, cls)

    # ---------------------------------------------------------- walking

    def _walk_function(
        self, fn: FunctionInfo, cls: Optional[ClassInfo]
    ) -> None:
        locals_ = local_types(self.project, self.info, fn.node, cls)
        for node in iter_body_nodes(fn.node):
            if not isinstance(node, ast.Call):
                continue
            callee = self._resolve_call(node.func, cls, locals_)
            if callee is not None:
                self.graph._add(CallSite(fn.qualname, callee, node, fn.path))
            self._emit_dispatch_refs(fn, node, callee, cls, locals_)

    # -------------------------------------------------------- resolution

    def _resolve_call(
        self,
        func: ast.expr,
        cls: Optional[ClassInfo],
        locals_: Dict[str, str],
    ) -> Optional[str]:
        """Resolve a called (or referenced) expression to a node id."""
        # f(...) — bare name
        if isinstance(func, ast.Name):
            if func.id in locals_ and func.id not in self.info.functions:
                return None  # shadowed by a typed local/param
            resolved = self.project.resolve_name(self.info, func.id)
            if resolved is not None:
                return self._unless_class(resolved)
            return func.id if func.id in TRACKED_BUILTINS else None
        if not isinstance(func, ast.Attribute):
            return None
        owner = func.value
        # mod.f(...) / mod.Class(...) — module alias attribute
        if isinstance(owner, ast.Name):
            target_mod = self.info.imports.module_aliases.get(owner.id)
            if target_mod is not None:
                mod = self.project.module_by_name(target_mod)
                if mod is not None:
                    resolved = self.project.resolve_name(mod, func.attr)
                    if resolved is not None:
                        return self._unless_class(resolved)
                return f"{target_mod}.{func.attr}"
            owner_type = locals_.get(owner.id)
            if owner_type is not None:
                return self._method(owner_type, func.attr)
            return None
        # self.attr.m(...) — typed instance attribute
        if (
            isinstance(owner, ast.Attribute)
            and isinstance(owner.value, ast.Name)
            and cls is not None
            and locals_.get(owner.value.id) == cls.qualname
        ):
            attr_type = self._attr_type(cls, owner.attr)
            if attr_type is not None:
                return self._method(attr_type, func.attr)
        return None

    def _attr_type(self, cls: ClassInfo, attr: str) -> Optional[str]:
        seen: Set[str] = set()
        queue = [cls.qualname]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.project.classes.get(current)
            if info is None:
                continue
            if attr in info.attr_types:
                return info.attr_types[attr]
            queue.extend(info.base_names)
        return None

    def _method(self, class_path: str, name: str) -> Optional[str]:
        """A method call on a value of known class type."""
        if class_path in self.project.classes:
            return self.project.method_of(class_path, name)
        return f"{class_path}.{name}"  # external class method

    def _unless_class(self, resolved: str) -> Optional[str]:
        """A resolved dotted path, or None for a project class (its
        instantiation makes no edge)."""
        return None if resolved in self.project.classes else resolved

    # -------------------------------------------------------- dispatches

    def _emit_dispatch_refs(
        self,
        fn: FunctionInfo,
        call: ast.Call,
        callee: Optional[str],
        cls: Optional[ClassInfo],
        locals_: Dict[str, str],
    ) -> None:
        """Record callables handed to thread-dispatch APIs as ``ref``."""
        target: Optional[ast.expr] = None
        if callee is not None and callee.startswith("threading.Thread"):
            for kw in call.keywords:
                if kw.arg == "target":
                    target = kw.value
        else:
            attr = (
                call.func.attr if isinstance(call.func, ast.Attribute)
                else call.func.id if isinstance(call.func, ast.Name)
                else None
            )
            if attr not in THREAD_DISPATCH_ATTRS:
                return
            index = THREAD_DISPATCH_ATTRS[attr]
            if len(call.args) > index:
                target = call.args[index]
        if target is None:
            return
        resolved = self._resolve_call(target, cls, locals_)
        if resolved is not None:
            self.graph._add(
                CallSite(fn.qualname, resolved, call, fn.path, "ref")
            )
