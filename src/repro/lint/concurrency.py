"""Shared lock-scope analysis for the concurrency rule pack.

``lock-discipline`` and ``cross-thread-mutable-state`` both need the same
question answered about every statement in a method: *is it lexically
inside one of the class's designated lock scopes?*  A designated lock is

* an instance attribute typed :class:`threading.Lock`/``RLock`` (inferred
  from ``self._mu = threading.Lock()`` or an annotation), entered as
  ``with self._mu:``; or
* a ``@contextmanager``-decorated method of the class (the
  ``ResultStore._locked()`` flock idiom), entered as
  ``with self._locked():``.

The walk is lexical and per-method; a method whose writes are protected
by its *callers'* lock scopes (``_heal_tail`` called from ``put`` under
``_locked()``) is handled by the rules themselves via the call sites this
module also reports.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.lint.astutil import decorator_parts
from repro.lint.project import ClassInfo, ProjectContext

#: attribute types treated as in-process mutual-exclusion locks.
LOCK_CLASSES = frozenset({"threading.Lock", "threading.RLock"})


def lock_attrs(project: ProjectContext, cls: ClassInfo) -> Set[str]:
    """Instance attributes of ``cls`` typed as locks (bases included)."""
    out: Set[str] = set()
    seen: Set[str] = set()
    queue = [cls.qualname]
    while queue:
        current = queue.pop(0)
        if current in seen:
            continue
        seen.add(current)
        info = project.classes.get(current)
        if info is None:
            continue
        for attr, typ in info.attr_types.items():
            if typ in LOCK_CLASSES:
                out.add(attr)
        queue.extend(info.base_names)
    return out


def contextmanager_methods(cls: ClassInfo) -> Set[str]:
    """Names of ``@contextmanager``-decorated methods of ``cls``."""
    out: Set[str] = set()
    for name, method in cls.methods.items():
        for deco in getattr(method.node, "decorator_list", []):
            parts = decorator_parts(deco)
            if parts and parts[-1] == "contextmanager":
                out.add(name)
    return out


def _is_lock_item(
    item: ast.withitem, self_name: str, locks: Set[str], cms: Set[str]
) -> bool:
    expr = item.context_expr
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == self_name
        and expr.attr in locks
    ):
        return True  # with self._mu:
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and isinstance(expr.func.value, ast.Name)
        and expr.func.value.id == self_name
        and expr.func.attr in cms
    )  # with self._locked():


def self_param_name(fn: ast.AST) -> Optional[str]:
    """The receiver parameter name of a method node, if it has one."""
    args = getattr(fn, "args", None)
    if args is None or not args.args:
        return None
    return str(args.args[0].arg)


def iter_locked_nodes(
    fn: ast.AST, self_name: str, locks: Set[str], cms: Set[str]
) -> Iterator[Tuple[ast.AST, bool]]:
    """Yield ``(node, locked)`` for every body node of one method.

    ``locked`` is True when the node sits lexically inside a ``with``
    holding a designated lock.  Nested def/lambda bodies are excluded
    (own scope; the lock state at definition time says nothing about the
    lock state at call time).
    """
    def walk(node: ast.AST, locked: bool) -> Iterator[Tuple[ast.AST, bool]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            child_locked = locked
            if isinstance(child, (ast.With, ast.AsyncWith)) and any(
                _is_lock_item(item, self_name, locks, cms)
                for item in child.items
            ):
                child_locked = True
            yield child, child_locked
            yield from walk(child, child_locked)

    yield from walk(fn, False)


class AttrWrite:
    """One mutation of ``self.<attr>`` inside a method."""

    __slots__ = ("attr", "node", "locked", "method")

    def __init__(
        self, attr: str, node: ast.AST, locked: bool, method: str
    ) -> None:
        self.attr = attr
        self.node = node
        self.locked = locked
        #: qualname of the containing method
        self.method = method


def _written_self_attr(node: ast.AST, self_name: str) -> Optional[str]:
    """The ``self.<attr>`` an assignment/delete/augassign target mutates.

    Covers plain attribute stores, ``self.x[...] = ...`` subscript stores
    (mutating the container held in ``x``), ``del self.x[...]``, in-place
    operators, and mutating method calls are *not* covered (a ``.append``
    is invisible — documented limit).
    """
    targets: List[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, ast.AugAssign):
        targets = [node.target]
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        targets = [node.target]
    elif isinstance(node, ast.Delete):
        targets = list(node.targets)
    else:
        return None
    for target in targets:
        expr = target
        if isinstance(expr, ast.Subscript):
            expr = expr.value
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == self_name
        ):
            return expr.attr
    return None


def collect_attr_writes(
    project: ProjectContext, cls: ClassInfo
) -> List[AttrWrite]:
    """Every ``self.<attr>`` mutation in ``cls``'s methods, with lock
    state.  ``__init__`` is skipped: construction happens-before any
    sharing, so its writes can never race."""
    locks = lock_attrs(project, cls)
    cms = contextmanager_methods(cls)
    out: List[AttrWrite] = []
    for name, method in cls.methods.items():
        if name == "__init__":
            continue
        self_name = self_param_name(method.node)
        if self_name is None:
            continue
        for node, locked in iter_locked_nodes(
            method.node, self_name, locks, cms
        ):
            attr = _written_self_attr(node, self_name)
            if attr is not None:
                out.append(AttrWrite(attr, node, locked, method.qualname))
    return out
