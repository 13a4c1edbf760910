"""``pickle-boundary``: attrs dropped by ``__getstate__`` need a rebuild path."""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from repro.lint.astutil import class_methods
from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import FileContext, Rule, register


def _dropped_keys(getstate: ast.FunctionDef) -> List[Tuple[str, ast.AST, bool]]:
    """Attribute keys the method blanks or removes from the state dict.

    Returns ``(key, node, removed)`` — ``removed`` is True for ``del``/
    ``.pop`` (the attr will not exist after unpickling) and False for
    ``state[k] = None`` blanking (the attr survives, empty).
    """
    dropped: List[Tuple[str, ast.AST, bool]] = []
    for node in ast.walk(getstate):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)
                    and isinstance(node.value, ast.Constant)
                    and node.value.value is None
                ):
                    dropped.append((target.slice.value, node, False))
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)
                ):
                    dropped.append((target.slice.value, node, True))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "pop"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            dropped.append((node.args[0].value, node, True))
    return dropped


def _member_names(cls: ast.ClassDef) -> Set[str]:
    """Names defined in the class body (methods, properties, assignments)."""
    names: Set[str] = set()
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            names.add(stmt.target.id)
    return names


@register
class PickleBoundary(Rule):
    """Guard the lean-pickle pattern: drop a cache, rebuild it lazily."""

    name = "pickle-boundary"
    summary = "__getstate__-dropped attrs need a lazy rebuild member"
    rationale = (
        "Objects cross the process-pool boundary by pickle; __getstate__ "
        "legitimately drops derived caches to keep payloads lean. But a "
        "dropped attr with no rebuild path resurfaces as None/AttributeError "
        "only *inside a worker process*, where the traceback is captured, "
        "retried three times and finally reported as a JobFailure — the "
        "hardest-to-debug failure mode in the engine. Dropping '_x' "
        "therefore requires a lazy accessor 'x' (or explicit __setstate__ "
        "handling) on the same class."
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = class_methods(node)
            getstate = methods.get("__getstate__")
            if getstate is None:
                continue
            members = _member_names(node)
            has_setstate = "__setstate__" in members
            for key, site, removed in _dropped_keys(getstate):
                rebuild = key.lstrip("_")
                if rebuild in members and rebuild != key:
                    continue
                yield ctx.diag(
                    self.name,
                    site,
                    f"__getstate__ of {node.name} drops {key!r} with no "
                    f"lazy rebuild member {rebuild!r}; unpickled objects "
                    "would break only inside worker processes",
                )
            for key, site, removed in _dropped_keys(getstate):
                if removed and not has_setstate:
                    yield ctx.diag(
                        self.name,
                        site,
                        f"__getstate__ of {node.name} removes {key!r} but "
                        "defines no __setstate__; the attribute will not "
                        "exist on unpickled instances",
                    )
