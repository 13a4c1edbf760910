"""``model-imports``: model code imports only model code from ``repro``."""

from __future__ import annotations

import ast
import os
from typing import Iterator, List, Set

from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import (
    RNG_MODULE,
    FileContext,
    Rule,
    is_model_module,
    register,
)


def _allowed(module: str) -> bool:
    return is_model_module(module) or module == RNG_MODULE


def _type_checking_nodes(tree: ast.Module) -> Set[int]:
    """Ids of every node under an ``if TYPE_CHECKING:`` body."""
    out: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        name = (
            test.id if isinstance(test, ast.Name)
            else test.attr if isinstance(test, ast.Attribute)
            else None
        )
        if name != "TYPE_CHECKING":
            continue
        for stmt in node.body:
            out.update(id(sub) for sub in ast.walk(stmt))
    return out


def _package_of(ctx: FileContext, level: int) -> str:
    """The package a relative import of ``level`` dots resolves against."""
    parts = list(ctx.module_parts)
    if os.path.basename(ctx.path) != "__init__.py":
        parts = parts[:-1]  # a plain module's package is its parent
    return ".".join(parts[: len(parts) - (level - 1)])


def _in_repro(module: str) -> bool:
    return module == "repro" or module.startswith("repro.")


def _forbidden_names(ctx: FileContext, node: ast.AST) -> List[str]:
    """Dotted ``repro`` names an import statement binds that model code
    may not import.

    ``from pkg import name`` is allowed when ``pkg`` or the submodule
    ``pkg.name`` is (``from repro import faults`` imports a model module).
    """
    if isinstance(node, ast.Import):
        return [
            alias.name for alias in node.names
            if _in_repro(alias.name) and not _allowed(alias.name)
        ]
    if not isinstance(node, ast.ImportFrom):
        return []
    base = node.module or ""
    if node.level:
        package = _package_of(ctx, node.level)
        base = f"{package}.{base}" if base else package
    if not _in_repro(base) or _allowed(base):
        return []
    return [
        f"{base}.{alias.name}" for alias in node.names
        if not _allowed(f"{base}.{alias.name}")
    ]


@register
class ModelImports(Rule):
    """Keep everything model code can call inside model scope."""

    name = "model-imports"
    summary = (
        "model modules import from repro only model modules and "
        "repro.util.rng"
    )
    rationale = (
        "The per-file determinism checks (no-wallclock, no-unseeded-random, "
        "no-dict-order-dependence, no-untyped-stats) scan model modules "
        "only, so a clock read or a global-stream draw in a helper that "
        "model code imports from elsewhere in repro would escape them. "
        "Model code (repro.uarch, repro.core, repro.isa, repro.faults, "
        "repro.util.units) may therefore import from repro only other "
        "model modules and the sanctioned seeding layer repro.util.rng, "
        "so every repro function a simulation can call is itself scanned. "
        "Imports under `if TYPE_CHECKING:` never run and are exempt."
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not ctx.in_model_scope:
            return
        exempt = _type_checking_nodes(ctx.tree)
        for node in ast.walk(ctx.tree):
            if id(node) in exempt:
                continue
            names = _forbidden_names(ctx, node)
            if names:
                yield ctx.diag(
                    self.name,
                    node,
                    f"model code imports {', '.join(names)}; model modules "
                    f"may import from repro only model modules and "
                    f"{RNG_MODULE}, so the per-file determinism checks "
                    "cover everything a simulation can call",
                )
