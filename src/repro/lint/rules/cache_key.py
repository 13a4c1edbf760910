"""``cache-key-completeness``: every spec field feeds the cache key."""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.lint.astutil import (
    class_methods,
    dataclass_decorator,
    dataclass_fields,
    self_attribute_reads,
)
from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import FileContext, Rule, register

#: methods that define a cache identity, in precedence order: when a class
#: has both, ``cache_key`` is the identity and typically folds
#: ``fingerprint`` in.
KEY_METHODS = ("cache_key", "fingerprint")

#: dataclasses-module helpers that serialise *every* field — calling one of
#: these on ``self`` covers all fields at once.
WHOLE_OBJECT_HELPERS = frozenset({"astuple", "asdict", "fields", "replace"})


def _covers_all_fields(method: ast.AST) -> bool:
    """Whether the method serialises the whole object (astuple(self), ...)."""
    for node in ast.walk(method):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (
            func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute)
            else None
        )
        if name not in WHOLE_OBJECT_HELPERS:
            continue
        for arg in node.args:
            if isinstance(arg, ast.Name) and arg.id == "self":
                return True
    return False


@register
class CacheKeyCompleteness(Rule):
    """Cross-check dataclass fields against their cache-key method."""

    name = "cache-key-completeness"
    summary = "every dataclass field must feed its cache_key()/fingerprint()"
    rationale = (
        "The ResultStore is content-addressed: two jobs with the same key "
        "are the same computation. A field that does not participate in "
        "the key (the way every ContestJob knob feeds ContestJob.cache_key "
        "in engine/jobs.py) silently aliases distinct jobs onto one cache "
        "entry, and the store serves a result computed under different "
        "semantics — the worst kind of corruption, because every test that "
        "hits the warm cache agrees with the wrong answer. The key method "
        "must read each field itself: a field that only a helper reads is "
        "flagged, because nothing at the key method shows it is covered."
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if dataclass_decorator(node) is None:
                continue
            methods = class_methods(node)
            key_method = next(
                (methods[n] for n in KEY_METHODS if n in methods), None
            )
            if key_method is None or _covers_all_fields(key_method):
                continue
            covered: Set[str] = set(self_attribute_reads(key_method))
            for field_name, field_node in dataclass_fields(node):
                if field_name not in covered:
                    yield ctx.diag(
                        self.name,
                        field_node,
                        f"field {field_name!r} of {node.name} does not "
                        f"feed {key_method.name}(); two jobs differing "
                        "only in it would alias one cache entry",
                    )
