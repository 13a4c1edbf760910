"""``no-wallclock``: timing-model code must not read host clocks."""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import ImportMap, iter_imports
from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import FileContext, Rule, register

#: :mod:`time` members that read (or depend on) the host clock.  ``sleep``
#: is included: a model that sleeps couples simulated behaviour to host
#: scheduling.
TIME_MEMBERS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
        "thread_time",
        "thread_time_ns",
        "clock_gettime",
        "clock_gettime_ns",
        "localtime",
        "gmtime",
        "sleep",
    }
)

#: :mod:`datetime` members that construct "now".
DATETIME_MEMBERS = frozenset({"datetime", "date", "time"})
DATETIME_NOW = frozenset({"now", "utcnow", "today"})


@register
class NoWallclock(Rule):
    """Forbid host-clock reads in model code (``uarch``/``core``/``isa``/
    ``faults``/``util.units``)."""

    name = "no-wallclock"
    summary = "model code must not read host clocks (time.*, datetime.now)"
    rationale = (
        "Simulated time is the integer-picosecond cycle clock; a host-clock "
        "read makes a result depend on when/where it ran, which corrupts "
        "the content-addressed ResultStore (two runs of one cache key "
        "disagree) and breaks the skip-ahead differential guarantee. "
        "Engine code legitimately times jobs for reporting — that is why "
        "this rule is scoped to model code only. model-imports keeps "
        "every repro helper that model code can call inside that scope."
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not ctx.in_model_scope:
            return
        imports = ImportMap(ctx.tree)
        for node, module, member in iter_imports(ctx.tree):
            if module == "time" and member in TIME_MEMBERS:
                yield ctx.diag(
                    self.name,
                    node,
                    f"model code imports wall-clock 'time.{member}'; "
                    "derive timing from the simulated cycle/ps clock",
                )
            elif module == "datetime" and member in DATETIME_MEMBERS:
                yield ctx.diag(
                    self.name,
                    node,
                    f"model code imports 'datetime.{member}'; simulated "
                    "results must not depend on the calendar clock",
                )
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in DATETIME_NOW
                and isinstance(node.func.value, ast.Attribute)
                and isinstance(node.func.value.value, ast.Name)
                and imports.module_aliases.get(node.func.value.value.id)
                == "datetime"
            ):
                # datetime.datetime.now() / datetime.date.today()
                yield ctx.diag(
                    self.name,
                    node,
                    f"calendar-clock read '...{node.func.attr}()' in model "
                    "code",
                )
                continue
            resolved = imports.resolve_call(node.func)
            if resolved is None:
                continue
            module, member = resolved
            if module == "time" and member in TIME_MEMBERS:
                yield ctx.diag(
                    self.name,
                    node,
                    f"wall-clock read 'time.{member}()' in model code; "
                    "use the simulated clock instead",
                )
            elif module == "datetime" and member in DATETIME_MEMBERS:
                yield ctx.diag(
                    self.name,
                    node,
                    f"'datetime.{member}' used in model code; simulated "
                    "results must not depend on the calendar clock",
                )
