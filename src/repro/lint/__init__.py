"""``repro.lint`` — determinism & invariant static analysis for the simulator.

The whole reproduction rests on bit-identical determinism: cached results
(:mod:`repro.engine.store`), the skip-ahead differential suite and the
golden fixtures are only sound while simulations stay pure functions of
their job description.  The test suite catches violations *late* (a stale
cache entry, a golden diff) or *never* (an unseeded RNG that happens to be
stable on one machine).  This package catches the known failure classes
*statically*, at lint time, before the code ever runs.

Most rules are per-file checks over one AST at a time: the determinism
rules scan timing-model code (``repro.uarch``, ``repro.core``,
``repro.isa``, ``repro.faults``, ``repro.util.units``), and
``model-imports`` keeps everything model code can call inside that
scope.  A whole-program pass (:mod:`~repro.lint.project`: symbol table +
module graph, :mod:`~repro.lint.callgraph`, :mod:`~repro.lint.dataflow`)
serves only the concurrency rules, which follow calls across files from
the service's coroutines and the executors' worker entry points.

Run it as ``python -m repro.lint [paths]``; ``python -m repro.lint
--list-rules`` prints every rule with its rationale (see
:mod:`repro.lint.cli`).  A finding can be suppressed in place with a
``# repro: allow-<rule>`` pragma on the offending line (or on a
comment-only line directly above it); see ``docs/static-analysis.md``
for the rule catalogue.

The analyzer is pure stdlib (:mod:`ast`) — no third-party dependency — so
it runs anywhere the simulator runs and is itself covered by the tier-1
test suite (``tests/lint``).
"""

from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import RULES, FileContext, Rule, all_rules
from repro.lint.runner import (
    LintReport,
    lint_modules,
    lint_paths,
    lint_paths_report,
    lint_source,
)

__all__ = [
    "Diagnostic",
    "FileContext",
    "LintReport",
    "RULES",
    "Rule",
    "all_rules",
    "lint_modules",
    "lint_paths",
    "lint_paths_report",
    "lint_source",
]
