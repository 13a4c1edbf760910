"""Rule protocol, per-file analysis context, and the rule registry.

A rule is a small, self-documenting object: a ``name`` (what
``# repro: allow-<name>`` refers to), a one-line
``summary``, a ``rationale`` paragraph explaining which reproduction
invariant it protects (surfaced by ``--list-rules`` and mirrored in
``docs/static-analysis.md``), and a ``check(ctx)`` generator over
:class:`~repro.lint.diagnostics.Diagnostic`.

Rules register themselves with the :func:`register` decorator at import
time; :mod:`repro.lint.rules` imports every rule module, so importing that
package populates :data:`RULES`.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterator, List, Tuple, Type

from repro.lint.diagnostics import Diagnostic

if TYPE_CHECKING:  # runtime import would be circular (project -> astutil)
    from repro.lint.project import ProjectContext

#: packages whose modules are *timing-model* code: they define what the
#: simulated hardware does and must be pure functions of their inputs.
#: (``repro.faults`` is a single module, matched by full name below.)
MODEL_PACKAGES = ("uarch", "core", "isa")

#: single modules that are model scope outside the model packages: the
#: fault model, and the time-unit helpers the model's clocks are built on.
MODEL_MODULES = ("repro.faults", "repro.util.units")

#: the sanctioned randomness entry point — exempt from the random rules
#: (it exists precisely to wrap :mod:`random` behind seeded substreams).
RNG_MODULE = "repro.util.rng"


def is_model_module(module: str) -> bool:
    """Whether a dotted module name is timing-model code."""
    if module in MODEL_MODULES:
        return True
    parts = module.split(".")
    return (
        len(parts) >= 2 and parts[0] == "repro" and parts[1] in MODEL_PACKAGES
    )


class FileContext:
    """Everything a rule needs to know about one file under analysis."""

    def __init__(self, path: str, source: str, tree: ast.Module, module: str) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        #: dotted module name (``repro.uarch.core``); derived from the file
        #: path by the runner, or passed explicitly by tests linting
        #: synthetic sources.
        self.module = module
        self.module_parts: Tuple[str, ...] = tuple(module.split("."))

    @property
    def in_model_scope(self) -> bool:
        """Whether this module is timing-model code (see MODEL_PACKAGES)."""
        return is_model_module(self.module)

    @property
    def is_rng_module(self) -> bool:
        """Whether this is the sanctioned RNG wrapper itself."""
        return self.module == RNG_MODULE

    def diag(self, rule: str, node: ast.AST, message: str) -> Diagnostic:
        """Build a finding anchored at ``node``."""
        return Diagnostic(
            rule=rule,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


class Rule:
    """Base class for one lint rule (see the module docstring)."""

    #: registry key; also the ``# repro: allow-<name>`` pragma token.
    name: str = ""
    #: one-line description (rule listings, docs).
    summary: str = ""
    #: why the invariant matters for reproduction fidelity.
    rationale: str = ""

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        """Yield findings for one file.

        Default: none.  Project-only rules (the concurrency pack) leave
        this alone and implement ``check_project``; most rules override
        this one.
        """
        return iter(())

    def check_project(
        self, project: "ProjectContext"
    ) -> Iterator[Diagnostic]:
        """Yield findings that need the whole-program view.

        Default: no project-level findings.  The concurrency rules, which
        need the call graph, override this; diagnostics are anchored at a
        call site (not the sink), and the runner filters them through
        that *file's* pragmas, so ``# repro: allow-<rule>`` works at the
        reported line exactly like per-file findings.
        """
        return iter(())

    def __repr__(self) -> str:
        return f"<Rule {self.name}>"


#: name -> rule instance; populated by :func:`register` at import time.
RULES: Dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and index a rule by its name."""
    if not cls.name:
        raise ValueError(f"rule {cls.__name__} must define a name")
    if cls.name in RULES:
        raise ValueError(f"duplicate rule name {cls.name!r}")
    RULES[cls.name] = cls()
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, in a stable (sorted-by-name) order."""
    import repro.lint.rules  # noqa: F401  (side effect: registration)

    return [RULES[name] for name in sorted(RULES)]
