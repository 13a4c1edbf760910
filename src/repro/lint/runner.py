"""Walk files, parse, apply rules, filter pragmas.

Entry points, layered:

* :func:`lint_source` — analyse one source string (the unit tests' door);
  per-file rules only, since one string is not a project;
* :func:`lint_paths` / :func:`lint_paths_report` — recurse over files and
  directories, run the per-file pass *and* the whole-program project pass
  (symbol table + call graph for the concurrency rules; see
  :mod:`repro.lint.project`);
* :func:`lint_modules` — project-lint synthetic in-memory modules, the
  door for cross-file rule fixtures in the test suite.

Every file is parsed exactly once: the same ASTs feed the per-file
contexts and the project build.  Module names are derived from file paths
by locating the ``repro`` package directory, so scope-limited rules
(model code, config modules) see the same dotted names whether the tree
is linted from the repo root, from ``src``, or from inside the package.

Pragma semantics for project rules: a finding is suppressed by a
``# repro: allow-<rule>`` pragma at its *anchor* (the call site the
diagnostic points at).  A pragma at the sink — the blocking helper —
deliberately does not suppress callers in other files: suppression stays
visible next to every reported line.
"""

from __future__ import annotations

import ast
import os
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lint.diagnostics import Diagnostic
from repro.lint.pragmas import is_allowed, parse_pragmas
from repro.lint.project import ProjectContext, build_project
from repro.lint.registry import FileContext, Rule, all_rules

#: directories never descended into.
SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "node_modules"})

#: (path, source, tree, module) — one parsed file, shared between passes.
ParsedFile = Tuple[str, str, ast.Module, str]


class LintReport:
    """Findings plus the run telemetry behind ``--stats``."""

    __slots__ = (
        "findings", "file_count", "line_count", "project_build_seconds",
        "total_seconds",
    )

    def __init__(
        self,
        findings: List[Diagnostic],
        file_count: int,
        line_count: int,
        project_build_seconds: float,
        total_seconds: float,
    ) -> None:
        self.findings = findings
        self.file_count = file_count
        self.line_count = line_count
        self.project_build_seconds = project_build_seconds
        self.total_seconds = total_seconds

    def per_rule_counts(self) -> Dict[str, int]:
        """Finding counts keyed by rule name, sorted by name."""
        counts: Dict[str, int] = {}
        for diag in self.findings:
            counts[diag.rule] = counts.get(diag.rule, 0) + 1
        return dict(sorted(counts.items()))


def module_name_for(path: str) -> str:
    """Dotted module name of ``path``, anchored at the ``repro`` package.

    ``.../src/repro/uarch/core.py`` -> ``repro.uarch.core``.  Files outside
    a ``repro`` directory fall back to their stem — scope-limited rules
    then simply do not apply, while tree-wide rules still run.
    """
    parts = list(os.path.normpath(os.path.abspath(path)).split(os.sep))
    stem = os.path.splitext(parts[-1])[0]
    dirs = parts[:-1]
    if "repro" in dirs:
        anchor = len(dirs) - 1 - dirs[::-1].index("repro")
        dotted = dirs[anchor:] + ([] if stem == "__init__" else [stem])
        return ".".join(dotted)
    return stem


def lint_source(
    source: str, path: str = "<source>", module: Optional[str] = None
) -> List[Diagnostic]:
    """Analyse one source string; per-file rules only.

    ``module`` overrides path-derived scoping (tests lint synthetic
    sources "as if" they lived at a given dotted path).  A syntax error
    yields a single ``syntax-error`` pseudo-diagnostic rather than
    raising, so one broken file cannot mask findings elsewhere.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [_syntax_diag(path, exc)]
    parsed: ParsedFile = (
        path, source, tree,
        module if module is not None else module_name_for(path),
    )
    findings = _file_pass([parsed], all_rules())
    findings.sort(key=lambda d: (d.line, d.col, d.rule))
    return findings


def iter_python_files(paths: Iterable[str]) -> List[str]:
    """Expand files and directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in SKIP_DIRS
                )
                out.extend(
                    os.path.join(dirpath, name)
                    for name in filenames
                    if name.endswith(".py")
                )
        else:
            out.append(path)
    return sorted(set(out))


def lint_paths(paths: Iterable[str]) -> List[Diagnostic]:
    """Analyse every Python file under ``paths`` (both passes)."""
    return lint_paths_report(paths).findings


def lint_paths_report(paths: Iterable[str]) -> LintReport:
    """Like :func:`lint_paths`, but keep the run telemetry too."""
    started = time.perf_counter()
    rules = all_rules()
    findings: List[Diagnostic] = []
    parsed: List[ParsedFile] = []
    line_count = 0
    file_count = 0
    for path in iter_python_files(paths):
        file_count += 1
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        line_count += source.count("\n") + (
            1 if source and not source.endswith("\n") else 0
        )
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            findings.append(_syntax_diag(path, exc))
            continue
        parsed.append((path, source, tree, module_name_for(path)))
    findings.extend(_file_pass(parsed, rules))
    project, project_findings = _project_pass(parsed, rules)
    findings.extend(project_findings)
    findings.sort(key=lambda d: (d.path, d.line, d.col, d.rule))
    return LintReport(
        findings=findings,
        file_count=file_count,
        line_count=line_count,
        project_build_seconds=project.build_seconds,
        total_seconds=time.perf_counter() - started,
    )


def lint_modules(sources: Dict[str, str]) -> List[Diagnostic]:
    """Project-lint synthetic modules: ``{dotted.module.name: source}``.

    The door for cross-file rule fixtures: sources are parsed, indexed
    into one :class:`~repro.lint.project.ProjectContext`, and run through
    both the per-file and project passes exactly like a tree on disk.
    Paths are synthesised from the module names (``repro/uarch/core.py``
    for ``repro.uarch.core``), so diagnostics and pragma filtering behave
    as they would for real files.
    """
    rules = all_rules()
    parsed: List[ParsedFile] = []
    for module, source in sources.items():
        path = module.replace(".", os.sep) + ".py"
        parsed.append((path, source, ast.parse(source), module))
    findings = _file_pass(parsed, rules)
    _, project_findings = _project_pass(parsed, rules)
    findings.extend(project_findings)
    findings.sort(key=lambda d: (d.path, d.line, d.col, d.rule))
    return findings


# --------------------------------------------------------------- passes


def _syntax_diag(path: str, exc: SyntaxError) -> Diagnostic:
    return Diagnostic(
        rule="syntax-error",
        path=path,
        line=exc.lineno or 1,
        col=(exc.offset or 1) - 1,
        message=f"cannot parse: {exc.msg}",
    )


def _file_pass(
    parsed: Sequence[ParsedFile], rules: Sequence[Rule]
) -> List[Diagnostic]:
    """Run per-file ``check`` over every parsed file, filtering pragmas."""
    findings: List[Diagnostic] = []
    for path, source, tree, module in parsed:
        ctx = FileContext(path=path, source=source, tree=tree, module=module)
        allowed = parse_pragmas(source)
        for rule in rules:
            for diag in rule.check(ctx):
                if not is_allowed(allowed, diag.line, diag.rule):
                    findings.append(diag)
    return findings


def _project_pass(
    parsed: Sequence[ParsedFile], rules: Sequence[Rule]
) -> Tuple[ProjectContext, List[Diagnostic]]:
    """Build the project + call graph and run every ``check_project``."""
    build_started = time.perf_counter()
    project = build_project(list(parsed))
    _ = project.graph  # force the call-graph build into the timed window
    project.build_seconds = time.perf_counter() - build_started
    pragmas = {
        path: parse_pragmas(source) for path, source, _, _ in parsed
    }
    findings: List[Diagnostic] = []
    for rule in rules:
        for diag in rule.check_project(project):
            allowed = pragmas.get(diag.path)
            if allowed is None or not is_allowed(
                allowed, diag.line, diag.rule
            ):
                findings.append(diag)
    return project, findings
