"""``python -m repro.lint`` — the command-line front end.

Usage::

    python -m repro.lint [paths...]            # default: src
    python -m repro.lint --format=github src   # ::error PR annotations
    python -m repro.lint --stats src tests     # run telemetry on stderr
    python -m repro.lint --list-rules          # the rule catalogue

Exit status: 0 clean, 1 findings, 2 usage error.  CI runs the tree-wide
invocation as part of the fast lint gate (see ``.github/workflows/ci.yml``
and ``docs/static-analysis.md``).  ``--stats`` writes to stderr so it
composes with either format.
"""

from __future__ import annotations

import argparse
import sys
import textwrap
from typing import Optional, Sequence

from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import all_rules
from repro.lint.runner import LintReport, lint_paths_report


def _list_rules() -> str:
    lines = []
    for rule in all_rules():
        lines.append(f"{rule.name}: {rule.summary}")
        lines.append(
            textwrap.fill(
                rule.rationale, width=76, initial_indent="    ",
                subsequent_indent="    ",
            )
        )
    return "\n".join(lines)


def _github_line(diag: Diagnostic) -> str:
    """One GitHub Actions workflow command annotating the finding inline.

    Newlines and the characters GitHub treats as property delimiters are
    percent-escaped per the workflow-command spec.
    """
    def esc(value: str, *, prop: bool = False) -> str:
        value = value.replace("%", "%25").replace("\r", "%0D").replace(
            "\n", "%0A"
        )
        if prop:
            value = value.replace(":", "%3A").replace(",", "%2C")
        return value

    return (
        f"::error file={esc(diag.path, prop=True)},line={diag.line},"
        f"col={diag.col + 1},title={esc(diag.rule, prop=True)}"
        f"::{esc(diag.message)}"
    )


def _print_stats(report: LintReport) -> None:
    print(
        f"stats: {report.file_count} files, {report.line_count} lines, "
        f"{len(report.findings)} findings",
        file=sys.stderr,
    )
    print(
        f"stats: project pass {report.project_build_seconds:.3f}s, "
        f"total {report.total_seconds:.3f}s",
        file=sys.stderr,
    )
    for rule_name, count in report.per_rule_counts().items():
        print(f"stats: {rule_name}: {count}", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Determinism & invariant static analysis for the simulator "
            "(see docs/static-analysis.md)."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format", choices=("text", "github"), default="text",
        help="output format (default: text); github emits ::error "
        "workflow commands for inline PR annotations",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print run telemetry (files/LoC, per-rule counts, project-"
        "pass build time) to stderr",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    report = lint_paths_report(args.paths)
    findings = report.findings

    if args.format == "github":
        for diag in findings:
            print(_github_line(diag))
    else:
        for diag in findings:
            print(diag.format())
        if findings:
            noun = "finding" if len(findings) == 1 else "findings"
            print(f"{len(findings)} {noun}", file=sys.stderr)
    if args.stats:
        _print_stats(report)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
