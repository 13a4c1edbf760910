"""Lint findings: one frozen record per rule violation."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Diagnostic:
    """One finding: where it is, which rule fired, and why.

    ``line``/``col`` are 1-based line and 0-based column, matching the
    :mod:`ast` node they came from (and the convention of every other
    ``file:line:col`` tool).
    """

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        """Render as the conventional ``path:line:col: rule: message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"
