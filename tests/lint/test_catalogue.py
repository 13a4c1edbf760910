"""Every registered rule is documented and self-describing."""

import re
from pathlib import Path

from repro.lint import all_rules

DOC = Path(__file__).resolve().parents[2] / "docs" / "static-analysis.md"


def documented_rules(text):
    """Names of the ``### `name` `` headings under "## The rules"."""
    section = text.split("\n## The rules\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^### `([a-z][a-z0-9-]*)`$", section, re.M))


def test_every_rule_has_summary_and_rationale():
    rules = all_rules()
    assert len(rules) >= 7
    for rule in rules:
        assert rule.name, rule
        assert rule.summary, rule.name
        assert len(rule.rationale) > 40, rule.name


def test_every_rule_is_documented():
    # exact in both directions: an undocumented rule fails, and so does
    # the section of a rule that no longer exists
    text = DOC.read_text(encoding="utf-8")
    assert documented_rules(text) == {rule.name for rule in all_rules()}


def test_doc_mentions_the_pragma_escape_hatch():
    text = DOC.read_text(encoding="utf-8")
    assert "repro: allow-" in text
