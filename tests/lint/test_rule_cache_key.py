"""cache-key-completeness: every spec field must feed the cache key."""

import os
import textwrap

import pytest

from repro.lint import lint_modules, lint_source

BAD_ESCAPED_FIELD = textwrap.dedent(
    """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class ContestJob:
        trace: str
        max_lag: int = 0
        sat_grace_ns: float = 400.0

        def cache_key(self):
            return hash((self.trace, self.max_lag))
    """
)

OK_ALL_FIELDS = textwrap.dedent(
    """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class ContestJob:
        trace: str
        max_lag: int = 0

        def cache_key(self):
            return hash((self.trace, self.max_lag))
    """
)

OK_ASTUPLE = textwrap.dedent(
    """
    import dataclasses
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class CoreConfig:
        width: int
        rob_size: int

        def fingerprint(self):
            return dataclasses.astuple(self)
    """
)

OK_CLASSVAR_SKIPPED = textwrap.dedent(
    """
    from dataclasses import dataclass
    from typing import ClassVar

    @dataclass(frozen=True)
    class Job:
        seed: int
        kind: ClassVar[str] = "job"

        def cache_key(self):
            return str(self.seed)
    """
)


BAD_BACKEND_ESCAPES_KEY = textwrap.dedent(
    """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class StandaloneJob:
        trace: str
        backend: str = "reference"

        def cache_key(self):
            return hash(("standalone", self.trace))
    """
)

OK_BACKEND_JOINS_CONDITIONALLY = textwrap.dedent(
    """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class StandaloneJob:
        trace: str
        backend: str = "reference"

        def cache_key(self):
            parts = ("standalone", self.trace)
            if self.backend != "reference":
                parts += (("backend", self.backend),)
            return hash(parts)
    """
)


def findings(source, module="repro.engine.jobs"):
    return [
        d for d in lint_source(source, module=module)
        if d.rule == "cache-key-completeness"
    ]


def test_fires_on_field_missing_from_cache_key():
    fired = findings(BAD_ESCAPED_FIELD)
    assert len(fired) == 1
    assert "sat_grace_ns" in fired[0].message
    # anchored at the escaping field, not the class header
    assert fired[0].line == 8


def test_clean_when_every_field_participates():
    assert findings(OK_ALL_FIELDS) == []


def test_astuple_covers_all_fields():
    assert findings(OK_ASTUPLE, module="repro.uarch.config") == []


def test_classvar_attrs_are_not_fields():
    assert findings(OK_CLASSVAR_SKIPPED) == []


def test_fires_when_backend_escapes_the_key():
    # a backend-bearing job whose key ignores the backend aliases the
    # reference and columnar engines onto one cache entry
    fired = findings(BAD_BACKEND_ESCAPES_KEY)
    assert len(fired) == 1
    assert "backend" in fired[0].message


def test_conditional_backend_read_covers_the_field():
    # the real jobs fold the backend in only when it is non-default; a
    # conditional self.backend read still counts as coverage
    assert findings(OK_BACKEND_JOINS_CONDITIONALLY) == []


def test_applies_tree_wide():
    # a job spec living in any module is still checked
    assert findings(BAD_ESCAPED_FIELD, module="repro.experiments.common")


# ------------------------------------------ fields only a helper reads


SPEC_VIA_HELPER = """
    from dataclasses import dataclass

    from repro.engine.keys import digest

    @dataclass(frozen=True)
    class Job:
        alpha: int
        beta: int

        def cache_key(self):
            return digest(self)
    """

HELPERS = {
    "helper-reads-every-field": """
        def digest(job):
            return (job.alpha, job.beta)
        """,
    "helper-misses-a-field": """
        def digest(job):
            return (job.alpha,)
        """,
    "helper-forwards-the-object": """
        def digest(job):
            return _fold(job)

        def _fold(item):
            return (item.alpha, item.beta)
        """,
    "helper-serialises-the-whole-object": """
        from dataclasses import astuple

        def digest(job):
            return astuple(job)
        """,
}


def test_per_file_pass_alone_cannot_credit_cross_module_helpers():
    # lint_source has no project: the helper's reads are invisible, so
    # both fields look uncovered
    diags = findings(textwrap.dedent(SPEC_VIA_HELPER))
    assert {d.rule for d in diags} == {"cache-key-completeness"}
    assert len(diags) == 2


@pytest.mark.parametrize("helper", HELPERS.values(), ids=HELPERS.keys())
def test_whole_tree_run_flags_fields_only_a_helper_reads(helper):
    # the key method must read every field itself: whatever the helper in
    # another module does, the whole-tree run flags both fields at the spec
    diags = [
        d for d in lint_modules(
            {
                "repro.engine.spec": textwrap.dedent(SPEC_VIA_HELPER),
                "repro.engine.keys": textwrap.dedent(helper),
            }
        )
        if d.rule == "cache-key-completeness"
    ]
    assert {d.path for d in diags} == {os.path.join("repro", "engine", "spec.py")}
    assert [d.message.split("'")[1] for d in diags] == ["alpha", "beta"]
