"""no-wallclock: host-clock reads are banned from timing-model code."""

import os
import textwrap

from repro.lint import lint_modules, lint_source

BAD_IMPORT_AND_CALL = textwrap.dedent(
    """
    import time

    def step(self):
        return time.perf_counter()
    """
)

BAD_FROM_IMPORT = textwrap.dedent(
    """
    from time import monotonic

    def stamp():
        return monotonic()
    """
)

BAD_DATETIME = textwrap.dedent(
    """
    import datetime

    def stamp():
        return datetime.datetime.now()
    """
)

CLEAN_MODEL = textwrap.dedent(
    """
    def step(clock_ps, period_ps):
        return clock_ps + period_ps
    """
)


def rules_fired(source, module):
    return [d.rule for d in lint_source(source, module=module)]


def test_fires_on_wallclock_call_in_model_code():
    diags = lint_source(BAD_IMPORT_AND_CALL, module="repro.uarch.core")
    assert any(d.rule == "no-wallclock" for d in diags)
    # the finding points at the call site
    assert any("perf_counter" in d.message for d in diags)


def test_fires_on_from_import():
    assert "no-wallclock" in rules_fired(BAD_FROM_IMPORT, "repro.core.system")


def test_fires_on_datetime_now():
    assert "no-wallclock" in rules_fired(BAD_DATETIME, "repro.isa.generator")


def test_fires_in_faults_module():
    assert "no-wallclock" in rules_fired(BAD_IMPORT_AND_CALL, "repro.faults")


def test_silent_outside_model_scope():
    # the engine times jobs for reporting; that is sanctioned
    assert "no-wallclock" not in rules_fired(
        BAD_IMPORT_AND_CALL, "repro.engine.executors"
    )


def test_clean_model_code_passes():
    assert rules_fired(CLEAN_MODEL, "repro.uarch.core") == []


def test_fires_in_the_units_module():
    # repro.util.units joined model scope: model code calls ns_to_ps
    assert "no-wallclock" in rules_fired(
        BAD_IMPORT_AND_CALL, "repro.util.units"
    )


# --------------------------------------- helpers in other modules


def tree_findings(sources):
    """Whole-tree findings (any rule) over synthetic modules."""
    return lint_modules({m: textwrap.dedent(s) for m, s in sources.items()})


HELPER_TAINT = {
    "repro.uarch.sampler": """
        from repro.util.timing import jitter

        def sample(clock_ps):
            return clock_ps + jitter()
        """,
    "repro.util.timing": """
        import time

        def jitter():
            return time.time()
        """,
}

RNG_ROUTED = {
    # same shape, but the path runs through the sanctioned seeding layer
    "repro.uarch.sampler": """
        from repro.util.rng import substream

        def sample(clock_ps, seed):
            return clock_ps + substream(seed, "sampler").random()
        """,
    "repro.util.rng": """
        import random
        import time

        def substream(seed, name):
            if seed is None:
                seed = time.time_ns()
            return random.Random(seed)
        """,
}


def test_cross_file_taint_through_a_helper_module_fires():
    # model code may not import the non-model helper at all, so the
    # clock read behind it can never reach a simulation
    diags = tree_findings(HELPER_TAINT)
    assert [(d.rule, d.path, d.line) for d in diags] == [
        ("model-imports", os.path.join("repro", "uarch", "sampler.py"), 2)
    ]
    assert "repro.util.timing.jitter" in diags[0].message


def test_path_through_the_rng_module_is_sanctioned():
    assert tree_findings(RNG_ROUTED) == []


def test_direct_in_file_read_is_not_double_reported():
    diags = tree_findings(
        {
            "repro.uarch.core": """
            import time

            def step():
                return time.time()
            """,
        }
    )
    assert [(d.rule, d.line) for d in diags] == [("no-wallclock", 5)]


def test_non_model_caller_of_a_tainted_helper_passes():
    sources = dict(HELPER_TAINT)
    sources["repro.engine.runner2"] = sources.pop("repro.uarch.sampler")
    assert tree_findings(sources) == []
