"""no-unseeded-random: repro.util.rng is the sole sanctioned entry point."""

import os
import textwrap

from repro.lint import lint_modules, lint_source

BAD_MODEL_IMPORT = textwrap.dedent(
    """
    import random

    def jitter():
        return random.random()
    """
)

BAD_GLOBAL_STREAM = textwrap.dedent(
    """
    import random

    def pick(items):
        return random.choice(items)
    """
)

BAD_UNSEEDED_INSTANCE = textwrap.dedent(
    """
    import random

    def make_rng():
        return random.Random()
    """
)

OK_SEEDED_INSTANCE = textwrap.dedent(
    """
    import random

    def make_rng(seed):
        return random.Random(seed)
    """
)

OK_SUBSTREAM = textwrap.dedent(
    """
    from repro.util.rng import substream

    def make_rng(seed):
        return substream(seed, "annealing", "moves")
    """
)


def rules_fired(source, module):
    return [d.rule for d in lint_source(source, module=module)]


def test_model_code_may_not_import_random_at_all():
    diags = lint_source(BAD_MODEL_IMPORT, module="repro.uarch.branch")
    fired = [d for d in diags if d.rule == "no-unseeded-random"]
    assert fired
    assert any("repro.util.rng" in d.message for d in fired)


def test_global_stream_banned_everywhere():
    # even outside model scope, random.choice() mutates process state
    assert "no-unseeded-random" in rules_fired(
        BAD_GLOBAL_STREAM, "repro.explore.annealing"
    )


def test_unseeded_random_instance_banned_everywhere():
    assert "no-unseeded-random" in rules_fired(
        BAD_UNSEEDED_INSTANCE, "repro.engine.executors"
    )


def test_seeded_instance_allowed_outside_model_scope():
    assert "no-unseeded-random" not in rules_fired(
        OK_SEEDED_INSTANCE, "repro.engine.executors"
    )


def test_sanctioned_wrapper_is_exempt():
    # the wrapper itself must be able to import random
    assert rules_fired("import random\n", "repro.util.rng") == []


def test_substream_usage_is_clean():
    assert rules_fired(OK_SUBSTREAM, "repro.explore.annealing") == []


# --------------------------------------- helpers in other modules


def tree_findings(sources):
    """Whole-tree findings (any rule) over synthetic modules."""
    return lint_modules({m: textwrap.dedent(s) for m, s in sources.items()})


def test_model_code_reaching_the_global_stream_transitively_fires():
    diags = tree_findings(
        {
            "repro.core.dram": """
            from repro.helpers.noise import perturb

            def latency(base):
                return base + perturb()
            """,
            "repro.helpers.noise": """
            import random

            def perturb():
                return random.random()
            """,
        }
    )
    # the model side may not import the helper; the helper's own direct
    # call is flagged where it stands
    dram = os.path.join("repro", "core", "dram.py")
    noise = os.path.join("repro", "helpers", "noise.py")
    assert sorted((d.rule, d.path, d.line) for d in diags) == [
        ("model-imports", dram, 2),
        ("no-unseeded-random", noise, 5),
    ]


def test_seeded_helper_instance_is_not_a_taint_source():
    # a seeded Random(seed) is no random finding; importing the non-model
    # helper from model code still is
    diags = tree_findings(
        {
            "repro.core.dram": """
            from repro.helpers.noise import perturb

            def latency(base, seed):
                return base + perturb(seed)
            """,
            "repro.helpers.noise": """
            import random

            def perturb(seed):
                return random.Random(seed).random()
            """,
        }
    )
    assert [d.rule for d in diags] == ["model-imports"]


def test_draw_routed_through_the_rng_module_passes():
    assert (
        tree_findings(
            {
                "repro.core.dram": """
            from repro.util.rng import substream

            def latency(base, seed):
                return base + substream(seed, "dram").random()
            """,
                "repro.util.rng": """
            import random

            def substream(seed, *names):
                return random.Random((seed,) + names)
            """,
            }
        )
        == []
    )
