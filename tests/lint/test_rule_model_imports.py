"""model-imports: model code imports from repro only model code and rng."""

import textwrap

from repro.lint import lint_source


def findings(source, module="repro.uarch.core", path="<source>"):
    return [
        d for d in lint_source(
            textwrap.dedent(source), path=path, module=module
        )
        if d.rule == "model-imports"
    ]


def test_model_and_rng_imports_pass():
    assert findings(
        """
        import repro.isa.trace
        from repro import faults
        from repro.core.system import ContestingSystem
        from repro.uarch.cache import CacheConfig
        from repro.util import rng, units
        from repro.util.rng import substream
        from repro.util.units import ns_to_ps
        """
    ) == []


def test_non_model_repro_imports_fire():
    fired = findings(
        """
        import repro.engine.jobs
        from repro import telemetry
        from repro.util.stats import harmonic_mean
        from repro.util import rng, tables
        """
    )
    assert [d.line for d in fired] == [2, 3, 4, 5]
    assert "repro.engine.jobs" in fired[0].message
    assert "repro.telemetry" in fired[1].message
    assert "repro.util.stats.harmonic_mean" in fired[2].message
    # only the non-model name of a mixed import is named
    assert "repro.util.tables" in fired[3].message
    assert "repro.util.rng" not in fired[3].message.split(";")[0]


def test_type_checking_import_of_telemetry_passes():
    assert findings(
        """
        import typing
        from typing import TYPE_CHECKING

        if TYPE_CHECKING:
            from repro.telemetry import Tracer

        if typing.TYPE_CHECKING:
            import repro.engine.jobs
        """
    ) == []


def test_type_checking_else_branch_still_fires():
    fired = findings(
        """
        from typing import TYPE_CHECKING

        if TYPE_CHECKING:
            from repro.telemetry import Tracer
        else:
            from repro.telemetry import Tracer
        """
    )
    assert [d.line for d in fired] == [7]


def test_relative_import_of_a_non_model_module_fires():
    fired = findings(
        """
        from . import cache
        from .branch import BranchPredictor
        from ..engine import jobs
        from .. import telemetry
        """
    )
    assert [d.line for d in fired] == [4, 5]
    assert "repro.engine.jobs" in fired[0].message
    assert "repro.telemetry" in fired[1].message


def test_relative_imports_resolve_from_a_package_init():
    fired = findings(
        """
        from . import cache
        from ..engine import jobs
        """,
        module="repro.uarch",
        path="src/repro/uarch/__init__.py",
    )
    assert [d.line for d in fired] == [3]


def test_function_local_import_fires():
    fired = findings(
        """
        def step():
            from repro.engine.jobs import execute_job
            return execute_job
        """,
        module="repro.faults",
    )
    assert len(fired) == 1


def test_units_module_is_model_scope():
    assert findings("from repro.util.stats import mean\n",
                    module="repro.util.units")


def test_non_model_modules_import_freely():
    assert findings(
        "from repro.telemetry import Tracer\n",
        module="repro.engine.executors",
    ) == []


def test_pragma_suppresses_at_the_import():
    assert findings(
        "from repro.telemetry import Tracer  # repro: allow-model-imports\n"
    ) == []
