"""Rule modules; importing this package registers every rule.

Each module defines one rule class decorated with
:func:`repro.lint.registry.register`.  Add a new rule by dropping a module
here, importing it below, and documenting it in
``docs/static-analysis.md`` (the test suite cross-checks that every
registered rule has a doc entry and a failing fixture).
"""

from repro.lint.rules import (  # noqa: F401  (side effect: registration)
    await_discarded,
    blocking_async,
    cache_key,
    cross_thread,
    dict_order,
    duplicate_def,
    frozen_config,
    lock_discipline,
    model_imports,
    mutable_default,
    swallowed_oserror,
    unseeded_random,
    untyped_stats,
    wallclock,
)

__all__ = [
    "await_discarded",
    "blocking_async",
    "cache_key",
    "cross_thread",
    "dict_order",
    "duplicate_def",
    "frozen_config",
    "lock_discipline",
    "model_imports",
    "mutable_default",
    "swallowed_oserror",
    "unseeded_random",
    "untyped_stats",
    "wallclock",
]
