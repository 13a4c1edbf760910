"""pickle-boundary: __getstate__-dropped attrs need a rebuild path."""

import textwrap

from repro.lint import lint_source

BAD_NO_REBUILD = textwrap.dedent(
    """
    class Trace:
        def __getstate__(self):
            state = self.__dict__.copy()
            state["_decoded"] = None
            return state
    """
)

BAD_POP_NO_SETSTATE = textwrap.dedent(
    """
    class Result:
        def __getstate__(self):
            state = self.__dict__.copy()
            state.pop("_curve")
            return state

        def curve(self):
            return self._curve
    """
)

OK_TRACE_PATTERN = textwrap.dedent(
    """
    class Trace:
        def __getstate__(self):
            state = self.__dict__.copy()
            state["_decoded"] = None
            return state

        def __setstate__(self, state):
            self.__dict__.update(state)
            self._decoded = None

        def decoded(self):
            if self._decoded is None:
                self._decoded = object()
            return self._decoded
    """
)

OK_NO_DROPS = textwrap.dedent(
    """
    class Plain:
        def __getstate__(self):
            return self.__dict__.copy()
    """
)


def findings(source):
    return [
        d for d in lint_source(source, module="repro.isa.trace")
        if d.rule == "pickle-boundary"
    ]


def test_fires_when_dropped_attr_has_no_rebuild_member():
    fired = findings(BAD_NO_REBUILD)
    assert fired
    assert any("_decoded" in d.message for d in fired)


def test_fires_when_key_removed_without_setstate():
    fired = findings(BAD_POP_NO_SETSTATE)
    assert any("__setstate__" in d.message for d in fired)


def test_trace_lean_pickle_pattern_is_clean():
    assert findings(OK_TRACE_PATTERN) == []


def test_getstate_without_drops_is_clean():
    assert findings(OK_NO_DROPS) == []

