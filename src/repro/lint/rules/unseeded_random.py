"""``no-unseeded-random``: all randomness flows through ``repro.util.rng``."""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import ImportMap, iter_imports
from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import FileContext, Rule, register

#: module-level functions of :mod:`random` that draw from (or reseed) the
#: *global shared* stream — unacceptable anywhere: the stream's state
#: depends on every draw that preceded it, across the whole process.
GLOBAL_STREAM_FUNCS = frozenset(
    {
        "random",
        "uniform",
        "randint",
        "randrange",
        "getrandbits",
        "randbytes",
        "choice",
        "choices",
        "sample",
        "shuffle",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "expovariate",
        "betavariate",
        "gammavariate",
        "triangular",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
        "seed",
        "setstate",
    }
)


@register
class NoUnseededRandom(Rule):
    """Forbid the global :mod:`random` stream and unseeded generators."""

    name = "no-unseeded-random"
    summary = (
        "no global/unseeded random: repro.util.rng is the sanctioned source"
    )
    rationale = (
        "Reproducibility requires every stochastic draw to come from a "
        "named, seeded substream (repro.util.rng), so two components never "
        "share a stream by accident and a result is a pure function of its "
        "job. The global `random` stream is process-wide mutable state; an "
        "unseeded Random() seeds from the OS. Model packages may not touch "
        "the random module at all; elsewhere, seeded instances are fine "
        "but the global stream and unseeded construction never are. "
        "model-imports keeps every repro helper that model code can call "
        "inside model scope."
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.is_rng_module:
            return
        imports = ImportMap(ctx.tree)
        if ctx.in_model_scope:
            for node, module, member in iter_imports(ctx.tree):
                if module == "random":
                    what = f"random.{member}" if member else "random"
                    yield ctx.diag(
                        self.name,
                        node,
                        f"model code imports {what!r}; draw from a named "
                        "substream via repro.util.rng instead",
                    )
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = imports.resolve_call(node.func)
            if resolved is None:
                continue
            module, member = resolved
            if module != "random":
                continue
            if member in GLOBAL_STREAM_FUNCS:
                yield ctx.diag(
                    self.name,
                    node,
                    f"'random.{member}()' draws from the process-global "
                    "stream; use repro.util.rng.substream(...) for a "
                    "named, seeded stream",
                )
            elif member == "Random" and not node.args:
                yield ctx.diag(
                    self.name,
                    node,
                    "unseeded Random() seeds from the OS; pass an explicit "
                    "seed or use repro.util.rng.substream(...)",
                )
            elif member == "SystemRandom":
                yield ctx.diag(
                    self.name,
                    node,
                    "SystemRandom is non-deterministic by construction; "
                    "results would not be reproducible",
                )
