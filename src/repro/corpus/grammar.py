"""The profile grammar: declarative, versioned, content-hashed workloads.

A workload here is *data*, not code: a :class:`WorkloadSpec` names a set of
phase templates from the :mod:`repro.isa.phases` vocabulary, the parameter
overrides applied to each, and the mixture weights.  ``build_mix()`` turns
the spec into the same :class:`~repro.isa.phases.PhaseMix` shape the
hand-written benchmark profiles use, so the generator, the simulator and
the engine are entirely unaware of where a mixture came from.

Three properties make the grammar safe to grow:

* **Canonical serialisation** — ``to_dict``/``from_dict`` round-trip every
  expressible spec through plain JSON types with sorted keys, so a spec has
  exactly one wire form (pinned by ``tests/corpus/test_grammar.py``).
* **Content hashing** — :meth:`WorkloadSpec.content_hash` digests the
  canonical form under :data:`GRAMMAR_VERSION`.  The registry folds this
  hash into engine cache keys (see ``repro.corpus.registry.profile_key``),
  so editing a workload's parameters invalidates exactly the cached results
  built from it — renames and re-orderings of *other* entries change
  nothing.
* **Validation at construction** — specs validate eagerly (unknown
  template, bad weight, duplicate phase names) and the built
  :class:`~repro.isa.phases.PhaseType` re-validates its own invariants, so
  an unbuildable spec cannot be registered in the first place.
"""

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Tuple, Union

from repro.isa.phases import (
    PHASE_TEMPLATES,
    PhaseMix,
    PhaseType,
    branchy_phase,
    compute_mul_phase,
    pointer_chase_phase,
    serial_chain_phase,
    stream_phase,
    wide_ilp_phase,
    windowed_mem_phase,
)

#: Bump when the grammar's *semantics* change (how a spec maps to phase
#: types), invalidating every content hash at once.  Additive changes —
#: new templates, new overridable parameters — do not require a bump:
#: specs not using them hash identically.
GRAMMAR_VERSION = 1

#: JSON-representable parameter value (PhaseType fields are ints, floats,
#: bools and strings).
ParamValue = Union[int, float, bool, str]

_FACTORIES: Dict[str, Callable[..., PhaseType]] = {
    "wide_ilp": wide_ilp_phase,
    "serial_chain": serial_chain_phase,
    "pointer_chase": pointer_chase_phase,
    "windowed_mem": windowed_mem_phase,
    "stream": stream_phase,
    "branchy": branchy_phase,
    "compute_mul": compute_mul_phase,
}
assert set(_FACTORIES) == set(PHASE_TEMPLATES)

#: PhaseType fields a spec may override (everything behavioural; ``name``
#: and ``region`` are owned by the spec/workload, not the parameter map).
_OVERRIDABLE = frozenset(
    f for f in PhaseType.__dataclass_fields__ if f not in ("name", "region")
)


def _canonical_params(
    params: Mapping[str, ParamValue],
) -> Tuple[Tuple[str, ParamValue], ...]:
    """Parameters as a sorted, hashable tuple of pairs."""
    return tuple(sorted(params.items()))


@dataclass(frozen=True)
class PhaseSpec:
    """One phase of a workload: a template plus parameter overrides.

    ``params`` is stored as a sorted tuple of ``(field, value)`` pairs so
    the spec is hashable and has exactly one canonical form regardless of
    the order overrides were written in.
    """

    template: str
    name: str = ""
    weight: float = 1.0
    params: Tuple[Tuple[str, ParamValue], ...] = ()

    def __post_init__(self) -> None:
        if self.template not in _FACTORIES:
            raise ValueError(
                f"unknown phase template {self.template!r}; expected one of "
                f"{', '.join(PHASE_TEMPLATES)}"
            )
        if self.weight <= 0:
            raise ValueError("phase weight must be positive")
        keys = [k for k, _ in self.params]
        if keys != sorted(keys):
            object.__setattr__(self, "params", _canonical_params(dict(self.params)))
            keys = [k for k, _ in self.params]
        if len(set(keys)) != len(keys):
            raise ValueError(f"duplicate parameter overrides: {keys}")
        unknown = [k for k in keys if k not in _OVERRIDABLE]
        if unknown:
            raise ValueError(
                f"phase spec overrides unknown/reserved PhaseType fields: "
                f"{', '.join(unknown)}"
            )

    @property
    def phase_name(self) -> str:
        return self.name or self.template

    def build(self) -> PhaseType:
        """Instantiate the template with this spec's overrides.

        :class:`~repro.isa.phases.PhaseType` validation runs here, so an
        inconsistent parameter set fails loudly at build time.
        """
        return _FACTORIES[self.template](self.phase_name, **dict(self.params))

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-type form (sorted params, defaults included)."""
        return {
            "template": self.template,
            "name": self.name,
            "weight": self.weight,
            "params": {k: v for k, v in self.params},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PhaseSpec":
        """Inverse of :meth:`to_dict` (extra keys rejected)."""
        extra = set(data) - {"template", "name", "weight", "params"}
        if extra:
            raise ValueError(f"unknown phase-spec keys: {sorted(extra)}")
        return cls(
            template=str(data["template"]),
            name=str(data.get("name", "")),
            weight=float(data.get("weight", 1.0)),
            params=_canonical_params(dict(data.get("params", {}))),
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """A named, versioned workload: phases, weights, and mix-wide knobs.

    ``dwell_scale`` mirrors ``repro.isa.workloads.DWELL_SCALE``: phase
    dwells are multiplied so typical contiguous phase runs reach the
    ~10^3-instruction regime in which contesting leadership can transfer.
    ``region`` tags every phase with one shared data region (the benchmark
    profiles' "heap" convention); an empty string keeps each phase's
    private region.
    """

    name: str
    phases: Tuple[PhaseSpec, ...]
    version: int = 1
    dwell_scale: int = 3
    region: str = "heap"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a workload spec needs a name")
        if not self.phases:
            raise ValueError(f"workload {self.name!r} has no phases")
        names = [p.phase_name for p in self.phases]
        if len(set(names)) != len(names):
            raise ValueError(
                f"workload {self.name!r} has duplicate phase names: {names}"
            )
        if self.version < 1 or self.dwell_scale < 1:
            raise ValueError("version and dwell_scale must be >= 1")

    def build_mix(self) -> PhaseMix:
        """The concrete :class:`~repro.isa.phases.PhaseMix` of this spec.

        The mix is named after the workload, so traces generated from it
        carry the workload name in their provenance (and fingerprint).
        """
        entries: List[Tuple[PhaseType, float]] = []
        for spec in self.phases:
            phase = spec.build()
            phase = replace(
                phase,
                region=self.region,
                mean_dwell=phase.mean_dwell * self.dwell_scale,
            )
            entries.append((phase, spec.weight))
        return PhaseMix(self.name, entries)

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-type form of the whole spec."""
        return {
            "grammar": GRAMMAR_VERSION,
            "name": self.name,
            "version": self.version,
            "dwell_scale": self.dwell_scale,
            "region": self.region,
            "phases": [p.to_dict() for p in self.phases],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        """Inverse of :meth:`to_dict` (grammar version checked)."""
        grammar = int(data.get("grammar", GRAMMAR_VERSION))
        if grammar != GRAMMAR_VERSION:
            raise ValueError(
                f"spec was written under grammar version {grammar}; "
                f"this build understands {GRAMMAR_VERSION}"
            )
        extra = set(data) - {
            "grammar", "name", "version", "dwell_scale", "region", "phases",
        }
        if extra:
            raise ValueError(f"unknown workload-spec keys: {sorted(extra)}")
        return cls(
            name=str(data["name"]),
            version=int(data.get("version", 1)),
            dwell_scale=int(data.get("dwell_scale", 3)),
            region=str(data.get("region", "heap")),
            phases=tuple(
                PhaseSpec.from_dict(p) for p in data["phases"]
            ),
        )

    def canonical_json(self) -> str:
        """The one wire form of this spec (sorted keys, no whitespace)."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    def content_hash(self) -> str:
        """Stable behaviour identity of this spec (hex sha256).

        Digests the canonical JSON under :data:`GRAMMAR_VERSION`; two specs
        share a hash iff they build the same mixture the same way.  The
        registry abbreviates this into engine cache keys.
        """
        payload = f"repro-corpus/{GRAMMAR_VERSION}\x00{self.canonical_json()}"
        return hashlib.sha256(payload.encode()).hexdigest()
