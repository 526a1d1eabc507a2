"""Core value types for entities, proof states, and interactive proofs.

Everything here is an immutable value object: construction validates the
type's invariants and raises ValueError on breach, and all collection fields
are tuples so instances are hashable and safe to share across threads.

A proof state carries two views of the same judgment: the surface view is the
text a user sees in the proof assistant, the internal view is the elaborated
kernel-level text with fully qualified names. Hypothesis lists for the two
views are stored as parallel lists aligned by position; the pairwise-name
invariant keeps them in lockstep.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

#: Marker used by the proof assistant for unnamed binders.
ANONYMOUS_NAME = "_Anonymous"

#: Entity kinds with dedicated variants; anything else travels as Other(label).
KNOWN_KINDS = (
    "Variable",
    "Parameter",
    "Definition",
    "Theorem",
    "Lemma",
    "Inductive",
    "Constructor",
    "Fixpoint",
    "Axiom",
    "Notation",
)


@dataclass(frozen=True)
class EntityKind:
    """Classification of a global entity.

    `variant` is one of KNOWN_KINDS or the literal "Other"; only the Other
    variant carries a non-empty free-form `label`.
    """

    variant: str
    label: str = ""

    def __post_init__(self):
        if self.variant == "Other":
            if not self.label:
                raise ValueError("Other entity kind requires a non-empty label")
        elif self.variant in KNOWN_KINDS:
            if self.label:
                raise ValueError(f"kind {self.variant} must not carry a label")
        else:
            raise ValueError(f"unknown entity kind {self.variant!r}")

    def render(self) -> str:
        return f"Other:{self.label}" if self.variant == "Other" else self.variant

    @classmethod
    def parse(cls, text: str) -> "EntityKind":
        """The kind a rendered text names; known kinds are shared constants,
        ``Other:`` labels are parsed fresh."""
        if text.startswith("Other:"):
            return cls("Other", text[len("Other:"):])
        known = _KNOWN_KIND_VALUES.get(text)
        return known if known is not None else cls(text)


_KNOWN_KIND_VALUES = {variant: EntityKind(variant) for variant in KNOWN_KINDS}


def _check_dotted_path(value: str, what: str) -> None:
    if not value:
        raise ValueError(f"{what} must be non-empty")
    # A segment is empty exactly where a dot starts or ends the path or
    # follows another dot.
    if value[0] == "." or value[-1] == "." or ".." in value:
        raise ValueError(f"{what} has an empty dot-separated segment: {value!r}")


@dataclass(frozen=True, slots=True)
class EntityRecord:
    """One extracted global entity.

    `name` is the user-facing canonical path, `kernel_name` the proof
    assistant's internal unique path; the pair identifies the entity.
    `origin` is the source definition text, `internal` the elaborated
    kernel-level text, `intuition` an optional one-sentence description.
    The `*_zh` fields hold pre-translated variants of the three context
    texts when the corpus ships them (empty otherwise).
    `dependencies` holds producer-supplied token references, duplicate-free.
    """

    name: str
    kernel_name: str
    kind: EntityKind
    origin: str
    internal: str
    intuition: str = ""
    source_file: str = ""
    dependencies: tuple[int, ...] = ()
    origin_zh: str = ""
    internal_zh: str = ""
    intuition_zh: str = ""

    def __post_init__(self):
        _check_dotted_path(self.name, "entity name")
        if self.kernel_name != self.name:
            _check_dotted_path(self.kernel_name, "entity kernel_name")
        if not self.origin:
            raise ValueError(f"entity {self.name}: origin must be non-empty")
        if not self.internal:
            raise ValueError(f"entity {self.name}: internal must be non-empty")
        if self.dependencies and len(set(self.dependencies)) != len(self.dependencies):
            raise ValueError(f"entity {self.name}: duplicate dependencies")


@dataclass(frozen=True)
class Hypothesis:
    """A named hypothesis; either type text may be empty when that view is
    not populated for the list the hypothesis sits in."""

    name: str
    surface_type: str = ""
    internal_type: str = ""

    def __post_init__(self):
        if not self.name:
            raise ValueError("hypothesis name must be non-empty")


@dataclass(frozen=True)
class GoalState:
    """A single open goal: surface and internal hypothesis lists (parallel,
    aligned by name) plus the two goal texts."""

    hypotheses_surface: tuple[Hypothesis, ...]
    hypotheses_internal: tuple[Hypothesis, ...]
    goal_surface: str
    goal_internal: str

    def __post_init__(self):
        if len(self.hypotheses_surface) != len(self.hypotheses_internal):
            raise ValueError("surface/internal hypothesis lists differ in length")
        for hs, hi in zip(self.hypotheses_surface, self.hypotheses_internal):
            if hs.name != hi.name:
                raise ValueError(
                    f"hypothesis name mismatch: {hs.name!r} vs {hi.name!r}"
                )
        if not self.goal_surface or not self.goal_internal:
            raise ValueError("goal texts must be non-empty")


@dataclass(frozen=True)
class ProofState:
    """All open goals at one point of a proof; no goals means complete."""

    goals: tuple[GoalState, ...] = ()

    @property
    def is_complete(self) -> bool:
        return not self.goals


@dataclass(frozen=True)
class TacticStep:
    """One proof step: the tactic text and the states around it."""

    tactic: str
    before: ProofState
    after: ProofState
    explanation: str = ""

    def __post_init__(self):
        if not self.tactic:
            raise ValueError("tactic text must be non-empty")


@dataclass(frozen=True)
class InteractiveProof:
    """A chained sequence of tactic steps for one theorem.

    Construction does not enforce chaining; use validate_proof_chain to get
    the violations as data.
    """

    theorem_name: str
    steps: tuple[TacticStep, ...] = ()

    def __post_init__(self):
        if not self.theorem_name:
            raise ValueError("theorem_name must be non-empty")

    @property
    def is_complete(self) -> bool:
        return bool(self.steps) and self.steps[-1].after.is_complete


def validate_proof_chain(proof: InteractiveProof) -> list[tuple[int, str]]:
    """Check that consecutive steps chain: steps[i].after == steps[i+1].before.

    Returns one (step_index, description) per violation, where step_index is
    the 1-based index of the later step; an empty list means the chain holds.
    """
    violations: list[tuple[int, str]] = []
    for i in range(1, len(proof.steps)):
        if proof.steps[i].before != proof.steps[i - 1].after:
            violations.append(
                (i, f"step {i} starts from a state the previous step did not produce")
            )
    return violations


def _normalize_ws(text: str) -> str:
    # Collapse runs of whitespace and trim, so formatting-only differences
    # never split states.
    return " ".join(text.split())


_FINGERPRINT_VERSION = "fp1"


def state_fingerprint(state: ProofState) -> str:
    """Stable digest of a proof state, derived from the internal view only.

    Surface texts never contribute, so two states that elaborate identically
    share a fingerprint even when displayed differently. Hypothesis order and
    goal order are significant. Whitespace is normalized before hashing.
    """
    parts: list[str] = [_FINGERPRINT_VERSION]
    for goal in state.goals:
        parts.append("g")
        parts.append(_normalize_ws(goal.goal_internal))
        for hyp in goal.hypotheses_internal:
            parts.append("h")
            parts.append(hyp.name)
            parts.append(_normalize_ws(hyp.internal_type))
    encoded = "\x1f".join(parts).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


@dataclass(frozen=True)
class SearchCandidate:
    """A beam-search candidate: the state reached, the (tactic, explanation)
    trace that reached it, and the running summary."""

    state: ProofState
    trace: tuple[tuple[str, str], ...] = ()
    summary: str = ""


@dataclass(frozen=True)
class Notebook:
    """Shared ranked insight notes, capped at `capacity` items."""

    items: tuple[str, ...] = ()
    capacity: int = 15

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("notebook capacity must be positive")
        if len(self.items) > self.capacity:
            raise ValueError(
                f"notebook holds {len(self.items)} items, capacity {self.capacity}"
            )
