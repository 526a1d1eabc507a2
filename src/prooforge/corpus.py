"""Corpus loading, serialization formats, concept extraction, and Requires.

Interchange files are line-delimited JSON with a mandatory first line naming
the format version and payload kind::

    #prooforge-corpus v1 entities
    #prooforge-corpus v1 proofs

Each subsequent non-empty line is one JSON object whose field names match the
EntityRecord / InteractiveProof fields. Unknown fields are preserved on
round-trip but otherwise ignored. Dependencies are written as entity names
(rendered ``canonical<ker>kernel`` or bare canonical paths) and resolved to
token ids at load time; names that resolve nowhere are dropped so partially
extracted corpora still load.

Loading an Inductive record also derives one EntityRecord per constructor
clause found in its internal text (``Head | Ctor : Type | ...``) unless the
file lists that constructor explicitly. Derived records are not re-serialized,
which keeps load -> save -> load a fixpoint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

from .core_model import (
    EntityKind,
    EntityRecord,
    GoalState,
    Hypothesis,
    InteractiveProof,
    ProofState,
    TacticStep,
    validate_proof_chain,
)
from .errors import FormatError, UnknownTokenError
from .tokenizer import (
    EMPTY_CONTEXT,
    KERNEL_SEPARATOR,
    DisambiguatedName,
    TokenClass,
    TokenTable,
    resolve_name,
    tokenize_term,
)

FORMAT_VERSION = "v1"
ENTITIES_HEADER = f"#prooforge-corpus {FORMAT_VERSION} entities"
PROOFS_HEADER = f"#prooforge-corpus {FORMAT_VERSION} proofs"


# ======================================================================
# Object encoding for the core value types
# ======================================================================

def encode_entity_record(record: EntityRecord, table: Optional[TokenTable] = None) -> dict:
    """Encode a record as a JSON-ready dict. With a table, dependencies are
    written as rendered disambiguated names; without one, as raw token ids.
    Empty optional fields are omitted."""
    obj: dict = {
        "name": record.name,
        "kernel_name": record.kernel_name,
        "kind": record.kind.render(),
        "origin": record.origin,
        "internal": record.internal,
    }
    if record.intuition:
        obj["intuition"] = record.intuition
    if record.source_file:
        obj["source_file"] = record.source_file
    if record.dependencies:
        if table is not None:
            deps: list = []
            for tid in record.dependencies:
                entry = table.reverse.get(tid)
                deps.append(entry[0] if entry else tid)
            obj["dependencies"] = deps
        else:
            obj["dependencies"] = list(record.dependencies)
    for key in ("origin_zh", "internal_zh", "intuition_zh"):
        value = getattr(record, key)
        if value:
            obj[key] = value
    return obj


def _resolve_dependency(table: TokenTable, name) -> Optional[int]:
    if isinstance(name, int):
        return name if name in table.reverse else None
    if KERNEL_SEPARATOR in name:
        return table.id_for_rendered(name)
    return resolve_name(table, name, EMPTY_CONTEXT)


def decode_entity_record(obj: dict) -> tuple[EntityRecord, dict]:
    """Decode one entity object; returns the record plus any unknown fields.
    Dependencies are read as raw token ids; `load_entity_corpus` resolves
    dependency names itself, once every entity is interned."""
    known = {
        "name", "kernel_name", "kind", "origin", "internal", "intuition",
        "source_file", "dependencies", "origin_zh", "internal_zh", "intuition_zh",
    }
    extras = {k: v for k, v in obj.items() if k not in known}
    deps = tuple(dict.fromkeys(int(d) for d in obj.get("dependencies", [])))
    record = EntityRecord(
        name=obj["name"],
        kernel_name=obj["kernel_name"],
        kind=EntityKind.parse(obj["kind"]),
        origin=obj["origin"],
        internal=obj["internal"],
        intuition=obj.get("intuition", ""),
        source_file=obj.get("source_file", ""),
        dependencies=deps,
        origin_zh=obj.get("origin_zh", ""),
        internal_zh=obj.get("internal_zh", ""),
        intuition_zh=obj.get("intuition_zh", ""),
    )
    return record, extras


def encode_hypothesis(hyp: Hypothesis) -> dict:
    return {
        "name": hyp.name,
        "surface_type": hyp.surface_type,
        "internal_type": hyp.internal_type,
    }


def decode_hypothesis(obj: dict) -> Hypothesis:
    return Hypothesis(
        name=obj["name"],
        surface_type=obj.get("surface_type", ""),
        internal_type=obj.get("internal_type", ""),
    )


def encode_goal_state(goal: GoalState) -> dict:
    return {
        "hypotheses_surface": [encode_hypothesis(h) for h in goal.hypotheses_surface],
        "hypotheses_internal": [encode_hypothesis(h) for h in goal.hypotheses_internal],
        "goal_surface": goal.goal_surface,
        "goal_internal": goal.goal_internal,
    }


def decode_goal_state(obj: dict) -> GoalState:
    return GoalState(
        hypotheses_surface=tuple(decode_hypothesis(h) for h in obj.get("hypotheses_surface", [])),
        hypotheses_internal=tuple(decode_hypothesis(h) for h in obj.get("hypotheses_internal", [])),
        goal_surface=obj["goal_surface"],
        goal_internal=obj["goal_internal"],
    )


def encode_proof_state(state: ProofState) -> dict:
    return {"goals": [encode_goal_state(g) for g in state.goals]}


def decode_proof_state(obj: dict) -> ProofState:
    return ProofState(goals=tuple(decode_goal_state(g) for g in obj.get("goals", [])))


def encode_tactic_step(step: TacticStep) -> dict:
    obj = {
        "tactic": step.tactic,
        "before": encode_proof_state(step.before),
        "after": encode_proof_state(step.after),
    }
    if step.explanation:
        obj["explanation"] = step.explanation
    return obj


def decode_tactic_step(obj: dict) -> TacticStep:
    return TacticStep(
        tactic=obj["tactic"],
        before=decode_proof_state(obj["before"]),
        after=decode_proof_state(obj["after"]),
        explanation=obj.get("explanation", ""),
    )


def encode_proof(proof: InteractiveProof) -> dict:
    return {
        "theorem_name": proof.theorem_name,
        "steps": [encode_tactic_step(s) for s in proof.steps],
    }


def decode_proof(obj: dict) -> tuple[InteractiveProof, dict]:
    known = {"theorem_name", "steps"}
    extras = {k: v for k, v in obj.items() if k not in known}
    proof = InteractiveProof(
        theorem_name=obj["theorem_name"],
        steps=tuple(decode_tactic_step(s) for s in obj.get("steps", [])),
    )
    return proof, extras


# ======================================================================
# Corpora
# ======================================================================

@dataclass
class EntityCorpus:
    """Loaded entity records plus lookup maps.

    `tokens[i]` is the token id of `records[i]`; `by_token` inverts that.
    `by_name` maps each record's name, kernel name and last name segment to
    the first record index, in corpus order, that carries it.
    `derived` marks records synthesized from Inductive constructor clauses
    (they are skipped on save); `extras` keeps unknown JSON fields per record.
    """

    records: tuple[EntityRecord, ...] = ()
    tokens: tuple[int, ...] = ()
    by_token: dict = None
    by_name: dict = field(init=False, repr=False)
    derived: frozenset = frozenset()
    extras: dict = None

    def __post_init__(self):
        if self.by_token is None:
            self.by_token = {tid: i for i, tid in enumerate(self.tokens)}
        self.by_name = {}
        for i, record in enumerate(self.records):
            for key in (record.name, record.kernel_name, record.name.rsplit(".", 1)[-1]):
                self.by_name.setdefault(key, i)
        if self.extras is None:
            self.extras = {}

    def __len__(self) -> int:
        return len(self.records)

    def record_for(self, token: int) -> Optional[EntityRecord]:
        index = self.by_token.get(token)
        return self.records[index] if index is not None else None


@dataclass
class ProofCorpus:
    """Loaded interactive proofs, chain-validated, unique theorem names."""

    proofs: tuple[InteractiveProof, ...] = ()
    by_theorem: dict = None
    extras: dict = None

    def __post_init__(self):
        if self.by_theorem is None:
            self.by_theorem = {p.theorem_name: i for i, p in enumerate(self.proofs)}
        if self.extras is None:
            self.extras = {}

    def __len__(self) -> int:
        return len(self.proofs)


def _constructor_clauses(internal: str) -> list[tuple[str, str]]:
    """Parse ``Head | Ctor : Type | ...`` into (ctor_name, ctor_type) pairs.

    Clauses that do not look like a dotted name with a type are skipped; a
    malformed tail never blocks loading the parent record.
    """
    segments = internal.split("|")
    clauses = []
    for segment in segments[1:]:
        if ":" not in segment:
            continue
        name, typ = segment.split(":", 1)
        name = name.strip()
        typ = typ.strip()
        if not name or not typ or " " in name:
            continue
        clauses.append((name, typ))
    return clauses


def derive_constructors(record: EntityRecord) -> list[EntityRecord]:
    """Constructor records implied by an Inductive record's internal text."""
    if record.kind.variant != "Inductive":
        return []
    out = []
    for ctor_name, ctor_type in _constructor_clauses(record.internal):
        if record.name and ctor_name.startswith(record.name + "."):
            suffix = ctor_name[len(record.name):]
            kernel = record.kernel_name + suffix
        else:
            kernel = ctor_name
        try:
            out.append(EntityRecord(
                name=ctor_name,
                kernel_name=kernel,
                kind=EntityKind("Constructor"),
                origin=f"{ctor_name} : {ctor_type}",
                internal=f"{ctor_name} : {ctor_type}",
                source_file=record.source_file,
            ))
        except ValueError:
            continue
    return out


def _read_lines(path: str, expected_header: str) -> list[tuple[int, str]]:
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read().split("\n")
    if not raw or raw[0].strip() != expected_header:
        raise FormatError(
            f"missing or wrong header, expected {expected_header!r}", line=1
        )
    out = []
    for lineno, line in enumerate(raw[1:], start=2):
        if line.strip():
            out.append((lineno, line))
    return out


def load_entity_corpus(path: str, table: TokenTable) -> EntityCorpus:
    """Load an entities file, interning every record (and derived
    constructors) into `table`. Raises FormatError with the offending line
    number on any malformed or duplicate record."""
    parsed: list[tuple[int, EntityRecord, dict, list]] = []
    explicit_names: set[DisambiguatedName] = set()
    for lineno, line in _read_lines(path, ENTITIES_HEADER):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"bad JSON: {exc.msg}", line=lineno)
        if not isinstance(obj, dict):
            raise FormatError("each line must hold one JSON object", line=lineno)
        # Dependencies are names, resolved in the second pass once every
        # entity is interned; the decoder reads only raw ids.
        stripped = {k: v for k, v in obj.items() if k != "dependencies"}
        try:
            record, extras = decode_entity_record(stripped)
        except (KeyError, TypeError) as exc:
            raise FormatError(f"missing or bad field: {exc}", line=lineno)
        except ValueError as exc:
            raise FormatError(str(exc), line=lineno)
        dn = DisambiguatedName(record.name, record.kernel_name)
        if dn in explicit_names:
            raise FormatError(f"duplicate entity {dn.rendered()}", line=lineno)
        explicit_names.add(dn)
        parsed.append((lineno, record, extras, obj.get("dependencies", [])))

    records: list[EntityRecord] = []
    tokens: list[int] = []
    derived: set[int] = set()
    extras_map: dict[int, dict] = {}
    seen: set[DisambiguatedName] = set()

    def add(record: EntityRecord, extras: dict, is_derived: bool) -> None:
        dn = DisambiguatedName(record.name, record.kernel_name)
        if dn in seen:
            return
        seen.add(dn)
        tid = table.intern_entity(record)
        index = len(records)
        records.append(record)
        tokens.append(tid)
        if is_derived:
            derived.add(index)
        if extras:
            extras_map[index] = extras

    for lineno, record, extras, _raw_deps in parsed:
        add(record, extras, is_derived=False)
        for ctor in derive_constructors(record):
            dn = DisambiguatedName(ctor.name, ctor.kernel_name)
            if dn not in explicit_names:
                add(ctor, {}, is_derived=True)

    # Second pass: with every entity interned, resolve dependency names.
    position = {DisambiguatedName(r.name, r.kernel_name): i for i, r in enumerate(records)}
    for lineno, record, _extras, raw_deps in parsed:
        if not raw_deps:
            continue
        resolved: list[int] = []
        for name in raw_deps:
            tid = _resolve_dependency(table, name)
            if tid is not None and tid not in resolved:
                resolved.append(tid)
        index = position[DisambiguatedName(record.name, record.kernel_name)]
        records[index] = replace(records[index], dependencies=tuple(resolved))

    return EntityCorpus(
        records=tuple(records),
        tokens=tuple(tokens),
        derived=frozenset(derived),
        extras=extras_map,
    )


def save_entity_corpus(corpus: EntityCorpus, table: TokenTable, path: str) -> None:
    """Serialize; derived constructor records are skipped so reload re-derives
    them and the file stays a fixpoint of load -> save."""
    lines = [ENTITIES_HEADER]
    for index, record in enumerate(corpus.records):
        if index in corpus.derived:
            continue
        obj = encode_entity_record(record, table)
        obj.update(corpus.extras.get(index, {}))
        lines.append(json.dumps(obj, sort_keys=True, ensure_ascii=False))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_proof_corpus(path: str) -> ProofCorpus:
    """Load a proofs file; every proof must chain correctly and theorem names
    must be unique."""
    proofs: list[InteractiveProof] = []
    by_theorem: dict[str, int] = {}
    extras_map: dict[int, dict] = {}
    for lineno, line in _read_lines(path, PROOFS_HEADER):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"bad JSON: {exc.msg}", line=lineno)
        try:
            proof, extras = decode_proof(obj)
        except (KeyError, TypeError) as exc:
            raise FormatError(f"missing or bad field: {exc}", line=lineno)
        except ValueError as exc:
            raise FormatError(str(exc), line=lineno)
        violations = validate_proof_chain(proof)
        if violations:
            step, why = violations[0]
            raise FormatError(
                f"proof {proof.theorem_name!r}: {why} (step {step})", line=lineno
            )
        if proof.theorem_name in by_theorem:
            raise FormatError(
                f"duplicate theorem {proof.theorem_name!r}", line=lineno
            )
        by_theorem[proof.theorem_name] = len(proofs)
        if extras:
            extras_map[len(proofs)] = extras
        proofs.append(proof)
    return ProofCorpus(proofs=tuple(proofs), by_theorem=by_theorem, extras=extras_map)


def save_proof_corpus(corpus: ProofCorpus, path: str) -> None:
    lines = [PROOFS_HEADER]
    for index, proof in enumerate(corpus.proofs):
        obj = encode_proof(proof)
        obj.update(corpus.extras.get(index, {}))
        lines.append(json.dumps(obj, sort_keys=True, ensure_ascii=False))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ======================================================================
# Concept extraction and Require generation
# ======================================================================

def _global_tokens(table: TokenTable, text: str, memo: dict) -> tuple[int, ...]:
    """Global token ids of a text; each text is tokenized once per `memo`."""
    tids = memo.get(text)
    if tids is None:
        tids = memo[text] = tuple(
            tid
            for _lex, cls, tid in tokenize_term(table, text)
            if cls.kind == TokenClass.GLOBAL and tid is not None
        )
    return tids


def _record_dependencies(corpus: EntityCorpus, table: TokenTable, token: int, memo: dict) -> Iterable[int]:
    record = corpus.record_for(token)
    if record is None:
        return ()
    if record.dependencies:
        return record.dependencies
    # No producer-supplied dependencies: fall back to tokenizing the record's
    # own internal text and taking whatever resolves.
    return _global_tokens(table, record.internal, memo)


def extract_concepts(
    corpus: EntityCorpus,
    table: TokenTable,
    state: ProofState,
    depth: int = 1,
    memo: Optional[dict] = None,
) -> frozenset:
    """Global tokens referenced by a state, expanded `depth` dependency hops.

    Depth 0 is exactly the tokens of the internal goal and hypothesis texts;
    each extra hop unions in the dependencies of everything collected so far.
    Expansion stops early at a fixpoint, and the result is monotone in depth.
    `memo` maps each text to its global tokens and must not outlive an intern
    into `table`; the search keeps one per proof, other callers one per call.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    memo = {} if memo is None else memo
    current: set[int] = set()
    for goal in state.goals:
        current.update(_global_tokens(table, goal.goal_internal, memo))
        for h in goal.hypotheses_internal:
            current.update(_global_tokens(table, h.internal_type, memo))
    for _hop in range(depth):
        expanded = set(current)
        for token in current:
            expanded.update(_record_dependencies(corpus, table, token, memo))
        if expanded == current:
            break
        current = expanded
    return frozenset(current)


def generate_require(corpus: EntityCorpus, tokens: Iterable[int]) -> list[str]:
    """Deduplicated, lexicographically sorted Require Import lines covering
    the modules of the given tokens. Raises UnknownTokenError for a token
    without a backing record."""
    prefixes: set[str] = set()
    for token in tokens:
        record = corpus.record_for(token)
        if record is None:
            raise UnknownTokenError(f"token {token} has no corpus record")
        prefix = record.name.rsplit(".", 1)[0] if "." in record.name else ""
        if prefix:
            prefixes.add(prefix)
    return [f"Require Import {prefix}." for prefix in sorted(prefixes)]
