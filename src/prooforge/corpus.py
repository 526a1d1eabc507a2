"""Corpus loading, serialization formats, and concept extraction.

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

Both loaders stream their file line by line, so a load holds the line being
decoded, not the whole file. Loading a proofs file hash-conses its states:
equal hypotheses, goals and proof states decoded in one
``load_proof_corpus`` call are one object, so load time and memory follow
the distinct content rather than how often it recurs. Loading an entities
file shares equal texts the same way: within one ``load_entity_corpus``
call, a kernel name equal to its record's name is that name, and equal
``source_file``, ``intuition`` and ``*_zh`` texts are one object. Nothing is
shared across calls. Both loaders run with the cyclic garbage collector
paused, since a load builds no reference cycle for it to free.

An entity's name is stored in its record and once, as its disambiguated
name, in the token table; an EntityCorpus finds a record from its token id
by arithmetic over the load's consecutive ids, not by a map entry per
record.
"""

from __future__ import annotations

import functools
import gc
import json
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

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
from .errors import FormatError
from .tokenizer import (
    KERNEL_SEPARATOR,
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

def encode_entity_record(record: EntityRecord, table: TokenTable) -> dict:
    """Encode a record as a JSON-ready dict, its dependencies as the rendered
    disambiguated names `table` holds for them. Empty optional fields are
    omitted."""
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
        deps: list = []
        for tid in record.dependencies:
            entry = table.reverse.get(tid)
            deps.append(entry[0] if entry else tid)
        obj["dependencies"] = deps
    for key in ("origin_zh", "internal_zh", "intuition_zh"):
        value = getattr(record, key)
        if value:
            obj[key] = value
    return obj


def _resolve_dependency(table: TokenTable, name) -> Optional[int]:
    """A dependency name, or a token id that must be an entity's, as the
    entity's token id; None when it names no entity."""
    if isinstance(name, int):
        entry = table.reverse.get(name)
        return name if entry is not None and entry[1].kind == TokenClass.GLOBAL else None
    if KERNEL_SEPARATOR in name:
        return table.id_for_rendered(name)
    return resolve_name(table, name)


# An entity line's text fields: required, then optional and shared.
_REQUIRED_TEXTS = ("name", "kernel_name", "kind", "origin", "internal")
_SHARED_TEXTS = ("intuition", "source_file", "origin_zh", "internal_zh", "intuition_zh")
_ENTITY_FIELDS = frozenset((*_REQUIRED_TEXTS, *_SHARED_TEXTS, "dependencies"))
_required_texts = operator.itemgetter(*_REQUIRED_TEXTS)
_BAD_DEPENDENCIES = "dependencies must be a list of names and token ids"


def encode_hypothesis(hyp: Hypothesis) -> dict:
    return {
        "name": hyp.name,
        "surface_type": hyp.surface_type,
        "internal_type": hyp.internal_type,
    }


def encode_goal_state(goal: GoalState) -> dict:
    return {
        "hypotheses_surface": [encode_hypothesis(h) for h in goal.hypotheses_surface],
        "hypotheses_internal": [encode_hypothesis(h) for h in goal.hypotheses_internal],
        "goal_surface": goal.goal_surface,
        "goal_internal": goal.goal_internal,
    }


def encode_proof_state(state: ProofState) -> dict:
    return {"goals": [encode_goal_state(g) for g in state.goals]}


def encode_tactic_step(step: TacticStep) -> dict:
    obj = {
        "tactic": step.tactic,
        "before": encode_proof_state(step.before),
        "after": encode_proof_state(step.after),
    }
    if step.explanation:
        obj["explanation"] = step.explanation
    return obj


def encode_proof(proof: InteractiveProof) -> dict:
    return {
        "theorem_name": proof.theorem_name,
        "steps": [encode_tactic_step(s) for s in proof.steps],
    }


_PROOF_FIELDS = frozenset(("theorem_name", "steps"))
_REQUIRED = object()
_KIND_NAMES = {str: "a string", list: "a list", dict: "an object"}


def _field(obj: dict, key: str, kind: type, default=_REQUIRED):
    """`obj[key]`, or `default` when the key is absent and has one. Raises
    KeyError for a missing required key and ValueError naming the key when
    the value is not a `kind`."""
    value = obj.get(key, default)
    if value is _REQUIRED:
        raise KeyError(key)
    if not isinstance(value, kind):
        raise ValueError(f"{key} must be {_KIND_NAMES[kind]}")
    return value


def _item(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"each {what} must be an object")
    return value


class _ProofDecoder:
    """Decodes the proof lines of one `load_proof_corpus` call, hash-consed:
    equal hypotheses, goals and states decode to one object each. Each field
    is checked to be of its JSON type before it keys a memo. A memoized
    object is the only one of its value, so goals and states are keyed by
    the ids of their parts, which the memo keeps alive."""

    def __init__(self):
        self.hypotheses: dict = {}
        self.goals: dict = {}
        self.states: dict = {}

    def hypothesis(self, obj) -> Hypothesis:
        obj = _item(obj, "hypothesis")
        key = (obj.get("name", _REQUIRED), obj.get("surface_type", ""), obj.get("internal_type", ""))
        # Only checked keys are memoized, and no other JSON value equals a
        # string, so a hit needs no check. An unhashable field misses.
        try:
            return self.hypotheses[key]
        except (KeyError, TypeError):
            pass
        key = (
            _field(obj, "name", str),
            _field(obj, "surface_type", str, ""),
            _field(obj, "internal_type", str, ""),
        )
        hyp = self.hypotheses[key] = Hypothesis(*key)
        return hyp

    def goal(self, obj) -> GoalState:
        obj = _item(obj, "goal")
        surface = tuple(map(self.hypothesis, _field(obj, "hypotheses_surface", list, [])))
        internal = tuple(map(self.hypothesis, _field(obj, "hypotheses_internal", list, [])))
        goal_surface = _field(obj, "goal_surface", str)
        goal_internal = _field(obj, "goal_internal", str)
        key = (tuple(map(id, surface)), tuple(map(id, internal)), goal_surface, goal_internal)
        goal = self.goals.get(key)
        if goal is None:
            goal = self.goals[key] = GoalState(surface, internal, goal_surface, goal_internal)
        return goal

    def state(self, obj) -> ProofState:
        goals = tuple(map(self.goal, _field(obj, "goals", list, [])))
        key = tuple(map(id, goals))
        state = self.states.get(key)
        if state is None:
            state = self.states[key] = ProofState(goals)
        return state

    def proof(self, obj: dict) -> InteractiveProof:
        steps = []
        raw_after = after = None
        for raw in _field(obj, "steps", list, []):
            raw = _item(raw, "step")
            raw_before = _field(raw, "before", dict)
            # A chained file repeats the previous step's `after` as this
            # step's `before`; equal raw objects decode to the same state.
            before = after if raw_before == raw_after else self.state(raw_before)
            raw_after = _field(raw, "after", dict)
            after = self.state(raw_after)
            steps.append(TacticStep(
                tactic=_field(raw, "tactic", str),
                before=before,
                after=after,
                explanation=_field(raw, "explanation", str, ""),
            ))
        return InteractiveProof(theorem_name=_field(obj, "theorem_name", str), steps=tuple(steps))


# ======================================================================
# Corpora
# ======================================================================

@dataclass
class EntityCorpus:
    """Loaded entity records plus lookup maps.

    `tokens[i]` is the token id of `records[i]`, one distinct id per record
    as a load interns each record once. `record_for` inverts that without
    a map entry per record: a record whose token is the first record's plus
    its position is found by arithmetic, and only the others are kept in
    `_displaced` (token -> position). A fresh table interns a load in
    order, so then `_displaced` is empty; a table filled from a vocabulary
    file may give ids out of order or with gaps.
    `by_name` maps each record's name, kernel name and last name segment to
    the first record index, in corpus order, that carries it.
    `derived` marks records synthesized from Inductive constructor clauses
    (they are skipped on save); `extras` keeps unknown JSON fields per record.
    """

    records: tuple[EntityRecord, ...] = ()
    tokens: tuple[int, ...] = ()
    by_name: dict = field(init=False, repr=False)
    derived: frozenset = frozenset()
    extras: dict = None
    _first: int = field(init=False, repr=False)
    _displaced: dict = field(init=False, repr=False)

    def __post_init__(self):
        self._first = self.tokens[0] if self.tokens else 0
        self._displaced = {
            tid: i for i, tid in enumerate(self.tokens) if tid != self._first + i
        }
        self.by_name = by_name = {}
        for i, record in enumerate(self.records):
            name, kernel = record.name, record.kernel_name
            short = name[name.rfind(".") + 1:]
            by_name.setdefault(name, i)
            if kernel != name:
                by_name.setdefault(kernel, i)
            if short != name and short != kernel:
                by_name.setdefault(short, i)
        if self.extras is None:
            self.extras = {}

    def __len__(self) -> int:
        return len(self.records)

    def record_for(self, token: int) -> Optional[EntityRecord]:
        index = token - self._first
        if 0 <= index < len(self.tokens) and self.tokens[index] == token:
            return self.records[index]
        index = self._displaced.get(token)
        return self.records[index] if index is not None else None


@dataclass
class ProofCorpus:
    """Loaded interactive proofs, chain-validated, unique theorem names."""

    proofs: tuple[InteractiveProof, ...]
    by_theorem: dict
    extras: dict

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


_CONSTRUCTOR = EntityKind.parse("Constructor")


def derive_constructors(record: EntityRecord) -> list[EntityRecord]:
    """Constructor records implied by an Inductive record's internal text.
    A constructor's kernel name equal to its name is that name, and its
    origin and internal texts are one string."""
    if record.kind.variant != "Inductive":
        return []
    out = []
    for ctor_name, ctor_type in _constructor_clauses(record.internal):
        kernel = ctor_name
        if record.name and ctor_name.startswith(record.name + ".") and record.kernel_name != record.name:
            kernel = record.kernel_name + ctor_name[len(record.name):]
        text = f"{ctor_name} : {ctor_type}"
        try:
            out.append(EntityRecord(
                name=ctor_name,
                kernel_name=kernel,
                kind=_CONSTRUCTOR,
                origin=text,
                internal=text,
                source_file=record.source_file,
            ))
        except ValueError:
            continue
    return out


def _read_objects(path: str, expected_header: str) -> Iterator[tuple[int, dict]]:
    """Yield (line number, JSON object) for each non-empty line after the
    header; raise FormatError naming the line for one that holds anything
    else.

    The file is streamed line by line, so only the line being decoded is
    held as text. A line ends at a line feed, a carriage return and line
    feed, or a lone carriage return (universal newlines), and is decoded
    without its line end.
    """
    with open(path, "r", encoding="utf-8") as fh:
        if fh.readline().strip() != expected_header:
            raise FormatError(
                f"missing or wrong header, expected {expected_header!r}", line=1
            )
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                obj = json.loads(line.rstrip("\n"))
            except json.JSONDecodeError as exc:
                raise FormatError(f"bad JSON: {exc.msg}", line=lineno)
            except RecursionError:
                raise FormatError("bad JSON: nested too deeply", line=lineno)
            if not isinstance(obj, dict):
                raise FormatError("each line must hold one JSON object", line=lineno)
            yield lineno, obj


def _collector_paused(load):
    """`load` run with the cyclic garbage collector paused, for the whole
    process; the caller's setting is put back when it returns or raises.
    A load builds no cycle, so the collector's passes over its growing heap
    of records and decoded JSON would free nothing."""

    @functools.wraps(load)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return load(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


@_collector_paused
def load_entity_corpus(path: str, table: TokenTable) -> EntityCorpus:
    """Load an entities file, interning every record (and derived
    constructors) into `table`. Raises FormatError with the offending line
    number on any malformed or duplicate record; a text field that is not a
    string is named.

    Each record is built and validated once. Every line is read and checked
    before anything is interned, so a file that fails to load interns
    nothing. A record's dependency names resolve only once every entity is
    interned; until then the record is the loader's own, and its
    `dependencies` are filled in place before the corpus is returned.

    Equal texts are shared within the call, through a dict dropped on
    return: a `kernel_name` equal to `name` is the `name` object, and each
    repeated `source_file`, `intuition` and `*_zh` string is one object.
    Nothing is shared across calls.

    The cyclic garbage collector is paused for the load, in the whole
    process, and the caller's setting is put back on return or error. That
    is safe because a load calls no user code and builds no reference
    cycle; other threads keep running, and their cycles wait for the
    collector until the load ends.
    """
    parsed: list[tuple[EntityRecord, Optional[dict], list]] = []
    names: set[tuple[str, str]] = set()
    texts: dict[str, str] = {}

    for lineno, obj in _read_objects(path, ENTITIES_HEADER):
        try:
            name, kernel_name, kind, origin, internal = _required_texts(obj)
        except KeyError as exc:
            raise FormatError(f"missing field: {exc}", line=lineno)
        if not (type(name) is type(kernel_name) is type(kind) is type(origin) is type(internal) is str):
            bad = next(key for key in _REQUIRED_TEXTS if type(obj[key]) is not str)
            raise FormatError(f"{bad} must be a string", line=lineno)
        shared = {}
        for key in _SHARED_TEXTS:
            if key in obj:
                value = obj[key]
                if type(value) is not str:
                    raise FormatError(f"{key} must be a string", line=lineno)
                shared[key] = texts.setdefault(value, value)
        try:
            record = EntityRecord(
                name,
                name if kernel_name == name else kernel_name,
                EntityKind.parse(kind),
                origin,
                internal,
                **shared,
            )
        except ValueError as exc:
            raise FormatError(str(exc), line=lineno)
        extras = None
        if not obj.keys() <= _ENTITY_FIELDS:
            extras = {k: v for k, v in obj.items() if k not in _ENTITY_FIELDS}
        raw_deps = obj.get("dependencies", [])
        if type(raw_deps) is not list:
            raise FormatError(_BAD_DEPENDENCIES, line=lineno)
        for dep in raw_deps:
            if type(dep) is not str and type(dep) is not int:
                raise FormatError(_BAD_DEPENDENCIES, line=lineno)
        key = (record.name, record.kernel_name)
        if key in names:
            raise FormatError(
                f"duplicate entity {record.name}{KERNEL_SEPARATOR}{record.kernel_name}",
                line=lineno,
            )
        names.add(key)
        parsed.append((record, extras, raw_deps))

    records: list[EntityRecord] = []
    tokens: list[int] = []
    derived: set[int] = set()
    extras_map: dict[int, dict] = {}

    def add(record: EntityRecord, extras: Optional[dict]) -> None:
        if extras:
            extras_map[len(records)] = extras
        tokens.append(table.intern_entity(record))
        records.append(record)

    # Explicit names are unique; a derived constructor is added unless an
    # explicit record or an earlier constructor carries its name.
    for record, extras, _raw_deps in parsed:
        add(record, extras)
        for ctor in derive_constructors(record):
            key = (ctor.name, ctor.kernel_name)
            if key not in names:
                names.add(key)
                derived.add(len(records))
                add(ctor, None)

    # With every entity interned, resolve dependency names.
    for record, _extras, raw_deps in parsed:
        if not raw_deps:
            continue
        resolved: dict[int, None] = {}
        for name in raw_deps:
            tid = _resolve_dependency(table, name)
            if tid is not None:
                resolved[tid] = None
        # Resolved ids are duplicate-free, the one thing validation checks
        # of `dependencies`.
        object.__setattr__(record, "dependencies", tuple(resolved))

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


@_collector_paused
def load_proof_corpus(path: str) -> ProofCorpus:
    """Load a proofs file; every proof must chain correctly and theorem names
    must be unique. Raises FormatError with the offending line number on any
    malformed, broken or duplicate proof.

    Equal hypotheses, goals and states decoded in one call are one object,
    so a step's `before` is the previous step's `after` when the file
    chains. Nothing is shared across calls: each call decodes afresh.

    As in `load_entity_corpus`, the cyclic garbage collector is paused for
    the load, in the whole process, and the caller's setting is put back on
    return or error: the decoder calls no user code, and its memos, keyed
    by values and by the ids of parts they keep alive, form no cycle.
    """
    decoder = _ProofDecoder()
    proofs: list[InteractiveProof] = []
    by_theorem: dict[str, int] = {}
    extras_map: dict[int, dict] = {}
    for lineno, obj in _read_objects(path, PROOFS_HEADER):
        try:
            proof = decoder.proof(obj)
        except KeyError as exc:
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
        extras = {k: v for k, v in obj.items() if k not in _PROOF_FIELDS}
        if extras:
            extras_map[len(proofs)] = extras
        proofs.append(proof)
    return ProofCorpus(proofs=tuple(proofs), by_theorem=by_theorem, extras=extras_map)


# ======================================================================
# Concept extraction
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

