"""Corpus IO: entity/proof files, constructor derivation, concepts, requires."""

import json
from pathlib import Path

import pytest

from conftest import (
    entities_path,
    make_entity,
    proofs_path,
    sigma_1,
    worked_proof,
)
from prooforge.core_model import EntityKind, ProofState, GoalState
from prooforge.corpus import (
    ENTITIES_HEADER,
    PROOFS_HEADER,
    EntityCorpus,
    decode_entity_record,
    derive_constructors,
    encode_entity_record,
    extract_concepts,
    generate_require,
    load_entity_corpus,
    load_proof_corpus,
    save_entity_corpus,
    save_proof_corpus,
)
from prooforge.errors import FormatError, UnknownTokenError
from prooforge.tokenizer import TokenTable

TRUE_RECORD_LINE = json.dumps(
    {
        "name": "Coq.Init.Logic.True",
        "kernel_name": "Coq.Init.Logic.True",
        "kind": "Inductive",
        "origin": "Inductive True := I : True",
        "internal": "True: Prop | Coq.Init.Logic.True.I : Coq.Init.Logic.True",
    }
)


def _write_entities(tmp_path, *lines) -> str:
    path = tmp_path / "entities.jsonl"
    path.write_text("\n".join([ENTITIES_HEADER, *lines]) + "\n", encoding="utf-8")
    return str(path)


# ----------------------------------------------------------------------
# Entity loading
# ----------------------------------------------------------------------

class TestLoadEntities:
    def test_inductive_record_brings_its_constructor(self, tmp_path):
        # [PAPER] the `True` entity: one explicit record plus the derived
        # record for its constructor `I`.
        path = _write_entities(tmp_path, TRUE_RECORD_LINE)
        table = TokenTable()
        corpus = load_entity_corpus(path, table)
        assert len(corpus) == 2
        names = [r.name for r in corpus.records]
        assert names == ["Coq.Init.Logic.True", "Coq.Init.Logic.True.I"]
        assert corpus.records[1].kind == EntityKind("Constructor")
        assert corpus.derived == frozenset({1})

    def test_header_only_file_is_empty_corpus(self, tmp_path):
        # [TRIVIAL]
        path = _write_entities(tmp_path)
        corpus = load_entity_corpus(path, TokenTable())
        assert len(corpus) == 0

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "entities.jsonl"
        path.write_text(TRUE_RECORD_LINE + "\n", encoding="utf-8")
        with pytest.raises(FormatError) as exc_info:
            load_entity_corpus(str(path), TokenTable())
        assert exc_info.value.line == 1

    def test_empty_origin_flags_its_line(self, tmp_path):
        # [TRIVIAL] invariant breach surfaces as FormatError at the line.
        bad = json.dumps(
            {
                "name": "M.x",
                "kernel_name": "M.x",
                "kind": "Definition",
                "origin": "",
                "internal": "x",
            }
        )
        path = _write_entities(tmp_path, TRUE_RECORD_LINE, bad)
        with pytest.raises(FormatError) as exc_info:
            load_entity_corpus(str(path), TokenTable())
        assert exc_info.value.line == 3

    def test_duplicate_entity_rejected(self, tmp_path):
        path = _write_entities(tmp_path, TRUE_RECORD_LINE, TRUE_RECORD_LINE)
        with pytest.raises(FormatError) as exc_info:
            load_entity_corpus(str(path), TokenTable())
        assert exc_info.value.line == 3

    def test_named_dependencies_resolve_in_second_pass(self, tmp_path):
        # `uses` lists its dependency by name before that entity appears.
        uses = json.dumps(
            {
                "name": "M.uses",
                "kernel_name": "M.uses",
                "kind": "Definition",
                "origin": "o",
                "internal": "i",
                "dependencies": ["M.base"],
            }
        )
        base = json.dumps(
            {
                "name": "M.base",
                "kernel_name": "M.base",
                "kind": "Definition",
                "origin": "o",
                "internal": "i",
            }
        )
        table = TokenTable()
        corpus = load_entity_corpus(_write_entities(tmp_path, uses, base), table)
        base_tid = corpus.tokens[[r.name for r in corpus.records].index("M.base")]
        uses_record = corpus.records[[r.name for r in corpus.records].index("M.uses")]
        assert uses_record.dependencies == (base_tid,)

    def test_unknown_fields_preserved_as_extras(self, tmp_path):
        extra = json.dumps(
            {
                "name": "M.x",
                "kernel_name": "M.x",
                "kind": "Definition",
                "origin": "o",
                "internal": "i",
                "provenance": "experiment-7",
            }
        )
        corpus = load_entity_corpus(_write_entities(tmp_path, extra), TokenTable())
        assert corpus.extras[0] == {"provenance": "experiment-7"}

    def test_interning_totals_match(self, tmp_path):
        table = TokenTable()
        corpus = load_entity_corpus(entities_path(), table)
        # Every record interned exactly once; by_token total over records.
        assert len(corpus.tokens) == len(corpus.records)
        assert len(set(corpus.tokens)) == len(corpus.tokens)
        for tid, record in zip(corpus.tokens, corpus.records):
            assert corpus.record_for(tid) == record


# ----------------------------------------------------------------------
# Proof loading
# ----------------------------------------------------------------------

class TestLoadProofs:
    def test_worked_proof_loads(self):
        # [PAPER] intros n / simpl / reflexivity with its four states.
        corpus = load_proof_corpus(proofs_path())
        assert len(corpus) == 1
        proof = corpus.proofs[0]
        assert proof.theorem_name == "Coq.Arith.PeanoNat.Nat.add_0_l"
        assert [s.tactic for s in proof.steps] == ["intros n", "simpl", "reflexivity"]
        assert proof.steps == worked_proof().steps

    def test_broken_chain_rejected_naming_step(self, tmp_path):
        # [TRIVIAL] replace step 2's before state with sigma_0's goal.
        obj = json.loads(
            Path(proofs_path()).read_text(encoding="utf-8").splitlines()[1]
        )
        obj["steps"][1]["before"] = obj["steps"][0]["before"]
        path = tmp_path / "proofs.jsonl"
        path.write_text(
            PROOFS_HEADER + "\n" + json.dumps(obj) + "\n", encoding="utf-8"
        )
        with pytest.raises(FormatError) as exc_info:
            load_proof_corpus(str(path))
        assert "step 1" in str(exc_info.value)

    def test_header_only_file_is_empty_corpus(self, tmp_path):
        # [TRIVIAL]
        path = tmp_path / "proofs.jsonl"
        path.write_text(PROOFS_HEADER + "\n", encoding="utf-8")
        assert len(load_proof_corpus(str(path))) == 0

    def test_duplicate_theorem_rejected(self, tmp_path):
        line = Path(proofs_path()).read_text(encoding="utf-8").splitlines()[1]
        path = tmp_path / "proofs.jsonl"
        path.write_text(
            "\n".join([PROOFS_HEADER, line, line]) + "\n", encoding="utf-8"
        )
        with pytest.raises(FormatError) as exc_info:
            load_proof_corpus(str(path))
        assert exc_info.value.line == 3


# ----------------------------------------------------------------------
# Round-trips
# ----------------------------------------------------------------------

class TestRoundTrips:
    def test_entities_save_load_fixpoint(self, tmp_path):
        table = TokenTable()
        corpus = load_entity_corpus(entities_path(), table)
        first = str(tmp_path / "first.jsonl")
        save_entity_corpus(corpus, table, first)
        table2 = TokenTable()
        reloaded = load_entity_corpus(first, table2)
        second = str(tmp_path / "second.jsonl")
        save_entity_corpus(reloaded, table2, second)
        assert Path(first).read_bytes() == Path(second).read_bytes()
        assert [r.name for r in reloaded.records] == [r.name for r in corpus.records]

    def test_proofs_save_load_fixpoint(self, tmp_path):
        corpus = load_proof_corpus(proofs_path())
        first = str(tmp_path / "first.jsonl")
        save_proof_corpus(corpus, first)
        reloaded = load_proof_corpus(first)
        second = str(tmp_path / "second.jsonl")
        save_proof_corpus(reloaded, second)
        assert Path(first).read_bytes() == Path(second).read_bytes()
        assert reloaded.proofs == corpus.proofs

    def test_record_encode_decode_identity(self):
        record = make_entity(
            "M.thing",
            kind="Lemma",
            kernel="M.Impl.thing",
            intuition="does a thing",
            origin_zh="起源",
            internal_zh="内部",
            intuition_zh="直觉",
            source_file="M/Thing.v",
        )
        decoded, extras = decode_entity_record(encode_entity_record(record))
        assert decoded == record
        assert extras == {}


# ----------------------------------------------------------------------
# Constructor derivation
# ----------------------------------------------------------------------

class TestDeriveConstructors:
    def test_nat_yields_two_constructors(self):
        record = make_entity(
            "Coq.Init.Datatypes.nat",
            kind="Inductive",
            internal=(
                "nat : Set | Coq.Init.Datatypes.O : Coq.Init.Datatypes.nat "
                "| Coq.Init.Datatypes.S : Coq.Init.Datatypes.nat -> "
                "Coq.Init.Datatypes.nat"
            ),
        )
        ctors = derive_constructors(record)
        assert [c.name for c in ctors] == [
            "Coq.Init.Datatypes.O",
            "Coq.Init.Datatypes.S",
        ]
        assert all(c.kind == EntityKind("Constructor") for c in ctors)

    def test_non_inductive_yields_nothing(self):
        assert derive_constructors(make_entity("M.f", kind="Definition")) == []

    def test_malformed_tail_skipped(self):
        record = make_entity(
            "M.t", kind="Inductive", internal="t : Set | not a clause"
        )
        assert derive_constructors(record) == []


# ----------------------------------------------------------------------
# Concept extraction
# ----------------------------------------------------------------------

def _three_record_setup():
    """eq / nat / add corpus where add's record depends on nat and the
    state goal mentions eq and add but never nat."""
    table = TokenTable()
    records = [
        make_entity("eq", kind="Inductive"),
        make_entity("nat", kind="Inductive"),
        make_entity("Coq.Init.Nat.add", kind="Fixpoint"),
    ]
    tokens = [table.intern_entity(r) for r in records]
    nat_tid = tokens[1]
    records[2] = make_entity(
        "Coq.Init.Nat.add", kind="Fixpoint", dependencies=(nat_tid,)
    )
    corpus = EntityCorpus(records=tuple(records), tokens=tuple(tokens))
    return table, corpus, tokens


class TestExtractConcepts:
    def test_depth_zero_on_worked_goal(self):
        # [PAPER] sigma_1's internal goal mentions eq, nat, and add.
        table, corpus, tokens = _three_record_setup()
        state = ProofState(
            (GoalState((), (), "0 + n = n", "eq nat ( Coq.Init.Nat.add 0 n ) n"),)
        )
        concepts = extract_concepts(corpus, table, state, depth=0)
        assert concepts.tokens == frozenset(tokens)
        assert concepts.depth == 0

    def test_empty_state_any_depth(self):
        # [TRIVIAL]
        table, corpus, _ = _three_record_setup()
        assert extract_concepts(corpus, table, ProofState(()), depth=3).tokens == frozenset()

    def test_depth_one_unions_dependencies(self):
        # [DERIVED] manual closure on the hand-built corpus: depth 0 sees
        # {eq, add}; depth 1 adds add's dependency nat.
        table, corpus, tokens = _three_record_setup()
        eq_tid, nat_tid, add_tid = tokens
        state = ProofState(
            (GoalState((), (), "g", "eq ( Coq.Init.Nat.add x y ) z"),)
        )
        depth0 = extract_concepts(corpus, table, state, depth=0)
        assert depth0.tokens == frozenset({eq_tid, add_tid})
        depth1 = extract_concepts(corpus, table, state, depth=1)
        assert depth1.tokens == frozenset({eq_tid, add_tid, nat_tid})

    def test_monotone_in_depth(self):
        table, corpus, _ = _three_record_setup()
        state = ProofState(
            (GoalState((), (), "g", "eq ( Coq.Init.Nat.add x y ) z"),)
        )
        previous = frozenset()
        for depth in range(4):
            current = extract_concepts(corpus, table, state, depth=depth).tokens
            assert previous <= current
            previous = current

    def test_negative_depth_rejected(self):
        table, corpus, _ = _three_record_setup()
        with pytest.raises(ValueError):
            extract_concepts(corpus, table, ProofState(()), depth=-1)


# ----------------------------------------------------------------------
# Require generation
# ----------------------------------------------------------------------

class TestGenerateRequire:
    def test_single_token(self):
        # [DERIVED] prefix-stripping oracle on the worked-proof name.
        table, corpus, tokens = _three_record_setup()
        add_tid = tokens[2]
        assert generate_require(corpus, [add_tid]) == ["Require Import Coq.Init.Nat."]

    def test_empty_tokens(self):
        # [TRIVIAL]
        _table, corpus, _ = _three_record_setup()
        assert generate_require(corpus, []) == []

    def test_same_module_deduplicates(self):
        # [TRIVIAL] two tokens from one module produce one statement.
        table = TokenTable()
        records = [make_entity("Mod.first"), make_entity("Mod.second")]
        tokens = [table.intern_entity(r) for r in records]
        corpus = EntityCorpus(records=tuple(records), tokens=tuple(tokens))
        assert generate_require(corpus, tokens) == ["Require Import Mod."]

    def test_unknown_token_raises(self):
        _table, corpus, _ = _three_record_setup()
        with pytest.raises(UnknownTokenError):
            generate_require(corpus, [999])

    def test_sorted_output(self):
        table = TokenTable()
        records = [make_entity("Zeta.x"), make_entity("Alpha.y")]
        tokens = [table.intern_entity(r) for r in records]
        corpus = EntityCorpus(records=tuple(records), tokens=tuple(tokens))
        assert generate_require(corpus, tokens) == [
            "Require Import Alpha.",
            "Require Import Zeta.",
        ]
