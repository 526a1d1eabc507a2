"""Tokenizer: interning, resolution, term scanning, coverage, vocabulary IO."""

import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_entity
from prooforge.errors import FormatError
from prooforge.tokenizer import (
    DisambiguatedName,
    KERNEL_SEPARATOR,
    RESERVED_TOKENS,
    TokenClass,
    TokenTable,
    coverage_report,
    load_vocabulary,
    resolve_name,
    save_vocabulary,
    tokenize_term,
)

QUOTREM_RENDERED = "Coq.ZArith.BinInt.Z.quotrem<ker>Coq.ZArith.BinIntDef.Z.quotrem"


def quotrem_record():
    return make_entity(
        "Coq.ZArith.BinInt.Z.quotrem",
        kind="Definition",
        kernel="Coq.ZArith.BinIntDef.Z.quotrem",
    )


# ----------------------------------------------------------------------
# Reserved vocabulary
# ----------------------------------------------------------------------

class TestReserved:
    def test_special_markers_are_reserved(self):
        for label in ("_Anonymous", "goalcompleted", "REL"):
            assert label in RESERVED_TOKENS

    def test_keywords_structural_and_tactics_present(self):
        for label in ("forall", "fun", "match", "(", ")", "->", "core", "intros"):
            assert label in RESERVED_TOKENS

    def test_fresh_table_pre_interns_reserved(self):
        table = TokenTable()
        assert len(table) == len(RESERVED_TOKENS)
        for label in RESERVED_TOKENS:
            assert table.reserved_id(label) is not None

    def test_intern_reserved_idempotent(self):
        table = TokenTable()
        tid = table.intern_reserved("forall")
        assert table.intern_reserved("forall") == tid
        assert len(table) == len(RESERVED_TOKENS)


# ----------------------------------------------------------------------
# Entity interning (Definition 4)
# ----------------------------------------------------------------------

class TestInternEntity:
    def test_idempotent(self):
        # [TRIVIAL] interning the same entity twice yields the same id.
        table = TokenTable()
        record = make_entity("Coq.Init.Nat.add", kind="Fixpoint")
        assert table.intern_entity(record) == table.intern_entity(record)

    def test_kernel_name_disambiguation_rendering(self):
        # [PAPER] the canonical-path + kernel-path rendered key, byte for byte.
        table = TokenTable()
        tid = table.intern_entity(quotrem_record())
        assert table.id_for_rendered(QUOTREM_RENDERED) == tid
        name = DisambiguatedName(
            "Coq.ZArith.BinInt.Z.quotrem", "Coq.ZArith.BinIntDef.Z.quotrem"
        )
        assert name.rendered() == QUOTREM_RENDERED
        assert table.reverse[tid][0] == QUOTREM_RENDERED

    def test_same_canonical_distinct_kernels_get_distinct_ids(self):
        # [TRIVIAL] different-entity clause: same user path, different kernels.
        table = TokenTable()
        a = table.intern_entity(make_entity("M.f", kernel="M.Impl.f"))
        b = table.intern_entity(make_entity("M.f", kernel="M.Impl2.f"))
        assert a != b

    def test_disambiguated_name_parse_round_trip(self):
        name = DisambiguatedName.parse(QUOTREM_RENDERED)
        assert name.canonical_path == "Coq.ZArith.BinInt.Z.quotrem"
        assert name.kernel_path == "Coq.ZArith.BinIntDef.Z.quotrem"
        with pytest.raises(ValueError):
            DisambiguatedName.parse("no.separator.here")

    def test_a_disambiguated_name_holds_its_paths_in_slots(self):
        name = DisambiguatedName("M.f", "M.Impl.f")
        assert not hasattr(name, "__dict__")
        assert repr(name) == "DisambiguatedName(canonical_path='M.f', kernel_path='M.Impl.f')"
        assert name == DisambiguatedName.parse("M.f<ker>M.Impl.f")
        assert hash(name) == hash(("M.f", "M.Impl.f"))


# ----------------------------------------------------------------------
# Name resolution
# ----------------------------------------------------------------------

class TestResolveName:
    def test_unknown_name_is_not_found(self):
        # [TRIVIAL] absent key -> None, a value rather than a failure.
        assert resolve_name(TokenTable(), "Foo.bar") is None

    def test_full_canonical_path_resolves(self):
        table = TokenTable()
        tid = table.intern_entity(make_entity("Coq.Init.Nat.add", kind="Fixpoint"))
        assert resolve_name(table, "Coq.Init.Nat.add") == tid

    def test_kernel_path_resolves_directly(self):
        table = TokenTable()
        tid = table.intern_entity(quotrem_record())
        assert resolve_name(table, "Coq.ZArith.BinIntDef.Z.quotrem") == tid

    @pytest.mark.parametrize("kernel_first", [True, False])
    def test_a_canonical_match_beats_a_kernel_match(self, kernel_first):
        # `B.f`'s kernel path is `A.f`'s canonical path: `A.f` names the
        # entity whose canonical path it is, whichever was interned first.
        table = TokenTable()
        records = [make_entity("B.f", kernel="A.f"), make_entity("A.f", kernel="A.Impl.f")]
        if not kernel_first:
            records.reverse()
        ids = {record.name: table.intern_entity(record) for record in records}
        assert resolve_name(table, "A.f") == ids["A.f"]
        assert resolve_name(table, "B.f") == ids["B.f"]

    def test_a_shared_canonical_path_resolves_to_the_first_interned(self):
        table = TokenTable()
        first = table.intern_entity(make_entity("M.f", kernel="M.Impl2.f"))
        second = table.intern_entity(make_entity("M.f", kernel="M.Impl1.f"))
        assert resolve_name(table, "M.f") == first
        assert table.id_for_rendered("M.f<ker>M.Impl1.f") == second
        assert resolve_name(table, "M.Impl1.f") == second


# ----------------------------------------------------------------------
# Term tokenization
# ----------------------------------------------------------------------

class TestTokenizeTerm:
    def test_appendix_style_application(self):
        # [PAPER] `( Coq.Init.Logic.eq.eq B )` -> reserved paren, global eq,
        # local B, reserved paren.
        table = TokenTable()
        eq_tid = table.intern_entity(
            make_entity(
                "Coq.Init.Logic.eq", kind="Inductive", kernel="Coq.Init.Logic.eq.eq"
            )
        )
        tokens = tokenize_term(table, "( Coq.Init.Logic.eq.eq B )")
        assert [t[0] for t in tokens] == ["(", "Coq.Init.Logic.eq.eq", "B", ")"]
        assert tokens[0][1].kind == TokenClass.RESERVED
        assert tokens[1] == ("Coq.Init.Logic.eq.eq", TokenClass.global_id(), eq_tid)
        assert tokens[2][1].kind == TokenClass.LOCAL
        assert tokens[3][1].kind == TokenClass.RESERVED

    def test_empty_text(self):
        # [TRIVIAL]
        assert tokenize_term(TokenTable(), "") == []

    def test_unknown_identifier_falls_back_to_local(self):
        # [TRIVIAL] fallback clause: LocalVariable class with NotFound id.
        tokens = tokenize_term(TokenTable(), "mystery")
        assert len(tokens) == 1
        lexeme, cls, tid = tokens[0]
        assert lexeme == "mystery"
        assert cls.kind == TokenClass.LOCAL
        assert tid is None

    def test_every_local_shares_one_class_without_an_id(self):
        # Unknown identifiers and unknown punctuation alike.
        tokens = tokenize_term(TokenTable(), "n m $")
        assert [lexeme for lexeme, _, _ in tokens] == ["n", "m", "$"]
        assert {(cls, tid) for _, cls, tid in tokens} == {(TokenClass(TokenClass.LOCAL), None)}

    def test_a_local_class_carries_no_detail(self):
        with pytest.raises(ValueError, match="carries no detail"):
            TokenClass(TokenClass.LOCAL, "nat")

    def test_an_unknown_class_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown token class kind 'constant'"):
            TokenClass("constant")

    def test_table_never_mutated(self):
        table = TokenTable()
        before = len(table)
        tokenize_term(table, "some unknown identifiers ( x + y )")
        assert len(table) == before


# ----------------------------------------------------------------------
# Coverage
# ----------------------------------------------------------------------

class TestCoverage:
    def test_full_coverage(self):
        # [TRIVIAL] every identifier interned -> 1.0.
        table = TokenTable()
        table.intern_entity(make_entity("M.x"))
        fraction, unresolved = coverage_report(table, ["M.x M.x"])
        assert fraction == 1.0
        assert not unresolved

    def test_half_coverage(self):
        # [TRIVIAL] 1 resolvable + 1 unresolvable -> 0.5.
        table = TokenTable()
        table.intern_entity(make_entity("M.x"))
        fraction, unresolved = coverage_report(table, ["M.x stranger"])
        assert fraction == 0.5
        assert unresolved == {"stranger": 1}

    def test_thousand_lexeme_corpus(self):
        # [DERIVED] counting oracle: 998 resolvable of 1000 -> 0.998.
        table = TokenTable()
        table.intern_entity(make_entity("M.x"))
        terms = ["M.x"] * 998 + ["unknown_a", "unknown_b"]
        fraction, unresolved = coverage_report(table, terms)
        assert fraction == 998 / 1000
        assert sum(unresolved.values()) == 2

    def test_empty_corpus_reports_full_coverage(self):
        fraction, unresolved = coverage_report(TokenTable(), [])
        assert fraction == 1.0
        assert not unresolved

    def test_reserved_lexemes_do_not_count(self):
        table = TokenTable()
        fraction, unresolved = coverage_report(table, ["forall ( x ) , ->"])
        # Only `x` is identifier-shaped and unreserved.
        assert fraction == 0.0
        assert unresolved == {"x": 1}


# ----------------------------------------------------------------------
# Vocabulary files
# ----------------------------------------------------------------------

def _tables_equal(a: TokenTable, b: TokenTable) -> bool:
    return (
        a.entries == b.entries
        and a.reverse == b.reverse
        and a._reserved_ids == b._reserved_ids
        and a._by_canonical == b._by_canonical
        and a._by_kernel == b._by_kernel
        and a.next_id == b.next_id
    )


class TestVocabularyIO:
    def test_round_trip(self, tmp_path):
        table = TokenTable()
        table.intern_entity(quotrem_record())
        table.intern_entity(make_entity("Coq.Init.Nat.add", kind="Fixpoint"))
        table.intern_entity(make_entity("M.f", kernel="M.Impl.f"))
        table.intern_entity(make_entity("M.f", kernel="M.Impl2.f"))
        path = str(tmp_path / "vocab.tsv")
        save_vocabulary(table, path)
        loaded = load_vocabulary(path)
        assert _tables_equal(table, loaded)
        assert loaded.id_for_rendered(QUOTREM_RENDERED) == table.id_for_rendered(
            QUOTREM_RENDERED
        )
        second = str(tmp_path / "again.tsv")
        save_vocabulary(loaded, second)
        assert Path(second).read_bytes() == Path(path).read_bytes()

    def test_save_is_deterministic(self, tmp_path):
        table = TokenTable()
        table.intern_entity(make_entity("M.x"))
        first = str(tmp_path / "a.tsv")
        second = str(tmp_path / "b.tsv")
        save_vocabulary(table, first)
        save_vocabulary(table, second)
        assert Path(first).read_bytes() == Path(second).read_bytes()

    def test_a_huge_id_loads_without_a_slot_per_id_and_saves_back(self, tmp_path):
        # A table keys its tokens by id, so an id of 10**12 costs one entry;
        # new ids follow the largest.
        path = tmp_path / "vocab.tsv"
        text = "0\tforall\treserved\n7\tM.x<ker>M.x\tglobal\n1000000000000\tM.f<ker>M.Impl.f\tglobal\n"
        path.write_text(text, encoding="utf-8")
        tracemalloc.start()
        try:
            table = load_vocabulary(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert resolve_name(table, "M.Impl.f") == 10**12
        assert table.reverse[10**12] == ("M.f<ker>M.Impl.f", TokenClass.global_id())
        assert table.next_id == 10**12 + 1
        assert table.intern_entity(make_entity("M.y")) == 10**12 + 1
        out = tmp_path / "again.tsv"
        save_vocabulary(load_vocabulary(str(path)), str(out))
        assert out.read_bytes() == path.read_bytes()

    def test_malformed_line_carries_line_number(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("0\tforall\treserved\nnot-a-valid-line\n", encoding="utf-8")
        with pytest.raises(FormatError) as exc_info:
            load_vocabulary(str(path))
        assert exc_info.value.line == 2

    @pytest.mark.parametrize(
        "tid", ["1_0", "-3", "+3", " 3", "3 ", "03", "\u0663", "", "3.0"],
        ids=["underscore", "negative", "plus", "leading-space", "trailing-space",
             "leading-zero", "arabic-indic-digit", "empty", "decimal-point"],
    )
    def test_an_id_other_than_plain_digits_is_rejected(self, tmp_path, tid):
        # int() accepts all but the last two; such a file would save back
        # with other bytes, or with a negative id.
        path = tmp_path / "vocab.tsv"
        path.write_text(f"0\tforall\treserved\n{tid}\tM.x<ker>M.x\tglobal\n", encoding="utf-8")
        with pytest.raises(FormatError, match="bad token id") as exc_info:
            load_vocabulary(str(path))
        assert exc_info.value.line == 2

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("0\tforall\treserved\n0\texists\treserved\n", encoding="utf-8")
        with pytest.raises(FormatError) as exc_info:
            load_vocabulary(str(path))
        assert exc_info.value.line == 2

    @pytest.mark.parametrize(
        "first, repeat",
        [
            ("A<ker>A\tglobal", "A<ker>A\tglobal"),
            ("forall\treserved", "forall\treserved"),
        ],
        ids=["global", "reserved"],
    )
    def test_repeated_key_rejected(self, tmp_path, first, repeat):
        # save_vocabulary writes each key once; a second id for the same
        # key would load as a second token of one name.
        path = tmp_path / "vocab.tsv"
        path.write_text(f"0\tM.x<ker>M.x\tglobal\n1\t{first}\n2\t{repeat}\n", encoding="utf-8")
        with pytest.raises(FormatError, match="repeated") as exc_info:
            load_vocabulary(str(path))
        assert exc_info.value.line == 3

    def test_a_key_may_repeat_across_classes(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("0\tnat\treserved\n1\tnat<ker>nat\tglobal\n", encoding="utf-8")
        table = load_vocabulary(str(path))
        assert (table.reserved_id("nat"), table.id_for_rendered("nat<ker>nat")) == (0, 1)
        assert table.next_id == 2

    @pytest.mark.parametrize("line, message", [
        ("5\t\treserved", "reserved token class requires its label"),
        ("1\tA<ker>\tglobal", "both paths of a disambiguated name must be non-empty"),
    ], ids=["reserved-label", "kernel-path"])
    def test_an_empty_key_is_rejected(self, tmp_path, line, message):
        path = tmp_path / "vocab.tsv"
        path.write_text(f"0\tforall\treserved\n{line}\n", encoding="utf-8")
        with pytest.raises(FormatError, match=message) as exc_info:
            load_vocabulary(str(path))
        assert exc_info.value.line == 2

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("0\tforall\treserved\n\n1\tA<ker>A\tglobal\n", encoding="utf-8")
        table = load_vocabulary(str(path))
        assert (table.reserved_id("forall"), table.id_for_rendered("A<ker>A")) == (0, 1)

    def test_a_local_line_is_an_unknown_class(self, tmp_path):
        # Locals have no id, so `save_vocabulary` never writes one.
        path = tmp_path / "vocab.tsv"
        path.write_text("0\tnat\treserved\n1\tnat\tlocal\n", encoding="utf-8")
        with pytest.raises(FormatError, match="unknown token class") as exc_info:
            load_vocabulary(str(path))
        assert exc_info.value.line == 2


# ----------------------------------------------------------------------
# Definition 4 properties (the full-scale suite lives in the acceptance
# tests; these cover the same clauses on hypothesis-generated cases).
# ----------------------------------------------------------------------

_SEGMENT = st.text(alphabet="abcXYZ_", min_size=1, max_size=4)
_PATH = st.lists(_SEGMENT, min_size=1, max_size=3).map(".".join)


@st.composite
def entity_sets(draw):
    paths = draw(st.lists(_PATH, min_size=1, max_size=6))
    kernels = [draw(st.sampled_from(paths + [p + ".impl" for p in paths])) for p in paths]
    return [
        make_entity(name, kernel=kernel) for name, kernel in zip(paths, kernels)
    ]


class TestSemanticConsistency:
    @given(entity_sets())
    def test_token_equality_iff_name_equality(self, entities):
        table = TokenTable()
        ids = [table.intern_entity(e) for e in entities]
        for e1, t1 in zip(entities, ids):
            for e2, t2 in zip(entities, ids):
                same_name = (e1.name, e1.kernel_name) == (e2.name, e2.kernel_name)
                assert (t1 == t2) == same_name

    @given(entity_sets(), entity_sets())
    def test_append_only_monotonicity(self, first, second):
        table = TokenTable()
        snapshot = {}
        for entity in first:
            tid = table.intern_entity(entity)
            snapshot[DisambiguatedName(entity.name, entity.kernel_name)] = tid
        reserved_before = dict(table._reserved_ids)
        for entity in second:
            table.intern_entity(entity)
        for name, tid in snapshot.items():
            assert table.entries[name] == tid
        assert table._reserved_ids == reserved_before

    @given(entity_sets())
    def test_reverse_inverts_entries(self, entities):
        table = TokenTable()
        for entity in entities:
            table.intern_entity(entity)
        for name, tid in table.entries.items():
            key, cls = table.reverse[tid]
            assert key == name.rendered()
            assert cls.kind == TokenClass.GLOBAL
