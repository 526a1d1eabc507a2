"""Core data model: kinds, records, states, chaining, fingerprints."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_entity, sigma_0, sigma_1, sigma_2, sigma_3, worked_proof
from prooforge.core_model import (
    ANONYMOUS_NAME,
    EntityKind,
    EntityRecord,
    GoalState,
    Hypothesis,
    InteractiveProof,
    KNOWN_KINDS,
    Notebook,
    ProofState,
    TacticStep,
    _check_dotted_path,
    state_fingerprint,
    validate_proof_chain,
)


# ----------------------------------------------------------------------
# EntityKind
# ----------------------------------------------------------------------

class TestEntityKind:
    def test_known_kinds_render_verbatim(self):
        for variant in KNOWN_KINDS:
            assert EntityKind(variant).render() == variant

    def test_other_requires_label(self):
        assert EntityKind("Other", "Record").render() == "Other:Record"
        with pytest.raises(ValueError):
            EntityKind("Other")

    def test_known_kind_rejects_label(self):
        with pytest.raises(ValueError):
            EntityKind("Lemma", "spurious")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            EntityKind("Gadget")

    @given(st.sampled_from(KNOWN_KINDS))
    def test_parse_render_round_trip_known(self, variant):
        assert EntityKind.parse(EntityKind(variant).render()) == EntityKind(variant)

    @given(st.text(min_size=1, max_size=10))
    def test_parse_render_round_trip_other(self, label):
        kind = EntityKind("Other", label)
        assert EntityKind.parse(kind.render()) == kind


# ----------------------------------------------------------------------
# EntityRecord invariants
# ----------------------------------------------------------------------

class TestEntityRecord:
    def test_valid_record(self):
        record = make_entity("Coq.Init.Nat.add", kind="Fixpoint")
        assert record.kernel_name == "Coq.Init.Nat.add"

    def test_empty_origin_rejected(self):
        with pytest.raises(ValueError):
            make_entity("A.b", origin="")

    def test_empty_internal_rejected(self):
        with pytest.raises(ValueError):
            make_entity("A.b", internal="")

    def test_empty_name_segment_rejected(self):
        with pytest.raises(ValueError):
            make_entity("A..b")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            make_entity("")

    @given(st.text(alphabet=".ab", max_size=8))
    def test_a_dotted_path_is_checked_as_its_split_segments(self, value):
        # The reference: a path is accepted when it is non-empty and no
        # segment between its dots is empty.
        expected = bool(value) and "" not in value.split(".")
        try:
            _check_dotted_path(value, "path")
        except ValueError:
            accepted = False
        else:
            accepted = True
        assert accepted == expected

    def test_a_bad_kernel_name_is_named(self):
        with pytest.raises(ValueError, match="entity kernel_name has an empty"):
            make_entity("A.b", kernel="A.b.")

    def test_duplicate_dependencies_rejected(self):
        with pytest.raises(ValueError):
            make_entity("A.b", dependencies=(3, 3))

    def test_a_record_holds_its_fields_in_slots(self):
        # No per-record dict; repr, equality and hash are the dataclass's.
        record = make_entity("A.b", dependencies=(3,))
        assert not hasattr(record, "__dict__")
        assert repr(record) == (
            "EntityRecord(name='A.b', kernel_name='A.b', kind=EntityKind(variant='Definition', "
            "label=''), origin='origin text', internal='internal text', intuition='', "
            "source_file='', dependencies=(3,), origin_zh='', internal_zh='', intuition_zh='')"
        )
        assert record == make_entity("A.b", dependencies=(3,)) != make_entity("A.c")
        fields = tuple(getattr(record, f.name) for f in dataclasses.fields(record))
        assert hash(record) == hash(fields)
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.name = "A.c"


# ----------------------------------------------------------------------
# Hypothesis / GoalState / ProofState
# ----------------------------------------------------------------------

class TestStates:
    def test_hypothesis_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Hypothesis("", "nat")

    def test_anonymous_marker_permitted(self):
        assert Hypothesis(ANONYMOUS_NAME, "True").name == ANONYMOUS_NAME

    def test_parallel_lists_must_align(self):
        with pytest.raises(ValueError):
            GoalState((Hypothesis("n", "nat"),), (), "g", "g")

    def test_pairwise_names_must_match(self):
        with pytest.raises(ValueError):
            GoalState(
                (Hypothesis("n", "nat"),),
                (Hypothesis("m", "nat"),),
                "g",
                "g",
            )

    def test_goal_texts_must_be_non_empty(self):
        with pytest.raises(ValueError):
            GoalState((), (), "", "g")
        with pytest.raises(ValueError):
            GoalState((), (), "g", "")

    def test_empty_state_is_complete(self):
        assert ProofState(()).is_complete
        assert not sigma_0().is_complete

    def test_two_subgoals_after_induction(self):
        # [PAPER] the state after `induction n` on `even (n + n)`:
        # subgoal 1 has no hypotheses, subgoal 2 carries n and IHn.
        state = ProofState(
            (
                GoalState((), (), "even (0 + 0)", "even ( 0 + 0 )"),
                GoalState(
                    (Hypothesis("n", "nat"), Hypothesis("IHn", "even (n + n)")),
                    (Hypothesis("n", "nat"), Hypothesis("IHn", "even ( n + n )")),
                    "even (S n + S n)",
                    "even ( S n + S n )",
                ),
            )
        )
        assert len(state.goals) == 2
        assert not state.is_complete


# ----------------------------------------------------------------------
# TacticStep / InteractiveProof / chain validation
# ----------------------------------------------------------------------

class TestProofChain:
    def test_empty_tactic_rejected(self):
        with pytest.raises(ValueError):
            TacticStep("", sigma_0(), sigma_1())

    def test_worked_proof_chains_cleanly(self):
        # [PAPER] intros n; simpl; reflexivity ends with zero goals.
        assert validate_proof_chain(worked_proof()) == []

    def test_broken_chain_flags_the_breaking_index(self):
        # [TRIVIAL] deliberate break: step 2's before replaced by sigma_0.
        broken = InteractiveProof(
            theorem_name="Coq.Arith.PeanoNat.Nat.add_0_l",
            steps=(
                TacticStep("intros n", sigma_0(), sigma_1()),
                TacticStep("simpl", sigma_0(), sigma_2()),
                TacticStep("reflexivity", sigma_2(), sigma_3()),
            ),
        )
        violations = validate_proof_chain(broken)
        assert [index for index, _ in violations] == [1]

    def test_empty_step_list_is_vacuously_chained(self):
        proof = InteractiveProof("T.x", ())
        assert validate_proof_chain(proof) == []
        assert not proof.is_complete

    def test_completeness_follows_the_final_state(self):
        assert worked_proof().is_complete
        partial = InteractiveProof(
            theorem_name="T.x",
            steps=(TacticStep("intros n", sigma_0(), sigma_1()),),
        )
        assert not partial.is_complete


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------

def _with_internal_goal(text: str) -> ProofState:
    return ProofState((GoalState((), (), "surface", text),))


class TestFingerprint:
    def test_whitespace_normalization(self):
        # [TRIVIAL] runs of whitespace collapse before hashing.
        a = _with_internal_goal("eq  nat\n( add  O n )   n")
        b = _with_internal_goal("eq nat ( add O n ) n")
        assert state_fingerprint(a) == state_fingerprint(b)

    def test_internal_difference_changes_digest(self):
        # [DERIVED] oracle = direct structural comparison of the pair.
        a = _with_internal_goal("eq nat ( add O n ) n")
        b = _with_internal_goal("eq nat ( add O m ) m")
        assert a.goals[0].goal_internal != b.goals[0].goal_internal
        assert state_fingerprint(a) != state_fingerprint(b)

    def test_surface_text_never_contributes(self):
        a = ProofState((GoalState((), (), "0 + n = n", "eq nat ( add O n ) n"),))
        b = ProofState((GoalState((), (), "O + n = n", "eq nat ( add O n ) n"),))
        assert state_fingerprint(a) == state_fingerprint(b)

    def test_hypothesis_order_is_significant(self):
        hyp_a = Hypothesis("a", "nat")
        hyp_b = Hypothesis("b", "nat")
        first = ProofState(
            (GoalState((hyp_a, hyp_b), (hyp_a, hyp_b), "g", "g"),)
        )
        second = ProofState(
            (GoalState((hyp_b, hyp_a), (hyp_b, hyp_a), "g", "g"),)
        )
        assert state_fingerprint(first) != state_fingerprint(second)

    @given(
        st.lists(
            st.text(alphabet="abn ()=+", min_size=1, max_size=12).filter(str.strip),
            min_size=0,
            max_size=3,
        )
    )
    def test_digest_matches_structural_equality(self, goal_texts):
        # Property: states share a digest iff their normalized internal
        # structure matches; spaced-out variants of the same texts collide.
        def build(texts, pad):
            goals = tuple(
                GoalState((), (), "s", (" " * pad) + t.replace(" ", "  " if pad else " "))
                for t in texts
            )
            return ProofState(goals)

        plain = build(goal_texts, 0)
        padded = build(goal_texts, 2)
        assert state_fingerprint(plain) == state_fingerprint(padded)
        extended = ProofState(
            plain.goals + (GoalState((), (), "s", "extra_goal"),)
        )
        assert state_fingerprint(extended) != state_fingerprint(plain)


# ----------------------------------------------------------------------
# Notebook
# ----------------------------------------------------------------------

class TestSearchStructures:
    def test_notebook_capacity_enforced(self):
        Notebook(items=tuple(str(i) for i in range(15)))
        with pytest.raises(ValueError):
            Notebook(items=tuple(str(i) for i in range(16)))
        with pytest.raises(ValueError):
            Notebook(capacity=0)
