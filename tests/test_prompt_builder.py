"""Prompt construction: the 11-configuration matrix and the
planner/explain/judge prompts. The goldens in test_acceptance pin the
rendered skeleton byte for byte."""

import pytest

from conftest import entities_path, sigma_1, sigma_2, worked_proof
from prooforge.core_model import GoalState, Hypothesis, Notebook, ProofState
from prooforge.corpus import load_entity_corpus
from prooforge.prompt_builder import (
    CONFIG_MATRIX,
    EXPLAIN_MARKER,
    InfoConfiguration,
    JUDGE_MARKER,
    NOTEBOOK_MARKER,
    PLANNER_SECTION_LABELS,
    PROBE_MARKER,
    PromptBundle,
    RANK_MARKER,
    SECTION_AVAILABLE_ACTIONS,
    SECTION_GLOB_DEF,
    SECTION_HINT,
    SECTION_PROOF_STATE,
    SECTION_PROOF_TRACING,
    SECTION_PUBLIC_NOTES,
    SECTION_RELATED_PREMISES,
    SECTION_RELATED_TACTIC,
    expected_sections,
    render_clarity_judge,
    render_clarity_probe,
    render_explanation_prompt,
    render_notebook_prompt,
    render_planner_prompt,
    render_prove_prompt,
    render_rank_prompt,
    render_state_context,
    render_summarize_prompt,
    shorten_qualified_names,
)
from prooforge.tokenizer import TokenTable

SECTION_HEADERS = {
    SECTION_PROOF_STATE: "=== Current Proof States ===",
    SECTION_GLOB_DEF: "Global definitions referenced:",
    SECTION_PROOF_TRACING: "=== Proof Tracing ===",
    SECTION_RELATED_PREMISES: "=== Related Premises ===",
    SECTION_RELATED_TACTIC: "=== Related Tactic ===",
    SECTION_PUBLIC_NOTES: "=== Public Notes ===",
    SECTION_HINT: "=== Hint ===",
    SECTION_AVAILABLE_ACTIONS: "=== Available Actions ===",
}


def fixfun_record():
    table = TokenTable()
    corpus = load_entity_corpus(entities_path(), table)
    for tid, record in zip(corpus.tokens, corpus.records):
        if record.name == "TLC.LibFix.FixFun":
            return tid, record
    raise AssertionError("fixture corpus must carry the FixFun record")


def fixfun_state() -> ProofState:
    return ProofState(
        (
            GoalState(
                (Hypothesis("f", surface_type="A -> B"),),
                (Hypothesis("f", internal_type="A -> B"),),
                "TLC.LibFix.FixFun F = f",
                "Coq.Init.Logic.eq.eq ( A -> B ) ( TLC.LibFix.FixFun A B IB F ) f",
            ),
        )
    )


def golden_bundle(config: InfoConfiguration) -> PromptBundle:
    """The frozen golden-file scenario: one fixture state, two corpus
    concepts, and every optional section populated."""
    table = TokenTable()
    corpus = load_entity_corpus(entities_path(), table)
    by_name = {r.name: (t, r) for t, r in zip(corpus.tokens, corpus.records)}
    return render_prove_prompt(
        render_state_context(
            fixfun_state(),
            [by_name["Coq.Init.Logic.eq"], by_name["TLC.LibFix.FixFun"]],
            config,
        ),
        trace=[("intros f", "introduced f")],
        summary="One hypothesis introduced; the fixpoint equation remains.",
        premises=["TLC.LibFix.FixFunMod : forall ..., FixFunMod E F = f"],
        tactics=["unfold FixFun"],
        notes=Notebook(items=("Unfold fixpoint combinators before rewriting.",)),
        hint="Consider unfolding the definition first.",
    )


# ----------------------------------------------------------------------
# Template and configuration bookkeeping
# ----------------------------------------------------------------------

class TestTemplate:
    def test_exactly_eleven_configurations(self):
        assert len(InfoConfiguration) == 11
        assert set(CONFIG_MATRIX) == set(InfoConfiguration)

    def test_parse_accepts_value_and_name(self):
        assert InfoConfiguration.parse("Complete") is InfoConfiguration.COMPLETE
        assert InfoConfiguration.parse("NO_CONTEXT") is InfoConfiguration.NO_CONTEXT
        with pytest.raises(ValueError):
            InfoConfiguration.parse("Bogus")


class TestConfigurationMatrix:
    @pytest.mark.parametrize("config", list(InfoConfiguration))
    def test_section_presence_follows_the_matrix(self, config):
        # Exhaustive inclusion table: every configuration, every section.
        tid, record = fixfun_record()
        bundle = render_prove_prompt(
            render_state_context(fixfun_state(), [(tid, record)], config),
            trace=[("intros f", "intro")],
            summary="progressing",
            premises=["P1 : something"],
            tactics=["intros"],
            notes=Notebook(items=("note a",)),
            hint="try unfolding",
        )
        assert bundle.sections_present == expected_sections(config)
        for section, header in SECTION_HEADERS.items():
            if section in bundle.sections_present:
                assert header in bundle.rendered, (config, section)
            else:
                assert header not in bundle.rendered, (config, section)

    @pytest.mark.parametrize("config", list(InfoConfiguration))
    def test_context_field_presence(self, config):
        # Origin/Internal/Intuition bodies appear exactly per the matrix row.
        tid, record = fixfun_record()
        traits = CONFIG_MATRIX[config]
        bundle = render_prove_prompt(
            render_state_context(fixfun_state(), [(tid, record)], config)
        )
        origin = record.origin_zh if traits.translated else record.origin
        internal = record.internal_zh if traits.translated else record.internal
        intuition = record.intuition_zh if traits.translated else record.intuition
        assert (origin in bundle.rendered) == traits.origin
        assert (internal in bundle.rendered) == traits.internal
        assert (intuition in bundle.rendered) == traits.intuition


class TestRenderProvePrompt:
    def test_complete_includes_all_three_context_blocks(self):
        # [PAPER] the FixFun record under Complete: origin, internal, and
        # intuition bodies all render.
        tid, record = fixfun_record()
        bundle = render_prove_prompt(
            render_state_context(fixfun_state(), [(tid, record)], InfoConfiguration.COMPLETE)
        )
        assert f"- {record.name} ({record.kind.render()})" in bundle.rendered
        assert f"Origin: {record.origin}" in bundle.rendered
        assert f"Internal: {record.internal}" in bundle.rendered
        assert f"Intuition: {record.intuition}" in bundle.rendered
        assert bundle.concept_tokens == (tid,)

    def test_no_context_shows_bare_names_only(self):
        # [PAPER] simple names: the bare `FixFun` with no qualified path and
        # no definition bodies.
        tid, record = fixfun_record()
        bundle = render_prove_prompt(
            render_state_context(fixfun_state(), [(tid, record)], InfoConfiguration.NO_CONTEXT)
        )
        assert "FixFun" in bundle.rendered
        assert "TLC.LibFix.FixFun" not in bundle.rendered
        assert record.origin not in bundle.rendered
        assert record.intuition not in bundle.rendered

    def test_qualified_name_config_uses_internal_views(self):
        tid, record = fixfun_record()
        bundle = render_prove_prompt(
            render_state_context(
                fixfun_state(), [(tid, record)], InfoConfiguration.QUALIFIED_NAME
            )
        )
        assert "TLC.LibFix.FixFun A B IB F" in bundle.rendered
        assert record.origin not in bundle.rendered

    def test_empty_trace_and_notes_keep_structure(self):
        # [TRIVIAL] template stability: headers render with blank bodies.
        bundle = render_prove_prompt(render_state_context(sigma_1()))
        assert "Tactics: \n" in bundle.rendered
        assert (
            "=== Public Notes ===\nCurated insights relevant to current proof:\n\n"
            in bundle.rendered
        )
        assert "=== Hint ===\nSome hints may help you to understand the proof:\n\n" in bundle.rendered

    def test_translation_falls_back_when_missing(self):
        # A record without zh variants renders its untranslated texts under
        # ChineseTranslation.
        table = TokenTable()
        corpus = load_entity_corpus(entities_path(), table)
        plain = next(
            (tid, r)
            for tid, r in zip(corpus.tokens, corpus.records)
            if r.name == "Coq.Init.Nat.add"
        )
        bundle = render_prove_prompt(
            render_state_context(sigma_1(), [plain], InfoConfiguration.CHINESE_TRANSLATION)
        )
        assert plain[1].origin in bundle.rendered

    def test_concepts_ordered_by_first_mention(self):
        tid, record = fixfun_record()
        table = TokenTable()
        corpus = load_entity_corpus(entities_path(), table)
        eq_entry = next(
            (t, r)
            for t, r in zip(corpus.tokens, corpus.records)
            if r.name == "Coq.Init.Logic.eq"
        )
        # The internal goal mentions eq before FixFun.
        bundle = render_prove_prompt(
            render_state_context(fixfun_state(), [(tid, record), eq_entry])
        )
        assert bundle.concept_tokens == (eq_entry[0], tid)

    def test_multi_goal_rendering_numbers_goals(self):
        state = ProofState(
            (
                GoalState((), (), "P", "P"),
                GoalState((), (), "Q", "Q"),
            )
        )
        bundle = render_prove_prompt(render_state_context(state))
        assert "Goal 1: P" in bundle.rendered
        assert "Goal 2: Q" in bundle.rendered


class TestOnePassFill:
    # Text that looks like a placeholder is inserted as it stands: a block
    # is filled in one pass, so inserted text is never scanned again.
    def test_hypothesis_naming_the_goal_placeholder(self):
        hypothesis = "forall {goal}, goal = goal"
        state = ProofState(
            (
                GoalState(
                    (Hypothesis("H", surface_type=hypothesis),),
                    (Hypothesis("H", internal_type=hypothesis),),
                    "P x",
                    "P x",
                ),
            )
        )
        context = render_state_context(state)
        for text in (render_prove_prompt(context).rendered, render_planner_prompt(context)):
            assert "# Hypotheses:\nH : forall {goal}, goal = goal\n\n# Goal:\nP x\n" in text

    def test_tactic_naming_the_summary_placeholder(self):
        bundle = render_prove_prompt(
            render_state_context(sigma_1()),
            trace=[("exact {proof_summary}", "closed")],
            summary="Nearly done.",
        )
        assert "Tactics: exact {proof_summary}\nNearly done.\n" in bundle.rendered


class TestMemos:
    # A memo keeps rendered text between calls; what a call returns is
    # the same with one as without.
    @pytest.mark.parametrize("config", list(InfoConfiguration), ids=lambda c: c.value)
    def test_rendering_with_memos_matches_rendering_without(self, config):
        table = TokenTable()
        corpus = load_entity_corpus(entities_path(), table)
        concepts = list(zip(corpus.tokens, corpus.records))
        chunks: dict = {}
        for state in (fixfun_state(), sigma_1(), fixfun_state()):
            for shown in (concepts[:3], concepts):
                context = render_state_context(state, shown, config, memo=chunks)
                assert context == render_state_context(state, shown, config)
                args = dict(
                    trace=[("intros f", "introduced f")],
                    summary="One step taken.",
                    premises=["FixFunMod_eq"],
                    tactics=["unfold FixFun"],
                    notes=Notebook(items=("Unfold first.",)),
                )
                bodies: dict = {}
                for hint in ("Unfold FixFun.", "", "Try {hint} literally."):
                    assert render_prove_prompt(context, hint=hint, memo=bodies, **args) == (
                        render_prove_prompt(context, hint=hint, **args)
                    )
                del args["premises"], args["tactics"]
                for errors in ((), [("ring", "Unknown tactic: ring.")], ()):
                    assert render_planner_prompt(context, errors=errors, memo=bodies, **args) == (
                        render_planner_prompt(context, errors=errors, **args)
                    )
        assert set(chunks) <= set(corpus.tokens)


class TestShorten:
    def test_final_segment_kept(self):
        assert shorten_qualified_names("Coq.Init.Nat.add x y") == "add x y"

    def test_multiple_paths(self):
        text = "Coq.Init.Logic.eq.eq Coq.Init.Datatypes.nat n n"
        assert shorten_qualified_names(text) == "eq nat n n"

    def test_short_names_untouched(self):
        assert shorten_qualified_names("intros n") == "intros n"


# ----------------------------------------------------------------------
# Planner prompt
# ----------------------------------------------------------------------

class TestPlannerPrompt:
    def test_requests_all_five_sections(self):
        # [TRIVIAL] structural contract.
        text = render_planner_prompt(render_state_context(sigma_1()))
        for label in PLANNER_SECTION_LABELS:
            assert label in text

    def test_notebook_embedded(self):
        # [TRIVIAL]
        text = render_planner_prompt(
            render_state_context(sigma_1()), notes=Notebook(items=("use simpl early",))
        )
        assert "- use simpl early" in text

    def test_errors_listed_verbatim(self):
        # [PAPER] error reflection: each failed tactic with its error text.
        error_text = 'Unable to unify "n" with "0 + n".'
        text = render_planner_prompt(
            render_state_context(sigma_1()), errors=[("reflexivity", error_text)]
        )
        assert "- tactic: reflexivity" in text
        assert f"  error: {error_text}" in text


# ----------------------------------------------------------------------
# Explanation / summary / notebook / rank prompts
# ----------------------------------------------------------------------

class TestAuxiliaryPrompts:
    def test_explanation_embeds_goal_pair(self):
        # [PAPER] the simpl step: 0 + n = n before, n = n after.
        text = render_explanation_prompt(sigma_1(), "simpl", sigma_2())
        assert "0 + n = n" in text
        assert "n = n" in text
        assert "`simpl`" in text

    def test_summarize_includes_trace_and_score_request(self):
        trace = [(s.tactic, s.explanation) for s in worked_proof().steps[:2]]
        text = render_summarize_prompt(trace, sigma_2())
        assert "intros n -> simpl" in text
        assert "score: <value between 0 and 1>" in text

    def test_notebook_prompt_lists_old_and_new(self):
        text = render_notebook_prompt(
            sigma_1(), ["new insight"], Notebook(items=("old note",))
        )
        assert "- old note" in text
        assert "- new insight" in text
        assert "at most 15 strings" in text

    def test_rank_prompt_lists_candidates(self):
        text = render_rank_prompt(
            sigma_1(), [(0, "n = n", "nearly done"), (1, "0 + n = n", "")], keep=2
        )
        assert "Candidate 0:" in text
        assert "Candidate 1:" in text
        assert "nearly done" in text


# ----------------------------------------------------------------------
# Clarity prompts
# ----------------------------------------------------------------------

class TestClarityPrompts:
    def test_probe_ends_with_question_naming_concept(self):
        # [PAPER] the probe question names the concept.
        bundle = render_prove_prompt(render_state_context(sigma_1()))
        text = render_clarity_probe(bundle, "plus")
        assert text.endswith("of the concept `plus`.")
        assert PROBE_MARKER in text
        assert bundle.rendered in text

    def test_judge_with_empty_definition_is_well_formed(self):
        # [TRIVIAL] judging proceeds on an empty generated definition.
        _tid, record = fixfun_record()
        text = render_clarity_judge("FixFun", "", record)
        assert text.endswith(JUDGE_MARKER)
        assert record.origin in text

    def test_translated_probe_context(self):
        # [PAPER] ChineseTranslation renders the record's translated texts,
        # in the proving prompt and in the planner prompt alike.
        tid, record = fixfun_record()

        def context(config):
            return render_state_context(fixfun_state(), [(tid, record)], config)

        translated = context(InfoConfiguration.CHINESE_TRANSLATION)
        probe = render_clarity_probe(render_prove_prompt(translated), "FixFun")
        assert record.origin_zh in probe
        assert record.origin not in probe
        planner = render_planner_prompt(translated)
        for text in (record.origin_zh, record.internal_zh, record.intuition_zh):
            assert f": {text}\n" in planner
        assert record.origin not in planner
        assert planner != render_planner_prompt(context(InfoConfiguration.COMPLETE))
