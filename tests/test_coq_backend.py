"""Synthetic backend: compilation, the tactic calculus, sessions, replay,
the canonical tactic text, and the subprocess adapter's s-expression layer
and session lifecycle."""

import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import fake_prover
from conftest import (
    ADD_0_L_INTERNAL,
    ADD_0_L_SURFACE,
    sigma_0,
    sigma_1,
    sigma_2,
    worked_proof,
)
from prooforge.coq_backend import (
    CompileResult,
    ERROR_TEXT_LIMIT,
    MAX_REWRITE_CHARS,
    MAX_REWRITE_PASSES,
    Lemma,
    SubprocessBackend,
    SyntheticBackend,
    canonical_tactic,
    parse_sexp,
    replay_trace,
    truncate_error,
)
from prooforge.core_model import GoalState, ProofState, state_fingerprint
from prooforge.errors import SessionDesync


def worked_backend() -> SyntheticBackend:
    return SyntheticBackend(
        rewrites={"0 + n": "n"},
        internal_forms={
            ADD_0_L_SURFACE: ADD_0_L_INTERNAL,
            "0 + n = n": sigma_1().goals[0].goal_internal,
            "n = n": sigma_2().goals[0].goal_internal,
            "nat": "Coq.Init.Datatypes.nat",
        },
    )


# ----------------------------------------------------------------------
# CompileResult / predicates / truncation
# ----------------------------------------------------------------------

class TestCompileResult:
    def test_success_requires_state_and_no_error(self):
        # A result holds a state or a non-empty error; success is the former.
        for state, error in ((None, None), (None, ""), (ProofState(()), "oops")):
            with pytest.raises(ValueError):
                CompileResult(state, error)
        assert CompileResult(ProofState(())).success
        assert not CompileResult(error="oops").success

    def test_truncate_error(self):
        assert truncate_error("short") == "short"
        long_text = "x" * (ERROR_TEXT_LIMIT + 50)
        truncated = truncate_error(long_text)
        assert len(truncated) <= ERROR_TEXT_LIMIT
        assert truncated.startswith("x" * 100)


# ----------------------------------------------------------------------
# Theorem compilation
# ----------------------------------------------------------------------

class TestCompileTheorem:
    def test_worked_statement_compiles_to_sigma_0(self):
        # [PAPER] one goal, G^o = the statement, empty hypotheses.
        result = worked_backend().compile_theorem(ADD_0_L_SURFACE)
        assert result.success
        assert result.state == sigma_0()

    def test_broken_statement_fails_with_error(self):
        # [TRIVIAL]
        result = SyntheticBackend().compile_theorem("forall (n:nat, 0 + n = n")
        assert not result.success
        assert result.error

    def test_empty_statement_fails(self):
        result = SyntheticBackend().compile_theorem("   ")
        assert not result.success
        assert "empty" in result.error

    def test_missing_module_then_require_fixes_it(self):
        # [DERIVED] scripted module table: the reference fails bare and
        # compiles once its Require line is supplied.
        backend = SyntheticBackend(
            required_modules={"TLC.LibFix.FixFun": "TLC.LibFix"}
        )
        statement = "TLC.LibFix.FixFun F = f"
        bare = backend.compile_theorem(statement)
        assert not bare.success
        assert (
            bare.error
            == "The reference TLC.LibFix.FixFun was not found in the current environment."
        )
        fixed = backend.compile_theorem(statement, requires=["Require Import TLC.LibFix."])
        assert fixed.success

    def test_reference_match_respects_word_boundaries(self):
        backend = SyntheticBackend(required_modules={"Lib.f": "Lib"})
        assert backend.compile_theorem("MyLib.fancy = x").success

    def test_auto_solved_compiles_complete(self):
        backend = SyntheticBackend(auto_solved=["True"])
        result = backend.compile_theorem("True")
        assert result.success
        assert result.state == ProofState(())


# ----------------------------------------------------------------------
# The tactic calculus
# ----------------------------------------------------------------------

class TestTacticRules:
    def setup_method(self):
        self.backend = worked_backend()
        self.session = self.backend.start_session(ADD_0_L_SURFACE)

    def test_intros_peels_the_binder(self):
        # [PAPER] intros n: hypothesis n:nat appears, goal loses the forall.
        result = self.backend.compile_tactic("intros n", sigma_0(), self.session)
        assert result.success
        assert result.state == sigma_1()

    def test_reflexivity_fails_on_unreduced_goal(self):
        # [DERIVED] the rule table itself: 0 + n and n do not unify textually.
        self.backend.apply_tactic("intros n", self.session)
        result = self.backend.compile_tactic(
            "reflexivity", self.session.state, self.session
        )
        assert not result.success
        assert result.error == 'Unable to unify "n" with "0 + n".'

    def test_empty_tactic(self):
        # [TRIVIAL]
        result = self.backend.compile_tactic("   ", sigma_0(), self.session)
        assert not result.success
        assert result.error == "empty tactic"

    def test_simpl_then_reflexivity_completes(self):
        # [PAPER] the worked sequence ends with zero goals.
        self.backend.apply_tactic("intros n", self.session)
        self.backend.apply_tactic("simpl", self.session)
        assert self.session.state == sigma_2()
        final = self.backend.apply_tactic("reflexivity", self.session)
        assert final.is_complete
        assert self.session.transcript == ["intros n", "simpl", "reflexivity"]

    def test_unknown_tactic_message(self):
        result = self.backend.compile_tactic("ring", sigma_0(), self.session)
        assert not result.success
        assert result.error == "Unknown tactic: ring."

    def test_long_error_is_cut_to_the_limit(self):
        tactic = "ring " + "x" * ERROR_TEXT_LIMIT
        result = self.backend.compile_tactic(tactic, sigma_0(), self.session)
        assert not result.success
        assert result.error == f"Unknown tactic: {tactic}."[:ERROR_TEXT_LIMIT]

    def test_trailing_period_stripped(self):
        result = self.backend.compile_tactic("intros n.", sigma_0(), self.session)
        assert result.success
        assert result.state == sigma_1()


class TestMoreTactics:
    def test_intros_bare_peels_everything(self):
        backend = SyntheticBackend()
        session = backend.start_session("A -> B -> A")
        state = backend.apply_tactic("intros", session)
        goal = state.goals[0]
        assert [h.name for h in goal.hypotheses_surface] == ["H", "H0"]
        assert [h.surface_type for h in goal.hypotheses_surface] == ["A", "B"]
        assert goal.goal_surface == "A"

    def test_intros_names_each_hypothesis_afresh(self):
        backend = SyntheticBackend()
        session = backend.start_session("A -> B -> C -> A")
        goal = backend.apply_tactic("intros", session).goals[0]
        assert [h.name for h in goal.hypotheses_surface] == ["H", "H0", "H1"]

    def test_reflexivity_splits_at_the_equality_outside_parentheses(self):
        backend = SyntheticBackend()
        session = backend.start_session("f (x = y) = f (x = y)")
        assert backend.compile_tactic("reflexivity", session.state, session).state.is_complete

    @pytest.mark.parametrize("source", [")x(", "(x", "f (x))"])
    def test_unbalanced_parentheses_do_not_compile(self, source):
        result = SyntheticBackend().compile_theorem(source)
        assert result.error == "Syntax error: unbalanced parentheses."

    def test_assumption_closes_matching_goal(self):
        backend = SyntheticBackend()
        session = backend.start_session("A -> B -> A")
        backend.apply_tactic("intros", session)
        final = backend.apply_tactic("assumption", session)
        assert final.is_complete

    def test_assumption_fails_without_match(self):
        backend = SyntheticBackend()
        session = backend.start_session("A -> B")
        backend.apply_tactic("intros", session)
        result = backend.compile_tactic("assumption", session.state, session)
        assert not result.success
        assert result.error == "No such assumption."

    def test_split_on_conjunction(self):
        backend = SyntheticBackend()
        session = backend.start_session("P /\\ Q")
        state = backend.apply_tactic("split", session)
        assert [g.goal_surface for g in state.goals] == ["P", "Q"]

    def test_split_rejects_non_conjunction(self):
        backend = SyntheticBackend()
        session = backend.start_session("P")
        result = backend.compile_tactic("split", session.state, session)
        assert result.error == "The goal is not a conjunction."

    def test_apply_replaces_goal_with_premises(self):
        backend = SyntheticBackend(
            lemmas={"conj_intro": Lemma("P /\\ Q", ("P", "Q"))}
        )
        session = backend.start_session("P /\\ Q")
        state = backend.apply_tactic("apply conj_intro", session)
        assert [g.goal_surface for g in state.goals] == ["P", "Q"]

    def test_apply_unknown_lemma(self):
        backend = SyntheticBackend()
        session = backend.start_session("P")
        result = backend.compile_tactic("apply mystery", session.state, session)
        assert (
            result.error
            == "The reference mystery was not found in the current environment."
        )

    def test_apply_conclusion_mismatch(self):
        backend = SyntheticBackend(lemmas={"lem": Lemma("Q", ())})
        session = backend.start_session("P")
        result = backend.compile_tactic("apply lem", session.state, session)
        assert not result.success
        assert "Unable to unify" in result.error

    def test_idtac_succeeds_without_changing_state(self):
        # Same goals; the transcript holds it as it holds every applied
        # tactic, as a subprocess session's does.
        backend = SyntheticBackend()
        session = backend.start_session("P -> P")
        before = session.state
        after = backend.apply_tactic("idtac", session)
        assert after == before
        assert session.transcript == ["idtac"]

    def test_tactic_on_completed_state_fails(self):
        backend = SyntheticBackend(auto_solved=["True"])
        result = backend._step("intros", ProofState(()))
        assert result.error == "No such goal."

    def test_rewrites_iterate_to_fixpoint(self):
        backend = SyntheticBackend(rewrites={"b": "c", "a": "b"})
        session = backend.start_session("a = c")
        state = backend.apply_tactic("simpl", session)
        assert state.goals[0].goal_surface == "c = c"

    def test_rewrites_stop_at_the_pass_cap(self):
        backend = SyntheticBackend(rewrites={"a": "ab"})
        session = backend.start_session("a = b")
        state = backend.apply_tactic("simpl", session)
        assert state.goals[0].goal_surface == "a" + "b" * MAX_REWRITE_PASSES + " = b"

    @pytest.mark.parametrize("rewrites, goal", [
        # Each pass doubles the `a`s, until the next would pass the cap.
        ({"a": "aa"}, "a" * 2 ** 16 + " = b"),
        # One replacement more would make the goal about 10**10 long.
        ({"a": "a" * 99_000}, "a" * 99_000 + " = b"),
    ], ids=["doubling", "one-long-replacement"])
    def test_rewrites_stop_before_the_goal_outgrows_the_length_cap(self, rewrites, goal):
        assert len(goal) <= MAX_REWRITE_CHARS < len(goal) * 2
        backend = SyntheticBackend(rewrites=rewrites)
        session = backend.start_session("a = b")
        assert backend.apply_tactic("simpl", session).goals[0].goal_surface == goal


# ----------------------------------------------------------------------
# Sessions: desync, cloning, replay, determinism
# ----------------------------------------------------------------------

class TestSessions:
    def test_compile_tactic_requires_matching_state(self):
        backend = worked_backend()
        session = backend.start_session(ADD_0_L_SURFACE)
        with pytest.raises(SessionDesync):
            backend.compile_tactic("simpl", sigma_1(), session)

    def test_applying_failing_tactic_poisons_session(self):
        # [TRIVIAL] contract breach surfaced as SessionDesync.
        backend = worked_backend()
        session = backend.start_session(ADD_0_L_SURFACE)
        with pytest.raises(SessionDesync):
            backend.apply_tactic("reflexivity", session)
        assert session.poisoned

    def test_start_session_rejects_uncompilable_theorem(self):
        # The bare compile error; callers add their own prefix.
        with pytest.raises(SessionDesync) as exc_info:
            SyntheticBackend().start_session("(((")
        assert str(exc_info.value) == "Syntax error: unbalanced parentheses."

    def test_compile_tactic_never_advances_the_session(self):
        backend = worked_backend()
        session = backend.start_session(ADD_0_L_SURFACE)
        fingerprint = state_fingerprint(session.state)
        backend.compile_tactic("intros n", session.state, session)
        backend.compile_tactic("ring", session.state, session)
        assert state_fingerprint(session.state) == fingerprint
        assert session.transcript == []

    def test_equal_but_distinct_state_passes_the_desync_check(self):
        backend = worked_backend()
        session = backend.start_session(ADD_0_L_SURFACE)
        copy = ProofState(tuple(session.state.goals))
        assert copy is not session.state and copy == session.state
        result = backend.compile_tactic("intros n", copy, session)
        assert result.success
        with pytest.raises(SessionDesync):
            backend.compile_tactic("intros n", sigma_1(), session)

    def test_search_validations_skip_the_fingerprints(self, monkeypatch):
        # Every validation in a search passes the session's own state
        # object, so compile_tactic never hashes; a distinct object still
        # gets both fingerprints.
        from prooforge import coq_backend
        from prooforge.llm_gateway import MockGateway, ScriptRecord
        from prooforge.proof_search import Outcome, SearchParams, SearchPorts, prove

        calls = []

        def counting(state):
            calls.append(state)
            return state_fingerprint(state)

        monkeypatch.setattr(coq_backend, "state_fingerprint", counting)
        replies = {
            "planner": "Plan.", "explain": "Done.", "summarize": "score: 0.5",
            "notebook": '["note"]',
        }
        gateway = MockGateway(
            [ScriptRecord(reply=r, route=role, default=True) for role, r in replies.items()]
            + [
                ScriptRecord(reply='{"tactics": [{"tactic": "%s"}]}' % t, route="executor")
                for t in ("intros n", "reflexivity", "simpl", "reflexivity")
            ]
        )
        ports = SearchPorts(backend=worked_backend(), gateway=gateway)
        result = prove(ADD_0_L_SURFACE, SearchParams(), ports)
        assert result.outcome is Outcome.PROVED
        assert result.tactic_evaluations_used == 4
        assert calls == []
        session = ports.backend.start_session(ADD_0_L_SURFACE)
        ports.backend.compile_tactic("intros n", sigma_0(), session)
        assert len(calls) == 2

    def test_clone_copies_state_and_transcript(self):
        backend = worked_backend()
        session = backend.start_session(ADD_0_L_SURFACE)
        backend.apply_tactic("intros n", session)
        backend.apply_tactic("simpl", session)
        clone = backend.clone_session(session)
        assert clone.session_id != session.session_id
        assert clone.state == session.state
        assert clone.transcript == session.transcript
        assert clone.transcript is not session.transcript
        # Diverging the clone leaves the original untouched.
        backend.apply_tactic("reflexivity", clone)
        assert len(session.state.goals) == 1

    def test_transcript_replay_reproduces_state(self):
        # Invariant: replaying the transcript from the theorem reproduces
        # the session's current state on a deterministic backend.
        backend = worked_backend()
        session = backend.start_session(ADD_0_L_SURFACE)
        for tactic in ("intros n", "simpl"):
            backend.apply_tactic(tactic, session)
        replayed = backend.start_session(session.theorem, session.requires)
        for tactic in session.transcript:
            backend.apply_tactic(tactic, replayed)
        assert state_fingerprint(replayed.state) == state_fingerprint(session.state)

    def test_two_backends_agree(self):
        script = ("intros n", "simpl", "reflexivity")
        prints = []
        for _ in range(2):
            backend = worked_backend()
            session = backend.start_session(ADD_0_L_SURFACE)
            for tactic in script:
                backend.apply_tactic(tactic, session)
            prints.append(state_fingerprint(session.state))
        assert prints[0] == prints[1]

    def test_replay_trace_helper(self):
        backend = worked_backend()
        trace = [(s.tactic, s.explanation) for s in worked_proof().steps]
        final = replay_trace(backend, ADD_0_L_SURFACE, (), trace)
        assert final.is_complete
        with pytest.raises(SessionDesync):
            replay_trace(backend, ADD_0_L_SURFACE, (), [("reflexivity", "")])

    def test_replay_trace_closes_its_session(self):
        class Counting(SyntheticBackend):
            starts = closes = 0

            def start_session(self, *args, **kwargs):
                self.starts += 1
                return super().start_session(*args, **kwargs)

            def close_session(self, session):
                self.closes += 1

        backend = Counting()
        replay_trace(backend, "A -> A", (), [("intros", ""), ("assumption", "")])
        assert (backend.starts, backend.closes) == (1, 1)
        with pytest.raises(SessionDesync):
            replay_trace(backend, "A -> A", (), [("assumption", "")])
        assert (backend.starts, backend.closes) == (2, 2)

    @given(st.lists(st.sampled_from(["intros n", "simpl", "reflexivity", "ring"]), max_size=4))
    def test_validation_is_always_side_effect_free(self, tactics):
        backend = worked_backend()
        session = backend.start_session(ADD_0_L_SURFACE)
        fingerprint = state_fingerprint(session.state)
        for tactic in tactics:
            backend.compile_tactic(tactic, session.state, session)
            assert state_fingerprint(session.state) == fingerprint


# ----------------------------------------------------------------------
# The canonical tactic text
# ----------------------------------------------------------------------

@pytest.mark.parametrize("text", ["ring", "ring.", "  ring  ", "ring.."])
def test_canonical_tactic(text):
    assert canonical_tactic(text) == "ring"


def test_search_dedupe_key_is_the_transcript_entry():
    # Three spellings of one tactic cost one validation, which the search
    # records under the same text the synthetic transcript holds.
    from prooforge.llm_gateway import MockGateway, ScriptRecord
    from prooforge.proof_search import Outcome, RunRecorder, SearchParams, SearchPorts, prove

    class Recording(SyntheticBackend):
        def __init__(self):
            super().__init__()
            self.clones = []

        def clone_session(self, session):
            self.clones.append(super().clone_session(session))
            return self.clones[-1]

    def tactics(*texts):
        return '{"tactics": [%s]}' % ", ".join('{"tactic": "%s"}' % t for t in texts)

    replies = {"planner": "Plan.", "explain": "Done.", "summarize": "score: 0.5", "notebook": "[]"}
    gateway = MockGateway(
        [ScriptRecord(reply=r, route=role, default=True) for role, r in replies.items()]
        + [
            ScriptRecord(reply=tactics("intros.", "  intros ", "intros.."), route="executor"),
            ScriptRecord(reply=tactics("assumption."), route="executor"),
        ]
    )
    recorder = RunRecorder()
    backend = Recording()
    ports = SearchPorts(backend=backend, gateway=gateway, recorder=recorder)
    result = prove("A -> A", SearchParams(), ports)
    assert result.outcome is Outcome.PROVED
    assert result.tactic_evaluations_used == 2
    keys = [e["tactic"] for e in recorder.events if e["event"] == "tactic"]
    assert keys == ["intros", "assumption"]
    assert backend.clones[-1].transcript == keys
    assert [tactic for tactic, _ in result.trace] == keys


# ----------------------------------------------------------------------
# Session lifecycle of the subprocess adapter, against a stdio fake
# ----------------------------------------------------------------------

# Acknowledges every command with one added sentence and a completion.
FAKE_PROVER = (
    "import sys\n"
    "for line in sys.stdin:\n"
    "    print('(Answer 0 (Added 1 loc NewTip))')\n"
    "    print('(Answer 0 Completed)', flush=True)\n"
)


def test_subprocess_close_session_reaps_the_prover():
    backend = SubprocessBackend(sys.executable, args=("-c", FAKE_PROVER))
    session = backend.start_session("A -> A")
    proc = backend._procs[session.session_id]
    assert proc.returncode is None
    backend.close_session(session)
    assert proc.returncode is not None
    assert proc.stdin.closed and proc.stdout.closed
    assert backend._procs == {}
    backend.close_session(session)  # closing twice is harmless


def test_subprocess_dead_prover_is_reaped_on_the_failed_start():
    # The prover exits at once: the first command finds no answer, the
    # start fails with SessionDesync, and the child is already reaped.
    backend = SubprocessBackend(sys.executable, args=("-c", "pass"))
    procs = []
    spawn = backend._spawn
    backend._spawn = lambda: procs.append(spawn()) or procs[-1]
    with pytest.raises(SessionDesync):
        backend.start_session("A -> A")
    assert procs[0].returncode is not None
    assert procs[0].stdin.closed and procs[0].stdout.closed
    assert backend._procs == {}


def test_synthetic_close_session_is_a_no_op():
    backend = worked_backend()
    session = backend.start_session(ADD_0_L_SURFACE)
    backend.close_session(session)
    backend.apply_tactic("intros n", session)
    assert session.transcript == ["intros n"]


# ----------------------------------------------------------------------
# S-expression parsing (subprocess protocol layer)
# ----------------------------------------------------------------------

class TestSexp:
    def test_atoms_and_nesting(self):
        assert parse_sexp("(Answer 1 Completed)") == ["Answer", "1", "Completed"]
        assert parse_sexp("(a (b c) d)") == ["a", ["b", "c"], "d"]

    def test_quoted_strings_with_escapes(self):
        assert parse_sexp('(msg "hello \\"world\\"")') == ["msg", 'hello "world"']

    @pytest.mark.parametrize("printed, text", [
        (r'(CoqString "a\nb")', "a\nb"),
        (r'(CoqString "tab\there\r\b")', "tab\there\r\b"),
        (r'(CoqString "back\\slash \"q\"")', 'back\\slash "q"'),
        (r'(CoqString "\\n")', "\\n"),
        (r'(CoqString "\065\x42\x6a")', "ABj"),
        # sexplib prints every byte outside printable ASCII as \ddd.
        (r'(CoqString "\226\136\128 n, n = n")', "\u2200 n, n = n"),
        (r'(CoqString "\xe2\x88\x80")', "\u2200"),
        # Not an escape sexplib prints: the backslash stays.
        (r'(CoqString "a\qb\1x")', "a\\qb\\1x"),
    ])
    def test_ocaml_escapes_decode(self, printed, text):
        assert parse_sexp(printed) == ["CoqString", text]

    @pytest.mark.parametrize("printed", [r'"\256"', r'"\255"', r'"\xe2\x88"'])
    def test_escapes_that_are_no_utf8_text_raise(self, printed):
        with pytest.raises(ValueError):
            parse_sexp(printed)

    @given(st.text())
    def test_round_trips_the_fake_provers_quoting(self, text):
        assert parse_sexp(f"(CoqString {fake_prover.quote(text)})") == ["CoqString", text]

    def test_empty_list(self):
        assert parse_sexp("()") == []

    def test_malformed_raises(self):
        with pytest.raises(ValueError):
            parse_sexp("(unclosed")
        with pytest.raises(ValueError):
            parse_sexp("dangling)")

    def test_deep_nesting_parses_without_recursion(self):
        depth = 100_000
        expr = parse_sexp("(" * depth + "x" + ")" * depth)
        for _ in range(depth - 1):
            (expr,) = expr
        assert expr == ["x"]

    def test_atoms_empty_strings_and_stray_quotes(self):
        assert parse_sexp(" Completed\n") == "Completed"
        assert parse_sexp('(a "" b"c"d)') == ["a", "", "b", "c", "d"]
        for text in ("", "  ", '(msg "open)', "(a) (b)", '"a\\"'):
            with pytest.raises(ValueError):
                parse_sexp(text)

    @given(st.text(alphabet='() "\\abn\n', max_size=40))
    def test_matches_the_recursive_reader(self, text):
        try:
            expected = _reference_sexp(text)
        except ValueError:
            with pytest.raises(ValueError):
                parse_sexp(text)
        else:
            assert parse_sexp(text) == expected


#: The escapes `_reference_sexp` decodes; any other backslash stays.
_REFERENCE_ESCAPES = {"n": "\n", "b": "\b", '"': '"', "\\": "\\"}


def _reference_sexp(text: str):
    """The character-loop tokenizer and recursive reader parse_sexp replaced,
    reading escapes as sexplib does for the test alphabet's characters."""
    tokens, i = [], 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            tokens.append(ch)
            i += 1
        elif ch == '"':
            j, out = i + 1, []
            while j < len(text) and text[j] != '"':
                if text[j] == "\\" and j + 1 < len(text):
                    escaped = text[j + 1]
                    out.append(_REFERENCE_ESCAPES.get(escaped, "\\" + escaped))
                    j += 2
                else:
                    out.append(text[j])
                    j += 1
            if j >= len(text):
                raise ValueError("unterminated string")
            tokens.append('"' + "".join(out))
            i = j + 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in '()"':
                j += 1
            tokens.append(text[i:j])
            i = j

    def read(pos):
        tok = tokens[pos]
        if tok == "(":
            out, pos = [], pos + 1
            while pos < len(tokens) and tokens[pos] != ")":
                expr, pos = read(pos)
                out.append(expr)
            if pos >= len(tokens):
                raise ValueError("unbalanced s-expression")
            return out, pos + 1
        if tok == ")":
            raise ValueError("unexpected )")
        return (tok[1:] if tok.startswith('"') else tok), pos + 1

    if not tokens:
        raise ValueError("empty s-expression")
    expr, rest = read(0)
    if rest != len(tokens):
        raise ValueError("trailing tokens after s-expression")
    return expr
