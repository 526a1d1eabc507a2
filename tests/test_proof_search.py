"""Planner–Executor beam search: the budget arithmetic, scripted end-to-end
runs against the synthetic backend, candidate selection, the shared notebook,
the failure modes (retry exhaustion, budget exhaustion, port failures), the
explain and summarize calls overlapped on per-role lanes, and the next
branch's first round run ahead while a branch retries."""

import dataclasses
import functools
import hashlib
import json
import random
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    ADD_0_L_SURFACE,
    make_entity,
    sigma_0,
    sigma_1,
    sigma_2,
    sigma_3,
)
from test_coq_backend import worked_backend
from prooforge.coq_backend import (
    CompileResult,
    Lemma,
    SyntheticBackend,
    replay_trace,
)
from prooforge.core_model import GoalState, Notebook, ProofState, SearchCandidate
from prooforge.corpus import (
    ENTITIES_HEADER,
    EntityCorpus,
    encode_entity_record,
    load_entity_corpus,
)
from prooforge.errors import PortFailure, ProviderError, SessionDesync
from prooforge.llm_gateway import CompletionResult, MockGateway, ScriptRecord
from prooforge.proof_search import (
    BudgetCounter,
    Outcome,
    ProofResult,
    SearchParams,
    SearchPorts,
    SelectionMode,
    _Branch,
    _dedupe_branches,
    _expansion_program,
    _ProofScope,
    compute_budget,
    prove,
    select_best,
    update_notebook,
)
from prooforge.retrieval import HttpEmbeddingProvider, MockEmbeddingProvider, build_index
from prooforge.tokenizer import TokenTable


def tactics_reply(*tactics: str) -> str:
    return json.dumps(
        {"tactics": [{"tactic": t, "explanation": ""} for t in tactics]}
    )


def route_defaults() -> list[ScriptRecord]:
    return [
        ScriptRecord(reply="Simplify and close.", route="planner", default=True),
        ScriptRecord(reply="The goal shrank. score: 0.6", route="summarize", default=True),
        ScriptRecord(reply="The tactic advanced the goal.", route="explain", default=True),
        ScriptRecord(reply='["Keep the recursion in mind."]', route="notebook", default=True),
    ]


SEARCH_ROLES = {"planner", "executor", "explain", "summarize", "notebook", "rank"}


def calls_for(gateway: MockGateway, route: str) -> list[str]:
    return [
        "\n".join(content for _role, content in request.messages)
        for request in gateway.calls
        if request.role == route
    ]


def count_calls(backend, names) -> Counter:
    """Count the calls of each named method of `backend` from now on,
    including the calls the backend makes to itself."""
    counts = Counter()
    for name in names:
        def counted(*args, _name=name, _method=getattr(backend, name), **kwargs):
            counts[_name] += 1
            return _method(*args, **kwargs)

        setattr(backend, name, counted)
    return counts


def event_kinds(ports: SearchPorts) -> list[str]:
    return [event["event"] for event in ports.recorder.events]


# ----------------------------------------------------------------------
# Budget arithmetic and parameter validation
# ----------------------------------------------------------------------

class TestBudget:
    def test_standard_budget_is_860(self):
        # [PAPER] 10*2 + 14*3*10*2 = 860.
        assert compute_budget(SearchParams()) == 860

    def test_two_layer_budget(self):
        # [TRIVIAL] 10 + 1*1*10 = 20.
        params = SearchParams(
            max_depth=2, beam_width=1, tactics_per_state=10, reconsider_factor=1
        )
        assert compute_budget(params) == 20

    def test_single_layer_budget(self):
        # [TRIVIAL] one state, one tactic, factor 2 -> 2.
        params = SearchParams(
            max_depth=1, beam_width=3, tactics_per_state=1, reconsider_factor=2
        )
        assert compute_budget(params) == 2

    def test_unset_budget_follows_the_search_shape(self):
        # [DERIVED] 20 + 4*3*20 = 260 at depth 5; an explicit budget wins.
        assert SearchParams(max_depth=5).budget == 260
        assert SearchParams().budget == 860
        assert SearchParams(budget=0).budget == 0

    def test_replace_resolves_the_budget_only_when_told_to(self):
        # [DERIVED] the resolved 860 is a stored field, so replace() keeps it
        # unless the derived shape passes budget=None.
        params = SearchParams()
        assert dataclasses.replace(params, max_depth=5, budget=None).budget == 260
        assert dataclasses.replace(params, max_depth=5).budget == 860

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SearchParams(max_depth=0)
        with pytest.raises(ValueError):
            SearchParams(beam_width=0)
        with pytest.raises(ValueError):
            SearchParams(budget=-1)
        SearchParams(budget=0)  # a zero allowance is a legal dry run

    @pytest.mark.parametrize("knob, least, message", [
        ("max_retries", 0, "max_retries must be non-negative"),
        ("tactics_per_state", 1, "tactics_per_state must be positive"),
        ("reconsider_factor", 1, "reconsider_factor must be positive"),
    ])
    def test_each_shape_check_names_its_knob(self, knob, least, message):
        # The least legal value passes; one below it is refused by name.
        SearchParams(**{knob: least})
        with pytest.raises(ValueError, match=f"^{message}$"):
            SearchParams(**{knob: least - 1})

    def test_a_budget_counter_refuses_a_negative_limit(self):
        assert BudgetCounter(0).limit == 0
        with pytest.raises(ValueError, match="^budget limit must be non-negative$"):
            BudgetCounter(-1)

    def test_result_invariants(self):
        with pytest.raises(ValueError):
            ProofResult(Outcome.FAILURE, trace=(("intros", ""),))
        with pytest.raises(ValueError):
            ProofResult(Outcome.PROVED, tactic_evaluations_used=-1)


# ----------------------------------------------------------------------
# Scripted end-to-end runs
# ----------------------------------------------------------------------

class TestScriptedRuns:
    def proved_ports(self):
        records = route_defaults() + [
            ScriptRecord(reply=tactics_reply("intros n"), route="executor"),
            ScriptRecord(reply=tactics_reply("simpl"), route="executor"),
            ScriptRecord(reply=tactics_reply("reflexivity", "idtac"), route="executor"),
            ScriptRecord(reply="Introduced n.", route="explain"),
            ScriptRecord(reply="Simplified the sum.", route="explain"),
            ScriptRecord(reply="Both sides equal.", route="explain"),
        ]
        # Remove the explain default so a fourth explanation would fail loudly:
        # the run must return the moment the goal stack empties.
        records = [r for r in records if not (r.route == "explain" and r.default)]
        gateway = MockGateway(records)
        ports = SearchPorts(backend=worked_backend(), gateway=gateway)
        return gateway, ports

    def test_worked_theorem_is_proved_exactly_as_simulated(self):
        # [DERIVED] hand simulation: one tactic per layer, the final layer
        # validates two and closes on the first.
        gateway, ports = self.proved_ports()
        result = prove(ADD_0_L_SURFACE, SearchParams(max_depth=3), ports)
        assert result.outcome is Outcome.PROVED
        assert result.trace == (
            ("intros n", "Introduced n."),
            ("simpl", "Simplified the sum."),
            ("reflexivity", "Both sides equal."),
        )
        assert result.tactic_evaluations_used == 4
        assert result.depth_reached == 3
        assert all(request.role in SEARCH_ROLES for request in gateway.calls)

    def test_worked_theorem_event_stream(self):
        # [DERIVED] the exact run-log skeleton of the simulation above.
        gateway, ports = self.proved_ports()
        prove(ADD_0_L_SURFACE, SearchParams(max_depth=3), ports)
        assert event_kinds(ports) == [
            "start",
            "tactic", "notebook", "layer",
            "tactic", "notebook", "layer",
            "tactic", "tactic", "result",
        ]
        result_event = ports.recorder.events[-1]
        assert result_event["outcome"] == "Proved"
        assert result_event["evaluations"] == 4
        layers = [e for e in ports.recorder.events if e["event"] == "layer"]
        assert [e["width"] for e in layers] == [1, 1]

    def test_proved_trace_replays_to_completion(self):
        # Immediate-return soundness: the returned trace alone reproduces a
        # complete proof on a fresh backend.
        gateway, ports = self.proved_ports()
        result = prove(ADD_0_L_SURFACE, SearchParams(max_depth=3), ports)
        final = replay_trace(worked_backend(), ADD_0_L_SURFACE, (), result.trace)
        assert final.is_complete

    def test_deterministic_replay(self):
        outcomes = []
        for _ in range(2):
            gateway, ports = self.proved_ports()
            result = prove(ADD_0_L_SURFACE, SearchParams(max_depth=3), ports)
            outcomes.append((result, ports.recorder.events))
        assert outcomes[0] == outcomes[1]

    def test_already_complete_theorem_returns_immediately(self):
        # [TRIVIAL] a statement the checker discharges on compilation.
        gateway = MockGateway()
        ports = SearchPorts(
            backend=SyntheticBackend(auto_solved=["True"]), gateway=gateway
        )
        result = prove("True", SearchParams(), ports)
        assert result == ProofResult(Outcome.PROVED, (), 0, 0)
        assert gateway.calls == []

    def test_uncompilable_theorem_is_a_port_failure(self):
        ports = SearchPorts(backend=SyntheticBackend(), gateway=MockGateway())
        with pytest.raises(PortFailure) as exc_info:
            prove("(((", SearchParams(), ports)
        assert str(exc_info.value) == (
            "theorem does not compile: Syntax error: unbalanced parentheses. "
            "[theorem '(((']"
        )

    def test_one_session_per_proof(self):
        # The root session is the theorem's only compilation, so a
        # subprocess backend starts one prover process per proof; every
        # session, the clones included, is closed by the time prove returns.
        class CountingBackend:
            def __init__(self, inner):
                self.inner = inner
                self.counts = dict.fromkeys(
                    ("compile_theorem", "start_session", "clone_session", "close_session"), 0
                )

            def __getattr__(self, name):
                method = getattr(self.inner, name)
                if name not in self.counts:
                    return method

                def counted(*args, **kwargs):
                    self.counts[name] += 1
                    return method(*args, **kwargs)
                return counted

        for theorem, inner, clones in (
            (ADD_0_L_SURFACE, worked_backend(), 3),
            ("True", SyntheticBackend(auto_solved=["True"]), 0),
        ):
            _gateway, ports = self.proved_ports()
            ports.backend = backend = CountingBackend(inner)
            result = prove(theorem, SearchParams(max_depth=3), ports)
            assert result.outcome is Outcome.PROVED
            assert backend.counts == {
                "compile_theorem": 0,
                "start_session": 1,
                "clone_session": clones,
                "close_session": 1 + clones,
            }

    def test_each_applied_tactic_is_explained_once(self):
        # [PAPER] the explanation prompt shows the tactic and the goals before
        # and after it; the summary is asked for only on the unproved path.
        gateway, ports = self.proved_ports()
        prove(ADD_0_L_SURFACE, SearchParams(max_depth=3), ports)
        explain_prompts = calls_for(gateway, "explain")
        assert len(explain_prompts) == 3
        simpl_prompt = explain_prompts[1]
        assert "`simpl`" in simpl_prompt
        assert "Goals before:\n0 + n = n\n" in simpl_prompt
        assert "Goals after:\nn = n\n" in simpl_prompt
        assert "Goals after:\n(no goals)\n" in explain_prompts[2]
        assert len(calls_for(gateway, "summarize")) == 2
        # The summary reply becomes the candidate's summary.
        assert "The goal shrank. score: 0.6" in calls_for(gateway, "planner")[1]

    def test_one_query_embedding_per_expansion(self):
        # Both kinds are ranked from one embedding of the goal.
        class CountingProvider(MockEmbeddingProvider):
            embeds = 0

            def embed(self, text):
                self.embeds += 1
                return super().embed(text)

        provider = CountingProvider()
        index = build_index(
            provider, premises=[("A.a", "alpha")], tactics=[("intros", "goal")]
        )
        gateway, ports = self.proved_ports()
        ports.index = index
        provider.embeds = 0
        result = prove(ADD_0_L_SURFACE, SearchParams(max_depth=3), ports)
        assert result.outcome is Outcome.PROVED
        # Three layers of one branch each: three expansions.
        assert provider.embeds == 3
        first_prompt = calls_for(gateway, "executor")[0]
        assert "- A.a : alpha" in first_prompt
        assert "- intros\n" in first_prompt


def step_by_hand(program, replies) -> list[tuple]:
    """Run an expansion program to its end, answering each request with
    `replies[kind](payload)`; the (kind, payload) requests in order."""
    requests, reply = [], None
    while True:
        try:
            kind, payload = program.send(reply)
        except StopIteration:
            return requests
        requests.append((kind, payload))
        reply = replies[kind](payload)


def worked_program(params=SearchParams()):
    scope = _ProofScope(params, SearchPorts(backend=None, gateway=None))
    return _expansion_program(scope, SearchCandidate(state=sigma_0()), Notebook())


def no_reply(_payload):
    return None


class TestExpansionProgram:
    def test_an_expansion_is_stepped_by_hand_with_no_io(self):
        # The worked proof's first expansion as a step program, with no
        # thread, backend or gateway: each request is answered here. Round 1
        # fails `reflexivity` and validates `intros n`, whose child is
        # explained and summarized; round 2 plans from the error and its
        # executor repeats `intros n`, which fails nothing, so it ends.
        requests = step_by_hand(worked_program(), {
            "planner": lambda _prompt: "Introduce n.",
            "executor": lambda _prompt: tactics_reply("reflexivity", "intros n"),
            "validate": lambda tactic: (
                CompileResult(state=sigma_1()) if tactic == "intros n"
                else CompileResult(error="Unable to unify.")
            ),
            "child": lambda _tactic: sigma_1(),
            "explain": no_reply,
            "summarize": no_reply,
        })
        assert [kind for kind, _payload in requests] == [
            "planner", "executor", "validate", "validate", "child", "explain", "summarize",
            "planner", "executor",
        ]
        assert [payload for kind, payload in requests if kind == "validate"] == [
            "reflexivity", "intros n",
        ]
        assert "Unable to unify." not in requests[0][1]
        assert "Unable to unify." in requests[7][1]

    def test_a_proving_child_is_explained_not_summarized_and_no_child_follows(self):
        # A child with no goals closes the expansion's children: it is
        # explained but not summarized, and the next validated tactic asks
        # for no child. Nothing failed, so the program ends after round 1.
        requests = step_by_hand(worked_program(), {
            "planner": lambda _prompt: "Close it.",
            "executor": lambda _prompt: tactics_reply("trivial", "auto"),
            "validate": lambda _tactic: CompileResult(state=sigma_3()),
            "child": lambda _tactic: sigma_3(),
            "explain": no_reply,
        })
        assert [kind for kind, _payload in requests] == [
            "planner", "executor", "validate", "child", "explain", "validate",
        ]
        assert [payload for kind, payload in requests if kind in ("validate", "child")] == [
            "trivial", "trivial", "auto",
        ]

    def test_a_child_that_cannot_be_made_ends_the_expansion(self):
        # The first child desyncs: its clone is closed and the branch is
        # pruned at once. The later tactics are not validated, no round
        # follows, and no call about a child is made; the only branch is
        # lost, so the proof ends with the desync.
        class DesyncOnApply(SessionLedger):
            def apply_tactic(self, tactic, session):
                raise SessionDesync(f"session {session.session_id} desynced")

        backend = DesyncOnApply()
        gateway = MockGateway(route_defaults() + [
            ScriptRecord(reply=tactics_reply("intros n", "simpl", "reflexivity"), route="executor"),
        ])
        ports = SearchPorts(backend=backend, gateway=gateway)
        with pytest.raises(PortFailure, match="session 2 desynced"):
            prove(ADD_0_L_SURFACE, SearchParams(max_retries=1), ports)
        tactics = [e["tactic"] for e in ports.recorder.events if e["event"] == "tactic"]
        assert tactics == ["intros n"]
        assert [request.role for request in gateway.calls] == ["planner", "executor"]
        assert backend.closed == [2, 1]

    def test_the_first_info_request_asks_again_and_a_later_one_yields_no_tactics(self):
        # The expansion's first info request is yielded for the driver to
        # record, and the executor is asked again; its tactic fails, so a
        # second round runs, whose info request is neither yielded nor asked
        # about again: the round has no tactics, and the program ends.
        executor = iter([
            json.dumps({"info": ["Nat.add"]}),
            tactics_reply("reflexivity"),
            json.dumps({"info": ["Nat.mul"]}),
        ])
        requests = step_by_hand(worked_program(SearchParams(max_retries=3)), {
            "planner": lambda _prompt: "Look it up.",
            "executor": lambda _prompt: next(executor),
            "info": no_reply,
            "validate": lambda _tactic: CompileResult(error="Failed."),
        })
        assert [kind for kind, _payload in requests] == [
            "planner", "executor", "info", "executor", "validate", "planner", "executor",
        ]
        assert requests[2][1] == ["Nat.add"]

    def test_rounds_stop_at_the_retry_cap_and_validate_each_tactic_once(self):
        # Every validation fails, so each round opens another up to
        # max_retries + 1 rounds; a tactic met again in a later round, or
        # empty once canonical, is not validated again.
        rounds = iter([
            tactics_reply("reflexivity", "apply H1."),
            tactics_reply("reflexivity", "  ", "apply H2"),
            tactics_reply("apply H1", "apply H3"),
        ])
        requests = step_by_hand(worked_program(SearchParams(max_retries=2)), {
            "planner": lambda _prompt: "Keep trying.",
            "executor": lambda _prompt: next(rounds),
            "validate": lambda _tactic: CompileResult(error="Failed."),
        })
        assert [kind for kind, _payload in requests].count("planner") == 3
        assert [payload for kind, payload in requests if kind == "validate"] == [
            "reflexivity", "apply H1", "apply H2", "apply H3",
        ]


class TestDedupeBranches:
    def test_the_first_branch_per_state_fingerprint_is_kept_in_order(self):
        branches = [
            _Branch(SearchCandidate(state=sigma_1(), trace=(("intros n", ""),)), session="a"),
            _Branch(SearchCandidate(state=sigma_2(), trace=(("simpl", ""),)), session="b"),
            _Branch(SearchCandidate(state=sigma_1(), trace=(("intro n", ""),)), session="c"),
        ]
        kept = _dedupe_branches(branches)
        assert [branch.session for branch in kept] == ["a", "b"]


class TestRetriesAndFailure:
    def test_retry_loop_reflects_errors_and_stops_at_the_cap(self):
        # Four rounds: the opening round plus max_retries reconsiderations,
        # each fed the previous round's error text.
        records = [
            ScriptRecord(reply="Plan.", route="planner", default=True),
            ScriptRecord(reply=tactics_reply("ring"), route="executor"),
            ScriptRecord(reply=tactics_reply("field"), route="executor"),
            ScriptRecord(reply=tactics_reply("omega"), route="executor"),
            ScriptRecord(reply=tactics_reply("lia"), route="executor"),
        ]
        gateway = MockGateway(records)
        ports = SearchPorts(backend=SyntheticBackend(), gateway=gateway)
        result = prove("A -> B -> A", SearchParams(max_retries=3), ports)
        assert result.outcome is Outcome.FAILURE
        assert result.tactic_evaluations_used == 4
        assert result.depth_reached == 1
        planner_prompts = calls_for(gateway, "planner")
        assert len(planner_prompts) == 4
        assert "Unknown tactic: ring." in planner_prompts[1]
        assert "Unknown tactic: omega." in planner_prompts[3]
        assert len(calls_for(gateway, "executor")) == 4

    def test_duplicate_suggestions_cost_nothing(self):
        # The same canonical tactic (modulo trailing period) validates once.
        records = [
            ScriptRecord(reply="Plan.", route="planner", default=True),
            ScriptRecord(
                reply=tactics_reply("ring", "ring.", "  ring  "), route="executor"
            ),
            ScriptRecord(reply=tactics_reply("ring"), route="executor"),
        ]
        gateway = MockGateway(records)
        ports = SearchPorts(backend=SyntheticBackend(), gateway=gateway)
        result = prove("A -> B -> A", SearchParams(max_retries=1), ports)
        assert result.outcome is Outcome.FAILURE
        assert result.tactic_evaluations_used == 1

    def test_only_the_first_tactics_per_state_suggestions_are_validated(self):
        # The new canonical tactics among the first two suggestions are
        # validated: the repeated `intros` costs nothing, and the third
        # suggestion is never reached.
        records = route_defaults() + [
            ScriptRecord(reply=tactics_reply("intros", "intros", "idtac"), route="executor"),
        ]
        ports = SearchPorts(backend=SyntheticBackend(), gateway=MockGateway(records))
        params = SearchParams(max_depth=1, max_retries=0, tactics_per_state=2)
        result = prove("A -> B -> A", params, ports)
        tactics = [e["tactic"] for e in ports.recorder.events if e["event"] == "tactic"]
        assert tactics == ["intros"]
        assert result.tactic_evaluations_used == 1


class TestBudgetExhaustion:
    def test_exhaustion_mid_batch(self):
        records = [
            ScriptRecord(reply="Plan.", route="planner", default=True),
            ScriptRecord(
                reply=tactics_reply("intros", "intros H", "idtac"), route="executor"
            ),
        ]
        ports = SearchPorts(backend=SyntheticBackend(), gateway=MockGateway(records))
        result = prove("A -> B -> A", SearchParams(budget=2), ports)
        assert result.outcome is Outcome.BUDGET_EXHAUSTED
        assert result.tactic_evaluations_used == 2
        assert result.trace == ()
        assert ports.recorder.events[-1]["outcome"] == "BudgetExhausted"

    def test_zero_budget_exhausts_before_any_validation(self):
        records = [
            ScriptRecord(reply="Plan.", route="planner", default=True),
            ScriptRecord(reply=tactics_reply("intros"), route="executor"),
        ]
        ports = SearchPorts(backend=SyntheticBackend(), gateway=MockGateway(records))
        result = prove("A -> B -> A", SearchParams(budget=0), ports)
        assert result.outcome is Outcome.BUDGET_EXHAUSTED
        assert result.tactic_evaluations_used == 0

    def test_evaluations_never_exceed_budget(self):
        # Randomized scripted runs; the counter is the only budget spender.
        rng = random.Random(20240817)
        for _ in range(40):
            params, result, _ports = run_random_scripted_search(rng)
            assert result.tactic_evaluations_used <= params.budget
            assert (result.outcome is Outcome.PROVED) == bool(result.trace)


def run_random_scripted_search(rng: random.Random, delay_s: float = 0.0, backend=None):
    """One prove() run with a randomized scripted gateway and shape knobs;
    each call waits `delay_s`."""
    pool = ["intros", "intros H", "idtac", "ring", "field", "assumption", "split"]
    records = route_defaults() + [
        ScriptRecord(reply="[0, 1, 2]", route="rank", default=True),
        ScriptRecord(reply=tactics_reply(), route="executor", default=True),
    ]
    for _ in range(30):
        chosen = rng.sample(pool, rng.randint(1, 4))
        records.append(ScriptRecord(reply=tactics_reply(*chosen), route="executor"))
    params = SearchParams(
        max_depth=rng.randint(1, 3),
        beam_width=rng.randint(1, 2),
        max_retries=rng.randint(0, 2),
        tactics_per_state=rng.randint(1, 4),
        reconsider_factor=rng.randint(1, 2),
        budget=rng.randint(0, 15),
    )
    gateway = WaitingGateway(records, delay_s)
    ports = SearchPorts(backend=backend or SyntheticBackend(), gateway=gateway)
    result = prove("A -> B -> A", params, ports)
    return params, result, ports


# ----------------------------------------------------------------------
# Beam selection inside a run
# ----------------------------------------------------------------------

class TestSelectionInRuns:
    def ranked_run(self, rank_reply: str) -> ProofResult:
        records = route_defaults() + [
            ScriptRecord(reply=rank_reply, route="rank"),
            ScriptRecord(reply=tactics_reply("intros", "intros H"), route="executor"),
            ScriptRecord(reply=tactics_reply("assumption"), route="executor"),
            ScriptRecord(reply=tactics_reply(), route="executor", default=True),
        ]
        ports = SearchPorts(backend=SyntheticBackend(), gateway=MockGateway(records))
        params = SearchParams(max_depth=2, beam_width=1, max_retries=1)
        return prove("A -> B -> A", params, ports)

    def test_ranking_keeps_the_winning_branch(self):
        # Candidate 0 fully introduced its hypotheses, so `assumption`
        # closes it; a rank reply choosing it must yield the proof.
        result = self.ranked_run("[0]")
        assert result.outcome is Outcome.PROVED
        assert [t for t, _e in result.trace] == ["intros", "assumption"]

    def test_ranking_can_discard_the_winning_branch(self):
        # The same script, but the model keeps the half-introduced branch:
        # `assumption` cannot close `B -> A`, so the run fails.
        result = self.ranked_run("[1]")
        assert result.outcome is Outcome.FAILURE

    def test_identical_states_collapse_before_ranking(self):
        # `split` and `apply conj_intro` land on the same two subgoals; the
        # layer dedupes to one branch and never needs the ranker.
        backend = SyntheticBackend(
            lemmas={"conj_intro": Lemma("P /\\ Q", ("P", "Q"))}
        )
        records = route_defaults() + [
            ScriptRecord(
                reply=tactics_reply("split", "apply conj_intro"), route="executor"
            ),
            ScriptRecord(reply=tactics_reply(), route="executor", default=True),
        ]
        gateway = MockGateway(records)
        ports = SearchPorts(backend=backend, gateway=gateway)
        result = prove("P /\\ Q", SearchParams(max_depth=2, beam_width=1, max_retries=0), ports)
        assert result.outcome is Outcome.FAILURE
        layers = [e for e in ports.recorder.events if e["event"] == "layer"]
        assert layers[0]["width"] == 1
        assert calls_for(gateway, "rank") == []
        # The earlier arrival survives: the next planner round replays its
        # trace, not the duplicate's.
        depth_two_planner = calls_for(gateway, "planner")[1]
        assert "split" in depth_two_planner
        assert "conj_intro" not in depth_two_planner

    def split_ports(self):
        backend = SyntheticBackend(
            lemmas={"p_holds": Lemma("P", ()), "q_holds": Lemma("Q", ())}
        )
        records = route_defaults() + [
            ScriptRecord(reply=tactics_reply("split"), route="executor"),
            ScriptRecord(reply=tactics_reply("apply p_holds"), route="executor"),
            ScriptRecord(reply=tactics_reply("apply q_holds"), route="executor"),
        ]
        return SearchPorts(backend=backend, gateway=MockGateway(records))

    def test_closing_one_subgoal_leaves_the_next_in_focus(self):
        # Closing subgoal 1 of 2 leaves Q in focus for the next layer, which
        # closes it; the trace holds exactly the tactics the model gave.
        ports = self.split_ports()
        result = prove("P /\\ Q", SearchParams(max_depth=3, max_retries=0), ports)
        assert result.outcome is Outcome.PROVED
        assert [t for t, _e in result.trace] == ["split", "apply p_holds", "apply q_holds"]
        final = replay_trace(ports.backend, "P /\\ Q", (), result.trace)
        assert final.is_complete

    @pytest.mark.parametrize(
        "scenario, counts",
        [
            # Three validations and three children, the last of which proves.
            ("split", {"compile_tactic": 3, "clone_session": 3, "apply_tactic": 3, "_step": 6}),
            # Four validations; the fourth tactic gets no child after a proving one.
            ("worked", {"compile_tactic": 4, "clone_session": 3, "apply_tactic": 3, "_step": 7}),
        ],
        ids=["split", "worked"],
    )
    def test_a_child_is_one_clone_and_one_apply(self, scenario, counts):
        # A child runs its tactic once more, and nothing else, on a clone:
        # the backend's rule runs are the validations plus the children.
        if scenario == "split":
            ports, theorem = self.split_ports(), "P /\\ Q"
        else:
            ports, theorem = TestScriptedRuns().proved_ports()[1], ADD_0_L_SURFACE
        seen = count_calls(ports.backend, counts)
        assert prove(theorem, SearchParams(max_depth=3), ports).outcome is Outcome.PROVED
        assert seen == counts
        assert seen["apply_tactic"] == seen["clone_session"]
        assert seen["_step"] == seen["compile_tactic"] + seen["clone_session"]


class TestPortFailureHandling:
    def test_lost_branch_is_pruned_while_others_continue(self):
        # Depth 2 expands two branches; the second one's executor script is
        # exhausted (a provider failure), the first carries the layer.
        records = route_defaults() + [
            ScriptRecord(reply=tactics_reply("intros", "intros H"), route="executor"),
            ScriptRecord(reply=tactics_reply("idtac"), route="executor"),
        ]
        gateway = MockGateway(records)
        ports = SearchPorts(backend=SyntheticBackend(), gateway=gateway)
        params = SearchParams(max_depth=2, beam_width=2, max_retries=0)
        result = prove("A -> B -> A", params, ports)
        assert result.outcome is Outcome.FAILURE
        pruned = [e for e in ports.recorder.events if e["event"] == "branch-pruned"]
        assert len(pruned) == 1
        assert pruned[0]["depth"] == 2 and pruned[0]["branch"] == 1
        assert "script exhausted" in pruned[0]["error"]

    def test_layer_lost_entirely_to_port_failures_raises(self):
        # The very first planner call fails: nothing expanded, so the run
        # surfaces the port failure instead of claiming Failure.
        ports = SearchPorts(backend=SyntheticBackend(), gateway=MockGateway())
        with pytest.raises(PortFailure):
            prove("A -> B -> A", SearchParams(), ports)


# ----------------------------------------------------------------------
# Explain and summarize calls on per-role lanes
# ----------------------------------------------------------------------

class WaitingGateway:
    """A MockGateway behind a fixed delay per call. Thread-safe; tracks the
    peak number of calls in flight, in total ("all") and per role, and the
    threads that made calls."""

    def __init__(self, records, delay_s: float):
        self.mock = MockGateway(records)
        self.delay_s = delay_s
        self.peak: Counter = Counter()
        self.threads: set[str] = set()
        self._inflight: Counter = Counter()
        self._lock = threading.Lock()

    def complete(self, request):
        keys = ("all", request.role)
        with self._lock:
            self.threads.add(threading.current_thread().name)
            for key in keys:
                self._inflight[key] += 1
                self.peak[key] = max(self.peak[key], self._inflight[key])
        try:
            time.sleep(self.delay(request))
            return self.mock.complete(request)
        finally:
            with self._lock:
                for key in keys:
                    self._inflight[key] -= 1

    def delay(self, request) -> float:
        return self.delay_s

    def digests(self) -> dict[str, list[str]]:
        by_role: dict[str, list[str]] = {}
        for request in self.mock.calls:
            by_role.setdefault(request.role, []).append(request.digest())
        return by_role


LANE_DELAY_S = 0.002
FAILING_DIGEST = "0" * 64


def branching_records(explain=None, summarize=None) -> list[ScriptRecord]:
    """A two-layer proof of A -> B -> A. Depth 1 applies three tactics and
    ranks two children on; at depth 2, branch 0 applies two tactics and
    branch 1 proves the theorem with its second. `explain` and `summarize`
    replace the numbered replies of their role."""
    executor = [
        ("intros", "intros H", "idtac"),
        ("intros", "intros H"),
        ("idtac", "assumption"),
    ]
    if explain is None:
        explain = [ScriptRecord(reply=f"Explained {i}.", route="explain") for i in range(7)]
    if summarize is None:
        summarize = [ScriptRecord(reply=f"Summary {i}.", route="summarize") for i in range(6)]
    return route_defaults() + [
        ScriptRecord(reply=tactics_reply(*tactics), route="executor") for tactics in executor
    ] + [ScriptRecord(reply="[2, 0]", route="rank")] + explain + summarize


BRANCHING_PARAMS = SearchParams(max_depth=3, beam_width=2, max_retries=0)


class TurnsFast(WaitingGateway):
    """Waits on every call but the planner and executor calls after the
    fourth: calls stop waiting at depth 2, branch 1, while the lanes still
    hold branch 0's calls."""

    searched = 0

    def delay(self, request) -> float:
        if request.role in ("planner", "executor"):
            self.searched += 1  # only the search thread makes these calls
            if self.searched > 4:
                return 0.0
        return self.delay_s


def run_branching(
    records, delay_s: float, params=BRANCHING_PARAMS, kind=WaitingGateway, backend=None
):
    gateway = kind(records, delay_s)
    ports = SearchPorts(backend=backend or SyntheticBackend(), gateway=gateway)
    return prove("A -> B -> A", params, ports), ports.recorder.events, gateway


def failing_at_depth_two(route: str) -> list[ScriptRecord]:
    """Three replies per role cover depth 1; the first depth-2 call of
    `route` fails (its record expects another prompt). Every later call gets
    its role's default reply, so calls a pruned branch makes after its
    failure shift no other reply."""
    records = {
        role: [ScriptRecord(reply=f"{role} {i}.", route=role) for i in range(3)]
        for role in ("explain", "summarize")
    }
    records[route].append(
        ScriptRecord(reply="unused", route=route, expect_digest=FAILING_DIGEST)
    )
    return branching_records(**records)


class StartLog(WaitingGateway):
    """Logs each call's role as the call starts. On lanes, a planner call
    fed a failed round first gives the explain and summarize calls up to a
    second to start, so the log does not depend on how soon a lane thread
    runs."""

    def __init__(self, records, delay_s: float):
        super().__init__(records, delay_s)
        self.starts: list[str] = []
        self.started = {role: threading.Event() for role in ("explain", "summarize")}

    def delay(self, request) -> float:
        if request.role in self.started:
            self.started[request.role].set()
        elif self.delay_s and request.role == "planner" and "Unknown tactic" in str(request.messages):
            for event in self.started.values():
                event.wait(1.0)
        with self._lock:
            self.starts.append(request.role)
        return self.delay_s


def early_child_records(round_two) -> list[ScriptRecord]:
    """A two-layer proof of A -> B -> A in which depth 2, branch 0 validates
    `idtac` and fails `ring` in round 1; `round_two` is its round-2 executor
    record. Branch 1 then proves with `assumption`; its record is keyed to
    it, since on lanes its first round runs alongside branch 0's round 2."""
    return route_defaults() + [
        ScriptRecord(reply=tactics_reply("intros", "intros a b"), route="executor"),
        ScriptRecord(reply=tactics_reply("idtac", "ring"), route="executor"),
        round_two,
        ScriptRecord(reply=tactics_reply("assumption"), route="executor", at=(2, 1)),
    ]


EARLY_CHILD_PARAMS = SearchParams(max_depth=2, beam_width=2, max_retries=1)


class TestOverlappedCalls:
    def test_lanes_change_nothing_but_the_overlap(self):
        fast = run_branching(branching_records(), 0.0)
        slow = run_branching(branching_records(), LANE_DELAY_S)
        result, events, gateway = slow
        assert result.outcome is Outcome.PROVED
        assert result.trace == (("intros", "Explained 0."), ("assumption", "Explained 6."))
        assert (result, events) == fast[:2]
        assert gateway.digests() == fast[2].digests()
        assert gateway.peak["all"] >= 2
        assert {role: gateway.peak[role] for role in gateway.digests()} == dict.fromkeys(
            gateway.digests(), 1
        )
        assert fast[2].peak["all"] == 1

    def test_a_child_calls_are_sent_as_its_tactic_validates(self):
        # Round 1 validates `intros` and fails `ring`, so round 2 asks the
        # planner again and validates `idtac`. On lanes the `intros` child's
        # explain and summarize calls start before that planner call; inline
        # every call keeps the sequential order, the children's calls after
        # the rounds.
        records = route_defaults() + [
            ScriptRecord(reply=tactics_reply("intros", "ring"), route="executor"),
            ScriptRecord(reply=tactics_reply("idtac"), route="executor"),
            ScriptRecord(reply=tactics_reply("assumption"), route="executor"),
        ]
        fast = run_branching(records, 0.0, EARLY_CHILD_PARAMS, kind=StartLog)
        slow = run_branching(records, LANE_DELAY_S, EARLY_CHILD_PARAMS, kind=StartLog)
        result, events, gateway = slow
        assert result.outcome is Outcome.PROVED
        assert result.trace == (("intros", "The tactic advanced the goal."),
                                ("assumption", "The tactic advanced the goal."))
        assert gateway.starts.index("explain") < gateway.starts.index("planner", 1)
        assert gateway.starts.index("summarize") < gateway.starts.index("planner", 1)
        assert [request.role for request in fast[2].mock.calls] == fast[2].starts == [
            "planner", "executor", "planner", "executor",
            "explain", "summarize", "explain", "summarize", "notebook",
            "planner", "executor", "explain",
        ]
        # The sequential request list, as the children-after-the-rounds
        # search made it.
        in_order = "".join(request.digest() for request in fast[2].mock.calls)
        assert hashlib.sha256(in_order.encode()).hexdigest() == (
            "9d9acf5cc9722aba565a51e572b431e23c8e5e508ed51a08bc16b628a4b1bc7b"
        )
        assert (result, events) == fast[:2]
        assert gateway.digests() == fast[2].digests()

    def test_a_role_keeps_its_lane_until_the_lane_is_empty(self):
        fast = run_branching(branching_records(), 0.0)
        turning = run_branching(branching_records(), LANE_DELAY_S, kind=TurnsFast)
        gateway = turning[2]
        assert turning[:2] == fast[:2]
        assert gateway.digests() == fast[2].digests()
        assert max(gateway.peak[role] for role in gateway.digests()) == 1

    @pytest.mark.parametrize("route", ["explain", "summarize"])
    def test_a_failed_call_prunes_its_branch_on_both_paths(self, route):
        fast = run_branching(failing_at_depth_two(route), 0.0)
        slow = run_branching(failing_at_depth_two(route), LANE_DELAY_S)
        for result, events, _gateway in (fast, slow):
            assert result.outcome is Outcome.PROVED
            assert [t for t, _e in result.trace] == ["intros", "assumption"]
            pruned = [e for e in events if e["event"] == "branch-pruned"]
            assert [(e["depth"], e["branch"]) for e in pruned] == [(2, 0)]
            assert "prompt digest mismatch" in pruned[0]["error"]
        assert slow[:2] == fast[:2]
        # Inline, the pruned branch makes no call after its failed one: one
        # explain and at most one summarize at depth 2, branch 0.
        calls = Counter(request.role for request in fast[2].mock.calls)
        expected = {"explain": (6, 4), "summarize": (6, 5)}[route]
        assert (calls["explain"], calls["summarize"]) == expected

    def test_a_branch_pruned_before_the_budget_runs_out_is_recorded(self):
        params = dataclasses.replace(BRANCHING_PARAMS, budget=5)
        runs = [
            run_branching(failing_at_depth_two("explain"), delay_s, params)
            for delay_s in (0.0, LANE_DELAY_S)
        ]
        for result, events, _gateway in runs:
            assert result.outcome is Outcome.BUDGET_EXHAUSTED
            assert [e["event"] for e in events[-2:]] == ["branch-pruned", "result"]
        assert runs[0][:2] == runs[1][:2]

    def test_concurrent_proofs_under_contention(self):
        # Four proofs at once (twelve threads with their lanes) and a short
        # switch interval: every proof still gives the sequential result.
        expected = run_branching(branching_records(), 0.0)[:2]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as pool:
                runs = [
                    pool.submit(run_branching, branching_records(), LANE_DELAY_S)
                    for _ in range(8)
                ]
                results = [run.result(timeout=60)[:2] for run in runs]
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * 8

    def test_no_lane_thread_outlives_a_proof(self):
        exhausting = dataclasses.replace(BRANCHING_PARAMS, budget=5)
        no_explain = [r for r in route_defaults() if r.route != "explain"] + [
            ScriptRecord(reply=tactics_reply("intros"), route="executor"),
        ]
        runs = [
            (branching_records(), BRANCHING_PARAMS, Outcome.PROVED),
            (branching_records(), SearchParams(max_depth=1, max_retries=0), Outcome.FAILURE),
            (branching_records(), exhausting, Outcome.BUDGET_EXHAUSTED),
            (no_explain, BRANCHING_PARAMS, None),
        ]
        for records, params, outcome in runs:
            before = set(threading.enumerate())
            count = threading.active_count()
            if outcome is None:
                with pytest.raises(PortFailure):
                    run_branching(records, LANE_DELAY_S, params)
                gateway = None
            else:
                result, _events, gateway = run_branching(records, LANE_DELAY_S, params)
                assert result.outcome is outcome
                assert "prooforge-explain_0" in gateway.threads
            assert set(threading.enumerate()) == before
            assert threading.active_count() == count


# ----------------------------------------------------------------------
# Every session the search opens is closed
# ----------------------------------------------------------------------

class SessionLedger:
    """A synthetic backend that logs the sessions it opens and closes, and
    which sessions are open at each validation."""

    def __init__(self, inner=None):
        self.inner = inner or SyntheticBackend()
        self.opened: list[int] = []
        self.closed: list[int] = []
        self.validations: list[tuple[int, set]] = []

    def open_ids(self) -> set:
        return set(self.opened) - set(self.closed)

    def start_session(self, *args, **kwargs):
        session = self.inner.start_session(*args, **kwargs)
        self.opened.append(session.session_id)
        return session

    def clone_session(self, session):
        clone = self.inner.clone_session(session)
        self.opened.append(clone.session_id)
        return clone

    def close_session(self, session):
        assert session.session_id in self.open_ids()
        self.closed.append(session.session_id)

    def compile_tactic(self, tactic, state, session):
        self.validations.append((session.session_id, self.open_ids()))
        return self.inner.compile_tactic(tactic, state, session)

    def apply_tactic(self, tactic, session):
        return self.inner.apply_tactic(tactic, session)

    def first_validation_after(self, session_id: int) -> set:
        """The open sessions at the first validation on a later session."""
        return next(open_ids for sid, open_ids in self.validations if sid > session_id)


class TestSessionLifecycle:
    @pytest.mark.parametrize("delay_s", [0.0, LANE_DELAY_S], ids=["inline", "lanes"])
    @pytest.mark.parametrize("records, params, outcome", [
        (branching_records(), BRANCHING_PARAMS, Outcome.PROVED),
        (branching_records(), SearchParams(max_depth=1, max_retries=0), Outcome.FAILURE),
        (branching_records(), dataclasses.replace(BRANCHING_PARAMS, budget=5),
         Outcome.BUDGET_EXHAUSTED),
        (failing_at_depth_two("explain"), BRANCHING_PARAMS, Outcome.PROVED),
        ([r for r in route_defaults() if r.route != "explain"]
         + [ScriptRecord(reply=tactics_reply("intros"), route="executor")],
         BRANCHING_PARAMS, None),
    ], ids=["proved", "failure", "budget", "pruned", "port-failure"])
    def test_every_opened_session_is_closed_once(self, records, params, outcome, delay_s):
        backend = SessionLedger()
        if outcome is None:
            with pytest.raises(PortFailure):
                run_branching(records, delay_s, params, backend=backend)
        else:
            result, _events, _gateway = run_branching(records, delay_s, params, backend=backend)
            assert result.outcome is outcome
        assert len(backend.opened) > 1
        assert sorted(backend.closed) == sorted(backend.opened)

    def test_an_expanded_branch_and_a_beam_dropped_child_are_closed_at_once(self):
        # Depth 1 clones sessions 2, 3 and 4; the rank reply keeps 4 and 2.
        # At depth 2, branch 0 (session 4) clones 5 and 6 and is closed
        # before branch 1 (session 2) validates.
        backend = SessionLedger()
        result, _events, _gateway = run_branching(branching_records(), 0.0, backend=backend)
        assert result.outcome is Outcome.PROVED
        assert backend.first_validation_after(1) == {2, 4}
        assert next(ids for sid, ids in backend.validations if sid == 2) == {2, 5, 6}

    def test_a_duplicate_child_is_closed_before_the_next_layer_validates(self):
        # `split` and `apply conj_intro` give sessions 2 and 3 the same state;
        # dedupe keeps the earlier one.
        backend = SessionLedger(
            SyntheticBackend(lemmas={"conj_intro": Lemma("P /\\ Q", ("P", "Q"))})
        )
        records = route_defaults() + [
            ScriptRecord(reply=tactics_reply("split", "apply conj_intro"), route="executor"),
            ScriptRecord(reply=tactics_reply("idtac"), route="executor"),
        ]
        ports = SearchPorts(backend=backend, gateway=MockGateway(records))
        prove("P /\\ Q", SearchParams(max_depth=2, beam_width=1, max_retries=0), ports)
        assert backend.first_validation_after(1) == {2}

    @pytest.mark.parametrize("delay_s", [0.0, LANE_DELAY_S], ids=["inline", "lanes"])
    def test_a_pruned_expansion_closes_its_children_before_the_next_layer(self, delay_s):
        # Depth 2, branch 0 (session 4) clones 5 and 6 as its tactics
        # validate, then its explain call fails: inline when its queued
        # calls are sent, on lanes at the barrier. Branch 1 (session 2)
        # keeps one child, the only session open when depth 3 validates.
        records = failing_at_depth_two("explain")
        executor = [r for r in records if r.route == "executor"]
        executor[2].reply = tactics_reply("idtac")
        records.append(ScriptRecord(reply=tactics_reply("assumption"), route="executor"))
        backend = SessionLedger()
        result, events, _gateway = run_branching(records, delay_s, backend=backend)
        assert result.outcome is Outcome.PROVED
        assert [(e["depth"], e["branch"]) for e in events if e["event"] == "branch-pruned"] == [(2, 0)]
        assert len(backend.opened) == 8
        kept, open_ids = backend.validations[-1]
        assert open_ids == {kept}
        assert sorted(backend.closed) == sorted(backend.opened)


class TestEarlyChildren:
    @pytest.mark.parametrize("lost_by", ["budget", "provider"])
    def test_a_round_lost_after_a_child_is_the_same_on_both_paths(self, lost_by):
        # Depth 2, branch 0 clones session 4 for its round-1 `idtac`, then
        # loses round 2: the budget runs out, or the executor call fails.
        # Inline, the child's queued calls are dropped; on lanes they were
        # sent and their replies are never read.
        if lost_by == "budget":
            round_two = ScriptRecord(reply=tactics_reply("assumption"), route="executor")
            params = dataclasses.replace(EARLY_CHILD_PARAMS, budget=4)
        else:
            round_two = ScriptRecord(
                reply="unused", route="executor", expect_digest=FAILING_DIGEST
            )
            params = EARLY_CHILD_PARAMS
        runs = []
        for delay_s in (0.0, LANE_DELAY_S):
            backend = SessionLedger()
            before = set(threading.enumerate())
            result, events, gateway = run_branching(
                early_child_records(round_two), delay_s, params, backend=backend
            )
            assert set(threading.enumerate()) == before
            assert sorted(backend.closed) == sorted(backend.opened)
            if lost_by == "provider":
                # Branch 0 (session 2) and its child are closed before
                # branch 1 (session 3) validates; branch 1 proves on 5.
                assert backend.first_validation_after(2) == {3}
                assert len(backend.opened) == 5
            calls = Counter(request.role for request in gateway.mock.calls)
            runs.append((result, events, calls))
        (inline, inline_events, inline_calls), (lanes, lanes_events, lanes_calls) = runs
        if lost_by == "budget":
            assert inline.outcome is Outcome.BUDGET_EXHAUSTED
            assert inline.tactic_evaluations_used == 4
        else:
            assert inline.outcome is Outcome.PROVED
            pruned = [e for e in inline_events if e["event"] == "branch-pruned"]
            assert [(e["depth"], e["branch"]) for e in pruned] == [(2, 0)]
        assert (lanes, lanes_events) == (inline, inline_events)
        assert lanes_calls - inline_calls == Counter(explain=1, summarize=1)
        assert inline_calls - lanes_calls == Counter()


    def test_a_child_desync_prunes_its_branch_at_once(self):
        # Depth 2, branch 0 makes a child for `idtac`; applying `simpl` on
        # the next child desyncs, which prunes the branch at once: `ring`
        # and round 2 are not validated, and its children are closed before
        # branch 1 validates. Inline, the `idtac` child's queued calls are
        # dropped; on lanes they were sent and their replies are never read.
        class DesyncOnSimpl(SessionLedger):
            def apply_tactic(self, tactic, session):
                if tactic == "simpl":
                    raise SessionDesync(f"session {session.session_id} desynced")
                return super().apply_tactic(tactic, session)

        records = route_defaults() + [
            ScriptRecord(reply=tactics_reply("intros", "intros a b"), route="executor"),
            ScriptRecord(reply=tactics_reply("idtac", "simpl", "ring"), route="executor"),
            ScriptRecord(reply=tactics_reply("intros"), route="executor"),
            ScriptRecord(reply=tactics_reply("assumption"), route="executor", at=(2, 1)),
        ]
        runs = []
        for delay_s in (0.0, LANE_DELAY_S):
            backend = DesyncOnSimpl()
            result, events, gateway = run_branching(
                records, delay_s, EARLY_CHILD_PARAMS, backend=backend
            )
            assert result.outcome is Outcome.PROVED
            assert result.tactic_evaluations_used == 5
            tactics = [e["tactic"] for e in events if e["event"] == "tactic"
                       and (e["depth"], e["branch"]) == (2, 0)]
            assert tactics == ["idtac", "simpl"]
            pruned = [e for e in events if e["event"] == "branch-pruned"]
            assert [(e["depth"], e["branch"]) for e in pruned] == [(2, 0)]
            assert pruned[0]["error"] == "session 5 desynced"
            assert backend.first_validation_after(2) == {3}
            assert sorted(backend.closed) == sorted(backend.opened)
            calls = Counter(request.role for request in gateway.mock.calls)
            assert (calls["explain"], calls["summarize"]) == ((3, 2) if delay_s == 0.0 else (4, 3))
            runs.append((result, events))
        assert runs[0] == runs[1]


def prove_zero(executor, delay_s: float, budget=None, records=()):
    """Prove `0 = 0` with one executor reply per round, in order, and the
    numbered `records` of other roles."""
    records = route_defaults() + list(records) + [
        ScriptRecord(reply=tactics_reply(*tactics), route="executor") for tactics in executor
    ]
    gateway = WaitingGateway(records, delay_s)
    backend = SessionLedger()
    ports = SearchPorts(backend=backend, gateway=gateway)
    result = prove("0 = 0", SearchParams(budget=budget), ports)
    assert sorted(backend.closed) == sorted(backend.opened)
    return result, Counter(request.role for request in gateway.mock.calls)


class FirstProof(SyntheticBackend):
    """A synthetic backend that keeps the tactics of the first child it
    brings to no goals."""

    first = None

    def apply_tactic(self, tactic, session):
        after = super().apply_tactic(tactic, session)
        if after.is_complete and self.first is None:
            self.first = tuple(session.transcript)
        return after


LOSING_ROUNDS = (("ring", "reflexivity"), ("field",), ("omega",), ("lia",))


class TestAProofIsKept:
    """A proving child ends its expansion with the round it proves in, and
    no failure after it costs the proof."""

    @pytest.mark.parametrize("delay_s", [0.0, LANE_DELAY_S], ids=["inline", "lanes"])
    def test_the_budget_running_out_after_the_proof_keeps_it(self, delay_s):
        # `reflexivity` proves with the one evaluation the budget allows;
        # validating `ring` then runs out.
        result, _calls = prove_zero([("reflexivity", "ring")], delay_s, budget=1)
        assert result.outcome is Outcome.PROVED
        assert result.tactic_evaluations_used == 1
        assert [tactic for tactic, _text in result.trace] == ["reflexivity"]

    @pytest.mark.parametrize("delay_s", [0.0, LANE_DELAY_S], ids=["inline", "lanes"])
    @pytest.mark.parametrize("budget", [2, 3, None])
    def test_no_round_follows_the_proving_round(self, budget, delay_s):
        # Round 1 fails `ring` and proves with `reflexivity`; the three
        # rounds scripted after it are never asked for.
        result, calls = prove_zero(LOSING_ROUNDS, delay_s, budget)
        assert result.outcome is Outcome.PROVED
        assert result.tactic_evaluations_used == 2
        assert [tactic for tactic, _text in result.trace] == ["reflexivity"]
        assert (calls["planner"], calls["executor"]) == (1, 1)

    @pytest.mark.parametrize("delay_s", [0.0, LANE_DELAY_S], ids=["inline", "lanes"])
    def test_a_proof_needs_no_reply_after_its_round(self, delay_s):
        result, _calls = prove_zero(LOSING_ROUNDS[:2], delay_s)
        assert result.outcome is Outcome.PROVED

    @pytest.mark.parametrize("delay_s", [0.0, LANE_DELAY_S], ids=["inline", "lanes"])
    def test_a_failed_explain_of_the_proving_child_keeps_the_proof(self, delay_s):
        # The explain call about `reflexivity` fails: the proof is kept,
        # with an empty explanation for its step.
        failing = ScriptRecord(reply="unused", route="explain", expect_digest=FAILING_DIGEST)
        result, calls = prove_zero([("reflexivity",)], delay_s, records=[failing])
        assert result.outcome is Outcome.PROVED
        assert result.trace == (("reflexivity", ""),)
        assert calls["explain"] == 1

    @pytest.mark.parametrize("delay_s", [0.0, LANE_DELAY_S], ids=["inline", "lanes"])
    @pytest.mark.parametrize("route", ["explain", "summarize"])
    def test_a_failed_call_about_an_earlier_sibling_keeps_the_proof(self, route, delay_s):
        # `idtac` makes a child before `reflexivity` proves, and a call about
        # the `idtac` child fails. Its reply is never read, and inline the
        # proving expansion still sends every queued call.
        failing = ScriptRecord(reply="unused", route=route, expect_digest=FAILING_DIGEST)
        result, calls = prove_zero([("idtac", "reflexivity")], delay_s, records=[failing])
        assert result.outcome is Outcome.PROVED
        assert result.trace == (("reflexivity", "The tactic advanced the goal."),)
        assert (calls["explain"], calls["summarize"]) == (2, 1)

    @given(seed=st.integers(0, 2**32 - 1))
    @example(seed=423)
    @example(seed=270)
    def test_inline_a_child_with_no_goals_is_the_proof(self, seed):
        self.check_first_proof_returned(seed, 0.0)

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1))
    @example(seed=423)
    @example(seed=270)
    def test_lanes_a_child_with_no_goals_is_the_proof(self, seed):
        self.check_first_proof_returned(seed, LANE_DELAY_S)

    @staticmethod
    def check_first_proof_returned(seed: int, delay_s: float) -> None:
        backend = FirstProof()
        _params, result, _ports = run_random_scripted_search(
            random.Random(seed), delay_s, backend
        )
        if backend.first is None:
            assert result.outcome is not Outcome.PROVED
        else:
            assert result.outcome is Outcome.PROVED
            assert tuple(tactic for tactic, _text in result.trace) == backend.first


# ----------------------------------------------------------------------
# The next branch's first round runs ahead while a branch retries
# ----------------------------------------------------------------------

def site_digests(gateway: WaitingGateway) -> dict[tuple, list[str]]:
    """Request digests per (role, site), in arrival order."""
    by_site: dict[tuple, list[str]] = {}
    for request in gateway.mock.calls:
        by_site.setdefault((request.role, request.site), []).append(request.digest())
    return by_site


def retrying_records(round_two: str) -> list[ScriptRecord]:
    """`early_child_records` with `round_two` as the tactic of depth 2,
    branch 0's round 2, when 4 validations are spent: `assumption` proves
    there, so branch 1 is never reached; `intros` fails, and branch 1
    proves (6 validations in all)."""
    return early_child_records(ScriptRecord(reply=tactics_reply(round_two), route="executor"))


class CappedGateway(WaitingGateway):
    """A WaitingGateway that lets one call in at a time, as
    an `HttpClient` with a cap of one request in flight would."""

    def __init__(self, records, delay_s: float):
        super().__init__(records, delay_s)
        self._cap = threading.Semaphore(1)

    def complete(self, request):
        with self._cap:
            return super().complete(request)


PREFETCH_THREAD = "prooforge-prefetch_0"
#: Per theorem, the tactics its keyed scripts draw from (some valid at
#: each depth, `ring` never), and those the root's first reply draws from.
KEYED_TACTICS = {
    "A -> B -> A": ("intros", "intros H", "intros a b", "idtac", "assumption", "ring"),
    "P /\\ Q": ("split", "idtac", "apply p_holds", "apply q_holds", "assumption", "ring"),
}
OPENING_TACTICS = {
    "A -> B -> A": ("intros", "intros H", "intros a b", "ring"),
    "P /\\ Q": ("split", "idtac", "ring"),
}
INFO_REPLY = json.dumps({"info": ["Nowhere.nothing"]})


@st.composite
def keyed_searches(draw):
    """A search shape and executor records keyed to every site of up to
    three layers, on one of two theorems; after the root's first reply,
    one in four asks for info. Sometimes the executor route has a
    default."""
    beam_width = draw(st.integers(1, 3))
    max_retries = draw(st.integers(0, 2))
    theorem = draw(st.sampled_from(sorted(KEYED_TACTICS)))
    tactics = st.lists(st.sampled_from(KEYED_TACTICS[theorem]), min_size=1, max_size=3)
    replies = st.one_of(*[tactics.map(lambda t: tactics_reply(*t))] * 3, st.just(INFO_REPLY))
    opening = draw(st.lists(st.sampled_from(OPENING_TACTICS[theorem]), min_size=2, max_size=3))
    records = route_defaults() + [
        ScriptRecord(reply=tactics_reply(*opening), route="executor", at=(1, 0))
    ]
    for depth in (1, 2, 3):
        for branch in range(1 if depth == 1 else beam_width):
            for reply in draw(st.lists(replies, min_size=1, max_size=max_retries + 2)):
                records.append(ScriptRecord(reply=reply, route="executor", at=(depth, branch)))
    if draw(st.booleans()):
        records.append(ScriptRecord(reply=tactics_reply("idtac"), route="executor", default=True))
    params = SearchParams(max_depth=3, beam_width=beam_width, max_retries=max_retries)
    return theorem, params, records


def run_keyed(theorem, params, records, delay_s):
    backend = SessionLedger(
        SyntheticBackend(lemmas={"p_holds": Lemma("P", ()), "q_holds": Lemma("Q", ())})
    )
    gateway = WaitingGateway(records, delay_s)
    ports = SearchPorts(backend=backend, gateway=gateway)
    before = set(threading.enumerate())
    try:
        result = prove(theorem, params, ports)
    except PortFailure as exc:
        result = str(exc)
    left = [t for t in threading.enumerate() if t not in before]
    assert not [t for t in left if t.name.startswith("prooforge-")]
    assert len(backend.validations) <= params.budget
    assert sorted(backend.closed) == sorted(backend.opened)
    return result, ports.recorder.events, site_digests(gateway)


class TestPrefetch:
    @settings(max_examples=60)
    @given(keyed_searches())
    def test_lanes_give_the_inline_result_events_and_calls(self, search):
        # Per (role, site), the inline calls are the first calls on lanes.
        # Lanes add only calls whose replies are never read: one skipped
        # branch's first round (a planner call, and an executor call or two
        # with an info request), and the explain and summarize calls of an
        # expansion that lost a later round.
        inline = run_keyed(*search, 0.0)
        lanes = run_keyed(*search, LANE_DELAY_S)
        assert lanes[:2] == inline[:2]
        inline_calls, lanes_calls = inline[2], lanes[2]
        assert set(inline_calls) <= set(lanes_calls)
        extra = {}
        for key, digests in lanes_calls.items():
            done = inline_calls.get(key, [])
            assert digests[: len(done)] == done
            if len(digests) > len(done):
                extra[key] = len(digests) - len(done)
        skipped = {site for (role, site) in extra if role in ("planner", "executor")}
        assert len(skipped) <= 1
        assert not skipped or inline[0].outcome is Outcome.PROVED
        for site in skipped:
            assert not any(s == site for _role, s in inline_calls)
            assert extra.get(("planner", site)) == 1
            assert extra.get(("executor", site)) in (1, 2)
        events = inline[1]
        lost = {(e["depth"], e["branch"]) for e in events if e["event"] == "branch-pruned"}
        if events[-1].get("outcome") == Outcome.BUDGET_EXHAUSTED.value:
            last = [e for e in events if e["event"] == "tactic"][-1]
            lost.add((last["depth"], last["branch"]))
        assert {site for (role, site) in extra if role in ("explain", "summarize")} <= lost

    def test_a_branch_proving_in_a_retry_round_wastes_one_first_round(self):
        inline = run_branching(retrying_records("assumption"), 0.0, EARLY_CHILD_PARAMS)
        lanes = run_branching(retrying_records("assumption"), LANE_DELAY_S, EARLY_CHILD_PARAMS)
        assert [tactic for tactic, _text in lanes[0].trace] == ["intros", "assumption"]
        assert lanes[:2] == inline[:2]
        assert PREFETCH_THREAD in lanes[2].threads
        inline_calls, lanes_calls = site_digests(inline[2]), site_digests(lanes[2])
        wasted = {key: len(digests) for key, digests in lanes_calls.items() if key[1] == (2, 1)}
        assert wasted == {("planner", (2, 1)): 1, ("executor", (2, 1)): 1}
        assert {k: d for k, d in lanes_calls.items() if k[1] != (2, 1)} == inline_calls

    @pytest.mark.parametrize("budget, ahead", [(13, False), (14, True)])
    def test_no_branch_runs_ahead_unless_the_budget_covers_the_retries(self, budget, ahead):
        # Branch 0 retries with 4 of the budget spent; its one retry round
        # may validate up to 10 tactics.
        params = dataclasses.replace(EARLY_CHILD_PARAMS, budget=budget)
        inline = run_branching(retrying_records("intros"), 0.0, params)
        lanes = run_branching(retrying_records("intros"), LANE_DELAY_S, params)
        assert lanes[0].outcome is Outcome.PROVED
        assert lanes[0].tactic_evaluations_used == 6
        assert lanes[:2] == inline[:2]
        assert site_digests(lanes[2]) == site_digests(inline[2])
        assert (PREFETCH_THREAD in lanes[2].threads) is ahead

    def test_the_info_event_of_a_first_round_run_ahead_keeps_its_place(self):
        # Branch 1 asks for info in its first round, which runs while
        # branch 0 validates its round 2; the event still follows branch
        # 0's events.
        records = retrying_records("intros")
        records[-1:-1] = [ScriptRecord(reply=INFO_REPLY, route="executor", at=(2, 1))]
        inline = run_branching(records, 0.0, EARLY_CHILD_PARAMS)
        lanes = run_branching(records, LANE_DELAY_S, EARLY_CHILD_PARAMS)
        assert PREFETCH_THREAD in lanes[2].threads
        assert lanes[:2] == inline[:2]
        sites = [(e["event"], e["depth"], e["branch"]) for e in lanes[1] if e["event"] != "layer"
                 and "branch" in e]
        assert sites[-5:] == [
            ("tactic", 2, 0), ("tactic", 2, 0), ("tactic", 2, 0), ("info", 2, 1), ("tactic", 2, 1),
        ]

    def test_an_info_request_is_recorded_before_a_failure_after_it(self):
        # Branch 1's first round asks for info, then its second executor
        # call fails. The search thread records the info event before the
        # branch's pruning, whether that round ran ahead or inline.
        class FailsAfterInfo(WaitingGateway):
            asked = 0

            def complete(self, request):
                if (request.role, request.site) == ("executor", (2, 1)):
                    with self._lock:
                        self.asked += 1
                        fails = self.asked == 2
                    if fails:
                        raise ProviderError("injected after the info request")
                return super().complete(request)

        records = retrying_records("intros")
        records[-1:-1] = [ScriptRecord(reply=INFO_REPLY, route="executor", at=(2, 1))]
        inline = run_branching(records, 0.0, EARLY_CHILD_PARAMS, kind=FailsAfterInfo)
        lanes = run_branching(records, LANE_DELAY_S, EARLY_CHILD_PARAMS, kind=FailsAfterInfo)
        assert PREFETCH_THREAD in lanes[2].threads
        assert lanes[:2] == inline[:2]
        assert [e["event"] for e in lanes[1] if (e.get("depth"), e.get("branch")) == (2, 1)] == [
            "info", "branch-pruned",
        ]

    @pytest.mark.parametrize("error", [ProviderError, RuntimeError])
    def test_what_a_first_round_run_ahead_raises_is_raised_where_it_resumes(self, error):
        # Branch 1's executor call fails: a ProviderError prunes branch 1,
        # anything else ends the proof, on both paths in the same place.
        class FailsAtBranchOne(WaitingGateway):
            def complete(self, request):
                if (request.role, request.site) == ("executor", (2, 1)):
                    with self._lock:
                        self.threads.add(threading.current_thread().name)
                    raise error("injected at depth 2, branch 1")
                return super().complete(request)

        runs = []
        for delay_s in (0.0, LANE_DELAY_S):
            backend = SessionLedger()
            gateway = FailsAtBranchOne(retrying_records("intros"), delay_s)
            ports = SearchPorts(backend=backend, gateway=gateway)
            try:
                result = prove("A -> B -> A", EARLY_CHILD_PARAMS, ports)
            except RuntimeError as exc:
                result = exc.args
            assert sorted(backend.closed) == sorted(backend.opened)
            runs.append((result, ports.recorder.events, gateway.threads))
        (inline, inline_events, _), (lanes, lanes_events, threads) = runs
        assert PREFETCH_THREAD in threads
        assert (lanes, lanes_events) == (inline, inline_events)
        if error is RuntimeError:
            assert inline == ("injected at depth 2, branch 1",)
        else:
            assert inline.outcome is Outcome.FAILURE
            pruned = [e for e in inline_events if e["event"] == "branch-pruned"]
            assert [(e["depth"], e["branch"], e["error"]) for e in pruned] == [
                (2, 1, "injected at depth 2, branch 1")
            ]

    def test_one_call_in_flight_does_not_deadlock_the_prefetch(self):
        inline = run_branching(retrying_records("intros"), 0.0, EARLY_CHILD_PARAMS)
        pool = ThreadPoolExecutor(1)
        try:
            lanes = pool.submit(
                run_branching, retrying_records("intros"), LANE_DELAY_S, EARLY_CHILD_PARAMS,
                kind=CappedGateway,
            ).result(timeout=60)
        finally:
            pool.shutdown(wait=False)
        assert lanes[:2] == inline[:2]
        assert PREFETCH_THREAD in lanes[2].threads
        assert lanes[2].peak["all"] == 1


# ----------------------------------------------------------------------
# Fault injection: a bad reply or a desynced session costs one branch
# ----------------------------------------------------------------------

HOSTILE_REPLIES = (
    "",
    "no JSON here at all",
    "9" * 5000,
    "[" * 100_000,
    '{"tactics": 5}',
    '{"tactics": [{"tactic": ""}, {"tactic": 7}, null]}',
    '{"info": ["Nowhere.nothing"]}',
    "[-1, 99, \"x\", 0]",
    # Surrogate code points, as an unpaired JSON "\ud83d" escape decodes to.
    "\u0000\ud83d\ude00 \\ \" } ] {",
)


class FaultyGateway(WaitingGateway):
    """A WaitingGateway whose call `at` = (role, site, n), the n-th call of
    that role at that expansion site, gets `reply` in place of its scripted
    one, or raises ProviderError when `reply` is None. Calls are counted per
    role and site, so the same call is hit whatever the lanes' timing. The
    scripted record is used up either way, so later calls get the replies
    they would have got."""

    def __init__(self, records, delay_s: float, at, reply):
        super().__init__(records, delay_s)
        self.at = at
        self.reply = reply
        self.arrived: Counter = Counter()

    def complete(self, request):
        where = (request.role, request.site)
        with self._lock:
            number = self.arrived[where]
            self.arrived[where] += 1
        result = super().complete(request)
        if (*where, number) != self.at:
            return result
        if self.reply is None:
            raise ProviderError(f"injected failure at {self.at}", key=request.digest())
        return CompletionResult(text=self.reply)


class DesyncLedger(SessionLedger):
    """A SessionLedger whose operation number `at` (clones, validations and
    applications, counted in order) raises SessionDesync before it acts."""

    def __init__(self, at: int):
        super().__init__()
        self.at = at
        self.operations = 0

    def _operation(self, name: str) -> None:
        number, self.operations = self.operations, self.operations + 1
        if number == self.at:
            raise SessionDesync(f"injected desync at {name} {number}")

    def clone_session(self, session):
        self._operation("clone")
        return super().clone_session(session)

    def compile_tactic(self, tactic, state, session):
        self._operation("compile")
        return super().compile_tactic(tactic, state, session)

    def apply_tactic(self, tactic, session):
        self._operation("apply")
        return super().apply_tactic(tactic, session)


FAULT_SCENARIOS = {
    "two-layers": (branching_records, BRANCHING_PARAMS),
    "budget": (branching_records, dataclasses.replace(BRANCHING_PARAMS, budget=5)),
    "early-child": (
        lambda: early_child_records(
            ScriptRecord(reply=tactics_reply("assumption"), route="executor")
        ),
        EARLY_CHILD_PARAMS,
    ),
}


#: The last backend operation a drawn desync can hit.
LAST_DESYNC = 30


@functools.cache
def reachable_calls(name: str) -> tuple:
    """Every call, as (role, site, n), that the scenario makes before any
    gateway fault: fault-free on lanes, and inline with no backend fault or
    with each one the property can draw, since a desync changes the path."""
    records, params = FAULT_SCENARIOS[name]
    calls = set()
    runs = [(LANE_DELAY_S, -1)] + [(0.0, at) for at in range(-1, LAST_DESYNC + 1)]
    for delay_s, desync_at in runs:
        gateway = FaultyGateway(records(), delay_s, None, None)
        ports = SearchPorts(backend=DesyncLedger(desync_at), gateway=gateway)
        try:
            prove("A -> B -> A", params, ports)
        except PortFailure:
            pass
        calls.update(
            (role, site, n) for (role, site), count in gateway.arrived.items() for n in range(count)
        )
    return tuple(sorted(calls, key=repr))


faults = st.sampled_from(sorted(FAULT_SCENARIOS)).flatmap(lambda name: st.tuples(
    st.just(name),
    st.one_of(st.none(), st.tuples(
        st.sampled_from(reachable_calls(name)),
        st.one_of(st.none(), st.sampled_from(HOSTILE_REPLIES)),
    )),
    st.one_of(st.none(), st.integers(0, LAST_DESYNC)),
))


def check_fault_domains(delay_s: float, fault) -> None:
    """Run one scenario with at most one gateway fault and one backend
    fault, and check what must hold whatever failed."""
    name, gateway_fault, desync_at = fault
    records, params = FAULT_SCENARIOS[name]
    at, reply = gateway_fault if gateway_fault is not None else (None, None)
    gateway = FaultyGateway(records(), delay_s, at, reply)
    backend = DesyncLedger(-1 if desync_at is None else desync_at)
    ports = SearchPorts(backend=backend, gateway=gateway)
    before = set(threading.enumerate())
    try:
        result = prove("A -> B -> A", params, ports)
    except PortFailure:
        result = None
    events = ports.recorder.events
    pruned = [(e["depth"], e["branch"]) for e in events if e["event"] == "branch-pruned"]
    if result is None:
        # Only a whole lost layer raises: every branch of the last layer
        # expanded was pruned.
        depth = max(e["depth"] for e in events if "depth" in e)
        widths = {e["depth"] + 1: e["width"] for e in events if e["event"] == "layer"}
        assert [b for d, b in pruned if d == depth] == list(range(widths.get(depth, 1)))
    else:
        assert result.tactic_evaluations_used <= params.budget
    assert len(backend.validations) <= params.budget
    assert pruned == sorted(pruned)
    assert len(set(pruned)) == len(pruned)
    assert sorted(backend.closed) == sorted(backend.opened)
    left = [t for t in threading.enumerate() if t not in before]
    assert not [t for t in left if t.name.startswith("prooforge-")]


class TestFaultDomains:
    @given(faults)
    def test_inline(self, fault):
        check_fault_domains(0.0, fault)

    @settings(max_examples=25)
    @given(faults)
    def test_lanes(self, fault):
        check_fault_domains(LANE_DELAY_S, fault)


# ----------------------------------------------------------------------
# Retrieval is computed once per goal text and proof
# ----------------------------------------------------------------------

class CountingTransport:
    """An embeddings endpoint stand-in: answers each text of a list `input`
    with the mock provider's vector and its `index`, and logs every text and
    counts the requests; a request holding a `fail` text raises, once per
    such text."""

    def __init__(self, fail=()):
        self.mock = MockEmbeddingProvider()
        self.texts: list[str] = []
        self.requests = 0
        self.fail = set(fail)

    def __call__(self, url, payload, headers):
        texts = payload["input"]
        self.texts.extend(texts)
        self.requests += 1
        if self.fail.intersection(texts):
            self.fail.difference_update(texts)
            raise ConnectionError("endpoint down")
        return {"data": [
            {"index": i, "embedding": self.mock.embed(text).tolist()}
            for i, text in enumerate(texts)
        ]}


def retrieval_ports(records, transport) -> SearchPorts:
    provider = HttpEmbeddingProvider("http://embed.invalid", "m", transport=transport)
    index = build_index(provider, premises=[("A.a", "alpha")], tactics=[("intros", "goal")])
    transport.texts.clear()
    return SearchPorts(backend=SyntheticBackend(), gateway=MockGateway(records), index=index)


class TestRetrievalMemo:
    def test_a_negative_retrieve_k_is_rejected_at_construction(self):
        with pytest.raises(ValueError, match="retrieve_k must be non-negative"):
            SearchPorts(backend=SyntheticBackend(), gateway=MockGateway(), retrieve_k=-1)
        assert SearchPorts(backend=SyntheticBackend(), gateway=MockGateway(), retrieve_k=0)

    def test_a_repeated_goal_costs_no_request_and_a_new_proof_asks_again(self):
        # `idtac` twice keeps the goal A -> B -> A for three expansions.
        transport = CountingTransport()
        requests = []
        for _proof in range(2):
            records = route_defaults() + [
                ScriptRecord(reply=tactics_reply("idtac"), route="executor"),
                ScriptRecord(reply=tactics_reply("idtac"), route="executor"),
                ScriptRecord(reply=tactics_reply("intros"), route="executor"),
                ScriptRecord(reply=tactics_reply("assumption"), route="executor"),
            ]
            ports = retrieval_ports(records, transport)
            result = prove("A -> B -> A", SearchParams(max_depth=4, max_retries=0), ports)
            assert result.outcome is Outcome.PROVED
            assert result.depth_reached == 4
            requests.append(list(transport.texts))
            executor_prompts = calls_for(ports.gateway, "executor")
            assert len(executor_prompts) == 4
            assert all("- A.a : alpha" in prompt for prompt in executor_prompts)
        assert requests == [["A -> B -> A", "A"], ["A -> B -> A", "A"]]

    def test_a_provider_failure_is_asked_again_at_the_next_expansion(self):
        # Both depth-1 children have the goal A. Branch 0's query fails and
        # prunes it; branch 1 asks for the same text again and proves.
        transport = CountingTransport(fail={"A"})
        records = route_defaults() + [
            ScriptRecord(reply=tactics_reply("intros", "intros a b"), route="executor"),
            ScriptRecord(reply=tactics_reply("assumption"), route="executor"),
        ]
        ports = retrieval_ports(records, transport)
        result = prove("A -> B -> A", SearchParams(max_depth=2, beam_width=2, max_retries=0), ports)
        assert result.outcome is Outcome.PROVED
        assert transport.texts == ["A -> B -> A", "A", "A"]
        pruned = [e for e in ports.recorder.events if e["event"] == "branch-pruned"]
        assert [(e["depth"], e["branch"]) for e in pruned] == [(2, 0)]
        assert "endpoint down" in pruned[0]["error"]

    def test_a_zero_vector_goal_is_ranked_once_as_empty(self):
        class ZeroForA(MockEmbeddingProvider):
            def embed(self, text):
                self.queries.append(text)
                return super().embed(text) * (text != "A")

        provider = ZeroForA()
        provider.queries = []
        records = route_defaults() + [
            ScriptRecord(reply=tactics_reply("intros"), route="executor"),
            ScriptRecord(reply=tactics_reply("idtac"), route="executor"),
            ScriptRecord(reply=tactics_reply("assumption"), route="executor"),
        ]
        ports = SearchPorts(
            backend=SyntheticBackend(),
            gateway=MockGateway(records),
            index=build_index(provider, premises=[("A.a", "alpha")]),
        )
        provider.queries.clear()
        result = prove("A -> B -> A", SearchParams(max_depth=3, max_retries=0), ports)
        assert result.outcome is Outcome.PROVED
        assert provider.queries == ["A -> B -> A", "A"]
        prompts = calls_for(ports.gateway, "executor")
        assert "- A.a : alpha" in prompts[0]
        assert not any("- A.a : alpha" in prompt for prompt in prompts[1:])


# ----------------------------------------------------------------------
# Information requests
# ----------------------------------------------------------------------

def info_corpus(tmp_path):
    table = TokenTable()
    records = [
        make_entity(
            "Coq.Init.Nat.add",
            origin="Fixpoint add (n m : nat) : nat := match n with 0 => m | S p => S (add p m) end.",
            internal="add : nat -> nat -> nat",
        ),
        make_entity(
            "Coq.Arith.PeanoNat.Nat.add_comm",
            kind="Lemma",
            origin="Lemma add_comm : forall n m : nat, n + m = m + n.",
            internal="add_comm : forall n m : nat, n + m = m + n",
        ),
    ]
    lines = [ENTITIES_HEADER] + [
        json.dumps(encode_entity_record(r, table)) for r in records
    ]
    path = tmp_path / "entities.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return load_entity_corpus(str(path), table), table


class TestInfoRequests:
    def test_one_lookup_round_trip_per_expansion(self, tmp_path):
        corpus, table = info_corpus(tmp_path)
        records = route_defaults() + [
            ScriptRecord(reply='{"info": ["add_comm"]}', route="executor"),
            ScriptRecord(reply=tactics_reply("intros n"), route="executor"),
            ScriptRecord(reply=tactics_reply(), route="executor", default=True),
        ]
        gateway = MockGateway(records)
        ports = SearchPorts(
            backend=worked_backend(),
            gateway=gateway,
            corpus=corpus,
            table=table,
        )
        result = prove(
            ADD_0_L_SURFACE, SearchParams(max_depth=1, max_retries=0), ports
        )
        assert result.outcome is Outcome.FAILURE  # depth cap, not an error
        info_events = [e for e in ports.recorder.events if e["event"] == "info"]
        assert info_events == [{"event": "info", "depth": 1, "branch": 0, "names": ["add_comm"]}]
        executor_prompts = calls_for(gateway, "executor")
        assert len(executor_prompts) == 2
        assert "add_comm" not in executor_prompts[0]
        assert "Lemma add_comm : forall n m : nat, n + m = m + n." in executor_prompts[1]
        assert result.tactic_evaluations_used == 1

    def test_second_info_request_yields_an_empty_batch(self, tmp_path):
        corpus, table = info_corpus(tmp_path)
        records = route_defaults() + [
            ScriptRecord(reply='{"info": ["add_comm"]}', route="executor"),
            ScriptRecord(reply='{"info": ["add"]}', route="executor"),
        ]
        gateway = MockGateway(records)
        ports = SearchPorts(
            backend=worked_backend(), gateway=gateway, corpus=corpus, table=table
        )
        result = prove(
            ADD_0_L_SURFACE, SearchParams(max_depth=1, max_retries=0), ports
        )
        assert result.outcome is Outcome.FAILURE
        assert result.tactic_evaluations_used == 0
        info_events = [e for e in ports.recorder.events if e["event"] == "info"]
        assert len(info_events) == 1

    def test_names_resolve_to_the_first_record_carrying_them(self):
        # Each requested name is a record's full name, kernel name or last
        # name segment; when several records carry it, the first in corpus
        # order wins. "add" names a concept the goal already shows, "alpha"
        # repeats, "nope" is unknown: all three are skipped.
        table = TokenTable()
        records = [
            make_entity("Coq.Init.Nat.add", origin="origin 0"),
            make_entity("alpha", origin="origin 1"),
            make_entity("M.alpha", origin="origin 2"),
            make_entity("M.beta", kernel="K.beta", origin="origin 3"),
            make_entity("K.beta", origin="origin 4"),
            make_entity("M.gamma", origin="origin 5"),
            make_entity("gamma", origin="origin 6"),
        ]
        corpus = EntityCorpus(
            records=tuple(records),
            tokens=tuple(table.intern_entity(r) for r in records),
        )
        names = ["alpha", "K.beta", "gamma", "add", "alpha", "nope"]
        gateway = MockGateway(route_defaults() + [
            ScriptRecord(reply=json.dumps({"info": names}), route="executor"),
            ScriptRecord(reply=tactics_reply(), route="executor"),
        ])
        ports = SearchPorts(
            backend=worked_backend(), gateway=gateway, corpus=corpus, table=table
        )
        prove(ADD_0_L_SURFACE, SearchParams(max_depth=1, max_retries=0), ports)
        before, after = calls_for(gateway, "executor")
        assert [i for i in range(7) if f"Origin: origin {i}\n" in before] == [0]
        assert [after.count(f"Origin: origin {i}\n") for i in range(7)] == [1, 1, 0, 1, 0, 1, 0]


# ----------------------------------------------------------------------
# select_best in isolation
# ----------------------------------------------------------------------

def _candidate(goal_count: int, trace_len: int, tag: str) -> SearchCandidate:
    goals = tuple(
        GoalState((), (), f"{tag}{i}", f"{tag}{i}") for i in range(goal_count)
    )
    trace = tuple((f"t{i}", "") for i in range(trace_len))
    return SearchCandidate(state=ProofState(goals), trace=trace, summary=f"summary {tag}")


class TestSelectBest:
    def setup_method(self):
        self.initial = sigma_0()

    def test_at_most_beam_width_is_identity(self):
        candidates = [_candidate(1, 1, "a"), _candidate(2, 1, "b")]
        kept = select_best(
            self.initial, candidates, 3, SelectionMode.MODEL_BASED, gateway=None
        )
        assert kept == candidates

    def test_shortest_proof_orders_by_goals_then_trace(self):
        c0 = _candidate(3, 1, "a")
        c1 = _candidate(1, 2, "b")
        c2 = _candidate(2, 1, "c")
        c3 = _candidate(1, 1, "d")
        c4 = _candidate(2, 2, "e")
        kept = select_best(
            self.initial, [c0, c1, c2, c3, c4], 3, SelectionMode.SHORTEST_PROOF, None
        )
        assert kept == [c3, c1, c2]

    def test_model_based_follows_the_scripted_order(self):
        candidates = [_candidate(1, 1, t) for t in "abcd"]
        gateway = MockGateway([ScriptRecord(reply="[2, 0]", route="rank")])
        kept = select_best(
            self.initial, candidates, 2, SelectionMode.MODEL_BASED, gateway
        )
        assert kept == [candidates[2], candidates[0]]

    def test_model_based_backfills_partial_rankings(self):
        c0 = _candidate(3, 1, "a")
        c1 = _candidate(1, 1, "b")
        c2 = _candidate(2, 1, "c")
        gateway = MockGateway([ScriptRecord(reply="[9, 0, 0]", route="rank")])
        kept = select_best(self.initial, [c0, c1, c2], 2, SelectionMode.MODEL_BASED, gateway)
        # Index 9 is out of range and the duplicate 0 counts once; the second
        # slot backfills in shortest-proof order.
        assert kept == [c0, c1]

    def test_model_based_falls_back_on_prose(self):
        c0 = _candidate(3, 1, "a")
        c1 = _candidate(1, 1, "b")
        c2 = _candidate(2, 1, "c")
        gateway = MockGateway([ScriptRecord(reply="keep the second one", route="rank")])
        kept = select_best(self.initial, [c0, c1, c2], 2, SelectionMode.MODEL_BASED, gateway)
        assert kept == [c1, c2]

    def test_model_based_falls_back_on_a_provider_failure(self):
        c0 = _candidate(3, 1, "a")
        c1 = _candidate(1, 1, "b")
        c2 = _candidate(2, 1, "c")
        gateway = MockGateway()  # no rank record: the call raises ProviderError
        kept = select_best(self.initial, [c0, c1, c2], 2, SelectionMode.MODEL_BASED, gateway)
        assert kept == [c1, c2]
        assert [request.role for request in gateway.calls] == ["rank"]

    def test_no_candidates_rejected(self):
        with pytest.raises(ValueError):
            select_best(self.initial, [], 2, SelectionMode.SHORTEST_PROOF, None)


# ----------------------------------------------------------------------
# Notebook
# ----------------------------------------------------------------------

class TestNotebook:
    def test_no_insights_is_a_no_op(self):
        notebook = Notebook(items=("keep me",))
        assert update_notebook(sigma_0(), [], notebook, gateway=None) is notebook

    def test_merged_reply_is_clamped_to_capacity(self):
        reply = json.dumps([f"insight {i}" for i in range(20)])
        gateway = MockGateway([ScriptRecord(reply=reply, route="notebook")])
        merged = update_notebook(sigma_0(), ["new"], Notebook(), gateway)
        assert merged.items == tuple(f"insight {i}" for i in range(15))
        assert merged.capacity == 15

    def test_unusable_reply_appends_newest_and_trims_oldest(self):
        old = tuple(f"old{i}" for i in range(14))
        gateway = MockGateway([ScriptRecord(reply="no list here", route="notebook")])
        merged = update_notebook(
            sigma_0(), ["a", "b", "c"], Notebook(items=old), gateway
        )
        assert merged.items == tuple(f"old{i}" for i in range(2, 14)) + ("a", "b", "c")
        assert len(merged.items) == 15

    def test_a_provider_failure_reads_as_an_unusable_reply(self):
        gateway = MockGateway()  # no notebook record: the call raises ProviderError
        merged = update_notebook(sigma_0(), ["a", "b"], Notebook(items=("old",)), gateway)
        assert merged.items == ("old", "a", "b")
        assert [request.role for request in gateway.calls] == ["notebook"]
