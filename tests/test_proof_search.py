"""Planner–Executor beam search: the budget arithmetic, scripted end-to-end
runs against the synthetic backend, candidate selection, the shared notebook,
and the failure modes (retry exhaustion, budget exhaustion, port failures)."""

import json
import random

import pytest

from conftest import (
    ADD_0_L_SURFACE,
    make_entity,
    sigma_0,
    sigma_1,
    sigma_2,
)
from test_coq_backend import worked_backend
from prooforge.coq_backend import (
    Lemma,
    SyntheticBackend,
    is_goal_complete,
    replay_trace,
)
from prooforge.core_model import GoalState, Notebook, ProofState, SearchCandidate
from prooforge.corpus import ENTITIES_HEADER, encode_entity_record, load_entity_corpus
from prooforge.errors import PortFailure
from prooforge.llm_gateway import MockGateway, ScriptRecord
from prooforge.proof_search import (
    Outcome,
    ProofResult,
    SearchParams,
    SearchPorts,
    SelectionMode,
    compute_budget,
    explain_and_summarize,
    parse_quality_score,
    prove,
    select_best,
    update_notebook,
)
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

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SearchParams(max_depth=0)
        with pytest.raises(ValueError):
            SearchParams(beam_width=0)
        with pytest.raises(ValueError):
            SearchParams(budget=-1)
        SearchParams(budget=0)  # a zero allowance is a legal dry run

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
        assert is_goal_complete(final)

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
        # subprocess backend starts one prover process per proof.
        class CountingBackend:
            def __init__(self, inner):
                self.inner = inner
                self.counts = {"compile_theorem": 0, "start_session": 0}

            def __getattr__(self, name):
                method = getattr(self.inner, name)
                if name not in self.counts:
                    return method

                def counted(*args, **kwargs):
                    self.counts[name] += 1
                    return method(*args, **kwargs)
                return counted

        for theorem, inner in (
            (ADD_0_L_SURFACE, worked_backend()),
            ("True", SyntheticBackend(auto_solved=["True"])),
        ):
            _gateway, ports = self.proved_ports()
            ports.backend = backend = CountingBackend(inner)
            result = prove(theorem, SearchParams(max_depth=3), ports)
            assert result.outcome is Outcome.PROVED
            assert backend.counts == {"compile_theorem": 0, "start_session": 1}


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


def run_random_scripted_search(rng: random.Random):
    """One prove() run with a randomized scripted gateway and shape knobs."""
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
    ports = SearchPorts(backend=SyntheticBackend(), gateway=MockGateway(records))
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

    def test_subgoal_completion_refreshes_and_run_continues(self):
        # Closing subgoal 1 of 2 triggers the idtac refresh; the remaining
        # goal is then closed and the trace carries no idtac entry.
        backend = SyntheticBackend(
            lemmas={"p_holds": Lemma("P", ()), "q_holds": Lemma("Q", ())}
        )
        records = route_defaults() + [
            ScriptRecord(reply=tactics_reply("split"), route="executor"),
            ScriptRecord(reply=tactics_reply("apply p_holds"), route="executor"),
            ScriptRecord(reply=tactics_reply("apply q_holds"), route="executor"),
        ]
        ports = SearchPorts(backend=backend, gateway=MockGateway(records))
        result = prove("P /\\ Q", SearchParams(max_depth=3, max_retries=0), ports)
        assert result.outcome is Outcome.PROVED
        assert [t for t, _e in result.trace] == ["split", "apply p_holds", "apply q_holds"]
        final = replay_trace(backend, "P /\\ Q", (), result.trace)
        assert is_goal_complete(final)


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
        json.dumps(encode_entity_record(r)) for r in records
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

    def test_no_candidates_rejected(self):
        with pytest.raises(ValueError):
            select_best(self.initial, [], 2, SelectionMode.SHORTEST_PROOF, None)


# ----------------------------------------------------------------------
# Notebook and explanation plumbing
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


class TestExplainAndSummarize:
    def test_scores_pass_through(self):
        gateway = MockGateway([
            ScriptRecord(reply="Did the thing.", route="explain"),
            ScriptRecord(reply="All good.\nscore: 0.8", route="summarize"),
        ])
        explanation, summary, score = explain_and_summarize(
            sigma_1(), "simpl", sigma_2(), (("simpl", ""),), gateway
        )
        assert explanation == "Did the thing."
        assert summary == "All good.\nscore: 0.8"
        assert score == 0.8
        # [PAPER] the explanation prompt shows the before/after goal pair.
        explain_prompt = "\n".join(c for _r, c in gateway.calls[0].messages)
        assert "0 + n = n" in explain_prompt
        assert "simpl" in explain_prompt

    def test_score_defaults_to_half(self):
        gateway = MockGateway([
            ScriptRecord(reply="Step.", route="explain"),
            ScriptRecord(reply="nothing quantified", route="summarize"),
        ])
        _e, _s, score = explain_and_summarize(
            sigma_1(), "simpl", sigma_2(), (), gateway
        )
        assert score == 0.5

    def test_parse_quality_score(self):
        assert parse_quality_score("score: 0.25") == 0.25
        assert parse_quality_score("Score = 1") == 1.0
        assert parse_quality_score("score: 1.7") == 1.0
        assert parse_quality_score("score: .5") == 0.5
        assert parse_quality_score("no number") == 0.5
        assert parse_quality_score("no number", default=0.9) == 0.9
