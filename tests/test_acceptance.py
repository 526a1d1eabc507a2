"""Acceptance suite.

Eight end-to-end guarantees, one class per criterion:

1. the validation-budget formula and its never-exceeded property,
2. the clarity score against a direct softmax oracle on 10,000 pairs,
3. the clarity/success correlation on the five configuration pairs,
4. tokenizer semantic consistency over >= 10,000 generated entity cases,
5. byte-exact prompt goldens for all 11 configurations plus the full
   inclusion matrix,
6. search conformance on 25 hand-simulated scripted scenarios with trace
   replay,
7. byte-identical benchmark artifacts for equal seeds,
8. corpus round-trip fixpoints and a violation-free worked proof.
"""

import json
import math
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import pytest

from conftest import (
    ADD_0_L_SURFACE,
    entities_path,
    make_entity,
    proofs_path,
)
from test_coq_backend import worked_backend
from test_proof_search import (
    info_corpus,
    route_defaults,
    run_random_scripted_search,
    tactics_reply,
)
from test_prompt_builder import SECTION_HEADERS, golden_bundle
from test_cli import bench_args
from prooforge.clarity_eval import clarity_score, pearson_r
from prooforge.cli import EXIT_OK, main
from prooforge.coq_backend import (
    Lemma,
    SyntheticBackend,
    is_goal_complete,
    replay_trace,
)
from prooforge.core_model import validate_proof_chain
from prooforge.corpus import (
    load_entity_corpus,
    load_proof_corpus,
    save_entity_corpus,
    save_proof_corpus,
)
from prooforge.errors import PortFailure
from prooforge.llm_gateway import MockGateway, ScriptRecord, YesNoLogprobs
from prooforge.prompt_builder import InfoConfiguration, expected_sections
from prooforge.proof_search import (
    Outcome,
    SearchParams,
    SearchPorts,
    SelectionMode,
    compute_budget,
    prove,
)
from prooforge.tokenizer import DisambiguatedName, TokenTable

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "fixtures", "golden")


# ======================================================================
# Criterion 1: the budget formula, and runs never overdraw it.
# ======================================================================

class TestBudgetCriterion:
    def test_standard_budget_formula(self):
        # [PAPER] depth 15, beam 3, 10 tactics, reconsideration factor 2.
        params = SearchParams(
            max_depth=15, beam_width=3, tactics_per_state=10, reconsider_factor=2
        )
        assert compute_budget(params) == 860

    def test_search_never_exceeds_its_budget(self):
        start = time.monotonic()
        rng = random.Random(424242)
        for _ in range(200):
            params, result, _ports = run_random_scripted_search(rng)
            assert result.tactic_evaluations_used <= params.budget
        assert time.monotonic() - start < 60.0


# ======================================================================
# Criterion 2: the clarity score against a direct-evaluation oracle.
# ======================================================================

class TestClarityCriterion:
    def test_matches_the_softmax_oracle_on_ten_thousand_pairs(self):
        start = time.monotonic()
        rng = random.Random(90125)
        for _ in range(10_000):
            lpy = rng.uniform(-50.0, 0.0)
            lpn = rng.uniform(-50.0, 0.0)
            score = clarity_score(YesNoLogprobs(lpy, lpn))
            shift = max(lpy, lpn)
            py = math.exp(lpy - shift)
            pn = math.exp(lpn - shift)
            assert abs(score - py / (py + pn)) < 1e-12
            # Complementarity: swapping YES and NO mirrors the score.
            assert abs(score + clarity_score(YesNoLogprobs(lpn, lpy)) - 1.0) < 1e-9
            # Symmetry: equal evidence lands exactly on one half.
            tie = rng.uniform(-50.0, 0.0)
            assert clarity_score(YesNoLogprobs(tie, tie)) == 0.5
        assert time.monotonic() - start < 10.0


# ======================================================================
# Criterion 3: the clarity/success correlation.
# ======================================================================

class TestCorrelationCriterion:
    def test_five_configuration_pairs(self):
        # [PAPER] per-configuration mean clarity vs success rate.
        clarity = (0.445, 0.581, 0.712, 0.798, 0.823)
        success = (21.0, 25.0, 38.0, 42.0, 45.0)
        r = pearson_r(clarity, success)
        assert abs(r - 0.98) <= 0.01


# ======================================================================
# Criterion 4: tokenizer semantic consistency.
# ======================================================================

class TestTokenizerCriterion:
    SEGMENTS = (
        "Coq", "Init", "Datatypes", "Logic", "ZArith", "BinInt", "BinIntDef",
        "Z", "Nat", "List", "quotrem", "add", "eq", "mul", "map",
    )

    def test_consistency_and_monotonicity_over_generated_entities(self):
        # Both directions of the consistency clause -- equal tokens exactly
        # for equal disambiguated names -- plus append-only interning,
        # checked across >= 10,000 generated cases.
        rng = random.Random(31337)

        def path() -> str:
            length = rng.randint(1, 4)
            return ".".join(rng.choice(self.SEGMENTS) for _ in range(length))

        table = TokenTable()
        interned: list[tuple[str, str, int]] = []
        by_identity: dict[tuple[str, str], int] = {}
        cases = 0
        while cases < 10_000:
            canonical = path()
            kernel = canonical if rng.random() < 0.5 else path()
            record = make_entity(canonical, kernel=kernel)
            size_before = len(table.reverse)
            next_before = table.next_id
            tid = table.intern_entity(record)
            key = (canonical, kernel)
            if key in by_identity:
                # Re-interning is the identity: same id, no growth.
                assert tid == by_identity[key]
                assert len(table.reverse) == size_before
            else:
                by_identity[key] = tid
                assert tid == next_before
                assert len(table.reverse) == size_before + 1
            if interned:
                other_canonical, other_kernel, other_tid = interned[
                    rng.randrange(len(interned))
                ]
                same_token = tid == other_tid
                same_name = (canonical, kernel) == (other_canonical, other_kernel)
                assert same_token == same_name
                cases += 1
            interned.append((canonical, kernel, tid))

        # Append-only across the whole run: every identity still resolves to
        # the id it was first given.
        for (canonical, kernel), tid in by_identity.items():
            assert table.entries[DisambiguatedName(canonical, kernel)] == tid

    def test_kernel_name_rendering_byte_for_byte(self):
        # [PAPER] the canonical/kernel split of Z.quotrem.
        record = make_entity(
            "Coq.ZArith.BinInt.Z.quotrem", kernel="Coq.ZArith.BinIntDef.Z.quotrem"
        )
        table = TokenTable()
        tid = table.intern_entity(record)
        rendered, _cls = table.reverse[tid]
        assert rendered == "Coq.ZArith.BinInt.Z.quotrem<ker>Coq.ZArith.BinIntDef.Z.quotrem"


# ======================================================================
# Criterion 5: prompt fidelity.
# ======================================================================

class TestPromptCriterion:
    @pytest.mark.parametrize("config", list(InfoConfiguration))
    def test_golden_files(self, config):
        golden = Path(GOLDEN_DIR, f"{config.value}.txt").read_text(encoding="utf-8")
        assert golden_bundle(config).rendered == golden

    @pytest.mark.parametrize("config", list(InfoConfiguration))
    def test_inclusion_matrix(self, config):
        # 11 configurations x 8 sections, presence and absence both checked.
        bundle = golden_bundle(config)
        assert bundle.sections_present == expected_sections(config)
        for section, header in SECTION_HEADERS.items():
            if section in bundle.sections_present:
                assert header in bundle.rendered
            else:
                assert header not in bundle.rendered


# ======================================================================
# Criterion 6: search conformance on hand-simulated scripted scenarios.
# ======================================================================

def _executor(*tactics: str) -> ScriptRecord:
    return ScriptRecord(reply=tactics_reply(*tactics), route="executor")


def _executor_idle() -> ScriptRecord:
    return ScriptRecord(reply=tactics_reply(), route="executor", default=True)


def _rank(reply: str) -> ScriptRecord:
    return ScriptRecord(reply=reply, route="rank")


def _plain() -> SyntheticBackend:
    return SyntheticBackend()


def _auto() -> SyntheticBackend:
    return SyntheticBackend(auto_solved=["True"])


def _conj() -> SyntheticBackend:
    return SyntheticBackend(
        lemmas={
            "conj_intro": Lemma("P /\\ Q", ("P", "Q")),
            "p_holds": Lemma("P", ()),
            "q_holds": Lemma("Q", ()),
            "pq_direct": Lemma("P /\\ Q", ()),
        }
    )


DEFAULT_EXPLANATION = "The tactic advanced the goal."


@dataclass
class Scenario:
    name: str
    theorem: str
    backend: Callable[[], object]
    records: Callable[[], list[ScriptRecord]]
    params: SearchParams
    outcome: Optional[Outcome]  # None: prove() must raise PortFailure
    trace: tuple[str, ...] = ()
    evaluations: int = 0
    depth: int = 0
    needs_corpus: bool = False


SCENARIOS = [
    Scenario(
        "happy-three-layers", ADD_0_L_SURFACE, worked_backend,
        lambda: route_defaults() + [
            _executor("intros n"), _executor("simpl"), _executor("reflexivity"),
        ],
        SearchParams(),
        Outcome.PROVED, ("intros n", "simpl", "reflexivity"), 3, 3,
    ),
    Scenario(
        "immediate-return-skips-siblings", ADD_0_L_SURFACE, worked_backend,
        lambda: route_defaults() + [
            _executor("intros n"), _executor("simpl"),
            _executor("reflexivity", "idtac"),
        ],
        SearchParams(),
        Outcome.PROVED, ("intros n", "simpl", "reflexivity"), 4, 3,
    ),
    Scenario(
        "discharged-at-compile-time", "True", _auto,
        lambda: [],
        SearchParams(),
        Outcome.PROVED, (), 0, 0,
    ),
    Scenario(
        "subgoal-close-refreshes-focus", "P /\\ Q", _conj,
        lambda: route_defaults() + [
            _executor("split"), _executor("apply p_holds"),
            _executor("apply q_holds"),
        ],
        SearchParams(),
        Outcome.PROVED, ("split", "apply p_holds", "apply q_holds"), 3, 3,
    ),
    Scenario(
        "lemma-application-path", "P /\\ Q", _conj,
        lambda: route_defaults() + [
            _executor("apply conj_intro"), _executor("apply p_holds"),
            _executor("apply q_holds"),
        ],
        SearchParams(),
        Outcome.PROVED, ("apply conj_intro", "apply p_holds", "apply q_holds"), 3, 3,
    ),
    Scenario(
        "two-step-implication", "A -> B -> A", _plain,
        lambda: route_defaults() + [_executor("intros"), _executor("assumption")],
        SearchParams(),
        Outcome.PROVED, ("intros", "assumption"), 2, 2,
    ),
    Scenario(
        "mixed-batch-keeps-the-valid-one", "A -> B -> A", _plain,
        lambda: route_defaults() + [
            _executor("intros", "assumption"), _executor("assumption"),
        ],
        SearchParams(max_retries=0),
        Outcome.PROVED, ("intros", "assumption"), 3, 2,
    ),
    Scenario(
        "single-invalid-fails", "A -> B -> A", _plain,
        lambda: route_defaults() + [_executor("ring")],
        SearchParams(max_retries=0),
        Outcome.FAILURE, (), 1, 1,
    ),
    Scenario(
        "reflection-rounds-stop-at-the-cap", "A -> B -> A", _plain,
        lambda: route_defaults() + [
            _executor("ring"), _executor("field"), _executor("omega"),
        ],
        SearchParams(max_retries=2),
        Outcome.FAILURE, (), 3, 1,
    ),
    Scenario(
        "duplicates-validate-once", "A -> B -> A", _plain,
        lambda: route_defaults() + [_executor("ring", "ring.", "  ring  ")],
        SearchParams(max_retries=0),
        Outcome.FAILURE, (), 1, 1,
    ),
    Scenario(
        "budget-cuts-a-batch", "A -> B -> A", _plain,
        lambda: route_defaults() + [_executor("intros", "intros H", "idtac")],
        SearchParams(budget=2),
        Outcome.BUDGET_EXHAUSTED, (), 2, 1,
    ),
    Scenario(
        "zero-budget-dry-run", "A -> B -> A", _plain,
        lambda: route_defaults() + [_executor("intros")],
        SearchParams(budget=0),
        Outcome.BUDGET_EXHAUSTED, (), 0, 1,
    ),
    Scenario(
        "prose-reply-expands-nothing", "A -> B -> A", _plain,
        lambda: route_defaults() + [
            ScriptRecord(reply="I think we should simplify.", route="executor"),
        ],
        SearchParams(max_retries=0),
        Outcome.FAILURE, (), 0, 1,
    ),
    Scenario(
        "info-request-round-trip", ADD_0_L_SURFACE, worked_backend,
        lambda: route_defaults() + [
            ScriptRecord(reply='{"info": ["add_comm"]}', route="executor"),
            _executor("intros n"),
        ],
        SearchParams(max_depth=1, max_retries=0),
        Outcome.FAILURE, (), 1, 1, needs_corpus=True,
    ),
    Scenario(
        "second-info-request-is-empty", ADD_0_L_SURFACE, worked_backend,
        lambda: route_defaults() + [
            ScriptRecord(reply='{"info": ["add_comm"]}', route="executor"),
            ScriptRecord(reply='{"info": ["add"]}', route="executor"),
        ],
        SearchParams(max_depth=1, max_retries=0),
        Outcome.FAILURE, (), 0, 1, needs_corpus=True,
    ),
    Scenario(
        "ranking-keeps-the-winner", "A -> B -> A", _plain,
        lambda: route_defaults() + [
            _rank("[0]"), _executor("intros", "intros H"),
            _executor("assumption"), _executor_idle(),
        ],
        SearchParams(max_depth=2, beam_width=1, max_retries=1),
        Outcome.PROVED, ("intros", "assumption"), 3, 2,
    ),
    Scenario(
        "ranking-discards-the-winner", "A -> B -> A", _plain,
        lambda: route_defaults() + [
            _rank("[1]"), _executor("intros", "intros H"),
            _executor("assumption"), _executor_idle(),
        ],
        SearchParams(max_depth=2, beam_width=1, max_retries=1),
        Outcome.FAILURE, (), 3, 2,
    ),
    Scenario(
        "shortest-proof-prefers-fewer-goals", "P /\\ Q", _conj,
        lambda: route_defaults() + [
            _executor("split", "idtac"), _executor("apply pq_direct"),
        ],
        SearchParams(
            max_depth=2, beam_width=1, max_retries=0,
            selection_mode=SelectionMode.SHORTEST_PROOF,
        ),
        # Only the one-goal branch (the idtac child) lets `apply pq_direct`
        # close everything; proving is evidence the selector kept it.
        Outcome.PROVED, ("idtac", "apply pq_direct"), 3, 2,
    ),
    Scenario(
        "identical-children-deduplicate", "P /\\ Q", _conj,
        lambda: route_defaults() + [
            _executor("split", "apply conj_intro"),
            _executor("apply p_holds"), _executor("apply q_holds"),
        ],
        SearchParams(max_retries=1),
        # The first arrival (split) owns the merged branch.
        Outcome.PROVED, ("split", "apply p_holds", "apply q_holds"), 4, 3,
    ),
    Scenario(
        "uncompilable-theorem", "(((", _plain,
        lambda: [],
        SearchParams(),
        None,
    ),
    Scenario(
        "gateway-dead-from-the-start", "A -> B -> A", _plain,
        lambda: [],
        SearchParams(),
        None,
    ),
    Scenario(
        "lost-branch-is-pruned", "A -> B -> A", _plain,
        lambda: route_defaults() + [
            _executor("intros", "intros H"), _executor("idtac"),
        ],
        SearchParams(max_depth=2, beam_width=2, max_retries=0),
        Outcome.FAILURE, (), 3, 2,
    ),
    Scenario(
        "error-reflection-recovers", ADD_0_L_SURFACE, worked_backend,
        lambda: route_defaults() + [
            _executor("reflexivity"), _executor("intros n"),
            _executor("simpl"), _executor("reflexivity"),
        ],
        SearchParams(max_retries=1),
        Outcome.PROVED, ("intros n", "simpl", "reflexivity"), 4, 3,
    ),
    Scenario(
        "notebook-noise-is-harmless", ADD_0_L_SURFACE, worked_backend,
        lambda: [
            r for r in route_defaults() if r.route != "notebook"
        ] + [
            ScriptRecord(reply="not a JSON array", route="notebook", default=True),
            _executor("intros n"), _executor("simpl"), _executor("reflexivity"),
        ],
        SearchParams(),
        Outcome.PROVED, ("intros n", "simpl", "reflexivity"), 3, 3,
    ),
    Scenario(
        "three-way-ranking", "A -> B -> A", _plain,
        lambda: route_defaults() + [
            _rank("[2, 0]"), _executor("intros", "intros H", "idtac"),
            _executor("intros H"), _executor("assumption"),
        ],
        SearchParams(max_depth=2, beam_width=2, max_retries=0),
        Outcome.PROVED, ("intros", "assumption"), 5, 2,
    ),
]


class TestSearchConformance:
    def test_twenty_five_scenarios(self):
        assert len(SCENARIOS) == 25
        assert len({s.name for s in SCENARIOS}) == 25

    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
    def test_scenario(self, scenario, tmp_path):
        start = time.monotonic()
        gateway = MockGateway(scenario.records())
        ports = SearchPorts(backend=scenario.backend(), gateway=gateway)
        if scenario.needs_corpus:
            corpus, table = info_corpus(tmp_path)
            ports.corpus = corpus
            ports.table = table

        if scenario.outcome is None:
            with pytest.raises(PortFailure):
                prove(scenario.theorem, scenario.params, ports)
            return

        result = prove(scenario.theorem, scenario.params, ports)
        assert result.outcome is scenario.outcome
        assert tuple(t for t, _e in result.trace) == scenario.trace
        assert result.tactic_evaluations_used == scenario.evaluations
        assert result.depth_reached == scenario.depth

        if scenario.outcome is Outcome.PROVED and scenario.trace:
            # Every explanation came from the scripted default, and the
            # returned trace alone replays to a complete proof.
            assert all(e == DEFAULT_EXPLANATION for _t, e in result.trace)
            final = replay_trace(
                scenario.backend(), scenario.theorem, (), result.trace
            )
            assert is_goal_complete(final)
        assert time.monotonic() - start < 120.0


# ======================================================================
# Criterion 7: end-to-end determinism.
# ======================================================================

class TestDeterminismCriterion:
    def test_equal_seeds_reproduce_every_byte(self, tmp_path, capsys):
        for name in ("first", "second"):
            assert main(bench_args(tmp_path / name) + ["--seed", "11"]) == EXIT_OK
        capsys.readouterr()
        first = sorted(os.listdir(tmp_path / "first"))
        second = sorted(os.listdir(tmp_path / "second"))
        assert first == second
        assert any(name.startswith("run-") for name in first)
        for name in first:
            left = (tmp_path / "first" / name).read_bytes()
            right = (tmp_path / "second" / name).read_bytes()
            assert left == right, f"{name} differs between equal-seed runs"


# ======================================================================
# Criterion 8: corpus round-trips.
# ======================================================================

class TestCorpusCriterion:
    def test_entity_corpus_round_trip_is_a_fixpoint(self, tmp_path):
        table_a = TokenTable()
        corpus_a = load_entity_corpus(entities_path(), table_a)
        first = str(tmp_path / "entities-1.jsonl")
        save_entity_corpus(corpus_a, table_a, first)

        table_b = TokenTable()
        corpus_b = load_entity_corpus(first, table_b)
        second = str(tmp_path / "entities-2.jsonl")
        save_entity_corpus(corpus_b, table_b, second)

        assert Path(first).read_bytes() == Path(second).read_bytes()
        assert corpus_b.records == corpus_a.records
        assert corpus_b.tokens == corpus_a.tokens
        assert corpus_b.derived == corpus_a.derived

    def test_proof_corpus_round_trip_is_a_fixpoint(self, tmp_path):
        proofs_a = load_proof_corpus(proofs_path())
        first = str(tmp_path / "proofs-1.jsonl")
        save_proof_corpus(proofs_a, first)

        proofs_b = load_proof_corpus(first)
        second = str(tmp_path / "proofs-2.jsonl")
        save_proof_corpus(proofs_b, second)

        assert Path(first).read_bytes() == Path(second).read_bytes()
        assert proofs_b.proofs == proofs_a.proofs

    def test_worked_proof_has_zero_chain_violations(self):
        proofs = load_proof_corpus(proofs_path())
        index = proofs.by_theorem["Coq.Arith.PeanoNat.Nat.add_0_l"]
        proof = proofs.proofs[index]
        assert validate_proof_chain(proof) == []
        assert proof.is_complete
