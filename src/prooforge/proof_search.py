"""Planner–Executor beam search over proof states.

One search layer expands every kept candidate: concept extraction on the
current state, a planner strategy, premise/tactic retrieval, an executor
round proposing up to `tactics_per_state` tactics, validation of each
proposal against the live session (the only operation that consumes budget),
an error-reflection retry loop, and application of the validated tactics.
Applied tactics get an explanation and a running summary; explanations feed
the shared notebook at the layer barrier; the beam is cut back to `beam_width`
by model-based ranking (with a deterministic shortest-proof fallback).

The search returns immediately when an applied tactic empties the goal stack,
refreshes the focus with ``idtac`` when a tactic closes a subgoal but goals
remain, reports Failure when a layer expands to nothing, and reports
BudgetExhausted the moment a validation would exceed the budget.
"""

from __future__ import annotations

import enum
import re
import threading
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .core_model import (
    Notebook,
    ProofState,
    SearchCandidate,
    goals_remaining,
    state_fingerprint,
)
from .coq_backend import (
    is_goal_complete,
    is_subgoal_complete,
    truncate_error,
)
from .corpus import EntityCorpus, extract_concepts
from .errors import PortFailure, ProviderError, SessionDesync, ZeroVectorError
from .llm_gateway import (
    ChatRequest,
    InfoRequest,
    TacticSuggestions,
    parse_action_response,
    parse_int_array,
    parse_string_array,
)
from .prompt_builder import (
    InfoConfiguration,
    render_explanation_prompt,
    render_notebook_prompt,
    render_planner_prompt,
    render_prove_prompt,
    render_rank_prompt,
    render_summarize_prompt,
)
from .retrieval import PREMISE, TACTIC, RetrievalIndex, retrieve
from .tokenizer import TokenTable

PLANNER_TEMPERATURE = 0.7
EXECUTOR_TEMPERATURE = 0.7
RANK_TEMPERATURE = 0.0
EXPLAIN_TEMPERATURE = 0.7
SUMMARY_TEMPERATURE = 0.7
NOTEBOOK_TEMPERATURE = 0.7

_SCORE_RE = re.compile(r"score\s*[:=]\s*([0-9]*\.?[0-9]+)", re.IGNORECASE)


class SelectionMode(enum.Enum):
    MODEL_BASED = "ModelBased"
    SHORTEST_PROOF = "ShortestProof"


class Outcome(enum.Enum):
    PROVED = "Proved"
    FAILURE = "Failure"
    BUDGET_EXHAUSTED = "BudgetExhausted"


@dataclass(frozen=True)
class SearchParams:
    """Search-shape knobs; the defaults reproduce the standard setup.

    `budget` caps tactic validations across the whole run. It normally sits
    at or above `tactics_per_state` (one full expansion); zero is allowed so
    a dry run can demonstrate the exhaustion path.
    """

    max_depth: int = 15
    beam_width: int = 3
    max_retries: int = 3
    tactics_per_state: int = 10
    reconsider_factor: int = 2
    budget: int = 860
    selection_mode: SelectionMode = SelectionMode.MODEL_BASED

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be positive")
        if self.beam_width < 1:
            raise ValueError("beam_width must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.tactics_per_state < 1:
            raise ValueError("tactics_per_state must be positive")
        if self.reconsider_factor < 1:
            raise ValueError("reconsider_factor must be positive")
        if self.budget < 0:
            raise ValueError("budget must be non-negative")


def compute_budget(params: SearchParams) -> int:
    """Total validation allowance: the first layer holds one state, every
    later layer at most `beam_width`, and each state may burn
    `tactics_per_state * reconsider_factor` validations."""
    per_state = params.tactics_per_state * params.reconsider_factor
    return per_state + (params.max_depth - 1) * params.beam_width * per_state


@dataclass(frozen=True)
class ProofResult:
    outcome: Outcome
    trace: tuple[tuple[str, str], ...] = ()
    tactic_evaluations_used: int = 0
    depth_reached: int = 0

    def __post_init__(self):
        if self.tactic_evaluations_used < 0 or self.depth_reached < 0:
            raise ValueError("counters must be non-negative")
        if self.outcome is not Outcome.PROVED and self.trace:
            raise ValueError("only a proved result carries a trace")


class RunRecorder:
    """Accumulates structured run events for the run log."""

    def __init__(self):
        self.events: list[dict] = []
        self._lock = threading.Lock()

    def record(self, kind: str, **data) -> None:
        event = {"event": kind}
        event.update(data)
        with self._lock:
            self.events.append(event)


class _Exhausted(Exception):
    """Internal control flow: the budget ran out mid-expansion."""


class BudgetCounter:
    """Synchronized monotone counter; spending past the limit raises."""

    def __init__(self, limit: int):
        if limit < 0:
            raise ValueError("budget limit must be non-negative")
        self.limit = limit
        self.used = 0
        self._lock = threading.Lock()

    def spend(self) -> None:
        with self._lock:
            if self.used >= self.limit:
                raise _Exhausted()
            self.used += 1


@dataclass
class SearchPorts:
    """Everything the search talks to. `backend` and `gateway` are required;
    the rest degrade gracefully when absent (no concepts, no retrieval)."""

    backend: object
    gateway: object
    index: Optional[RetrievalIndex] = None
    corpus: Optional[EntityCorpus] = None
    table: Optional[TokenTable] = None
    config: InfoConfiguration = InfoConfiguration.COMPLETE
    requires: tuple[str, ...] = ()
    retrieve_k: int = 5
    recorder: RunRecorder = field(default_factory=RunRecorder)


@dataclass
class _Branch:
    candidate: SearchCandidate
    session: object


@dataclass
class _Expansion:
    branches: list
    insights: list
    proved: Optional[tuple[tuple[str, str], ...]] = None


def _text(gateway, prompt: str, temperature: float, role: str) -> str:
    request = ChatRequest.user(prompt, temperature=temperature, role=role)
    return gateway.complete(request).text


def parse_quality_score(reply: str, default: float = 0.5) -> float:
    """Extract a `score: <value>` line; clamp to [0, 1]; default otherwise."""
    match = _SCORE_RE.search(reply)
    if not match:
        return default
    try:
        value = float(match.group(1))
    except ValueError:
        return default
    return min(1.0, max(0.0, value))


def explain_and_summarize(before, tactic, after, trace, gateway):
    """Explanation of one applied tactic plus a refreshed trace summary.

    Returns (explanation, summary, score) where `score` is the state quality
    in [0, 1] parsed from the summary reply (0.5 when absent)."""
    explanation = _text(
        gateway,
        render_explanation_prompt(before, tactic, after),
        EXPLAIN_TEMPERATURE,
        "explain",
    )
    summary = _text(
        gateway, render_summarize_prompt(trace, after), SUMMARY_TEMPERATURE, "summarize"
    )
    return explanation, summary, parse_quality_score(summary)


def update_notebook(initial_state, insights, notebook: Notebook, gateway) -> Notebook:
    """Merge new insights into the shared notebook via the gateway; on an
    unusable reply keep the old items and append the newest insights, cut to
    capacity from the oldest end."""
    if not insights:
        return notebook
    prompt = render_notebook_prompt(initial_state, insights, notebook)
    reply = _text(gateway, prompt, NOTEBOOK_TEMPERATURE, "notebook")
    merged = parse_string_array(reply)
    if merged is None:
        combined = notebook.items + tuple(insights)
        return Notebook(items=combined[-notebook.capacity:], capacity=notebook.capacity)
    return Notebook(items=tuple(merged[: notebook.capacity]), capacity=notebook.capacity)


def _shortest_proof_order(candidates: Sequence[SearchCandidate]):
    return sorted(
        candidates,
        key=lambda c: (
            goals_remaining(c.state),
            len(c.trace),
            state_fingerprint(c.state),
        ),
    )


def select_best(initial_state, candidates, beam_width: int, mode: SelectionMode, gateway):
    """Cut the layer to `beam_width` candidates.

    ModelBased asks the gateway to rank candidate ids against the initial
    goal; ids missing from the reply are backfilled in shortest-proof order,
    and an unusable reply falls back to shortest-proof entirely."""
    candidates = list(candidates)
    if not candidates:
        raise ValueError("select_best requires candidates")
    if len(candidates) <= beam_width:
        return candidates
    if mode is SelectionMode.SHORTEST_PROOF:
        return _shortest_proof_order(candidates)[:beam_width]

    triples = []
    for i, candidate in enumerate(candidates):
        goals_text = " ; ".join(g.goal_internal for g in candidate.state.goals)
        triples.append((i, goals_text or "no goals remaining", candidate.summary))
    reply = _text(
        gateway,
        render_rank_prompt(initial_state, triples, beam_width),
        RANK_TEMPERATURE,
        "rank",
    )
    ranked = parse_int_array(reply)
    if ranked is None:
        return _shortest_proof_order(candidates)[:beam_width]
    chosen = []
    seen = set()
    for idx in ranked:
        if 0 <= idx < len(candidates) and idx not in seen:
            seen.add(idx)
            chosen.append(candidates[idx])
        if len(chosen) == beam_width:
            return chosen
    for candidate in _shortest_proof_order(candidates):
        if len(chosen) == beam_width:
            break
        if not any(candidate is c for c in chosen):
            chosen.append(candidate)
    return chosen


def concept_pairs(corpus, table, state: ProofState, depth: int = 1):
    """(token, record) pairs for every corpus concept the state references,
    in token order; empty when either port is absent."""
    if corpus is None or table is None:
        return ()
    concept_set = extract_concepts(corpus, table, state, depth=depth)
    pairs = []
    for token in sorted(concept_set.tokens):
        record = corpus.record_for(token)
        if record is not None:
            pairs.append((token, record))
    return tuple(pairs)


def _lookup_info(ports: SearchPorts, names, have_tokens: set):
    """Resolve requested concept names against the corpus; unknown names and
    already-shown concepts are skipped."""
    if ports.corpus is None:
        return ()
    pairs = []
    for name in names:
        for i, record in enumerate(ports.corpus.records):
            matches = (
                record.name == name
                or record.kernel_name == name
                or record.name.rsplit(".", 1)[-1] == name
            )
            if matches:
                token = ports.corpus.tokens[i]
                if token not in have_tokens:
                    have_tokens.add(token)
                    pairs.append((token, record))
                break
    return tuple(pairs)


def _retrieve_context(ports: SearchPorts, state: ProofState):
    if ports.index is None or not state.goals:
        return (), ()
    query = state.goals[0].goal_internal
    try:
        premises = tuple(
            payload for payload, _sim in retrieve(ports.index, query, k=ports.retrieve_k, kind=PREMISE)
        )
        tactic_examples = tuple(
            payload for payload, _sim in retrieve(ports.index, query, k=ports.retrieve_k, kind=TACTIC)
        )
    except ZeroVectorError:
        return (), ()
    return premises, tactic_examples


def _expand_branch(
    branch: _Branch,
    params: SearchParams,
    ports: SearchPorts,
    notebook: Notebook,
    budget: BudgetCounter,
    depth: int,
    index_in_layer: int,
) -> _Expansion:
    state = branch.candidate.state
    trace = branch.candidate.trace
    summary = branch.candidate.summary
    recorder = ports.recorder

    concepts = concept_pairs(ports.corpus, ports.table, state)
    have_tokens = {token for token, _record in concepts}
    info_used = False

    strategy = _text(
        ports.gateway,
        render_planner_prompt(
            state, concepts, trace, summary, notebook, errors=(), config=ports.config
        ),
        PLANNER_TEMPERATURE,
        "planner",
    )
    premises, tactic_examples = _retrieve_context(ports, state)

    def ask_executor(strategy_text: str):
        bundle = render_prove_prompt(
            state,
            concepts=concepts,
            trace=trace,
            summary=summary,
            premises=premises,
            tactics=tactic_examples,
            notes=notebook,
            hint=strategy_text,
            config=ports.config,
        )
        reply = _text(ports.gateway, bundle.rendered, EXECUTOR_TEMPERATURE, "executor")
        return parse_action_response(reply)

    def executor_round(strategy_text: str) -> list[str]:
        """One executor exchange; resolves at most one info request per
        expansion, after which an info request yields no tactics."""
        nonlocal concepts, info_used
        action = ask_executor(strategy_text)
        if isinstance(action, InfoRequest) and not info_used:
            info_used = True
            concepts = concepts + _lookup_info(ports, action.names, have_tokens)
            recorder.record(
                "info", depth=depth, branch=index_in_layer, names=list(action.names)
            )
            action = ask_executor(strategy_text)
        if isinstance(action, TacticSuggestions):
            return [suggestion.tactic for suggestion in action.items]
        return []

    valid: list[tuple[str, ProofState]] = []
    seen: set[str] = set()

    def validate_batch(tactics: list[str]) -> list[tuple[str, str]]:
        failed = []
        for tactic in tactics[: params.tactics_per_state]:
            canonical = tactic.strip().rstrip(".")
            if not canonical or canonical in seen:
                continue
            seen.add(canonical)
            budget.spend()
            result = ports.backend.compile_tactic(canonical, state, branch.session)
            recorder.record(
                "tactic",
                depth=depth,
                branch=index_in_layer,
                tactic=canonical,
                ok=result.success,
                error=result.error,
            )
            if result.success:
                valid.append((canonical, result.state))
            else:
                failed.append((canonical, truncate_error(result.error)))
        return failed

    failed = validate_batch(executor_round(strategy))
    retry = 0
    while retry < params.max_retries and failed and len(valid) <= params.tactics_per_state:
        retry += 1
        errors = tuple(failed)
        strategy = _text(
            ports.gateway,
            render_planner_prompt(
                state, concepts, trace, summary, notebook, errors=errors, config=ports.config
            ),
            PLANNER_TEMPERATURE,
            "planner",
        )
        failed = validate_batch(executor_round(strategy))

    branches: list[_Branch] = []
    insights: list[str] = []
    for tactic, _validated in valid:
        child = ports.backend.clone_session(branch.session)
        after = ports.backend.apply_tactic(tactic, child)
        if is_goal_complete(after):
            explanation = _text(
                ports.gateway,
                render_explanation_prompt(state, tactic, after),
                EXPLAIN_TEMPERATURE,
                "explain",
            )
            return _Expansion([], [], proved=trace + ((tactic, explanation),))
        if is_subgoal_complete(state, after):
            after = ports.backend.apply_tactic("idtac", child)
        explanation, new_summary, score = explain_and_summarize(
            state, tactic, after, trace + ((tactic, ""),), ports.gateway
        )
        candidate = SearchCandidate(
            state=after,
            trace=trace + ((tactic, explanation),),
            summary=new_summary,
            score=score,
        )
        branches.append(_Branch(candidate, child))
        if explanation.strip():
            insights.append(explanation.strip())
    return _Expansion(branches, insights)


def _dedupe_branches(branches: list[_Branch]) -> list[_Branch]:
    """Within a layer, keep one branch per state fingerprint — the one with
    the shorter trace (earlier arrival wins ties)."""
    best: dict[str, _Branch] = {}
    order: list[str] = []
    for branch in branches:
        fp = state_fingerprint(branch.candidate.state)
        kept = best.get(fp)
        if kept is None:
            best[fp] = branch
            order.append(fp)
        elif len(branch.candidate.trace) < len(kept.candidate.trace):
            best[fp] = branch
    return [best[fp] for fp in order]


def prove(theorem: str, params: SearchParams, ports: SearchPorts) -> ProofResult:
    """Run the full search on one theorem. See the module docstring for the
    layer anatomy. Branch-level port failures prune the branch; a layer lost
    entirely to port failures raises PortFailure with the branch context."""
    recorder = ports.recorder
    recorder.record(
        "start",
        theorem=theorem,
        max_depth=params.max_depth,
        beam_width=params.beam_width,
        budget=params.budget,
    )
    budget = BudgetCounter(params.budget)

    def finish(outcome: Outcome, depth: int, trace=()) -> ProofResult:
        recorder.record(
            "result", outcome=outcome.value, depth=depth, evaluations=budget.used
        )
        return ProofResult(outcome, trace, budget.used, depth)

    try:
        root_session = ports.backend.start_session(theorem, ports.requires)
    except SessionDesync as exc:
        raise PortFailure(
            f"theorem does not compile: {truncate_error(str(exc))}",
            context=f"theorem {theorem!r}",
        ) from exc
    initial_state = root_session.state
    if is_goal_complete(initial_state):
        return finish(Outcome.PROVED, 0)
    layer = [_Branch(SearchCandidate(state=initial_state), root_session)]
    notebook = Notebook()
    depth = 0

    try:
        for depth in range(1, params.max_depth + 1):
            next_branches: list[_Branch] = []
            insights: list[str] = []
            port_errors: list[PortFailure] = []
            model_dead_end = False
            for idx, branch in enumerate(layer):
                context = f"theorem {theorem!r}, depth {depth}, branch {idx}"
                try:
                    expansion = _expand_branch(
                        branch, params, ports, notebook, budget, depth, idx
                    )
                except _Exhausted:
                    raise
                except (ProviderError, SessionDesync) as exc:
                    recorder.record(
                        "branch-pruned", depth=depth, branch=idx, error=str(exc)
                    )
                    port_errors.append(PortFailure(str(exc), context=context))
                    continue
                if expansion.proved is not None:
                    return finish(Outcome.PROVED, depth, expansion.proved)
                if not expansion.branches:
                    model_dead_end = True
                next_branches.extend(expansion.branches)
                insights.extend(expansion.insights)

            if not next_branches:
                if port_errors and not model_dead_end:
                    raise port_errors[-1]
                return finish(Outcome.FAILURE, depth)

            next_branches = _dedupe_branches(next_branches)
            if insights:
                notebook = update_notebook(
                    initial_state, insights, notebook, ports.gateway
                )
                recorder.record("notebook", depth=depth, size=len(notebook.items))
            if len(next_branches) > params.beam_width:
                kept = select_best(
                    initial_state,
                    [branch.candidate for branch in next_branches],
                    params.beam_width,
                    params.selection_mode,
                    ports.gateway,
                )
                by_identity = {id(branch.candidate): branch for branch in next_branches}
                next_branches = [by_identity[id(candidate)] for candidate in kept]
            recorder.record(
                "layer", depth=depth, width=len(next_branches), evaluations=budget.used
            )
            layer = next_branches
    except _Exhausted:
        return finish(Outcome.BUDGET_EXHAUSTED, depth)
    return finish(Outcome.FAILURE, depth)
