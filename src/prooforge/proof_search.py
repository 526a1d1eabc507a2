"""Planner–Executor beam search over proof states.

One search layer expands every kept candidate. An expansion gathers its
context once: the corpus concepts the current state references, a planner
strategy, and the related premises and tactic examples, both ranked from
one embedding of the first goal. The proof-state and concept blocks the
planner and executor prompts share are rendered once per expansion, and
again only after an info request adds concepts; each goal or hypothesis
text is tokenized once per proof. Then up to `max_retries + 1` rounds run:
the executor proposes up to `tactics_per_state` tactics (after at most one
request for more concepts per expansion, resolved through the corpus name
index), each proposal is validated against the live session (the only
operation that consumes budget), and a failed round's errors go back to the
planner for the next one. The validated tactics are then applied. Each gets
one explanation and, unless it proves the theorem, a running summary;
explanations feed the shared notebook at the layer barrier; the beam is cut
back to `beam_width` by model-based ranking (with a deterministic
shortest-proof fallback).

Only the notebook merge, the ranking and a proved trace read explanations
and summaries. So while every gateway call of the proof has waited at least
`OVERLAP_MIN_CALL_S`, those calls go to two FIFO lanes, one worker thread per
role, and the search thread goes on; everything else, prompt rendering
included, stays on the search thread in its sequential order. The replies
are read in branch order when the layer is collected, at the barrier or
before a proof is returned. A role never has two calls in flight, so it sees
its calls in sequential order. With a fast gateway a hand-off costs more than
a call, so calls run inline, in exactly the sequential global order.

The search returns immediately when an applied tactic empties the goal stack,
refreshes the focus with ``idtac`` when a tactic closes a subgoal but goals
remain, reports Failure when a layer expands to nothing, and reports
BudgetExhausted the moment a validation would exceed the budget. A port
failure prunes its branch; the branch's `branch-pruned` event is recorded
when the layer is collected, in branch order.
"""

from __future__ import annotations

import enum
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .core_model import (
    Notebook,
    ProofState,
    SearchCandidate,
    goals_remaining,
    state_fingerprint,
)
from .coq_backend import (
    canonical_tactic,
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
    render_state_context,
    render_summarize_prompt,
)
from .retrieval import PREMISE, TACTIC, RetrievalIndex, retrieve
from .tokenizer import TokenTable

#: Explain and summarize calls overlap only while every gateway call of the
#: proof has taken at least this long; a lane hand-off costs more than that.
OVERLAP_MIN_CALL_S = 0.001

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

    `budget` caps tactic validations across the whole run; left unset it is
    the allowance the search shape gives (`compute_budget`). It normally
    sits at or above `tactics_per_state` (one full expansion); zero is
    allowed so a dry run can demonstrate the exhaustion path. The budget is
    resolved once, at construction, so a shape derived with
    `dataclasses.replace` must pass `budget=None` to get its own allowance;
    otherwise it keeps the resolved budget of the original.
    """

    max_depth: int = 15
    beam_width: int = 3
    max_retries: int = 3
    tactics_per_state: int = 10
    reconsider_factor: int = 2
    budget: Optional[int] = None
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
        if self.budget is None:
            object.__setattr__(self, "budget", compute_budget(self))
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
    the rest degrade gracefully when absent (no concepts, no retrieval).

    One proof may call `gateway.complete` from three threads at once (the
    search thread and the explain and summarize lanes), with at most one
    call in flight per role, so the gateway must be thread-safe."""

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
    """(tactic, state, session, explanation, summary) per child in tactic
    order, replies still to be read; a proving child, always the last, has
    no summary. `error` is a port failure raised during the expansion."""

    parent: SearchCandidate
    children: list = field(default_factory=list)
    proves: bool = False
    error: Optional[Exception] = None


def _text(gateway, prompt: str, role: str) -> str:
    return gateway.complete(ChatRequest.for_role(role, prompt)).text


class _ProofGateway:
    """The gateway as one proof uses it. Every call is timed; `later` uses
    its role's lane while no call has been fast, or while the lane still
    holds a call (which keeps the role's order), and otherwise runs inline."""

    def __init__(self, gateway):
        self._gateway = gateway
        self._waits = True
        self._lanes: dict[str, ThreadPoolExecutor] = {}
        self._last: dict = {}

    def complete(self, request: ChatRequest):
        start = time.perf_counter()
        try:
            return self._gateway.complete(request)
        finally:
            if time.perf_counter() - start < OVERLAP_MIN_CALL_S:
                self._waits = False

    def later(self, prompt: str, role: str) -> Callable[[], str]:
        """Send a call; the callable returned gives its reply or raises."""
        last = self._last.get(role)
        if not self._waits and (last is None or last.done()):
            text = _text(self, prompt, role)
            return lambda: text
        lane = self._lanes.get(role)
        if lane is None:
            lane = self._lanes[role] = ThreadPoolExecutor(1, f"prooforge-{role}")
        self._last[role] = lane.submit(_text, self, prompt, role)
        return self._last[role].result

    def close(self) -> None:
        for lane in self._lanes.values():
            lane.shutdown()


def update_notebook(initial_state, insights, notebook: Notebook, gateway) -> Notebook:
    """Merge new insights into the shared notebook via the gateway; on an
    unusable reply keep the old items and append the newest insights, cut to
    capacity from the oldest end."""
    if not insights:
        return notebook
    prompt = render_notebook_prompt(initial_state, insights, notebook)
    reply = _text(gateway, prompt, "notebook")
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
    reply = _text(gateway, render_rank_prompt(initial_state, triples, beam_width), "rank")
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


def concept_pairs(corpus, table, state: ProofState, memo=None):
    """(token, record) pairs for every corpus concept the state references,
    in token order; empty when either port is absent."""
    if corpus is None or table is None:
        return ()
    pairs = []
    for token in sorted(extract_concepts(corpus, table, state, memo=memo)):
        record = corpus.record_for(token)
        if record is not None:
            pairs.append((token, record))
    return tuple(pairs)


def _lookup_info(ports: SearchPorts, names, have_tokens: set):
    """Resolve requested concept names against the corpus (`by_name`);
    unknown names and already-shown concepts are skipped."""
    if ports.corpus is None:
        return ()
    pairs = []
    for name in names:
        i = ports.corpus.by_name.get(name)
        if i is None:
            continue
        token = ports.corpus.tokens[i]
        if token not in have_tokens:
            have_tokens.add(token)
            pairs.append((token, ports.corpus.records[i]))
    return tuple(pairs)


def _retrieve_context(ports: SearchPorts, state: ProofState):
    if ports.index is None or not state.goals:
        return (), ()
    try:
        ranked = retrieve(ports.index, state.goals[0].goal_internal, k=ports.retrieve_k)
    except ZeroVectorError:
        return (), ()
    return tuple(p for p, _sim in ranked[PREMISE]), tuple(p for p, _sim in ranked[TACTIC])


def _expand_branch(
    branch: _Branch,
    params: SearchParams,
    ports: SearchPorts,
    calls: _ProofGateway,
    notebook: Notebook,
    budget: BudgetCounter,
    depth: int,
    index_in_layer: int,
    token_memo: dict,
) -> _Expansion:
    state = branch.candidate.state
    trace = branch.candidate.trace
    summary = branch.candidate.summary
    recorder = ports.recorder

    concepts = concept_pairs(ports.corpus, ports.table, state, memo=token_memo)
    have_tokens = {token for token, _record in concepts}
    context = render_state_context(state, concepts, ports.config)
    info_used = False

    def plan(errors) -> str:
        prompt = render_planner_prompt(
            context, trace=trace, summary=summary, notes=notebook, errors=errors
        )
        return _text(calls, prompt, "planner")

    strategy = plan(())
    premises, tactic_examples = _retrieve_context(ports, state)

    def ask_executor(strategy_text: str):
        bundle = render_prove_prompt(
            context,
            trace=trace,
            summary=summary,
            premises=premises,
            tactics=tactic_examples,
            notes=notebook,
            hint=strategy_text,
        )
        reply = _text(calls, bundle.rendered, "executor")
        return parse_action_response(reply)

    def executor_round(strategy_text: str) -> list[str]:
        """One executor exchange; resolves at most one info request per
        expansion, after which an info request yields no tactics."""
        nonlocal concepts, context, info_used
        action = ask_executor(strategy_text)
        if isinstance(action, InfoRequest) and not info_used:
            info_used = True
            concepts = concepts + _lookup_info(ports, action.names, have_tokens)
            context = render_state_context(state, concepts, ports.config)
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
            canonical = canonical_tactic(tactic)
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

    for retry in range(params.max_retries + 1):
        if retry:
            strategy = plan(tuple(failed))
        failed = validate_batch(executor_round(strategy))
        if not failed or len(valid) > params.tactics_per_state:
            break

    expansion = _Expansion(branch.candidate)
    for tactic, _validated in valid:
        child = ports.backend.clone_session(branch.session)
        after = ports.backend.apply_tactic(tactic, child)
        if is_subgoal_complete(state, after):
            after = ports.backend.apply_tactic("idtac", child)
        explanation = calls.later(render_explanation_prompt(state, tactic, after), "explain")
        if is_goal_complete(after):
            expansion.children.append((tactic, after, child, explanation, None))
            expansion.proves = True
            break
        new_summary = calls.later(
            render_summarize_prompt(trace + ((tactic, ""),), after), "summarize"
        )
        expansion.children.append((tactic, after, child, explanation, new_summary))
    return expansion


@dataclass
class _Layer:
    """One depth's expansions, read in branch order as they are collected."""

    theorem: str
    depth: int
    recorder: RunRecorder
    pending: list = field(default_factory=list)
    branches: list = field(default_factory=list)
    insights: list = field(default_factory=list)
    port_errors: list = field(default_factory=list)
    dead_end: bool = False

    def collect(self):
        """Read the pending expansions' replies in call order; the first
        failure prunes its branch. Returns the proved trace, if one holds
        (a proving expansion is always the last one pending)."""
        pending, self.pending = self.pending, []
        for idx, expansion in pending:
            branches, insights = [], []
            try:
                if expansion.error is not None:
                    raise expansion.error
                for tactic, after, session, explanation, summary in expansion.children:
                    text = explanation()
                    trace = expansion.parent.trace + ((tactic, text),)
                    if summary is None:
                        return trace
                    candidate = SearchCandidate(state=after, trace=trace, summary=summary())
                    branches.append(_Branch(candidate, session))
                    if text.strip():
                        insights.append(text.strip())
            except (ProviderError, SessionDesync) as exc:
                self.recorder.record(
                    "branch-pruned", depth=self.depth, branch=idx, error=str(exc)
                )
                context = f"theorem {self.theorem!r}, depth {self.depth}, branch {idx}"
                self.port_errors.append(PortFailure(str(exc), context=context))
                continue
            self.dead_end |= not branches
            self.branches.extend(branches)
            self.insights.extend(insights)
        return None


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
    entirely to port failures raises PortFailure with the branch context.
    No lane thread outlives the call."""
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
    token_memo: dict = {}
    depth = 0
    calls = _ProofGateway(ports.gateway)

    try:
        for depth in range(1, params.max_depth + 1):
            collected = _Layer(theorem, depth, recorder)
            for idx, branch in enumerate(layer):
                try:
                    expansion = _expand_branch(
                        branch, params, ports, calls, notebook, budget, depth, idx, token_memo
                    )
                except (ProviderError, SessionDesync) as exc:
                    expansion = _Expansion(branch.candidate, error=exc)
                collected.pending.append((idx, expansion))
                if expansion.proves:
                    proved = collected.collect()
                    if proved is not None:
                        return finish(Outcome.PROVED, depth, proved)
            collected.collect()

            if not collected.branches:
                if collected.port_errors and not collected.dead_end:
                    raise collected.port_errors[-1]
                return finish(Outcome.FAILURE, depth)

            next_branches = _dedupe_branches(collected.branches)
            if collected.insights:
                notebook = update_notebook(
                    initial_state, collected.insights, notebook, calls
                )
                recorder.record("notebook", depth=depth, size=len(notebook.items))
            if len(next_branches) > params.beam_width:
                kept = select_best(
                    initial_state,
                    [branch.candidate for branch in next_branches],
                    params.beam_width,
                    params.selection_mode,
                    calls,
                )
                by_identity = {id(branch.candidate): branch for branch in next_branches}
                next_branches = [by_identity[id(candidate)] for candidate in kept]
            recorder.record(
                "layer", depth=depth, width=len(next_branches), evaluations=budget.used
            )
            layer = next_branches
    except _Exhausted:
        collected.collect()
        return finish(Outcome.BUDGET_EXHAUSTED, depth)
    finally:
        calls.close()
    return finish(Outcome.FAILURE, depth)
