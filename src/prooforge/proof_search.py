"""Planner–Executor beam search over proof states.

One search layer expands every kept candidate. An `_Expansion` runs one
branch through its phases: `render_context` renders the proof-state and
concept blocks both prompts share; `plan` asks the planner for a strategy;
`retrieve` ranks related premises and tactic examples from one embedding of
the first goal. Then up to `max_retries + 1` rounds run: `execute` asks for
up to `tactics_per_state` tactics (resolving at most one request for more
concepts per expansion through the corpus name index, which renders the
context anew); `validate` checks each against the live session (the only
operation that consumes budget); a failed round's errors go back to `plan`.
As each tactic validates, `make_child` clones the branch session, applies
the tactic and sends the child's explain call and, unless it proves the
theorem, its summarize call; after a proving child none is made, but the
rounds run on. The prompt bodies before the failed tactics and the hint are
rendered once per context and kept on the expansion. What every expansion
of a proof shares is kept in its `_ProofScope`, for that proof only: the
ports, gateway and budget, the open sessions, the global tokens of each
goal or hypothesis text, the glob-def chunk of each concept, and the ranked
premises and tactic examples of each first-goal text (a goal that embeds to
zero gets none; a provider failure is not kept). Explanations feed the
shared notebook at the layer barrier; the beam is cut back to `beam_width`
by model-based ranking (with a deterministic shortest-proof fallback).

Only the notebook merge, the ranking and a proved trace read explanations
and summaries. So while every gateway call of the proof has waited at least
`OVERLAP_MIN_CALL_S`, those calls go to two FIFO lanes, one worker thread per
role, as their children are made, and the search thread goes on: they
overlap the branch's remaining validations and rounds and the later
branches. The replies are read in branch order when the layer is collected,
at the barrier or before a proof is returned. Neither role ever has two
calls in flight, so each sees its calls in sequential order. With a fast
gateway a hand-off costs more than a call, so the calls are queued and sent
inline once the expansion's rounds end, in exactly the sequential global
order; an expansion that raises first drops its queue. On lanes, an
expansion that loses a later round (a provider failure, or the budget
running out) has already sent its earlier children's calls; those calls are
made and their replies are never read.

On lanes, the next branch's first round also runs ahead. When a branch
starts a retry round, the next expansion of the layer runs its phases
before the first validation (`render_context`, `plan`, `retrieve` and round
1's `execute` with its info request) on one prefetch worker thread,
alongside the retry round, provided the sequential search must reach that
branch unless this one proves or a run-scoped error ends the proof: this
branch has not proved, and the budget left covers every validation of its
rounds to come. Those phases touch neither the backend nor the budget and
record nothing: an expansion keeps its info request, which the search
thread records when it validates the round or when the expansion raises,
and the search thread raises what the worker raised when it takes the
round. Everything else (validation, the budget, the sessions, the events,
the other prompts) stays on the search thread in its sequential order. So
planner and executor calls of two expansions may be in flight at once;
every call an expansion makes carries its `(depth, branch)` as the
request's `site`, which a scripted gateway can key its replies to. A branch that proves in a retry round wastes the next
branch's first round: one planner call and one or two executor calls whose
replies are never read.

The search returns immediately when an applied tactic empties the goal stack,
reports Failure when a layer expands to nothing, and reports BudgetExhausted
the moment a validation would exceed the budget.

A `ProviderError` or `SessionDesync` is branch-scoped: it prunes its branch,
whether the expansion raised it or a reply read at the barrier did, and the
branch's `branch-pruned` event is recorded when the layer is collected, in
branch order. A child's `SessionDesync` is held: no further child is made,
the rounds and the queued calls run as they would, and then it is raised.
The notebook and rank calls belong to no branch: a `ProviderError` there
reads as an unusable reply, so the notebook keeps its items and appends the
layer's insights, and the beam is cut in shortest-proof order.
Run-scoped are a `PortFailure`, raised when the theorem does not compile or
a whole layer is lost to branch-scoped failures, and any other exception;
they end the proof.

Every backend session the search opens is closed: a branch's once its
expansion is done, a child's once dedupe, the beam cut or a pruned expansion
drops it (an expansion that raises closes its children at once; one pruned
at the barrier, before the next layer validates anything), and all the rest
when the proof returns or raises.
"""

from __future__ import annotations

import enum
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .core_model import Notebook, ProofState, SearchCandidate, state_fingerprint
from .coq_backend import canonical_tactic, truncate_error
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
        event = {"event": kind, **data}
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

    One proof may call `gateway.complete` from four threads at once (the
    search thread, the explain and summarize lanes and the prefetch
    worker), so the gateway must be thread-safe. The explain and summarize
    roles have at most one call in flight; the planner and executor, on
    lanes, up to two, of two expansions."""

    backend: object
    gateway: object
    index: Optional[RetrievalIndex] = None
    corpus: Optional[EntityCorpus] = None
    table: Optional[TokenTable] = None
    config: InfoConfiguration = InfoConfiguration.COMPLETE
    requires: tuple[str, ...] = ()
    retrieve_k: int = 5
    recorder: RunRecorder = field(default_factory=RunRecorder)

    def __post_init__(self):
        if self.retrieve_k < 0:
            raise ValueError("retrieve_k must be non-negative")


@dataclass
class _Branch:
    candidate: SearchCandidate
    session: object


def _text(gateway, prompt: str, role: str, site=None) -> str:
    return gateway.complete(ChatRequest.for_role(role, prompt, site)).text


class _ProofGateway:
    """The gateway as one proof uses it. Every call is timed; `waits` holds
    while no call has been fast. `later` uses its role's lane while `waits`
    holds, or while the lane still holds a call (which keeps the role's
    order), and otherwise queues the call on `inline` for `send`. `ahead`
    runs a function on the prefetch worker."""

    def __init__(self, gateway):
        self._gateway = gateway
        self.waits = True
        self._lanes: dict[str, ThreadPoolExecutor] = {}
        self._last: dict = {}

    def complete(self, request: ChatRequest):
        start = time.perf_counter()
        try:
            return self._gateway.complete(request)
        finally:
            if time.perf_counter() - start < OVERLAP_MIN_CALL_S:
                self.waits = False

    def _lane(self, name: str) -> ThreadPoolExecutor:
        lane = self._lanes.get(name)
        if lane is None:
            lane = self._lanes[name] = ThreadPoolExecutor(1, f"prooforge-{name}")
        return lane

    def later(self, prompt: str, role: str, site, inline: list) -> Callable[[], str]:
        """Send a call, or queue it on `inline`; the callable returned gives
        its reply or raises."""
        last = self._last.get(role)
        if not self.waits and (last is None or last.done()):
            reply: list = []
            inline.append((reply, prompt, role, site))
            return lambda: reply[0]
        self._last[role] = self._lane(role).submit(_text, self, prompt, role, site)
        return self._last[role].result

    def ahead(self, fn, *args) -> Future:
        return self._lane("prefetch").submit(fn, *args)

    def send(self, inline: list) -> None:
        """Make the queued calls in order, on this thread; the first failure
        raises and leaves the rest unsent."""
        for reply, prompt, role, site in inline:
            reply.append(_text(self, prompt, role, site))

    def close(self) -> None:
        for lane in self._lanes.values():
            lane.shutdown()


def update_notebook(initial_state, insights, notebook: Notebook, gateway) -> Notebook:
    """Merge new insights into the shared notebook via the gateway; on an
    unusable reply or a provider failure keep the old items and append the
    newest insights, cut to capacity from the oldest end."""
    if not insights:
        return notebook
    prompt = render_notebook_prompt(initial_state, insights, notebook)
    try:
        merged = parse_string_array(_text(gateway, prompt, "notebook"))
    except ProviderError:
        merged = None
    if merged is None:
        combined = notebook.items + tuple(insights)
        return Notebook(items=combined[-notebook.capacity:], capacity=notebook.capacity)
    return Notebook(items=tuple(merged[: notebook.capacity]), capacity=notebook.capacity)


def _shortest_proof_order(candidates: Sequence[SearchCandidate]):
    return sorted(
        candidates,
        key=lambda c: (
            len(c.state.goals),
            len(c.trace),
            state_fingerprint(c.state),
        ),
    )


def select_best(initial_state, candidates, beam_width: int, mode: SelectionMode, gateway):
    """Cut the layer to `beam_width` candidates.

    ModelBased asks the gateway to rank candidate ids against the initial
    goal; ids missing from the reply are backfilled in shortest-proof order,
    and an unusable reply or a provider failure falls back to shortest-proof
    entirely."""
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
    try:
        ranked = parse_int_array(
            _text(gateway, render_rank_prompt(initial_state, triples, beam_width), "rank")
        )
    except ProviderError:
        ranked = None
    if ranked is None:
        return _shortest_proof_order(candidates)[:beam_width]
    chosen = [candidates[i] for i in dict.fromkeys(ranked) if 0 <= i < len(candidates)]
    chosen = chosen[:beam_width]
    if len(chosen) < beam_width:
        taken = {id(candidate) for candidate in chosen}
        rest = [c for c in _shortest_proof_order(candidates) if id(c) not in taken]
        chosen += rest[: beam_width - len(chosen)]
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


def _lookup_info(corpus, names, concepts):
    """Resolve requested concept names against the corpus (`by_name`);
    unknown names and concepts already in `concepts` are skipped."""
    if corpus is None:
        return ()
    have = {token for token, _record in concepts}
    pairs = []
    for name in names:
        i = corpus.by_name.get(name)
        if i is None:
            continue
        token = corpus.tokens[i]
        if token not in have:
            have.add(token)
            pairs.append((token, corpus.records[i]))
    return tuple(pairs)


class _ProofScope:
    """What every expansion of one proof shares and nothing outlives: the
    ports, search shape, timed gateway (`calls`), budget, the per-proof memos
    (see the module docstring) and the backend sessions still open.

    Each memo maps a key to a pure function of it, so the prefetch worker
    and the search thread filling one at once is benign: both store the
    same value."""

    def __init__(self, params: SearchParams, ports: SearchPorts):
        self.params = params
        self.ports = ports
        self.backend = ports.backend
        self.calls = _ProofGateway(ports.gateway)
        self.budget = BudgetCounter(params.budget)
        self.tokens: dict = {}
        self.chunks: dict = {}
        self.retrieved: dict = {}
        self._open: dict = {}

    def opened(self, session):
        self._open[id(session)] = session
        return session

    def clone(self, session):
        return self.opened(self.backend.clone_session(session))

    def close(self, session) -> None:
        if self._open.pop(id(session), None) is not None:
            self.backend.close_session(session)

    def close_all_but(self, branches) -> None:
        """Close every open session no branch in `branches` holds."""
        keep = {id(branch.session) for branch in branches}
        for key, session in list(self._open.items()):
            if key not in keep:
                del self._open[key]
                self.backend.close_session(session)


@dataclass(eq=False)
class _Expansion:
    """One branch's expansion at one depth, one method per phase, driven by
    `run`. `after` is the next expansion of the layer; `ahead` is the future
    of its own first round while that runs on the prefetch worker.
    `children` holds (tactic, state, session, explanation, summary) per
    child in tactic order, replies still to be read; a proving child, always
    the last, has no summary. `error` is a branch-scoped failure the
    expansion raised; it then has no children."""

    scope: _ProofScope
    branch: _Branch
    depth: int
    idx: int
    notebook: Notebook
    after: Optional["_Expansion"] = None
    ahead: Optional[Future] = None
    concepts: tuple = ()
    context: object = None
    bodies: dict = field(default_factory=dict)  # the planner and prove prompt bodies of `context`
    info_used: bool = False
    info: Optional[list] = None  # the names of the info request, until recorded
    premises: tuple = ()
    tactic_examples: tuple = ()
    seen: set = field(default_factory=set)  # canonical tactics already validated
    valid: int = 0
    inline: list = field(default_factory=list)  # calls to send once the rounds end
    opened: list = field(default_factory=list)  # child sessions, closed if the expansion raises
    children: list = field(default_factory=list)
    proves: bool = False
    held: Optional[SessionDesync] = None
    error: Optional[Exception] = None
    site: tuple = field(init=False)  # (depth, idx), carried by every call the expansion makes

    def __post_init__(self):
        self.site = (self.depth, self.idx)

    def run(self) -> None:
        """Run the first round, or take it from the prefetch worker; then up
        to `max_retries` more rounds plan again from the errors, execute and
        validate; then send the queued calls and raise a held desync.
        Whatever raises closes the children made so far; a branch-scoped
        failure is kept as `error`. The branch's session is closed when the
        run ends."""
        scope, params = self.scope, self.scope.params
        try:
            failed = self.validate(self.first_round() if self.ahead is None else self.ahead.result())
            for retry in range(1, params.max_retries + 1):
                if not failed or self.valid > params.tactics_per_state:
                    break
                self.prefetch_next(retry)
                failed = self.validate(self.execute(self.plan(tuple(failed))))
            scope.calls.send(self.inline)
            if self.held is not None:
                raise self.held
        except BaseException as exc:
            self.record_info()
            for child in self.opened:
                scope.close(child)
            self.children, self.proves = [], False
            if not isinstance(exc, (ProviderError, SessionDesync)):
                raise
            self.error = exc
        finally:
            scope.close(self.branch.session)

    def first_round(self) -> list[str]:
        """The phases before the first validation: render the context, plan,
        retrieve, and execute round 1. They touch neither the backend nor the
        budget, and record nothing."""
        scope = self.scope
        ports = scope.ports
        state = self.branch.candidate.state
        self.render_context(concept_pairs(ports.corpus, ports.table, state, memo=scope.tokens))
        strategy = self.plan(())
        self.retrieve()
        return self.execute(strategy)

    def prefetch_next(self, retry: int) -> None:
        """Before retry round `retry`, start the next expansion's first round
        on the prefetch worker, once, if the gateway's calls wait and the
        sequential search must reach that expansion unless this one proves
        or a run-scoped error ends the proof: this branch has not proved,
        and the budget left covers every validation of this round and the
        rounds after it, so it cannot run out before the next branch."""
        after, scope = self.after, self.scope
        budget, params = scope.budget, scope.params
        if (
            after is None or after.ahead is not None or self.proves or not scope.calls.waits
            or budget.limit - budget.used < (params.max_retries + 1 - retry) * params.tactics_per_state
        ):
            return
        after.ahead = scope.calls.ahead(after.first_round)

    def record_info(self) -> None:
        """Record the info request `execute` kept, once, on the search thread."""
        if self.info is not None:
            self.scope.ports.recorder.record(
                "info", depth=self.depth, branch=self.idx, names=self.info
            )
            self.info = None

    def render_context(self, concepts) -> None:
        """Render the state context that shows `concepts`; the prompt bodies
        of the old context go with it."""
        self.concepts = concepts
        self.context = render_state_context(
            self.branch.candidate.state, concepts, self.scope.ports.config, memo=self.scope.chunks
        )
        self.bodies = {}

    def plan(self, errors) -> str:
        candidate = self.branch.candidate
        prompt = render_planner_prompt(
            self.context, trace=candidate.trace, summary=candidate.summary,
            notes=self.notebook, errors=errors, memo=self.bodies,
        )
        return _text(self.scope.calls, prompt, "planner", self.site)

    def retrieve(self) -> None:
        """Premises and tactic examples ranked for the first goal, embedded
        and ranked only the first time the proof sees its text. A goal that
        embeds to zero gets none; a provider failure is not kept, so the
        next expansion asks again."""
        ports, memo = self.scope.ports, self.scope.retrieved
        goals = self.branch.candidate.state.goals
        if ports.index is None or not goals:
            return
        goal = goals[0].goal_internal
        found = memo.get(goal)
        if found is None:
            try:
                ranked = retrieve(ports.index, goal, k=ports.retrieve_k)
            except ZeroVectorError:
                found = (), ()
            else:
                found = tuple(tuple(p for p, _sim in ranked[kind]) for kind in (PREMISE, TACTIC))
            memo[goal] = found
        self.premises, self.tactic_examples = found

    def execute(self, hint: str) -> list[str]:
        """One executor round. The expansion's first info request adds the
        named concepts to the context, is kept as `info` for the search
        thread to record, and asks again; a later one yields no tactics."""
        action = self._ask(hint)
        if isinstance(action, InfoRequest) and not self.info_used:
            self.info_used = True
            ports = self.scope.ports
            self.render_context(
                self.concepts + _lookup_info(ports.corpus, action.names, self.concepts)
            )
            self.info = list(action.names)
            action = self._ask(hint)
        if isinstance(action, TacticSuggestions):
            return [suggestion.tactic for suggestion in action.items]
        return []

    def _ask(self, hint: str):
        candidate = self.branch.candidate
        bundle = render_prove_prompt(
            self.context, trace=candidate.trace, summary=candidate.summary,
            premises=self.premises, tactics=self.tactic_examples, notes=self.notebook,
            hint=hint, memo=self.bodies,
        )
        return parse_action_response(_text(self.scope.calls, bundle.rendered, "executor", self.site))

    def validate(self, tactics: list[str]) -> list[tuple[str, str]]:
        """Validate the first `tactics_per_state` new canonical tactics,
        making each valid one's child; returns the failed ones' errors."""
        self.record_info()
        scope, state, session = self.scope, self.branch.candidate.state, self.branch.session
        recorder = scope.ports.recorder
        failed = []
        for tactic in tactics[: scope.params.tactics_per_state]:
            canonical = canonical_tactic(tactic)
            if not canonical or canonical in self.seen:
                continue
            self.seen.add(canonical)
            scope.budget.spend()
            result = scope.backend.compile_tactic(canonical, state, session)
            recorder.record(
                "tactic", depth=self.depth, branch=self.idx, tactic=canonical,
                ok=result.success, error=result.error,
            )
            if result.success:
                self.valid += 1
                self.make_child(canonical)
            else:
                failed.append((canonical, truncate_error(result.error)))
        return failed

    def make_child(self, tactic: str) -> None:
        """Clone the branch session, apply a validated tactic, and send the
        child's explain call and, unless it proves the theorem, its summarize
        call. After a proving child or a held desync, make none."""
        if self.proves or self.held is not None:
            return
        scope, state = self.scope, self.branch.candidate.state
        try:
            child = scope.clone(self.branch.session)
            self.opened.append(child)
            after = scope.backend.apply_tactic(tactic, child)
        except SessionDesync as exc:
            self.held = exc
            return
        explanation = scope.calls.later(
            render_explanation_prompt(state, tactic, after), "explain", self.site, self.inline
        )
        summary = None
        if after.is_complete:
            self.proves = True
        else:
            trace = self.branch.candidate.trace + ((tactic, ""),)
            summary = scope.calls.later(
                render_summarize_prompt(trace, after), "summarize", self.site, self.inline
            )
        self.children.append((tactic, after, child, explanation, summary))


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
        for expansion in pending:
            branches, insights = [], []
            try:
                if expansion.error is not None:
                    raise expansion.error
                for tactic, after, session, explanation, summary in expansion.children:
                    text = explanation()
                    trace = expansion.branch.candidate.trace + ((tactic, text),)
                    if summary is None:
                        return trace
                    candidate = SearchCandidate(state=after, trace=trace, summary=summary())
                    branches.append(_Branch(candidate, session))
                    if text.strip():
                        insights.append(text.strip())
            except (ProviderError, SessionDesync) as exc:
                self.recorder.record(
                    "branch-pruned", depth=self.depth, branch=expansion.idx, error=str(exc)
                )
                context = f"theorem {self.theorem!r}, depth {self.depth}, branch {expansion.idx}"
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
    for branch in branches:
        fp = state_fingerprint(branch.candidate.state)
        kept = best.get(fp)
        if kept is None or len(branch.candidate.trace) < len(kept.candidate.trace):
            best[fp] = branch
    return list(best.values())


def prove(theorem: str, params: SearchParams, ports: SearchPorts) -> ProofResult:
    """Run the full search on one theorem. See the module docstring for the
    layer anatomy. Branch-level port failures prune the branch; a layer lost
    entirely to port failures raises PortFailure with the branch context.
    No lane or prefetch thread and no session the search opened outlives
    the call."""
    recorder = ports.recorder
    recorder.record(
        "start",
        theorem=theorem,
        max_depth=params.max_depth,
        beam_width=params.beam_width,
        budget=params.budget,
    )
    scope = _ProofScope(params, ports)
    budget, calls = scope.budget, scope.calls

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
    scope.opened(root_session)
    notebook = Notebook()
    depth = 0

    try:
        initial_state = root_session.state
        if initial_state.is_complete:
            return finish(Outcome.PROVED, 0)
        layer = [_Branch(SearchCandidate(state=initial_state), root_session)]
        for depth in range(1, params.max_depth + 1):
            collected = _Layer(theorem, depth, recorder)
            expansion = None
            for idx in reversed(range(len(layer))):
                expansion = _Expansion(scope, layer[idx], depth, idx, notebook, after=expansion)
            while expansion is not None:
                expansion.run()
                collected.pending.append(expansion)
                if expansion.proves:
                    proved = collected.collect()
                    if proved is not None:
                        return finish(Outcome.PROVED, depth, proved)
                expansion = expansion.after
            collected.collect()

            if not collected.branches:
                if collected.port_errors and not collected.dead_end:
                    raise collected.port_errors[-1]
                return finish(Outcome.FAILURE, depth)

            next_branches = _dedupe_branches(collected.branches)
            scope.close_all_but(next_branches)
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
                scope.close_all_but(next_branches)
            recorder.record(
                "layer", depth=depth, width=len(next_branches), evaluations=budget.used
            )
            layer = next_branches
    except _Exhausted:
        collected.collect()
        return finish(Outcome.BUDGET_EXHAUSTED, depth)
    finally:
        calls.close()
        scope.close_all_but(())
    return finish(Outcome.FAILURE, depth)
