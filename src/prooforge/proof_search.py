"""Planner–Executor beam search over proof states.

One search layer expands every kept candidate. Each expansion is a step
program (`_expansion_program`) that yields each thing it needs and is sent
the result: it renders the proof-state and concept blocks both prompts
share, asks the planner for a strategy, and ranks related premises and
tactic examples from one embedding of the first goal. Then up to
`max_retries + 1` rounds run: the executor is asked for up to
`tactics_per_state` tactics (at most one request for more concepts per
expansion is resolved through the corpus name index, which renders the
context anew); the new canonical tactics among them are validated (the only
operation that consumes budget); each valid one makes a child, whose
explain call and, unless it proves the theorem, summarize call are sent; a
failed round's errors go back to the planner. After a proving child none is
made: the rest of its round's tactics are validated, and no round follows.
The prompt bodies before the failed tactics and the hint are rendered once
per context. What every expansion of a proof reads is kept in its
`_ProofScope`, for that proof only: the ports, the search shape, the
global tokens of each goal or hypothesis text, the glob-def chunk of each
concept, and the ranked premises and tactic examples of each first-goal
text (a goal that embeds to zero gets none; a provider failure is not
kept). Explanations feed the shared notebook at the layer barrier; the
beam is cut back to `beam_width` by model-based ranking (with a
deterministic shortest-proof fallback).

A program does no I/O: one driver per proof (`_Driver`) makes every
gateway call, spends the budget, holds the sessions and records the events,
in branch order. Only the notebook merge, the ranking and a proved trace
read explanations and summaries, so the layer reads those replies in branch
order when it is collected, at the barrier or before a proof is returned;
how the driver sends them, and when it runs a program ahead, is told in
its docstring. Every call an expansion makes carries its `(depth, branch)`
as the request's `site`, which a scripted gateway can key its replies to.

The search returns Proved once the round whose tactic empties the goal
stack ends, with no later branch expanded; a budget exhaustion or a
branch-scoped failure in the rest of that round does not cost the proof,
nor does a failed explain or summarize call of the proving expansion (a
failed explain of the proving child leaves that step's explanation empty).
It reports Failure when a layer expands to nothing, and BudgetExhausted
the moment a validation would exceed the budget.

A `ProviderError` or `SessionDesync` is branch-scoped: it prunes its branch,
whether the expansion raised it or a reply read at the barrier did, and the
branch's `branch-pruned` event is recorded when the layer is collected, in
branch order. A child's `SessionDesync` prunes its branch at once, like any
other: no further tactic of the expansion is validated.
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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Generator, Optional, Sequence

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

    The backend is called from the search thread only. While the
    gateway's calls wait, one proof calls `gateway.complete` from four
    threads (the search thread, the `prooforge-explain_0` and
    `prooforge-summarize_0` lanes and the `prooforge-prefetch_0` worker),
    so the gateway must be thread-safe. Each role has at most one call in
    flight, except that the planner and executor calls of two expansions
    may overlap."""

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
    return gateway.complete(ChatRequest(role, prompt, site)).text


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


@dataclass
class _ProofScope:
    """What every expansion program of one proof reads and nothing outlives:
    the search shape, the ports and the per-proof memos (see the module
    docstring). Each memo maps a key to a pure function of it, so the
    prefetch worker and the search thread filling one at once is benign:
    both store the same value."""

    params: SearchParams
    ports: SearchPorts
    tokens: dict = field(default_factory=dict)
    chunks: dict = field(default_factory=dict)
    retrieved: dict = field(default_factory=dict)


def _retrieved(scope: _ProofScope, state: ProofState) -> tuple:
    """Premises and tactic examples ranked for the first goal, embedded and
    ranked only the first time the proof sees its text. A goal that embeds
    to zero gets none; a provider failure is not kept, so the next
    expansion asks again."""
    ports, memo = scope.ports, scope.retrieved
    if ports.index is None or not state.goals:
        return (), ()
    goal = state.goals[0].goal_internal
    found = memo.get(goal)
    if found is None:
        try:
            ranked = retrieve(ports.index, goal, k=ports.retrieve_k)
        except ZeroVectorError:
            found = (), ()
        else:
            found = tuple(tuple(p for p, _sim in ranked[kind]) for kind in (PREMISE, TACTIC))
        memo[goal] = found
    return found


def _expansion_program(scope: _ProofScope, candidate: SearchCandidate, notebook: Notebook):
    """One branch's expansion at one depth, as a step program. It yields
    each request as a (kind, payload) pair and is sent its result:

    - ("planner" | "executor", prompt): the reply text;
    - ("info", names): an info request's names, to record; None;
    - ("validate", canonical tactic): the backend's CompileResult;
    - ("child", tactic): the state a clone of the branch reaches by the
      validated tactic;
    - ("explain" | "summarize", prompt): a call about that child whose
      reply only the layer reads; None.

    Each round plans (from the last round's errors), retrieves in round 1,
    executes, and validates the new canonical tactics among the first
    `tactics_per_state` suggestions. The expansion's first info request adds
    the named concepts to the context and asks again; a later one yields no
    tactics. After a proving child none is made. The round runs to its end;
    no round follows a proving one."""
    params, ports = scope.params, scope.ports
    state, trace, summary = candidate.state, candidate.trace, candidate.summary
    concepts = concept_pairs(ports.corpus, ports.table, state, memo=scope.tokens)
    context = render_state_context(state, concepts, ports.config, memo=scope.chunks)
    bodies: dict = {}  # the planner and prove prompt bodies of `context`
    premises = tactic_examples = errors = ()
    seen: set = set()  # canonical tactics already validated
    info_used = proved = False
    valid = 0

    def ask():
        bundle = render_prove_prompt(
            context, trace=trace, summary=summary, premises=premises,
            tactics=tactic_examples, notes=notebook, hint=hint, memo=bodies,
        )
        return "executor", bundle.rendered

    for round_ in range(params.max_retries + 1):
        hint = yield "planner", render_planner_prompt(
            context, trace=trace, summary=summary, notes=notebook, errors=errors, memo=bodies
        )
        if not round_:
            premises, tactic_examples = _retrieved(scope, state)
        action = parse_action_response((yield ask()))
        if isinstance(action, InfoRequest) and not info_used:
            info_used = True
            concepts += _lookup_info(ports.corpus, action.names, concepts)
            context = render_state_context(state, concepts, ports.config, memo=scope.chunks)
            bodies = {}
            yield "info", list(action.names)
            action = parse_action_response((yield ask()))
        tactics = [s.tactic for s in action.items] if isinstance(action, TacticSuggestions) else []
        failed = []
        for tactic in tactics[: params.tactics_per_state]:
            canonical = canonical_tactic(tactic)
            if not canonical or canonical in seen:
                continue
            seen.add(canonical)
            result = yield "validate", canonical
            if not result.success:
                failed.append((canonical, truncate_error(result.error)))
                continue
            valid += 1
            if proved:
                continue
            after = yield "child", canonical
            yield "explain", render_explanation_prompt(state, canonical, after)
            proved = after.is_complete
            if not proved:
                yield "summarize", render_summarize_prompt(trace + ((canonical, ""),), after)
        if proved or not failed or valid > params.tactics_per_state:
            return
        errors = tuple(failed)


@dataclass(eq=False)
class _Expansion:
    """One branch's expansion as the driver runs it. `children` holds
    (tactic, state, session, replies) per child in tactic order; `replies`
    maps "explain" and, unless the child proves, "summarize" to a callable
    that gives the reply or raises. `error` is a branch-scoped failure the
    expansion raised, which leaves it no children."""

    branch: _Branch
    depth: int
    idx: int
    program: Generator
    children: list = field(default_factory=list)
    error: Optional[Exception] = None

    @property
    def site(self) -> tuple:
        return self.depth, self.idx

    @property
    def proves(self) -> bool:
        return bool(self.children) and self.children[-1][1].is_complete


class _Driver:
    """All the I/O of one proof: the gateway calls, the budget, the backend
    sessions still open and the run-log events, on the search thread in
    branch order. Every call is timed, and `waits` holds while none has
    been faster than `OVERLAP_MIN_CALL_S`. A child's explain and summarize
    calls then go to one lane per role as they are asked for, and stay
    there while the lane holds a call, which keeps the role's order;
    otherwise they are queued and sent once the program ends, and a program
    that raises first drops its queue and one whose queued call fails sends
    no later one, unless it has made a proving child: a program ends with
    the round that proves, what that round raises after the proof only ends
    it sooner, and every queued call is sent. While `waits` holds, a branch
    that starts a retry round may also have the next program stepped ahead
    (`_prefetch`). On lanes, an expansion that loses a later round has
    already sent its earlier children's calls, and one that proves in a
    retry round wastes the next one's first round; those replies are never
    read."""

    def __init__(self, params: SearchParams, ports: SearchPorts):
        self.scope = _ProofScope(params, ports)
        self.backend = ports.backend
        self.recorder = ports.recorder
        self.gateway = ports.gateway
        self.budget = BudgetCounter(params.budget)
        self.waits = True
        self._open: dict = {}
        self._workers: dict[str, ThreadPoolExecutor] = {}
        self._last: dict = {}  # per role, the last call sent on its lane
        self._queue: list = []  # the running program's calls to send once it ends
        self._ahead = None  # (expansion, future, held info names) run ahead

    def complete(self, request: ChatRequest):
        start = time.perf_counter()
        try:
            return self.gateway.complete(request)
        finally:
            if time.perf_counter() - start < OVERLAP_MIN_CALL_S:
                self.waits = False

    def _worker(self, name: str) -> ThreadPoolExecutor:
        worker = self._workers.get(name)
        if worker is None:
            worker = self._workers[name] = ThreadPoolExecutor(1, f"prooforge-{name}")
        return worker

    def close(self) -> None:
        for worker in self._workers.values():
            worker.shutdown()

    def opened(self, session):
        self._open[id(session)] = session
        return session

    def close_session(self, session) -> None:
        if self._open.pop(id(session), None) is not None:
            self.backend.close_session(session)

    def close_all_but(self, branches) -> None:
        """Close every open session no branch in `branches` holds."""
        keep = {id(branch.session) for branch in branches}
        for key, session in list(self._open.items()):
            if key not in keep:
                del self._open[key]
                self.backend.close_session(session)

    def run(self, expansion: _Expansion, after: Optional[_Expansion]) -> None:
        """Run a program to its end, from where the prefetch worker left it
        if it ran ahead; then send the queued calls. After a proving child,
        a budget exhaustion or a branch-scoped failure ends the program and
        keeps its children, and a failed queued call reads as an empty
        reply. Otherwise whatever raises closes the children made so far;
        a branch-scoped failure is kept as `error`. The branch's session is
        closed when the run ends."""
        def info(names):
            self.recorder.record("info", depth=expansion.depth, branch=expansion.idx, names=names)

        try:
            request, rounds = None, 0
            if self._ahead is not None and self._ahead[0] is expansion:
                _expansion, future, held = self._ahead
                self._ahead = None
                try:
                    request, rounds = future.result(), 1
                finally:
                    for names in held:
                        info(names)
            try:
                self._serve(expansion, request, info, rounds, after)
            except (_Exhausted, ProviderError, SessionDesync):
                if not expansion.proves:
                    raise
            for reply, prompt, role in self._queue:
                try:
                    reply.append(_text(self, prompt, role, expansion.site))
                except ProviderError:
                    if not expansion.proves:
                        raise
                    reply.append("")
        except BaseException as exc:
            for _tactic, _state, session, _replies in expansion.children:
                self.close_session(session)
            expansion.children = []
            if not isinstance(exc, (ProviderError, SessionDesync)):
                raise
            expansion.error = exc
        finally:
            self._queue = []
            self.close_session(expansion.branch.session)

    def _serve(self, expansion, request, info, rounds=0, after=None, ahead=False):
        """Answer a program's requests, `request` first if one is pending,
        until it ends. Every round opens with its planner call, so `rounds`
        counts the rounds begun. On the prefetch worker (`ahead`), stop at
        the first validation and return that request."""
        send, site, reply = expansion.program.send, expansion.site, None
        while True:
            if request is None:
                try:
                    request = send(reply)
                except StopIteration:
                    return None
            kind, payload = request
            if kind == "validate":
                if ahead:
                    return request
                reply = self._validate(expansion, payload)
            elif kind == "child":
                reply = self._child(expansion, payload)
            elif kind == "explain" or kind == "summarize":
                reply = self._later(expansion, kind, payload)
            elif kind == "info":
                reply = info(payload)
            else:
                if kind == "planner":
                    if rounds:
                        self._prefetch(after, rounds)
                    rounds += 1
                reply = _text(self, payload, kind, site)
            request = None

    def _validate(self, expansion: _Expansion, tactic: str):
        self.budget.spend()
        branch = expansion.branch
        result = self.backend.compile_tactic(tactic, branch.candidate.state, branch.session)
        self.recorder.record(
            "tactic", depth=expansion.depth, branch=expansion.idx, tactic=tactic,
            ok=result.success, error=result.error,
        )
        return result

    def _child(self, expansion: _Expansion, tactic: str):
        """Clone the branch session and apply a validated tactic; whatever
        raises closes the clone."""
        child = self.opened(self.backend.clone_session(expansion.branch.session))
        try:
            after = self.backend.apply_tactic(tactic, child)
        except BaseException:
            self.close_session(child)
            raise
        expansion.children.append((tactic, after, child, {}))
        return after

    def _later(self, expansion: _Expansion, role: str, prompt: str) -> None:
        """Send the last child's explain or summarize call on its lane, or
        queue it; the layer reads the reply."""
        last = self._last.get(role)
        if not self.waits and (last is None or last.done()):
            reply: list = []
            self._queue.append((reply, prompt, role))
            read = lambda: reply[0]  # noqa: E731
        else:
            last = self._last[role] = self._worker(role).submit(
                _text, self, prompt, role, expansion.site
            )
            read = last.result
        expansion.children[-1][3][role] = read

    def _prefetch(self, after: Optional[_Expansion], retry: int) -> None:
        """Before retry round `retry`, step the next program on the prefetch
        worker up to its first validation, once, if the calls wait and the
        sequential search must reach that expansion unless this one proves
        or a run-scoped error ends the proof: no round follows a proving
        one, and the budget left covers every validation of this round and
        the rounds after it, so it cannot run out before the next branch."""
        budget, params = self.budget, self.scope.params
        if (
            after is None or self._ahead is not None or not self.waits
            or budget.limit - budget.used < (params.max_retries + 1 - retry) * params.tactics_per_state
        ):
            return
        held: list = []
        future = self._worker("prefetch").submit(self._serve, after, None, held.append, ahead=True)
        self._ahead = after, future, held


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
        failure prunes its branch. Returns the proved trace, if one holds (a
        proving expansion is always the last one pending): only its proving
        child's explain reply is read, and a failed one leaves the step's
        explanation empty."""
        pending, self.pending = self.pending, []
        for expansion in pending:
            if expansion.proves:
                tactic, _after, _session, replies = expansion.children[-1]
                try:
                    text = replies["explain"]()
                except ProviderError:
                    text = ""
                return expansion.branch.candidate.trace + ((tactic, text),)
            branches, insights = [], []
            try:
                if expansion.error is not None:
                    raise expansion.error
                for tactic, after, session, replies in expansion.children:
                    text = replies["explain"]()
                    trace = expansion.branch.candidate.trace + ((tactic, text),)
                    candidate = SearchCandidate(state=after, trace=trace, summary=replies["summarize"]())
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
    """Within a layer, keep the first branch per state fingerprint. Every
    branch of a layer has a trace of the same length."""
    first: dict[str, _Branch] = {}
    for branch in branches:
        first.setdefault(state_fingerprint(branch.candidate.state), branch)
    return list(first.values())


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
    driver = _Driver(params, ports)
    budget = driver.budget

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
    driver.opened(root_session)
    notebook = Notebook()
    depth = 0

    try:
        initial_state = root_session.state
        if initial_state.is_complete:
            return finish(Outcome.PROVED, 0)
        layer = [_Branch(SearchCandidate(state=initial_state), root_session)]
        for depth in range(1, params.max_depth + 1):
            collected = _Layer(theorem, depth, recorder)
            expansions = [
                _Expansion(branch, depth, idx, _expansion_program(driver.scope, branch.candidate, notebook))
                for idx, branch in enumerate(layer)
            ]
            for expansion, after in zip(expansions, expansions[1:] + [None]):
                driver.run(expansion, after)
                collected.pending.append(expansion)
                if expansion.proves:
                    return finish(Outcome.PROVED, depth, collected.collect())
            collected.collect()

            if not collected.branches:
                if collected.port_errors and not collected.dead_end:
                    raise collected.port_errors[-1]
                return finish(Outcome.FAILURE, depth)

            next_branches = _dedupe_branches(collected.branches)
            driver.close_all_but(next_branches)
            if collected.insights:
                notebook = update_notebook(
                    initial_state, collected.insights, notebook, driver
                )
                recorder.record("notebook", depth=depth, size=len(notebook.items))
            if len(next_branches) > params.beam_width:
                kept = select_best(
                    initial_state,
                    [branch.candidate for branch in next_branches],
                    params.beam_width,
                    params.selection_mode,
                    driver,
                )
                by_identity = {id(branch.candidate): branch for branch in next_branches}
                next_branches = [by_identity[id(candidate)] for candidate in kept]
                driver.close_all_but(next_branches)
            recorder.record(
                "layer", depth=depth, width=len(next_branches), evaluations=budget.used
            )
            layer = next_branches
    except _Exhausted:
        collected.collect()
        return finish(Outcome.BUDGET_EXHAUSTED, depth)
    finally:
        driver.close()
        driver.close_all_but(())
    return finish(Outcome.FAILURE, depth)
