"""Tracing from outside the program.

Spans are recorded around the calls into each layer: the backend, gateway
and embedding provider are wrapped in proxies, and the public functions that
``prooforge.proof_search`` calls by module-global name are swapped for timing
wrappers while a traced proof runs.  Spans stay in memory; per-layer figures
are computed from them when the run ends.

Spans keep a per-thread parent stack and self time subtracts the union of the
child intervals, so the figures stay meaningful if the search ever calls its
ports from several threads.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict

# proof_search attribute -> span name.  Every one must exist before timing.
WRAPPED = {
    "retrieve": "retrieval.retrieve",
    "concept_pairs": "corpus.concept_pairs",
    "render_planner_prompt": "prompt_builder.render.planner",
    "render_prove_prompt": "prompt_builder.render.prove",
    "render_explanation_prompt": "prompt_builder.render.explanation",
    "render_summarize_prompt": "prompt_builder.render.summarize",
    "render_notebook_prompt": "prompt_builder.render.notebook",
    "render_rank_prompt": "prompt_builder.render.rank",
    "select_best": "proof_search.select_best",
    "update_notebook": "proof_search.update_notebook",
    "parse_action_response": "llm_gateway.parse_action_response",
}
BACKEND_METHODS = ("compile_theorem", "start_session", "compile_tactic", "apply_tactic", "clone_session")
ROLES = ("planner", "executor", "explain", "summarize", "notebook", "rank")
RENDER_ROLES = ("planner", "prove", "explanation", "summarize", "notebook", "rank")


def check_wrappable(proof_search, backend_cls, gateway_cls, provider_cls) -> None:
    """Fail loudly, before any timing, if a name the trace wraps is gone."""
    missing = [f"proof_search.{name}" for name in WRAPPED if not callable(getattr(proof_search, name, None))]
    missing += [f"{backend_cls.__name__}.{m}" for m in BACKEND_METHODS if not callable(getattr(backend_cls, m, None))]
    if not callable(getattr(gateway_cls, "complete", None)):
        missing.append(f"{gateway_cls.__name__}.complete")
    if not callable(getattr(provider_cls, "embed", None)):
        missing.append(f"{provider_cls.__name__}.embed")
    if missing:
        raise SystemExit("perfbench: cannot trace, missing: " + ", ".join(missing))


class Tracer:
    """In-memory spans: [name, theorem, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.theorem = -1
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        span = [name, self.theorem, 0.0, 0.0, stack[-1] if stack else -1]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            stack.pop()

    def count(self, key: str, amount=1) -> None:
        with self._lock:
            self.counts[key] += amount

    # -- aggregation ------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: calls, summed duration, summed self time."""
        children = defaultdict(list)
        for span in self.spans:
            if span[4] >= 0:
                children[span[4]].append((span[2], span[3]))
        calls, total, self_time = Counter(), Counter(), Counter()
        for index, (name, _thm, start, end, _parent) in enumerate(self.spans):
            duration = end - start
            calls[name] += 1
            total[name] += duration
            self_time[name] += duration - _covered(children.get(index, ()))
        return calls, total, self_time


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


class Patched:
    """Context manager that swaps the WRAPPED proof_search names for timing
    wrappers and restores the originals on exit."""

    def __init__(self, proof_search, tracer: Tracer, info_type):
        self.module = proof_search
        self.tracer = tracer
        self.info_type = info_type
        self.saved: dict = {}

    def _wrap(self, attr: str, original):
        tracer, name = self.tracer, WRAPPED[attr]
        if attr == "parse_action_response":
            info_type = self.info_type

            def wrapper(*args, **kwargs):
                action = tracer.call(name, original, *args, **kwargs)
                if isinstance(action, info_type):
                    tracer.count("corpus.info_requests")
                return action
            return wrapper

        def wrapper(*args, **kwargs):
            return tracer.call(name, original, *args, **kwargs)
        return wrapper

    def __enter__(self):
        for attr in WRAPPED:
            original = getattr(self.module, attr)
            self.saved[attr] = original
            setattr(self.module, attr, self._wrap(attr, original))
        return self

    def __exit__(self, *exc):
        for attr, original in self.saved.items():
            setattr(self.module, attr, original)
        self.saved.clear()
        return False


class TracedBackend:
    """Backend proxy: one span per port call, plus validation outcomes and
    the transcript length of every cloned session."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def compile_theorem(self, *args, **kwargs):
        return self._tracer.call("coq_backend.compile_theorem", self._inner.compile_theorem, *args, **kwargs)

    def start_session(self, *args, **kwargs):
        return self._tracer.call("coq_backend.start_session", self._inner.start_session, *args, **kwargs)

    def compile_tactic(self, *args, **kwargs):
        result = self._tracer.call("coq_backend.compile_tactic", self._inner.compile_tactic, *args, **kwargs)
        if result.success:
            self._tracer.count("coq_backend.compile_tactic.ok")
        return result

    def apply_tactic(self, *args, **kwargs):
        return self._tracer.call("coq_backend.apply_tactic", self._inner.apply_tactic, *args, **kwargs)

    def clone_session(self, session, *args, **kwargs):
        self._tracer.count("coq_backend.clone_session.transcript", len(session.transcript))
        return self._tracer.call("coq_backend.clone_session", self._inner.clone_session, session, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TracedProvider:
    """Embedding provider proxy: counts and times every embed."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def embed(self, text):
        self._tracer.count("retrieval.embeds")
        return self._tracer.call("retrieval.embed", self._inner.embed, text)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class BenchGateway:
    """The benchmark's model stand-in: waits the injected latency, asks the
    scripted MockGateway, and books the call to the role its reply belongs to.
    Used untraced and traced; traced, each call is also a span."""

    def __init__(self, inner, latency_s: float, roles: dict, tracer: Tracer | None = None):
        self.inner = inner
        self.latency_s = latency_s
        self.roles = roles
        self.tracer = tracer
        self.calls: Counter = Counter()
        self.chars: Counter = Counter()
        self.failed = 0
        self.waited = 0.0
        self.inflight = 0
        self.inflight_max = 0
        self._lock = threading.Lock()

    def complete(self, request):
        if self.tracer is None:
            return self._complete(request)
        return self.tracer.call("llm_gateway.complete", self._complete, request)

    def _complete(self, request):
        with self._lock:
            self.inflight += 1
            self.inflight_max = max(self.inflight_max, self.inflight)
        try:
            if self.latency_s:
                start = time.perf_counter()
                time.sleep(self.latency_s)
                waited = time.perf_counter() - start
                with self._lock:
                    self.waited += waited
            try:
                result = self.inner.complete(request)
            except Exception:
                with self._lock:
                    self.failed += 1
                raise
            role = self.roles.get(result.text, "unknown")
            chars = sum(len(content) for _role, content in request.messages)
            with self._lock:
                self.calls[role] += 1
                self.chars[role] += chars
            return result
        finally:
            with self._lock:
                self.inflight -= 1

    def __getattr__(self, name):
        return getattr(self.inner, name)
