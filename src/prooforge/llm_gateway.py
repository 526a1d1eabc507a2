"""Uniform chat-completion interface: free-text completion, structured
action-response parsing, and YES/NO log-probability judgment.

`ROLE_SETTINGS` is the one table of the roles of the library's calls and of
each role's request settings; `ChatRequest.for_role` builds every request.

Two gateways ship. MockGateway replays a script of records routed by the role
each caller sets on its request; every record names the route it answers,
which must be a role of the table. It is what every test and fixture run
uses. HttpGateway talks to a chat-completions endpoint with a retry policy;
its transport is injectable so the policy is testable without a network. The
API key is read at call time from an environment variable (by default
`DEFAULT_API_KEY_ENV`), never from files.

parse_action_response is total: any text yields InfoRequest, TacticSuggestions,
or Unparsed, tolerating prose, code fences, and unquoted keys around the
structured object.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import re
import threading
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .errors import (
    MalformedResponse,
    ProviderError,
    ProviderTimeout,
    RateLimited,
    UnjudgeableResponse,
)

logger = logging.getLogger("prooforge.llm_gateway")

#: Default floor applied when YES or NO is missing from the top-k alternatives.
LOGPROB_FLOOR = -20.0

#: The environment variable a client reads its API key from by default.
DEFAULT_API_KEY_ENV = "PROOFORGE_API_KEY"

VALID_ROLES = ("system", "user", "assistant")


class RoleSettings(NamedTuple):
    temperature: float
    max_tokens: int = 1024
    want_logprobs: bool = False


#: Every kind of call the library makes, with the settings of its requests.
ROLE_SETTINGS: dict[str, RoleSettings] = {
    "planner": RoleSettings(temperature=0.7),
    "executor": RoleSettings(temperature=0.7),
    "explain": RoleSettings(temperature=0.7),
    "summarize": RoleSettings(temperature=0.7),
    "notebook": RoleSettings(temperature=0.7),
    "rank": RoleSettings(temperature=0.0),
    "probe": RoleSettings(temperature=0.0),
    "judge": RoleSettings(temperature=0.0, max_tokens=4, want_logprobs=True),
}


def _check_role(role: str, what: str) -> None:
    if role not in ROLE_SETTINGS:
        raise ValueError(f"{what} {role!r} is not a role; roles are {', '.join(ROLE_SETTINGS)}")


@dataclass(frozen=True)
class ChatRequest:
    """One chat-completion call.

    `role` names the kind of call, one of `ROLE_SETTINGS`, set by the
    caller; MockGateway routes on it. It is not a message role (see
    VALID_ROLES), is never sent to a provider, and is left out of
    `digest()`. A request may have no role; no mock route answers it.
    """

    messages: tuple[tuple[str, str], ...]
    temperature: float = 0.7
    max_tokens: int = 1024
    want_logprobs: bool = False
    role: Optional[str] = None

    def __post_init__(self):
        if not self.messages:
            raise ValueError("a chat request needs at least one message")
        for role, _content in self.messages:
            if role not in VALID_ROLES:
                raise ValueError(f"unknown message role {role!r}")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be positive")
        if self.role is not None:
            _check_role(self.role, "request role")

    @classmethod
    def user(cls, content: str, **kwargs) -> "ChatRequest":
        return cls(messages=(("user", content),), **kwargs)

    @classmethod
    def for_role(cls, role: str, content: str) -> "ChatRequest":
        """A one-message request with `role`'s settings from the table."""
        _check_role(role, "request role")
        return cls.user(content, role=role, **ROLE_SETTINGS[role]._asdict())

    def digest(self) -> str:
        joined = "\x1f".join(f"{role}\x1e{content}" for role, content in self.messages)
        return hashlib.sha256(joined.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class TokenLogprob:
    token: str
    logprob: float
    top_alternatives: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True)
class CompletionResult:
    text: str
    logprobs: Optional[tuple[TokenLogprob, ...]] = None


# ======================================================================
# Action responses
# ======================================================================

@dataclass(frozen=True)
class TacticSuggestion:
    tactic: str
    reason: str = ""


@dataclass(frozen=True)
class InfoRequest:
    names: tuple[str, ...]


@dataclass(frozen=True)
class TacticSuggestions:
    items: tuple[TacticSuggestion, ...]
    clamped: bool = False

    def __post_init__(self):
        if not (1 <= len(self.items) <= 10):
            raise ValueError("tactic suggestions must hold 1..10 items")


@dataclass(frozen=True)
class Unparsed:
    raw: str


ActionResponse = Union[InfoRequest, TacticSuggestions, Unparsed]

_BARE_KEY_RE = re.compile(r"([{\[,]\s*)([A-Za-z_][A-Za-z0-9_]*)(\s*:)")


# Per bracket kind: an opener, a closer, or a whole string literal (escapes
# count inside it; an unterminated one runs to the end of the text).
_REGION_SCANNERS = {
    pair: re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"?|[' + re.escape(pair) + "]", re.S)
    for pair in ("{}", "[]")
}


def _balanced_regions(text: str, open_ch: str, close_ch: str) -> list[str]:
    """Every outermost balanced open..close region, in order; brackets inside
    string literals and closers at depth 0 are ignored."""
    regions = []
    depth = 0
    start = -1
    for match in _REGION_SCANNERS[open_ch + close_ch].finditer(text):
        ch = match.group()
        if ch == open_ch:
            if depth == 0:
                start = match.start()
            depth += 1
        elif ch == close_ch and depth > 0:
            depth -= 1
            if depth == 0:
                regions.append(text[start:match.end()])
    return regions


def _try_load(candidate: str):
    try:
        return json.loads(candidate)
    except json.JSONDecodeError:
        pass
    # The action schema itself shows an unquoted `tactics:` key, so tolerate
    # bare identifier keys before giving up.
    fixed = _BARE_KEY_RE.sub(r'\1"\2"\3', candidate)
    try:
        return json.loads(fixed)
    except json.JSONDecodeError:
        return None


def _interpret(obj) -> Optional[ActionResponse]:
    if not isinstance(obj, dict):
        return None
    if "tactics" in obj and isinstance(obj["tactics"], list):
        items = []
        for entry in obj["tactics"]:
            if isinstance(entry, dict) and isinstance(entry.get("tactic"), str) and entry["tactic"].strip():
                items.append(TacticSuggestion(
                    tactic=entry["tactic"].strip(),
                    reason=str(entry.get("reason", "")),
                ))
        if items:
            clamped = len(items) > 10
            if clamped:
                logger.warning(
                    "model suggested %d tactics; clamping to 10", len(items)
                )
                items = items[:10]
            return TacticSuggestions(items=tuple(items), clamped=clamped)
    if "info" in obj and isinstance(obj["info"], list):
        names = tuple(str(n) for n in obj["info"] if isinstance(n, (str, int)) and str(n).strip())
        return InfoRequest(names=names)
    return None


def parse_action_response(raw: str) -> ActionResponse:
    """Parse a model reply into the first recognizable action, else Unparsed.

    Never raises. Surrounding prose and code fences are ignored; an object
    carrying both keys counts as whichever interpretation succeeds first
    (tactics take precedence since they advance the proof).
    """
    for candidate in _balanced_regions(raw, "{", "}"):
        obj = _try_load(candidate)
        action = _interpret(obj)
        if action is not None:
            return action
    return Unparsed(raw=raw)


def parse_string_array(raw: str) -> Optional[list[str]]:
    """First balanced JSON array of strings in the text, or None."""
    for candidate in _balanced_regions(raw, "[", "]"):
        loaded = _try_load(candidate)
        if isinstance(loaded, list) and all(isinstance(x, str) for x in loaded):
            return loaded
    return None


def parse_int_array(raw: str) -> Optional[list[int]]:
    """First balanced JSON array of integers in the text, or None."""
    for candidate in _balanced_regions(raw, "[", "]"):
        loaded = _try_load(candidate)
        if (
            isinstance(loaded, list)
            and loaded
            and all(isinstance(x, int) and not isinstance(x, bool) for x in loaded)
        ):
            return loaded
    return None


# ======================================================================
# YES/NO judgment
# ======================================================================

@dataclass(frozen=True)
class YesNoLogprobs:
    log_p_yes: float
    log_p_no: float

    def __post_init__(self):
        for value in (self.log_p_yes, self.log_p_no):
            if math.isnan(value) or value > 0:
                raise ValueError("log probabilities must be <= 0 and not NaN")
        if math.isinf(self.log_p_yes) and math.isinf(self.log_p_no):
            raise ValueError("at most one side may be the -inf sentinel")


def _normalize_judge_token(token: str) -> str:
    return token.strip().strip(".,:;!\"'`()[]").upper()


def derive_yes_no_logprobs(
    tokens: Sequence[TokenLogprob], floor: float = LOGPROB_FLOOR
) -> YesNoLogprobs:
    """Read the YES/NO pair off the first content token of a judged reply.

    The first non-whitespace content token decides which side was observed;
    the other side comes from that token's top-k alternatives, or the floor
    when absent. Raises UnjudgeableResponse when neither side is visible.
    """
    first: Optional[TokenLogprob] = None
    for tok in tokens:
        if tok.token.strip():
            first = tok
            break
    if first is None:
        raise UnjudgeableResponse("reply carries no content token")
    observed = _normalize_judge_token(first.token)
    alternatives = {}
    for alt_token, alt_logprob in first.top_alternatives:
        normalized = _normalize_judge_token(alt_token)
        if normalized and normalized not in alternatives:
            alternatives[normalized] = alt_logprob
    if observed == "YES":
        return YesNoLogprobs(
            log_p_yes=min(first.logprob, 0.0),
            log_p_no=min(alternatives.get("NO", floor), 0.0),
        )
    if observed == "NO":
        return YesNoLogprobs(
            log_p_yes=min(alternatives.get("YES", floor), 0.0),
            log_p_no=min(first.logprob, 0.0),
        )
    yes = alternatives.get("YES")
    no = alternatives.get("NO")
    if yes is None and no is None:
        raise UnjudgeableResponse(
            f"first token {first.token!r} is neither YES nor NO and the pair "
            "is absent from top-k alternatives"
        )
    return YesNoLogprobs(
        log_p_yes=min(yes if yes is not None else floor, 0.0),
        log_p_no=min(no if no is not None else floor, 0.0),
    )


# ======================================================================
# Scripted mock gateway
# ======================================================================

@dataclass
class ScriptRecord:
    """One replay entry.

    `route` is the request role the record answers; MockGateway rejects a
    record without one. `default` marks a reusable fallback reply for its
    route. `expect_digest`, when set, must match the incoming request digest
    exactly. `yes_no` scripts the judged pair returned by yes_no_logprobs.
    """

    reply: str = ""
    route: Optional[str] = None
    default: bool = False
    expect_digest: Optional[str] = None
    logprobs: Optional[tuple[TokenLogprob, ...]] = None
    yes_no: Optional[tuple[float, float]] = None

    @classmethod
    def from_obj(cls, obj: dict) -> "ScriptRecord":
        logprobs = None
        if obj.get("logprobs"):
            logprobs = tuple(
                TokenLogprob(
                    token=t["token"],
                    logprob=float(t["logprob"]),
                    top_alternatives=tuple(
                        (a["token"], float(a["logprob"]))
                        for a in t.get("top_alternatives", [])
                    ),
                )
                for t in obj["logprobs"]
            )
        yes_no = None
        if obj.get("yes_no") is not None:
            pair = obj["yes_no"]
            yes_no = (float(pair[0]), float(pair[1]))
        return cls(
            reply=obj.get("reply", ""),
            route=obj.get("route"),
            default=bool(obj.get("default", False)),
            expect_digest=obj.get("expect_digest"),
            logprobs=logprobs,
            yes_no=yes_no,
        )


class MockGateway:
    """Deterministic scripted gateway.

    Every record names a route, one of `ROLE_SETTINGS`. Each call consumes
    the next record queued for its request's `role`, falling back to that
    role's default record; a role with neither, or a request without a role,
    raises ProviderError. Replay files are JSON lines, one record per line;
    `#` lines are comments.
    """

    def __init__(self, records: Sequence[ScriptRecord] = ()):
        self.calls: list[ChatRequest] = []
        self._lock = threading.Lock()
        self._routed: dict[str, list[ScriptRecord]] = {}
        self._defaults: dict[str, ScriptRecord] = {}
        for record in records:
            self._add(record)

    def _add(self, record: ScriptRecord) -> None:
        _check_role(record.route, f"script record {record.reply!r} route")
        if record.default:
            self._defaults[record.route] = record
        else:
            self._routed.setdefault(record.route, []).append(record)

    @classmethod
    def from_file(cls, path: str) -> "MockGateway":
        """Load a replay file; a malformed line raises ValueError naming the
        file and the line."""
        gateway = cls()
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    obj = json.loads(line)
                    if not isinstance(obj, dict):
                        raise ValueError("a script record must be a JSON object")
                    gateway._add(ScriptRecord.from_obj(obj))
                except (KeyError, TypeError, ValueError) as exc:
                    raise ValueError(f"gateway script {path}, line {lineno}: {exc}") from None
        return gateway

    def _next_record(self, request: ChatRequest) -> ScriptRecord:
        with self._lock:
            self.calls.append(request)
            queue = self._routed.get(request.role)
            if queue:
                return queue.pop(0)
            fallback = self._defaults.get(request.role)
        if fallback is None:
            raise ProviderError(
                f"script exhausted for route {request.role!r}", key=request.digest()
            )
        return fallback

    def _check_digest(self, record: ScriptRecord, request: ChatRequest) -> None:
        if record.expect_digest and record.expect_digest != request.digest():
            raise ProviderError(
                f"prompt digest mismatch: expected {record.expect_digest}, "
                f"got {request.digest()}",
                key=request.digest(),
            )

    def complete(self, request: ChatRequest) -> CompletionResult:
        record = self._next_record(request)
        self._check_digest(record, request)
        logprobs = record.logprobs if request.want_logprobs else None
        return CompletionResult(text=record.reply, logprobs=logprobs)

    def yes_no_logprobs(self, judge_prompt: str, floor: float = LOGPROB_FLOOR) -> YesNoLogprobs:
        request = ChatRequest.for_role("judge", judge_prompt)
        record = self._next_record(request)
        self._check_digest(record, request)
        if record.yes_no is not None:
            return YesNoLogprobs(log_p_yes=record.yes_no[0], log_p_no=record.yes_no[1])
        if record.logprobs:
            return derive_yes_no_logprobs(record.logprobs, floor=floor)
        raise UnjudgeableResponse(
            "scripted record for a judge call carries neither yes_no nor logprobs"
        )


# ======================================================================
# HTTP gateway
# ======================================================================

@dataclass
class RetryPolicy:
    attempts: int = 3
    backoff: float = 1.0

    def delay(self, attempt: int) -> float:
        return self.backoff * (2 ** attempt)


class HttpGateway:
    """Client for an OpenAI-style chat-completions endpoint.

    Timeouts, rate limits, and 5xx responses retry per policy with backoff;
    malformed payloads fail the call immediately. A semaphore owned by each
    instance caps the requests that instance has in flight, so share one
    instance to cap a process. Credentials come only from the environment
    variable named at construction.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key_env: str = DEFAULT_API_KEY_ENV,
        timeout: float = 120.0,
        retry: RetryPolicy = RetryPolicy(),
        max_concurrency: int = 4,
        transport: Optional[Callable] = None,
        sleeper: Callable[[float], None] = time.sleep,
    ):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key_env = api_key_env
        self.timeout = timeout
        self.retry = retry
        self._semaphore = threading.Semaphore(max_concurrency)
        self._transport = transport or self._default_transport
        self._sleep = sleeper

    def _default_transport(self, url: str, payload: dict, headers: dict) -> dict:
        import requests

        try:
            reply = requests.post(url, json=payload, headers=headers, timeout=self.timeout)
        except requests.Timeout as exc:
            raise ProviderTimeout(str(exc))
        except requests.RequestException as exc:
            raise ProviderError(str(exc))
        if reply.status_code == 429:
            retry_after = float(reply.headers.get("Retry-After", "1"))
            raise RateLimited("rate limited", retry_after=retry_after)
        if reply.status_code >= 500:
            raise ProviderError(f"server error {reply.status_code}")
        if reply.status_code >= 400:
            raise MalformedResponse(f"request rejected: {reply.status_code} {reply.text[:200]}")
        try:
            return reply.json()
        except ValueError as exc:
            raise MalformedResponse(f"non-JSON reply: {exc}")

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.api_key_env, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def _payload(self, request: ChatRequest) -> dict:
        payload = {
            "model": self.model,
            "messages": [
                {"role": role, "content": content} for role, content in request.messages
            ],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        if request.want_logprobs:
            payload["logprobs"] = True
            payload["top_logprobs"] = 5
        return payload

    def complete(self, request: ChatRequest) -> CompletionResult:
        url = f"{self.base_url}/chat/completions"
        last_error: Optional[Exception] = None
        for attempt in range(self.retry.attempts):
            try:
                with self._semaphore:
                    body = self._transport(url, self._payload(request), self._headers())
                return self._parse_completion(body, request)
            except MalformedResponse:
                raise
            except RateLimited as exc:
                last_error = exc
                if attempt + 1 < self.retry.attempts:
                    self._sleep(max(exc.retry_after, self.retry.delay(attempt)))
            except (ProviderTimeout, ProviderError) as exc:
                last_error = exc
                if attempt + 1 < self.retry.attempts:
                    self._sleep(self.retry.delay(attempt))
        raise ProviderError(
            f"gave up after {self.retry.attempts} attempts: {last_error}",
            key=request.digest(),
        )

    @staticmethod
    def _parse_completion(body: dict, request: ChatRequest) -> CompletionResult:
        try:
            choice = body["choices"][0]
            text = choice["message"]["content"] or ""
        except (KeyError, IndexError, TypeError) as exc:
            raise MalformedResponse(f"unexpected completion shape: {exc}")
        logprobs = None
        if request.want_logprobs:
            content = ((choice.get("logprobs") or {}).get("content")) or []
            parsed = []
            for tok in content:
                try:
                    parsed.append(TokenLogprob(
                        token=tok["token"],
                        logprob=float(tok["logprob"]),
                        top_alternatives=tuple(
                            (alt["token"], float(alt["logprob"]))
                            for alt in tok.get("top_logprobs", [])
                        ),
                    ))
                except (KeyError, TypeError, ValueError):
                    continue
            logprobs = tuple(parsed) if parsed else None
        return CompletionResult(text=text, logprobs=logprobs)

    def yes_no_logprobs(self, judge_prompt: str, floor: float = LOGPROB_FLOOR) -> YesNoLogprobs:
        request = ChatRequest.for_role("judge", judge_prompt)
        result = self.complete(request)
        if not result.logprobs:
            raise UnjudgeableResponse("provider returned no token logprobs")
        return derive_yes_no_logprobs(result.logprobs, floor=floor)
