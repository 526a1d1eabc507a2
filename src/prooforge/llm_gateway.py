"""Uniform chat-completion interface: free-text completion, structured
action-response parsing, and YES/NO log-probability judgment.

`ROLE_SETTINGS` is the one table of the roles of the library's calls and of
each role's request settings; every `ChatRequest` is one prompt of one role
and reads its settings from the table.

A gateway is any object with `complete(request)`; a judgment is one
`judge` call through it, which `yes_no_logprobs` reads the same way for a
scripted reply as for an HTTP one. Two gateways ship. MockGateway replays a
script of records routed by the role each caller sets on its request; every
record names the route it answers, which must be a role of the table, and
may name the search expansion it answers. It is what every test and fixture
run uses. HttpGateway talks to a chat-completions endpoint through
`HttpClient`, the one HTTP client, which `retrieval.HttpEmbeddingProvider`
shares: fixed retries and timeout, and at most `HTTP_IN_FLIGHT` requests in
flight per instance. The API key is read at call time from an environment
variable (by default `DEFAULT_API_KEY_ENV`), never from files.

parse_action_response is total: any text yields InfoRequest, TacticSuggestions,
or Unparsed, tolerating prose, code fences, and unquoted keys around the
structured object. It and the two array parsers share one helper,
`_candidates`: a reply that is one bare JSON value loads in a single pass,
and any other reply is scanned for balanced regions, each loaded in turn.
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
from dataclasses import InitVar, dataclass
from datetime import datetime, timezone
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .errors import (
    MalformedResponse,
    ProviderError,
    ProviderTimeout,
    RateLimited,
    UnjudgeableResponse,
)

logger = logging.getLogger("prooforge.llm_gateway")

#: The log probability of YES or NO when the top-k alternatives lack it.
LOGPROB_FLOOR = -20.0

#: The environment variable a client reads its API key from by default.
DEFAULT_API_KEY_ENV = "PROOFORGE_API_KEY"

#: Attempts per HTTP request; the wait before a retry is `HTTP_BACKOFF_S`,
#: doubling after each attempt.
HTTP_ATTEMPTS = 3
HTTP_BACKOFF_S = 1.0

#: Seconds an HTTP request may take, and the longest Retry-After honoured.
HTTP_TIMEOUT_S = 120.0

#: Requests one HTTP client has in flight at most.
HTTP_IN_FLIGHT = 4


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
    """One chat-completion call: one prompt of one role.

    `role` names the kind of call, one of `ROLE_SETTINGS`; the request's
    temperature, token limit and `want_logprobs` are that role's settings,
    and MockGateway routes on it. `prompt` is sent as the one user message
    of `messages`. `site` is the `(depth, branch)` of the search expansion
    that makes the call, set on its planner, executor, explain and summarize
    calls and on no other; MockGateway may key records to it. Neither
    `role` nor `site` is sent to a provider or taken into `digest()`.
    """

    role: str
    prompt: str
    site: Optional[tuple[int, int]] = None

    def __post_init__(self):
        _check_role(self.role, "request role")

    @property
    def messages(self) -> tuple[tuple[str, str], ...]:
        """The `(message role, content)` pairs sent: the prompt as one user
        message."""
        return (("user", self.prompt),)

    @property
    def temperature(self) -> float:
        return ROLE_SETTINGS[self.role].temperature

    @property
    def max_tokens(self) -> int:
        return ROLE_SETTINGS[self.role].max_tokens

    @property
    def want_logprobs(self) -> bool:
        return ROLE_SETTINGS[self.role].want_logprobs

    def digest(self) -> str:
        joined = "\x1f".join(f"{role}\x1e{content}" for role, content in self.messages)
        return hashlib.sha256(joined.encode("utf-8", "surrogatepass")).hexdigest()


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


#: What `json.loads` raises on a reply it cannot load: a decode error (a
#: ValueError), an integer past the digit limit (ValueError) or nesting past
#: the interpreter's recursion limit (RecursionError).
_UNLOADABLE = (ValueError, RecursionError)


def _try_load(candidate: str):
    try:
        return json.loads(candidate)
    except _UNLOADABLE:
        pass
    # The action schema itself shows an unquoted `tactics:` key, so tolerate
    # bare identifier keys before giving up.
    fixed = _BARE_KEY_RE.sub(r'\1"\2"\3', candidate)
    try:
        return json.loads(fixed)
    except _UNLOADABLE:
        return None


def _interpret(obj) -> Optional[ActionResponse]:
    if not isinstance(obj, dict):
        return None
    if "tactics" in obj and isinstance(obj["tactics"], list):
        items = []
        for entry in obj["tactics"]:
            if not isinstance(entry, dict):
                continue
            tactic = entry.get("tactic")
            if isinstance(tactic, str):
                tactic = tactic.strip()
                if tactic:
                    items.append(TacticSuggestion(tactic, str(entry.get("reason", ""))))
        if items:
            if len(items) > 10:
                logger.warning(
                    "model suggested %d tactics; clamping to 10", len(items)
                )
                items = items[:10]
            return TacticSuggestions(items=tuple(items))
    if "info" in obj and isinstance(obj["info"], list):
        names = tuple(str(n) for n in obj["info"] if isinstance(n, (str, int)) and str(n).strip())
        return InfoRequest(names=names)
    return None


def _candidates(raw: str, open_ch: str, close_ch: str):
    """The loaded values a parser tries, in order, for a reply's
    open..close JSON values.

    A reply that is one JSON value, give or take surrounding whitespace,
    loads in one pass and is the only candidate: a valid JSON value is
    exactly the first outermost balanced region, so the scan would find it
    first and nothing after it. Any other reply yields the load of each
    balanced region in turn (None for one that does not load)."""
    text = raw.strip()
    if text[:1] == open_ch and text[-1:] == close_ch:
        try:
            yield json.loads(text)
            return
        except _UNLOADABLE:
            pass
    for region in _balanced_regions(raw, open_ch, close_ch):
        yield _try_load(region)


def parse_action_response(raw: str) -> ActionResponse:
    """Parse a model reply into the first recognizable action, else Unparsed.

    Never raises. Surrounding prose and code fences are ignored; an object
    carrying both keys counts as whichever interpretation succeeds first
    (tactics take precedence since they advance the proof). The objects
    tried come from `_candidates`.
    """
    for obj in _candidates(raw, "{", "}"):
        action = _interpret(obj)
        if action is not None:
            return action
    return Unparsed(raw=raw)


def parse_string_array(raw: str) -> Optional[list[str]]:
    """First JSON array of strings among the reply's `_candidates`, or None."""
    for loaded in _candidates(raw, "[", "]"):
        if isinstance(loaded, list) and all(isinstance(x, str) for x in loaded):
            return loaded
    return None


def parse_int_array(raw: str) -> Optional[list[int]]:
    """First non-empty JSON array of integers among the reply's
    `_candidates`, or None."""
    for loaded in _candidates(raw, "[", "]"):
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


def derive_yes_no_logprobs(tokens: Sequence[TokenLogprob]) -> YesNoLogprobs:
    """Read the YES/NO pair off the first content token of a judged reply.

    The first non-whitespace content token decides which side was observed;
    the other side comes from that token's top-k alternatives, or is
    `LOGPROB_FLOOR` when absent. Raises UnjudgeableResponse when neither
    side is visible, or when both have log probability -inf.
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
    if observed in ("YES", "NO"):
        alternatives[observed] = first.logprob
    elif "YES" not in alternatives and "NO" not in alternatives:
        raise UnjudgeableResponse(
            f"first token {first.token!r} is neither YES nor NO and the pair "
            "is absent from top-k alternatives"
        )
    yes = min(alternatives.get("YES", LOGPROB_FLOOR), 0.0)
    no = min(alternatives.get("NO", LOGPROB_FLOOR), 0.0)
    if math.isinf(yes) and math.isinf(no):
        raise UnjudgeableResponse("both YES and NO have log probability -inf")
    return YesNoLogprobs(log_p_yes=yes, log_p_no=no)


def yes_no_logprobs(gateway, judge_prompt: str) -> YesNoLogprobs:
    """Make the `judge` call through `gateway.complete` and read the YES/NO
    pair off the reply's token logprobs (`derive_yes_no_logprobs`); a reply
    without any raises UnjudgeableResponse."""
    result = gateway.complete(ChatRequest("judge", judge_prompt))
    if not result.logprobs:
        raise UnjudgeableResponse("reply carries no token logprobs")
    return derive_yes_no_logprobs(result.logprobs)


# ======================================================================
# Scripted mock gateway
# ======================================================================

def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, not {value!r}")
    return value


def _number(value, what: str) -> float:
    """A JSON number as a float; a bool is not a number."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{what} must be a number, not {value!r}")


def _logprob(value, what: str) -> float:
    number = _number(value, what)
    if math.isnan(number) or number > 0:
        raise ValueError(f"{what} must be <= 0 and not NaN, not {value!r}")
    return number


def _token_logprob(obj, alternatives: str = "top_alternatives") -> TokenLogprob:
    """One logprobs entry, ``{"token", "logprob", <alternatives>: [...]}``;
    scripts name the alternatives `top_alternatives`, the chat-completions
    API `top_logprobs`. A missing field, a token that is not a string or a
    logprob that is not a number <= 0 raises KeyError, TypeError or
    ValueError."""
    return TokenLogprob(
        token=_string(obj["token"], "a logprobs token"),
        logprob=_logprob(obj["logprob"], "a logprob"),
        top_alternatives=tuple(
            (
                _string(alt["token"], f"a {alternatives} token"),
                _logprob(alt["logprob"], f"a {alternatives} logprob"),
            )
            for alt in obj.get(alternatives, [])
        ),
    )


def _site(at) -> tuple[int, int]:
    """A `[depth, branch]` pair as a search expansion's site."""
    if not (
        isinstance(at, (list, tuple)) and len(at) == 2
        and all(isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in at)
        and at[0] >= 1
    ):
        raise ValueError(f"at must be [depth, branch] with depth >= 1 and branch >= 0, not {at!r}")
    return tuple(at)


@dataclass
class ScriptRecord:
    """One replay entry.

    `route` is the request role the record answers; MockGateway rejects a
    record without one. `default` marks a reusable fallback reply for its
    route. `at`, a `[depth, branch]` pair, keys the record to the calls of
    one search expansion (see `ChatRequest.site`); a default record carries
    none. `expect_digest`, when set, must match the incoming request digest
    exactly. `yes_no`, a `(log_p_yes, log_p_no)` pair checked as a
    `YesNoLogprobs`, scripts a judged reply: it becomes the one logprobs entry
    YES with NO as its one alternative, which `yes_no_logprobs` reads as it
    reads an HTTP reply. A record carries `yes_no` or `logprobs`, not both.
    """

    reply: str = ""
    route: Optional[str] = None
    default: bool = False
    expect_digest: Optional[str] = None
    logprobs: Optional[tuple[TokenLogprob, ...]] = None
    yes_no: InitVar[Optional[tuple[float, float]]] = None
    at: Optional[tuple[int, int]] = None

    def __post_init__(self, yes_no):
        if yes_no is not None:
            if self.logprobs is not None:
                raise ValueError("a record carries yes_no or logprobs, not both")
            pair = YesNoLogprobs(*yes_no)
            self.logprobs = (TokenLogprob("YES", pair.log_p_yes, (("NO", pair.log_p_no),)),)
        if self.at is not None:
            self.at = _site(self.at)
            if self.default:
                raise ValueError("a default record cannot carry at")

    @classmethod
    def from_obj(cls, obj: dict) -> "ScriptRecord":
        """Read one JSON record; a `reply`, `route`, `expect_digest` or
        logprob token that is not a string, a `default` that is not a
        boolean, a logprob that is not a number <= 0, a `yes_no` that is not
        two numbers, or a malformed `at` raises ValueError."""
        for key in ("reply", "route", "expect_digest"):
            if key in obj:
                _string(obj[key], key)
        if "default" in obj and not isinstance(obj["default"], bool):
            raise ValueError(f"default must be true or false, not {obj['default']!r}")
        logprobs = None
        if obj.get("logprobs"):
            logprobs = tuple(map(_token_logprob, obj["logprobs"]))
        yes_no = obj.get("yes_no")
        if yes_no is not None:
            if not isinstance(yes_no, list) or len(yes_no) != 2:
                raise ValueError(f"yes_no must be two numbers, not {yes_no!r}")
            yes_no = tuple(_number(value, "a yes_no value") for value in yes_no)
        return cls(
            reply=obj.get("reply", ""),
            route=obj.get("route"),
            default=obj.get("default", False),
            expect_digest=obj.get("expect_digest"),
            logprobs=logprobs,
            yes_no=yes_no,
            at=_site(obj["at"]) if "at" in obj else None,
        )


class MockGateway:
    """Deterministic scripted gateway.

    Every record names a route, one of `ROLE_SETTINGS`. Each call consumes
    the next record queued for its request's `role` and `site` (records
    carrying that `at`), else the next one queued for its role with no
    `at`, else that role's default record; a role with none of these
    raises ProviderError. Keyed records keep a replay deterministic when
    the search has two expansions' calls of one role in flight. Replay files
    are JSON lines, one record per line; `#` lines are comments.
    """

    def __init__(self, records: Sequence[ScriptRecord] = ()):
        self.calls: list[ChatRequest] = []
        self._lock = threading.Lock()
        self._routed: dict[str, list[ScriptRecord]] = {}
        self._keyed: dict[tuple[str, tuple[int, int]], list[ScriptRecord]] = {}
        self._defaults: dict[str, ScriptRecord] = {}
        for record in records:
            self._add(record)

    def _add(self, record: ScriptRecord) -> None:
        _check_role(record.route, f"script record {record.reply!r} route")
        if record.default:
            self._defaults[record.route] = record
        elif record.at is not None:
            self._keyed.setdefault((record.route, record.at), []).append(record)
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

    def complete(self, request: ChatRequest) -> CompletionResult:
        with self._lock:
            self.calls.append(request)
            queue = self._keyed.get((request.role, request.site)) if self._keyed else None
            if not queue:
                queue = self._routed.get(request.role)
            record = queue.pop(0) if queue else self._defaults.get(request.role)
        if record is None:
            raise ProviderError(
                f"script exhausted for route {request.role!r}", key=request.digest()
            )
        if record.expect_digest and record.expect_digest != request.digest():
            raise ProviderError(
                f"prompt digest mismatch: expected {record.expect_digest}, "
                f"got {request.digest()}",
                key=request.digest(),
            )
        logprobs = record.logprobs if request.want_logprobs else None
        return CompletionResult(text=record.reply, logprobs=logprobs)


# ======================================================================
# HTTP clients
# ======================================================================

def _retry_after(header: Optional[str]) -> float:
    """The seconds a `Retry-After` header asks for, given as delta-seconds
    or as an HTTP-date; 0, so that the backoff delay applies, when it is
    missing, unparseable, negative or not finite."""
    if header is None:
        return 0.0
    try:
        seconds = float(header)
    except ValueError:
        from email.utils import parsedate_to_datetime  # only a rate-limited call needs it

        try:
            when = parsedate_to_datetime(header)
            seconds = (when - datetime.now(timezone.utc)).total_seconds()
        except (TypeError, ValueError, OverflowError):
            return 0.0
    return seconds if math.isfinite(seconds) and seconds > 0 else 0.0


class HttpClient:
    """Client for an OpenAI-style endpoint; `HttpGateway` and
    `retrieval.HttpEmbeddingProvider` subclass it.

    Timeouts, rate limits, and 5xx responses are tried `HTTP_ATTEMPTS`
    times in all, waiting `HTTP_BACKOFF_S` before the first retry and twice
    as long before each next one, or longer when a rate limit asks;
    malformed payloads, any other transport failure, and a rate limit that
    asks for a wait longer than `HTTP_TIMEOUT_S`, fail the call immediately.
    A semaphore owned by each instance caps the requests that instance has
    in flight at `HTTP_IN_FLIGHT`, so share one instance to cap a process.
    Credentials come only from the environment variable named at
    construction. `transport` and `sleeper` are injectable so the retries
    are testable without a network.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key_env: str = DEFAULT_API_KEY_ENV,
        transport: Optional[Callable] = None,
        sleeper: Callable[[float], None] = time.sleep,
    ):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key_env = api_key_env
        self._semaphore = threading.Semaphore(HTTP_IN_FLIGHT)
        self._transport = transport or self._default_transport
        self._sleep = sleeper

    def _default_transport(self, url: str, payload: dict, headers: dict) -> dict:
        import requests

        try:
            reply = requests.post(url, json=payload, headers=headers, timeout=HTTP_TIMEOUT_S)
        except requests.Timeout as exc:
            raise ProviderTimeout(str(exc))
        except requests.RequestException as exc:
            raise ProviderError(str(exc))
        if reply.status_code == 429:
            retry_after = _retry_after(reply.headers.get("Retry-After"))
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

    def post(self, path: str, payload: dict, key: str) -> dict:
        """The reply body of `payload` posted to `path`; every ProviderError
        it raises names `key`."""
        url = f"{self.base_url}/{path}"
        headers = self._headers()
        last_error: Optional[Exception] = None
        for attempt in range(HTTP_ATTEMPTS):
            delay = HTTP_BACKOFF_S * 2 ** attempt
            try:
                with self._semaphore:
                    return self._transport(url, payload, headers)
            except MalformedResponse as exc:
                exc.key = exc.key or key
                raise
            except RateLimited as exc:
                last_error = exc
                asked = exc.retry_after if math.isfinite(exc.retry_after) else 0.0
                if asked > HTTP_TIMEOUT_S:
                    raise ProviderError(
                        f"rate limited: asked to wait {asked:g} s, longer than the "
                        f"{HTTP_TIMEOUT_S:g} s timeout",
                        key=key,
                    )
                if attempt + 1 < HTTP_ATTEMPTS:
                    self._sleep(max(asked, delay))
            except (ProviderTimeout, ProviderError) as exc:
                last_error = exc
                if attempt + 1 < HTTP_ATTEMPTS:
                    self._sleep(delay)
            except Exception as exc:
                raise ProviderError(f"{path} request failed: {exc}", key=key)
        raise ProviderError(
            f"gave up after {HTTP_ATTEMPTS} attempts: {last_error}", key=key
        )


class HttpGateway(HttpClient):
    """Client for a chat-completions endpoint, sharing `HttpClient` with
    `retrieval.HttpEmbeddingProvider`: its retries, timeout and concurrency
    cap per instance. A request is sent as its `messages`, and a failure's
    key is its digest; a logprobs entry that a script could not hold (a
    missing field, a token that is not a string, a logprob that is not a
    number <= 0) is skipped."""

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
        body = self.post("chat/completions", self._payload(request), request.digest())
        return self._parse_completion(body, request)

    @staticmethod
    def _parse_completion(body: dict, request: ChatRequest) -> CompletionResult:
        try:
            choice = body["choices"][0]
            text = choice["message"]["content"]
            text = "" if text is None else _string(text, "completion content")
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise MalformedResponse(f"unexpected completion shape: {exc}", key=request.digest())
        logprobs = None
        if request.want_logprobs:
            try:
                content = list(choice["logprobs"]["content"] or ())
            except (KeyError, TypeError):
                content = []
            parsed = []
            for tok in content:
                try:
                    parsed.append(_token_logprob(tok, "top_logprobs"))
                except (KeyError, TypeError, ValueError):
                    continue
            logprobs = tuple(parsed) if parsed else None
        return CompletionResult(text=text, logprobs=logprobs)
