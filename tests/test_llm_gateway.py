"""Gateway layer: requests, action parsing, judged logprobs, mock and HTTP."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prooforge.errors import (
    MalformedResponse,
    ProviderError,
    ProviderTimeout,
    RateLimited,
    UnjudgeableResponse,
)
from prooforge.llm_gateway import (
    ChatRequest,
    HttpGateway,
    InfoRequest,
    LOGPROB_FLOOR,
    MockGateway,
    ROLE_SETTINGS,
    RetryPolicy,
    ScriptRecord,
    TacticSuggestions,
    TokenLogprob,
    Unparsed,
    _balanced_regions,
    derive_yes_no_logprobs,
    parse_action_response,
    parse_int_array,
    parse_string_array,
)


# ----------------------------------------------------------------------
# ChatRequest
# ----------------------------------------------------------------------

class TestChatRequest:
    def test_zero_messages_rejected(self):
        # [TRIVIAL] precondition violation surfaces as a usage error.
        with pytest.raises(ValueError):
            ChatRequest(messages=())

    def test_bad_role_rejected(self):
        with pytest.raises(ValueError):
            ChatRequest(messages=(("narrator", "hello"),))

    def test_digest_is_stable_and_content_sensitive(self):
        a = ChatRequest.user("prompt text", temperature=0.7)
        b = ChatRequest.user("prompt text", temperature=0.7)
        c = ChatRequest.user("different", temperature=0.7)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()
        tagged = ChatRequest.user("prompt text", temperature=0.7, role="planner")
        assert tagged.digest() == a.digest()

    def test_unknown_role_rejected(self):
        # A mistyped role fails where it is written, not as an exhausted
        # script later on.
        with pytest.raises(ValueError, match="'planer' is not a role"):
            ChatRequest.user("prompt text", role="planer")
        with pytest.raises(ValueError, match="'planer' is not a role"):
            ChatRequest.for_role("planer", "prompt text")

    def test_for_role_takes_the_settings_from_the_table(self):
        assert set(ROLE_SETTINGS) == {
            "planner", "executor", "explain", "summarize", "notebook", "rank", "probe", "judge",
        }
        for role, settings in ROLE_SETTINGS.items():
            request = ChatRequest.for_role(role, "prompt text")
            assert request.messages == (("user", "prompt text"),)
            assert request.role == role
            assert (request.temperature, request.max_tokens, request.want_logprobs) == (
                settings.temperature, settings.max_tokens, settings.want_logprobs,
            )


# ----------------------------------------------------------------------
# Action parsing
# ----------------------------------------------------------------------

class TestParseActionResponse:
    def test_info_request(self):
        # [PAPER] action-1 format.
        action = parse_action_response('{"info": ["FixFun", "intros"]}')
        assert action == InfoRequest(names=("FixFun", "intros"))

    def test_fenced_tactics_list(self):
        # [DERIVED] action-2 schema inside a code fence; manual parse oracle.
        reply = (
            "Here is my plan.\n```json\n"
            + json.dumps(
                {
                    "tactics": [
                        {"tactic": "intros n", "reason": "bind the variable"},
                        {"tactic": "simpl", "reason": "reduce"},
                    ]
                }
            )
            + "\n```\nGood luck."
        )
        action = parse_action_response(reply)
        assert isinstance(action, TacticSuggestions)
        assert [t.tactic for t in action.items] == ["intros n", "simpl"]
        assert action.items[0].reason == "bind the variable"

    def test_free_prose_unparsed(self):
        # [TRIVIAL]
        action = parse_action_response("I think we should try induction next.")
        assert isinstance(action, Unparsed)

    def test_bare_keys_accepted(self):
        # The reply template itself uses unquoted keys.
        reply = '{\n  tactics: [\n    {"tactic": "simpl", "reason": "r"}\n  ]\n}'
        action = parse_action_response(reply)
        assert isinstance(action, TacticSuggestions)
        assert action.items[0].tactic == "simpl"

    def test_clamped_to_ten(self):
        entries = [{"tactic": f"t{i}", "reason": ""} for i in range(12)]
        action = parse_action_response(json.dumps({"tactics": entries}))
        assert isinstance(action, TacticSuggestions)
        assert len(action.items) == 10
        assert action.clamped

    def test_tactics_take_precedence_over_info(self):
        reply = json.dumps(
            {"tactics": [{"tactic": "simpl", "reason": ""}], "info": ["eq"]}
        )
        assert isinstance(parse_action_response(reply), TacticSuggestions)

    def test_empty_tactics_list_is_unparsed(self):
        assert isinstance(parse_action_response('{"tactics": []}'), Unparsed)


class TestArrayParsing:
    def test_string_array(self):
        assert parse_string_array('notes: ["a", "b"] done') == ["a", "b"]
        assert parse_string_array("no array here") is None
        assert parse_string_array("[1, 2]") is None

    def test_int_array(self):
        assert parse_int_array("ranked: [2, 0, 1]") == [2, 0, 1]
        assert parse_int_array("[]") is None
        assert parse_int_array('["0"]') is None
        assert parse_int_array("[true]") is None


# ----------------------------------------------------------------------
# Balanced-region scan, against the character loop it replaced
# ----------------------------------------------------------------------

def reference_regions(text: str, open_ch: str, close_ch: str) -> list[str]:
    regions = []
    depth = 0
    start = -1
    in_string = False
    escape = False
    for i, ch in enumerate(text):
        if in_string:
            if escape:
                escape = False
            elif ch == "\\":
                escape = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            in_string = True
        elif ch == open_ch:
            if depth == 0:
                start = i
            depth += 1
        elif ch == close_ch and depth > 0:
            depth -= 1
            if depth == 0:
                regions.append(text[start:i + 1])
    return regions


BRACKETS = (("{", "}"), ("[", "]"))


class TestBalancedRegions:
    @pytest.mark.parametrize("text, expected", [
        # an escaped quote does not end the string
        ('{"a": "x\\"}"} tail {"b": 1}', ['{"a": "x\\"}"}', '{"b": 1}']),
        # a backslash outside a string escapes nothing
        ('\\{"a": 1}', ['{"a": 1}']),
        ('{\\"}', []),
        # an unterminated string swallows the rest of the reply
        ('{"a": 1} "open {"b": 2}', ['{"a": 1}']),
        ('{"a": "open }', []),
        ('{"a": "ends in a backslash\\', []),
        # a closer at depth 0 is ignored
        ('} ] {"a": [1]} }', ['{"a": [1]}']),
        ("", []),
    ])
    def test_fixed_cases(self, text, expected):
        assert _balanced_regions(text, "{", "}") == expected
        assert reference_regions(text, "{", "}") == expected

    @settings(max_examples=400)
    @given(st.text(alphabet='{}[]"\\ab: ,\n', max_size=60), st.sampled_from(BRACKETS))
    def test_matches_the_character_loop(self, text, brackets):
        assert _balanced_regions(text, *brackets) == reference_regions(text, *brackets)


# ----------------------------------------------------------------------
# YES/NO derivation
# ----------------------------------------------------------------------

def _tok(token, logprob, alternatives=()):
    return TokenLogprob(token=token, logprob=logprob, top_alternatives=tuple(alternatives))


class TestDeriveYesNo:
    def test_observed_with_alternative(self):
        # [TRIVIAL] both sides visible: exact pass-through.
        pair = derive_yes_no_logprobs(
            [_tok("YES", -0.1, [("YES", -0.1), ("NO", -2.3)])]
        )
        assert pair.log_p_yes == -0.1
        assert pair.log_p_no == -2.3

    def test_only_yes_visible_floors_no(self):
        # [TRIVIAL] floor rule.
        pair = derive_yes_no_logprobs([_tok("YES", -0.05)])
        assert pair.log_p_yes == -0.05
        assert pair.log_p_no == LOGPROB_FLOOR

    def test_neither_side_visible(self):
        # [TRIVIAL]
        with pytest.raises(UnjudgeableResponse):
            derive_yes_no_logprobs([_tok("MAYBE", -0.2, [("PERHAPS", -1.0)])])

    def test_punctuation_and_case_normalized(self):
        pair = derive_yes_no_logprobs([_tok(" yes.", -0.3, [("No,", -1.5)])])
        assert pair.log_p_yes == -0.3
        assert pair.log_p_no == -1.5

    def test_observed_no_with_yes_alternative(self):
        pair = derive_yes_no_logprobs([_tok("NO", -0.4, [("YES", -1.2)])])
        assert pair.log_p_yes == -1.2
        assert pair.log_p_no == -0.4

    def test_unjudged_first_token_reads_alternatives(self):
        pair = derive_yes_no_logprobs([_tok("Sure", -0.2, [("YES", -0.9)])])
        assert pair.log_p_yes == -0.9
        assert pair.log_p_no == LOGPROB_FLOOR

    def test_empty_reply_unjudgeable(self):
        with pytest.raises(UnjudgeableResponse):
            derive_yes_no_logprobs([])
        with pytest.raises(UnjudgeableResponse):
            derive_yes_no_logprobs([_tok("  ", -0.1)])

    def test_pair_validation(self):
        from prooforge.llm_gateway import YesNoLogprobs

        with pytest.raises(ValueError):
            YesNoLogprobs(log_p_yes=0.5, log_p_no=-1.0)
        with pytest.raises(ValueError):
            YesNoLogprobs(log_p_yes=float("-inf"), log_p_no=float("-inf"))
        YesNoLogprobs(log_p_yes=float("-inf"), log_p_no=-1.0)


# ----------------------------------------------------------------------
# MockGateway
# ----------------------------------------------------------------------

class TestMockGateway:
    def test_record_without_route_rejected(self):
        with pytest.raises(ValueError):
            MockGateway([ScriptRecord(reply="a")])
        with pytest.raises(ValueError):
            MockGateway([ScriptRecord(reply="b", default=True)])

    def test_record_with_unknown_route_rejected(self):
        with pytest.raises(ValueError, match="'planer' is not a role"):
            MockGateway([ScriptRecord(reply="a", route="planer")])
        with pytest.raises(ValueError, match="'Planner' is not a role"):
            MockGateway([ScriptRecord(reply="b", route="Planner", default=True)])

    def test_exhausted_route_raises_while_others_have_records(self):
        # [TRIVIAL] a route never borrows another route's records.
        gateway = MockGateway([
            ScriptRecord(reply="only", route="planner"),
            ScriptRecord(reply="rank", route="rank"),
        ])
        gateway.complete(ChatRequest.user("a", role="planner"))
        with pytest.raises(ProviderError):
            gateway.complete(ChatRequest.user("b", role="planner"))
        assert gateway.complete(ChatRequest.user("c", role="rank")).text == "rank"

    def test_routed_records_consume_per_route(self):
        gateway = MockGateway([
            ScriptRecord(reply="plan", route="planner"),
            ScriptRecord(reply="fallback", route="planner", default=True),
        ])
        assert gateway.complete(ChatRequest.user("x", role="planner")).text == "plan"
        assert gateway.complete(ChatRequest.user("y", role="planner")).text == "fallback"
        assert gateway.complete(ChatRequest.user("z", role="planner")).text == "fallback"

    def test_routed_without_default_exhausts(self):
        gateway = MockGateway([ScriptRecord(reply="one", route="rank")])
        gateway.complete(ChatRequest.user("x", role="rank"))
        with pytest.raises(ProviderError) as exc_info:
            gateway.complete(ChatRequest.user("y", role="rank"))
        assert "rank" in str(exc_info.value)

    def test_routes_on_role_not_on_prompt_text(self):
        # Executor markers in a planner prompt (a hint quoting the actions
        # block, say) do not change where the request goes.
        gateway = MockGateway([
            ScriptRecord(reply="tactics", route="executor"),
            ScriptRecord(reply="plan", route="planner"),
        ])
        text = "Lay out a strategy.\n=== Available Actions ===\n"
        assert gateway.complete(ChatRequest.user(text, role="planner")).text == "plan"
        assert gateway.complete(ChatRequest.user(text, role="executor")).text == "tactics"

    def test_request_without_role_raises(self):
        gateway = MockGateway([
            ScriptRecord(reply="plan", route="planner"),
            ScriptRecord(reply="fallback", route="planner", default=True),
        ])
        with pytest.raises(ProviderError):
            gateway.complete(ChatRequest.user("x"))

    def test_judge_calls_route_as_judge(self):
        gateway = MockGateway([
            ScriptRecord(reply="YES", route="probe", default=True),
            ScriptRecord(route="judge", default=True, yes_no=(-0.1, -2.3)),
        ])
        pair = gateway.yes_no_logprobs("judge this")
        assert (pair.log_p_yes, pair.log_p_no) == (-0.1, -2.3)
        assert gateway.calls[-1].role == "judge"

    def test_expect_digest_guards_prompts(self):
        request = ChatRequest.user("the exact prompt", role="planner")
        record = ScriptRecord(reply="ok", route="planner", expect_digest=request.digest())
        assert MockGateway([record]).complete(request).text == "ok"
        with pytest.raises(ProviderError):
            MockGateway([record]).complete(
                ChatRequest.user("a different prompt", role="planner")
            )

    def test_scripted_yes_no(self):
        # [TRIVIAL] pass-through of the scripted pair.
        gateway = MockGateway([ScriptRecord(route="judge", yes_no=(-0.1, -2.3))])
        pair = gateway.yes_no_logprobs("judge this")
        assert (pair.log_p_yes, pair.log_p_no) == (-0.1, -2.3)

    def test_judge_record_without_pair_unjudgeable(self):
        gateway = MockGateway([ScriptRecord(reply="YES", route="judge")])
        with pytest.raises(UnjudgeableResponse):
            gateway.yes_no_logprobs("judge this")

    def test_from_file_skips_comments(self, tmp_path):
        path = tmp_path / "script.jsonl"
        path.write_text(
            "# a comment\n"
            + json.dumps({"reply": "hello", "route": "planner"})
            + "\n\n"
            + json.dumps({"reply": "world", "route": "planner"})
            + "\n",
            encoding="utf-8",
        )
        gateway = MockGateway.from_file(str(path))
        assert gateway.complete(ChatRequest.user("a", role="planner")).text == "hello"
        assert gateway.complete(ChatRequest.user("b", role="planner")).text == "world"

    def test_calls_are_recorded(self):
        gateway = MockGateway([ScriptRecord(reply="ok", route="rank")])
        request = ChatRequest.user("traceable", role="rank")
        gateway.complete(request)
        assert gateway.calls == [request]


# ----------------------------------------------------------------------
# HttpGateway (fake transport; no network)
# ----------------------------------------------------------------------

def _chat_body(text="fine", logprobs=None):
    choice = {"message": {"content": text}}
    if logprobs is not None:
        choice["logprobs"] = {"content": logprobs}
    return {"choices": [choice]}


class TestHttpGateway:
    def test_payload_and_env_key(self, monkeypatch):
        seen = {}

        def transport(url, payload, headers):
            seen.update(url=url, payload=payload, headers=headers)
            return _chat_body("reply text")

        monkeypatch.setenv("GW_TEST_KEY", "sk-test")
        gateway = HttpGateway(
            "https://api.example/v1", "prover-model", api_key_env="GW_TEST_KEY",
            transport=transport, sleeper=lambda s: None,
        )
        result = gateway.complete(
            ChatRequest.user("hello", temperature=0.7, role="executor")
        )
        assert result.text == "reply text"
        assert seen["url"] == "https://api.example/v1/chat/completions"
        assert seen["payload"]["model"] == "prover-model"
        assert seen["payload"]["messages"] == [{"role": "user", "content": "hello"}]
        assert set(seen["payload"]) == {"model", "messages", "temperature", "max_tokens"}
        assert seen["payload"]["temperature"] == 0.7
        assert seen["headers"]["Authorization"] == "Bearer sk-test"

    def test_retries_then_succeeds(self):
        attempts = []

        def transport(url, payload, headers):
            attempts.append(1)
            if len(attempts) < 3:
                raise ProviderTimeout("slow")
            return _chat_body("finally")

        slept = []
        gateway = HttpGateway(
            "https://api.example", "m",
            retry=RetryPolicy(attempts=3, backoff=0.01),
            transport=transport, sleeper=slept.append,
        )
        assert gateway.complete(ChatRequest.user("q")).text == "finally"
        assert len(attempts) == 3
        assert len(slept) == 2

    def test_gives_up_after_policy_attempts(self):
        def transport(url, payload, headers):
            raise ProviderError("server error 503")

        gateway = HttpGateway(
            "https://api.example", "m",
            retry=RetryPolicy(attempts=2, backoff=0.01),
            transport=transport, sleeper=lambda s: None,
        )
        with pytest.raises(ProviderError):
            gateway.complete(ChatRequest.user("q"))

    def test_rate_limit_honors_retry_after(self):
        calls = []
        slept = []

        def transport(url, payload, headers):
            calls.append(1)
            if len(calls) == 1:
                raise RateLimited("slow down", retry_after=7.5)
            return _chat_body("ok")

        gateway = HttpGateway(
            "https://api.example", "m",
            retry=RetryPolicy(attempts=3, backoff=0.01),
            transport=transport, sleeper=slept.append,
        )
        assert gateway.complete(ChatRequest.user("q")).text == "ok"
        assert slept[0] == 7.5

    def test_no_sleep_after_last_rate_limited_attempt(self):
        calls = []
        slept = []

        def transport(url, payload, headers):
            calls.append(1)
            raise RateLimited("slow down", retry_after=7.5)

        gateway = HttpGateway(
            "https://api.example", "m",
            retry=RetryPolicy(attempts=3, backoff=0.01),
            transport=transport, sleeper=slept.append,
        )
        with pytest.raises(ProviderError, match="gave up after 3 attempts"):
            gateway.complete(ChatRequest.user("q"))
        assert len(calls) == 3
        assert slept == [7.5, 7.5]

    def test_malformed_response_never_retries(self):
        calls = []

        def transport(url, payload, headers):
            calls.append(1)
            raise MalformedResponse("bad request")

        gateway = HttpGateway(
            "https://api.example", "m", transport=transport, sleeper=lambda s: None
        )
        with pytest.raises(MalformedResponse):
            gateway.complete(ChatRequest.user("q"))
        assert len(calls) == 1

    def test_yes_no_via_logprobs(self):
        logprobs = [
            {
                "token": "YES",
                "logprob": -0.2,
                "top_logprobs": [
                    {"token": "YES", "logprob": -0.2},
                    {"token": "NO", "logprob": -1.7},
                ],
            }
        ]

        gateway = HttpGateway(
            "https://api.example", "m",
            transport=lambda *a: _chat_body("YES", logprobs),
            sleeper=lambda s: None,
        )
        pair = gateway.yes_no_logprobs("judge prompt")
        assert pair.log_p_yes == -0.2
        assert pair.log_p_no == -1.7

    def test_yes_no_without_logprobs_unjudgeable(self):
        gateway = HttpGateway(
            "https://api.example", "m",
            transport=lambda *a: _chat_body("YES"), sleeper=lambda s: None,
        )
        with pytest.raises(UnjudgeableResponse):
            gateway.yes_no_logprobs("judge prompt")
