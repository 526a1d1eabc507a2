"""Gateway layer: requests, action parsing, judged logprobs, mock and HTTP."""

import ast
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timedelta, timezone
from email.utils import format_datetime
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prooforge.errors import (
    MalformedResponse,
    ProoforgeError,
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
    ScriptRecord,
    TacticSuggestions,
    TokenLogprob,
    Unparsed,
    _balanced_regions,
    _interpret,
    _try_load,
    derive_yes_no_logprobs,
    parse_action_response,
    parse_int_array,
    parse_string_array,
    yes_no_logprobs,
)
from prooforge.retrieval import HttpEmbeddingProvider


# ----------------------------------------------------------------------
# ChatRequest
# ----------------------------------------------------------------------

class TestChatRequest:
    def test_digest_is_stable_and_content_sensitive(self):
        a = ChatRequest("executor", "prompt text")
        b = ChatRequest("executor", "prompt text")
        c = ChatRequest("executor", "different")
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()
        tagged = ChatRequest("planner", "prompt text")
        assert tagged.digest() == a.digest()

    def test_digest_takes_a_lone_surrogate(self):
        # A JSON reply may carry "\\ud83d" alone, and a later prompt quotes
        # it; the digest is still defined, and other text hashes as UTF-8.
        lone = ChatRequest("executor", "reply \ud83d quoted")
        assert lone.digest() != ChatRequest("executor", "reply quoted").digest()
        plain = ChatRequest("executor", "caf\u00e9 \U0001f600")
        joined = "user\x1ecaf\u00e9 \U0001f600".encode("utf-8")
        assert plain.digest() == hashlib.sha256(joined).hexdigest()

    def test_unknown_role_rejected(self):
        # A mistyped role fails where it is written, not as an exhausted
        # script later on.
        with pytest.raises(ValueError, match="'planer' is not a role"):
            ChatRequest(role="planer", prompt="prompt text")
        with pytest.raises(ValueError, match="'planer' is not a role"):
            ChatRequest("planer", "prompt text")

    def test_for_role_takes_the_settings_from_the_table(self):
        # A request holds its role, not the settings the table gives it.
        assert [f.name for f in dataclasses.fields(ChatRequest)] == ["role", "prompt", "site"]
        assert set(ROLE_SETTINGS) == {
            "planner", "executor", "explain", "summarize", "notebook", "rank", "probe", "judge",
        }
        for role, settings in ROLE_SETTINGS.items():
            request = ChatRequest(role, "prompt text")
            assert request.messages == (("user", "prompt text"),)
            assert request.role == role
            assert (request.temperature, request.max_tokens, request.want_logprobs) == (
                settings.temperature, settings.max_tokens, settings.want_logprobs,
            )

    @pytest.mark.parametrize("role", list(ROLE_SETTINGS))
    def test_for_role_equals_the_request_built_from_the_table(self, role):
        expected = ChatRequest(role=role, prompt="prompt text")
        assert ChatRequest(role, "prompt text") == expected
        assert ChatRequest(role, "prompt text", (1, 0)) != expected

    def test_site_is_neither_digested_nor_sent(self):
        payloads = []

        def transport(url, payload, headers):
            payloads.append(payload)
            return _chat_body()

        gateway = HttpGateway("https://api.example", "m", transport=transport)
        plain = ChatRequest("executor", "prompt text")
        placed = ChatRequest("executor", "prompt text", (2, 1))
        assert placed.site == (2, 1) and plain.site is None
        assert placed.digest() == plain.digest()
        gateway.complete(plain)
        gateway.complete(placed)
        assert payloads[0] == payloads[1]

    # A message role ("user", "system") is not a request role.
    @pytest.mark.parametrize("role", ["planer", "", None, "user", "system"])
    def test_for_role_rejects_an_unknown_role_listing_the_roles(self, role):
        with pytest.raises(ValueError) as exc_info:
            ChatRequest(role, "prompt text")
        assert str(exc_info.value) == (
            f"request role {role!r} is not a role; roles are {', '.join(ROLE_SETTINGS)}"
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

    def test_clamped_to_ten(self, caplog):
        entries = [{"tactic": f"t{i}", "reason": ""} for i in range(12)]
        with caplog.at_level("WARNING", logger="prooforge.llm_gateway"):
            action = parse_action_response(json.dumps({"tactics": entries}))
        assert isinstance(action, TacticSuggestions)
        assert [t.tactic for t in action.items] == [f"t{i}" for i in range(10)]
        assert "model suggested 12 tactics; clamping to 10" in caplog.messages

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


_DEEP = 100_000


class TestHostileReplies:
    """The parsers are total: replies that make `json.loads` raise something
    other than a decode error read as Unparsed or None."""

    @pytest.mark.parametrize("parser, raw", [
        (parse_action_response, '{"tactics": %s}' % ("9" * 5000)),
        (parse_action_response, '{"a": ' * _DEEP + "1" + "}" * _DEEP),
        (parse_string_array, "[%s]" % ("9" * 5000)),
        (parse_string_array, "[" * _DEEP + "]" * _DEEP),
        (parse_int_array, "[%s]" % ("9" * 5000)),
        (parse_int_array, "[" * _DEEP + "]" * _DEEP),
    ], ids=[
        "action-long-int", "action-deep", "strings-long-int", "strings-deep",
        "ints-long-int", "ints-deep",
    ])
    def test_reads_as_unparsed(self, parser, raw):
        result = parser(raw)
        if parser is parse_action_response:
            assert isinstance(result, Unparsed)
        else:
            assert result is None


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
# The three parsers, against the region scan they share when a reply is not
# one bare JSON value
# ----------------------------------------------------------------------

def reference_loads(raw: str, open_ch: str, close_ch: str):
    return (_try_load(region) for region in _balanced_regions(raw, open_ch, close_ch))


def reference_action(raw: str):
    for obj in reference_loads(raw, "{", "}"):
        action = _interpret(obj)
        if action is not None:
            return action
    return Unparsed(raw=raw)


def reference_string_array(raw: str):
    for loaded in reference_loads(raw, "[", "]"):
        if isinstance(loaded, list) and all(isinstance(x, str) for x in loaded):
            return loaded
    return None


def reference_int_array(raw: str):
    for loaded in reference_loads(raw, "[", "]"):
        if isinstance(loaded, list) and loaded and all(
            isinstance(x, int) and not isinstance(x, bool) for x in loaded
        ):
            return loaded
    return None


_KEYS = st.sampled_from(["tactics", "info", "tactic", "reason", "a_b", "x"])
_SCALARS = (
    st.none() | st.booleans() | st.integers(-5, 99)
    | st.floats(allow_nan=False, allow_infinity=False, width=16)
    | st.text(alphabet='ab {}[]":,\\\n', max_size=8)
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=10,
)
_ACTIONS = st.one_of(
    st.builds(
        lambda tactics: {"tactics": [{"tactic": t, "reason": "r"} for t in tactics]},
        st.lists(st.sampled_from(["intros", "simpl", " ", "ring"]), max_size=3),
    ),
    st.builds(lambda names: {"info": names}, st.lists(st.sampled_from(["eq", "add", ""]), max_size=3)),
    st.lists(st.sampled_from(["note", "x"]), max_size=3),
    st.lists(st.integers(0, 3), max_size=3),
)


@st.composite
def replies(draw):
    value = draw(_ACTIONS | _JSON)
    text = json.dumps(value, indent=draw(st.sampled_from([None, 2])))
    if draw(st.booleans()):
        text = re.sub(r'"([A-Za-z_]+)":', r"\1:", text)  # bare keys
    pad = st.text(alphabet=" \t\n\x0b\u00a0", max_size=3)
    shape = draw(st.sampled_from(["bare", "padded", "prose", "fenced", "two"]))
    if shape == "padded":
        text = draw(pad) + text + draw(pad)
    elif shape == "prose":
        text = draw(st.text(alphabet="ab :{[", max_size=6)) + text + draw(st.text(alphabet="ab }]", max_size=6))
    elif shape == "fenced":
        text = "Plan:\n```json\n" + text + "\n```\n"
    elif shape == "two":
        text = text + draw(pad) + json.dumps(draw(_ACTIONS))
    return text


class TestParsersMatchTheRegionScan:
    @settings(max_examples=600)
    @given(replies())
    def test_every_parser_gives_the_reference_result(self, raw):
        assert parse_action_response(raw) == reference_action(raw)
        assert parse_string_array(raw) == reference_string_array(raw)
        assert parse_int_array(raw) == reference_int_array(raw)

    @pytest.mark.parametrize("raw", [
        '{"tactics": [{"tactic": "simpl"}]}',
        '\n [1, 2] \n',
        '{"tactics": [{"tactic": "a]"}]} {"info": ["eq"]}',
        '["a"] ["b"]',
        '{"tactics": []}',
        '{"x": 1}',
    ])
    def test_fixed_cases(self, raw):
        assert parse_action_response(raw) == reference_action(raw)
        assert parse_string_array(raw) == reference_string_array(raw)
        assert parse_int_array(raw) == reference_int_array(raw)


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

    @pytest.mark.parametrize("token", ["YES", "NO", "Sure"])
    def test_two_infinite_sides_are_unjudgeable(self, token):
        inf = float("-inf")
        with pytest.raises(UnjudgeableResponse, match="both YES and NO"):
            derive_yes_no_logprobs([_tok(token, inf, [("YES", inf), ("NO", inf)])])

    def test_one_infinite_side_is_a_pair(self):
        pair = derive_yes_no_logprobs([_tok("YES", -0.1, [("NO", float("-inf"))])])
        assert (pair.log_p_yes, pair.log_p_no) == (-0.1, float("-inf"))

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
        gateway.complete(ChatRequest("planner", "a"))
        with pytest.raises(ProviderError):
            gateway.complete(ChatRequest("planner", "b"))
        assert gateway.complete(ChatRequest("rank", "c")).text == "rank"

    def test_routed_records_consume_per_route(self):
        gateway = MockGateway([
            ScriptRecord(reply="plan", route="planner"),
            ScriptRecord(reply="fallback", route="planner", default=True),
        ])
        assert gateway.complete(ChatRequest("planner", "x")).text == "plan"
        assert gateway.complete(ChatRequest("planner", "y")).text == "fallback"
        assert gateway.complete(ChatRequest("planner", "z")).text == "fallback"

    def test_routed_without_default_exhausts(self):
        gateway = MockGateway([ScriptRecord(reply="one", route="rank")])
        gateway.complete(ChatRequest("rank", "x"))
        with pytest.raises(ProviderError) as exc_info:
            gateway.complete(ChatRequest("rank", "y"))
        assert "rank" in str(exc_info.value)

    def test_a_keyed_record_answers_its_site_before_the_route_queue(self):
        gateway = MockGateway([
            ScriptRecord(reply="queued", route="executor"),
            ScriptRecord(reply="at 2 1", route="executor", at=(2, 1)),
            ScriptRecord(reply="default", route="executor", default=True),
            ScriptRecord(reply="planner at 2 1", route="planner", at=(2, 1)),
        ])

        def reply(site, role="executor"):
            return gateway.complete(ChatRequest(role, "prompt", site)).text

        assert reply((2, 1)) == "at 2 1"
        assert reply((2, 0)) == "queued"
        assert reply((2, 1)) == "default"
        assert reply(None) == "default"
        with pytest.raises(ProviderError, match="script exhausted for route 'planner'"):
            reply((1, 0), "planner")
        assert reply((2, 1), "planner") == "planner at 2 1"

    def test_from_file_reads_at(self, tmp_path):
        path = tmp_path / "script.jsonl"
        path.write_text(
            json.dumps({"route": "executor", "reply": "later", "at": [3, 2]}) + "\n"
            + json.dumps({"route": "executor", "reply": "first"}) + "\n",
            encoding="utf-8",
        )
        gateway = MockGateway.from_file(str(path))
        assert gateway.complete(ChatRequest("executor", "p", (3, 2))).text == "later"
        assert gateway.complete(ChatRequest("executor", "p", (3, 2))).text == "first"

    @pytest.mark.parametrize(
        "at",
        [[1], [1, 0, 0], [0, 0], [-1, 0], [1, -1], [True, 0], [1, False], [1.0, 0], "1,0", None],
        ids=["one", "three", "depth-0", "negative-depth", "negative-branch", "bool-depth",
             "bool-branch", "float-depth", "string", "null"],
    )
    def test_from_file_rejects_a_malformed_at(self, tmp_path, at):
        path = tmp_path / "script.jsonl"
        path.write_text(json.dumps({"route": "executor", "reply": "x", "at": at}) + "\n")
        with pytest.raises(ValueError) as exc_info:
            MockGateway.from_file(str(path))
        assert str(exc_info.value) == (
            f"gateway script {path}, line 1: at must be [depth, branch] with depth >= 1 "
            f"and branch >= 0, not {at!r}"
        )

    def test_a_default_record_cannot_carry_at(self, tmp_path):
        path = tmp_path / "script.jsonl"
        path.write_text(
            json.dumps({"route": "executor", "reply": "x", "default": True, "at": [1, 0]}) + "\n"
        )
        with pytest.raises(ValueError, match="line 1: a default record cannot carry at"):
            MockGateway.from_file(str(path))
        with pytest.raises(ValueError, match="a default record cannot carry at"):
            ScriptRecord(reply="x", route="executor", default=True, at=(1, 0))

    def test_routes_on_role_not_on_prompt_text(self):
        # Executor markers in a planner prompt (a hint quoting the actions
        # block, say) do not change where the request goes.
        gateway = MockGateway([
            ScriptRecord(reply="tactics", route="executor"),
            ScriptRecord(reply="plan", route="planner"),
        ])
        text = "Lay out a strategy.\n=== Available Actions ===\n"
        assert gateway.complete(ChatRequest("planner", text)).text == "plan"
        assert gateway.complete(ChatRequest("executor", text)).text == "tactics"

    def test_request_without_role_raises(self):
        # No request reaches a gateway without a role: building one fails.
        with pytest.raises(ValueError, match="request role None is not a role"):
            ChatRequest(role=None, prompt="x")

    def test_judge_calls_route_as_judge(self):
        gateway = MockGateway([
            ScriptRecord(reply="YES", route="probe", default=True),
            ScriptRecord(route="judge", default=True, yes_no=(-0.1, -2.3)),
        ])
        pair = yes_no_logprobs(gateway, "judge this")
        assert (pair.log_p_yes, pair.log_p_no) == (-0.1, -2.3)
        assert gateway.calls[-1].role == "judge"

    def test_expect_digest_guards_prompts(self):
        request = ChatRequest("planner", "the exact prompt")
        record = ScriptRecord(reply="ok", route="planner", expect_digest=request.digest())
        assert MockGateway([record]).complete(request).text == "ok"
        with pytest.raises(ProviderError):
            MockGateway([record]).complete(
                ChatRequest("planner", "a different prompt")
            )

    def test_scripted_yes_no(self):
        # [TRIVIAL] pass-through of the scripted pair.
        gateway = MockGateway([ScriptRecord(route="judge", yes_no=(-0.1, -2.3))])
        pair = yes_no_logprobs(gateway, "judge this")
        assert (pair.log_p_yes, pair.log_p_no) == (-0.1, -2.3)

    def test_judge_record_without_pair_unjudgeable(self):
        gateway = MockGateway([ScriptRecord(reply="YES", route="judge")])
        with pytest.raises(UnjudgeableResponse):
            yes_no_logprobs(gateway, "judge this")

    def test_a_yes_no_pair_is_scripted_as_the_logprobs_of_a_judged_reply(self):
        record = ScriptRecord(route="judge", yes_no=(-0.1, -2.3))
        assert record.logprobs == (TokenLogprob("YES", -0.1, (("NO", -2.3),)),)
        assert derive_yes_no_logprobs(record.logprobs) == yes_no_logprobs(
            MockGateway([record]), "judge this"
        )

    def test_a_record_carrying_yes_no_and_logprobs_is_rejected_at_load(self, tmp_path):
        path = tmp_path / "script.jsonl"
        path.write_text(
            json.dumps({
                "route": "judge", "yes_no": [-0.1, -2.3],
                "logprobs": [{"token": "NO", "logprob": -0.1}],
            })
            + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError) as exc_info:
            MockGateway.from_file(str(path))
        assert str(exc_info.value) == (
            f"gateway script {path}, line 1: a record carries yes_no or logprobs, not both"
        )

    def test_judging_is_a_function_of_the_gateway_not_a_method(self):
        assert not hasattr(MockGateway, "yes_no_logprobs")
        assert not hasattr(HttpGateway, "yes_no_logprobs")

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
        assert gateway.complete(ChatRequest("planner", "a")).text == "hello"
        assert gateway.complete(ChatRequest("planner", "b")).text == "world"

    def test_from_file_checks_a_yes_no_pair_at_load(self, tmp_path):
        path = tmp_path / "script.jsonl"
        path.write_text(
            json.dumps({"route": "judge", "default": True, "yes_no": [-0.1, -2.3]})
            + "\n"
            + json.dumps({"route": "judge", "yes_no": [0.5, -1.0]})
            + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError) as exc_info:
            MockGateway.from_file(str(path))
        assert str(exc_info.value) == (
            f"gateway script {path}, line 2: log probabilities must be <= 0 and not NaN"
        )

    @pytest.mark.parametrize(
        "record, message",
        [
            ({"route": "executor", "reply": 5}, "reply must be a string, not 5"),
            ({"route": "planner", "reply": None}, "reply must be a string, not None"),
            ({"route": "executor", "reply": ["intros"]}, "reply must be a string, not ['intros']"),
            ({"route": 5, "reply": "x"}, "route must be a string, not 5"),
            ({"route": None, "reply": "x"}, "route must be a string, not None"),
            ({"route": "planner", "default": "no", "reply": "x"}, "default must be true or false, not 'no'"),
            ({"route": "planner", "default": 1, "reply": "x"}, "default must be true or false, not 1"),
        ],
        ids=["int-reply", "null-reply", "list-reply", "int-route", "null-route", "string-default", "int-default"],
    )
    def test_from_file_rejects_a_malformed_record(self, tmp_path, record, message):
        path = tmp_path / "script.jsonl"
        path.write_text(
            json.dumps({"route": "planner", "default": True, "reply": "p"})
            + "\n"
            + json.dumps(record)
            + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError) as exc_info:
            MockGateway.from_file(str(path))
        assert str(exc_info.value) == f"gateway script {path}, line 2: {message}"

    @pytest.mark.parametrize(
        "record, message",
        [
            (
                {"route": "judge", "reply": "YES", "logprobs": [{"token": 5, "logprob": -0.1}]},
                "a logprobs token must be a string, not 5",
            ),
            (
                {
                    "route": "judge",
                    "reply": "YES",
                    "logprobs": [
                        {
                            "token": "YES",
                            "logprob": -0.1,
                            "top_alternatives": [{"token": None, "logprob": -2.3}],
                        }
                    ],
                },
                "a top_alternatives token must be a string, not None",
            ),
            (
                {"route": "planner", "reply": "x", "expect_digest": 12},
                "expect_digest must be a string, not 12",
            ),
        ],
        ids=["int-logprobs-token", "null-alternative-token", "int-expect-digest"],
    )
    def test_from_file_rejects_a_token_or_digest_that_is_not_a_string(
        self, tmp_path, record, message
    ):
        path = tmp_path / "script.jsonl"
        path.write_text(
            json.dumps({"route": "planner", "default": True, "reply": "p"})
            + "\n"
            + json.dumps(record)
            + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError) as exc_info:
            MockGateway.from_file(str(path))
        assert str(exc_info.value) == f"gateway script {path}, line 2: {message}"

    @pytest.mark.parametrize(
        "logprobs, message",
        [
            ([{"token": "YES", "logprob": True}], "a logprob must be a number, not True"),
            ([{"token": "YES", "logprob": 0.5}], "a logprob must be <= 0 and not NaN, not 0.5"),
            ([{"token": "YES", "logprob": "nan"}], "a logprob must be a number, not 'nan'"),
            ([{"token": "YES", "logprob": float("nan")}], "a logprob must be <= 0 and not NaN, not nan"),
            ([{"token": "YES", "logprob": None}], "a logprob must be a number, not None"),
            (
                [{"token": "YES", "logprob": -0.1, "top_alternatives": [{"token": "NO", "logprob": False}]}],
                "a top_alternatives logprob must be a number, not False",
            ),
            (
                [{"token": "YES", "logprob": -0.1, "top_alternatives": [{"token": "NO", "logprob": 2}]}],
                "a top_alternatives logprob must be <= 0 and not NaN, not 2",
            ),
            (
                [{"token": "YES", "logprob": -0.1, "top_alternatives": [{"token": "NO", "logprob": "-1"}]}],
                "a top_alternatives logprob must be a number, not '-1'",
            ),
        ],
        ids=["bool", "positive", "string-nan", "nan", "null", "bool-alternative",
             "positive-alternative", "string-alternative"],
    )
    def test_from_file_rejects_a_logprob_that_is_not_a_number_at_most_0(
        self, tmp_path, logprobs, message
    ):
        path = tmp_path / "script.jsonl"
        path.write_text(
            json.dumps({"route": "judge", "reply": "YES", "logprobs": logprobs}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError) as exc_info:
            MockGateway.from_file(str(path))
        assert str(exc_info.value) == f"gateway script {path}, line 1: {message}"

    @pytest.mark.parametrize(
        "yes_no, message",
        [
            ([-1, -2, -3], "yes_no must be two numbers, not [-1, -2, -3]"),
            ([-1], "yes_no must be two numbers, not [-1]"),
            ("-1,-2", "yes_no must be two numbers, not '-1,-2'"),
            ([True, -1], "a yes_no value must be a number, not True"),
            (["-1", -2], "a yes_no value must be a number, not '-1'"),
        ],
        ids=["three", "one", "string", "bool", "string-value"],
    )
    def test_from_file_rejects_a_yes_no_that_is_not_two_numbers(self, tmp_path, yes_no, message):
        path = tmp_path / "script.jsonl"
        path.write_text(json.dumps({"route": "judge", "yes_no": yes_no}) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc_info:
            MockGateway.from_file(str(path))
        assert str(exc_info.value) == f"gateway script {path}, line 1: {message}"

    def test_calls_are_recorded(self):
        gateway = MockGateway([ScriptRecord(reply="ok", route="rank")])
        request = ChatRequest("rank", "traceable")
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
            ChatRequest("executor", "hello")
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
            transport=transport, sleeper=slept.append,
        )
        assert gateway.complete(ChatRequest("executor", "q")).text == "finally"
        assert len(attempts) == 3
        assert slept == [1.0, 2.0]

    def test_gives_up_after_policy_attempts(self):
        def transport(url, payload, headers):
            raise ProviderError("server error 503")

        gateway = HttpGateway(
            "https://api.example", "m", transport=transport, sleeper=lambda s: None,
        )
        with pytest.raises(ProviderError, match="gave up after 3 attempts"):
            gateway.complete(ChatRequest("executor", "q"))

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
            transport=transport, sleeper=slept.append,
        )
        assert gateway.complete(ChatRequest("executor", "q")).text == "ok"
        assert slept[0] == 7.5

    def test_no_sleep_after_last_rate_limited_attempt(self):
        calls = []
        slept = []

        def transport(url, payload, headers):
            calls.append(1)
            raise RateLimited("slow down", retry_after=7.5)

        gateway = HttpGateway(
            "https://api.example", "m",
            transport=transport, sleeper=slept.append,
        )
        with pytest.raises(ProviderError, match="gave up after 3 attempts"):
            gateway.complete(ChatRequest("executor", "q"))
        assert len(calls) == 3
        assert slept == [7.5, 7.5]

    @pytest.mark.parametrize(
        "header",
        ["Wed, 21 Oct 2015 07:28:00 GMT", "nan", "inf", "-inf", "-5", "soon", None],
        ids=["past-date", "nan", "inf", "minus-inf", "negative", "prose", "missing"],
    )
    def test_an_unusable_retry_after_header_waits_the_backoff(self, monkeypatch, header):
        import requests

        class Reply:
            status_code = 429
            headers = {} if header is None else {"Retry-After": header}

        monkeypatch.setattr(requests, "post", lambda *args, **kwargs: Reply())
        slept = []
        gateway = HttpGateway(
            "https://api.example", "m",
            sleeper=slept.append,
        )
        with pytest.raises(ProviderError, match="gave up after 3 attempts"):
            gateway.complete(ChatRequest("executor", "q"))
        assert slept == [1.0, 2.0]

    @pytest.mark.parametrize("as_date", [False, True], ids=["seconds", "date"])
    def test_a_retry_after_header_in_seconds_or_as_a_date_is_honored(self, monkeypatch, as_date):
        import requests

        when = datetime.now(timezone.utc) + timedelta(seconds=100)
        header = format_datetime(when, usegmt=True) if as_date else "100"

        class Reply:
            status_code = 429
            headers = {"Retry-After": header}

        monkeypatch.setattr(requests, "post", lambda *args, **kwargs: Reply())
        slept = []
        gateway = HttpGateway(
            "https://api.example", "m",
            sleeper=slept.append,
        )
        with pytest.raises(ProviderError, match="gave up after 3 attempts"):
            gateway.complete(ChatRequest("executor", "q"))
        assert len(slept) == 2 and all(98 <= s <= 100 for s in slept)

    @pytest.mark.parametrize("retry_after", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_a_non_finite_retry_after_from_a_transport_waits_the_backoff(self, retry_after):
        def transport(url, payload, headers):
            raise RateLimited("slow down", retry_after=retry_after)

        slept = []
        gateway = HttpGateway(
            "https://api.example", "m",
            transport=transport, sleeper=slept.append,
        )
        with pytest.raises(ProviderError, match="gave up after 3 attempts"):
            gateway.complete(ChatRequest("executor", "q"))
        assert slept == [1.0, 2.0]
        assert all(math.isfinite(s) for s in slept)

    @pytest.mark.parametrize(
        "source, asked",
        [("header", "1e12"), ("header", "Fri, 31 Dec 9999 23:59:59 GMT"), ("transport", 1e12)],
        ids=["seconds", "far-date", "injected"],
    )
    def test_a_wait_longer_than_the_timeout_fails_the_call(self, monkeypatch, source, asked):
        # time.sleep(1e12) raises OverflowError, and 1e9 s is 31 years: the
        # wait is not taken, and the call fails at once as a ProviderError.
        import requests

        calls = []

        class Reply:
            status_code = 429

            def __init__(self, header):
                self.headers = {"Retry-After": header}

        def post(*args, **kwargs):
            calls.append(1)
            return Reply("5" if len(calls) == 1 else asked)

        def transport(url, payload, headers):
            calls.append(1)
            raise RateLimited("slow down", retry_after=5.0 if len(calls) == 1 else asked)

        monkeypatch.setattr(requests, "post", post)
        slept = []
        gateway = HttpGateway(
            "https://api.example", "m", sleeper=slept.append,
            transport=transport if source == "transport" else None,
        )
        with pytest.raises(ProviderError, match=r"longer than the 120 s timeout"):
            gateway.complete(ChatRequest("executor", "q"))
        assert len(calls) == 2
        assert slept == [5.0]

    def test_malformed_response_never_retries(self):
        calls = []

        def transport(url, payload, headers):
            calls.append(1)
            raise MalformedResponse("bad request")

        gateway = HttpGateway(
            "https://api.example", "m", transport=transport, sleeper=lambda s: None
        )
        with pytest.raises(MalformedResponse):
            gateway.complete(ChatRequest("executor", "q"))
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
        pair = yes_no_logprobs(gateway, "judge prompt")
        assert pair.log_p_yes == -0.2
        assert pair.log_p_no == -1.7

    def test_yes_no_without_logprobs_unjudgeable(self):
        gateway = HttpGateway(
            "https://api.example", "m",
            transport=lambda *a: _chat_body("YES"), sleeper=lambda s: None,
        )
        with pytest.raises(UnjudgeableResponse):
            yes_no_logprobs(gateway, "judge prompt")


class TestHttpReplies:
    @pytest.mark.parametrize("content", [5, ["a"], {"text": "a"}, True])
    def test_non_string_content_is_malformed_and_not_retried(self, content):
        calls = []

        def transport(url, payload, headers):
            calls.append(1)
            return {"choices": [{"message": {"content": content}}]}

        gateway = HttpGateway(
            "https://api.example", "m", transport=transport, sleeper=lambda s: None
        )
        request = ChatRequest("executor", "q")
        with pytest.raises(MalformedResponse, match="must be a string") as exc_info:
            gateway.complete(request)
        assert exc_info.value.key == request.digest()
        assert len(calls) == 1

    def test_null_content_is_the_empty_reply(self):
        gateway = HttpGateway("https://api.example", "m", transport=lambda *a: _chat_body(None))
        assert gateway.complete(ChatRequest("executor", "q")).text == ""

    def test_judged_entries_with_non_string_tokens_are_skipped(self):
        good = {
            "token": "YES",
            "logprob": -0.2,
            "top_logprobs": [{"token": "NO", "logprob": -1.7}],
        }
        bad = [
            {"token": 5, "logprob": -0.1},
            {"token": "NO", "logprob": -0.1, "top_logprobs": [{"token": None, "logprob": -0.3}]},
        ]
        gateway = HttpGateway(
            "https://api.example", "m", transport=lambda *a: _chat_body("NO", bad + [good])
        )
        pair = yes_no_logprobs(gateway, "judge prompt")
        assert (pair.log_p_yes, pair.log_p_no) == (-0.2, -1.7)
        gateway = HttpGateway(
            "https://api.example", "m", transport=lambda *a: _chat_body("NO", bad)
        )
        with pytest.raises(UnjudgeableResponse):
            yes_no_logprobs(gateway, "judge prompt")

    @pytest.mark.parametrize(
        "logprob", [float("nan"), 10 ** 400, float("inf")], ids=["nan", "401-digits", "infinity"]
    )
    def test_a_judged_entry_whose_logprob_a_script_could_not_hold_is_skipped(self, logprob):
        alone = [{"token": "YES", "logprob": logprob}]
        gateway = HttpGateway("https://api.example", "m", transport=lambda *a: _chat_body("YES", alone))
        with pytest.raises(UnjudgeableResponse):
            yes_no_logprobs(gateway, "judge prompt")
        bad_alternative = {"token": "YES", "logprob": -0.2, "top_logprobs": [{"token": "NO", "logprob": logprob}]}
        good = {"token": "NO", "logprob": -0.4, "top_logprobs": [{"token": "YES", "logprob": -1.1}]}
        gateway = HttpGateway(
            "https://api.example", "m", transport=lambda *a: _chat_body("NO", [bad_alternative, good])
        )
        pair = yes_no_logprobs(gateway, "judge prompt")
        assert (pair.log_p_yes, pair.log_p_no) == (-1.1, -0.4)

    @pytest.mark.parametrize("logprobs", [[1], "YES", 5, {"content": 5}])
    def test_a_malformed_logprobs_field_is_no_logprobs(self, logprobs):
        body = {"choices": [{"message": {"content": "YES"}, "logprobs": logprobs}]}
        gateway = HttpGateway("https://api.example", "m", transport=lambda *a: body)
        with pytest.raises(UnjudgeableResponse):
            yes_no_logprobs(gateway, "judge prompt")

    def test_any_other_transport_failure_is_not_retried_and_names_the_digest(self):
        calls = []

        def transport(url, payload, headers):
            calls.append(1)
            raise ConnectionError("endpoint down")

        gateway = HttpGateway(
            "https://api.example", "m", transport=transport, sleeper=lambda s: None
        )
        request = ChatRequest("executor", "q")
        with pytest.raises(ProviderError, match="endpoint down") as exc_info:
            gateway.complete(request)
        assert exc_info.value.key == request.digest()
        assert len(calls) == 1

    def test_a_malformed_response_names_the_digest(self):
        def transport(url, payload, headers):
            raise MalformedResponse("bad request")

        gateway = HttpGateway("https://api.example", "m", transport=transport)
        request = ChatRequest("executor", "q")
        with pytest.raises(MalformedResponse) as exc_info:
            gateway.complete(request)
        assert exc_info.value.key == request.digest()


# Reply bodies drawn along the reply schema: each field holds a value of its
# type or a junk value, or is missing, so a check on any one field is
# reached. A generic JSON fuzz rarely gets past the outer fields.
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=3),
    st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
TOKENS = st.one_of(st.sampled_from(["YES", "NO", " yes", "No.", "maybe", ""]), JUNK)
NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([10 ** 400, -(10 ** 400)]),  # 401 digits, past float range
    st.integers(),
    st.booleans(),
    st.text(max_size=4),
)


def _or_junk(strategy):
    """`strategy`, or one time in four a junk value."""
    return st.sampled_from([True, True, True, False]).flatmap(lambda ok: strategy if ok else JUNK)


def _object(required: dict, optional=None):
    return _or_junk(st.fixed_dictionaries(required, optional=optional))


def _list(elements, max_size=3):
    return _or_junk(st.lists(elements, max_size=max_size))


ENTRIES = _list(_object(
    {"token": TOKENS, "logprob": NUMBERS},
    {"top_logprobs": _list(_object({"token": TOKENS, "logprob": NUMBERS}))},
))
CHAT_BODIES = _object({"choices": _list(_object(
    {"message": _object({}, {"content": st.one_of(st.text(max_size=3), JUNK)})},
    {"logprobs": _object({}, {"content": ENTRIES})},
), max_size=2)})


@st.composite
def embedding_replies(draw):
    """The texts of one embeddings request and a reply body: a row per
    text, each at its own index or at a junk one."""
    texts = [f"t{i}" for i in range(draw(st.integers(min_value=1, max_value=3)))]
    rows = [
        draw(_object({"index": _or_junk(st.just(i))}, {"embedding": _list(NUMBERS)}))
        for i in range(len(texts))
    ]
    return texts, draw(_object({"data": _or_junk(st.just(rows))}))


class TestReplySchema:
    @settings(max_examples=500)
    @given(CHAT_BODIES, embedding_replies())
    def test_every_reply_body_is_a_result_or_a_prooforge_error(self, chat, embeddings):
        def gateway(body):
            return HttpGateway(
                "https://api.example", "m", transport=lambda *a: body, sleeper=lambda s: None
            )

        texts, body = embeddings
        provider = HttpEmbeddingProvider(
            "https://api.example", "m", transport=lambda *a: body, sleeper=lambda s: None
        )
        calls = [
            lambda: gateway(chat).complete(ChatRequest("executor", "q")),
            lambda: gateway(chat).complete(ChatRequest("judge", "q")),
            lambda: yes_no_logprobs(gateway(chat), "q"),
            lambda: provider.embed_many(texts),
        ]
        for call in calls:
            try:
                call()
            except ProoforgeError:
                pass


class _Reply:
    """What `requests.post` returns: a status and a body text."""

    headers = {}

    def __init__(self, status_code: int, text: str):
        self.status_code = status_code
        self.text = text

    def json(self):
        return json.loads(self.text)


# Each HTTP client: its class, its one call, a reply body it accepts and
# what the call returns for it.
HTTP_CLIENTS = {
    "chat": (
        HttpGateway, lambda client: client.complete(ChatRequest("executor", "q")).text,
        _chat_body("hi"), "hi",
    ),
    "embeddings": (
        HttpEmbeddingProvider, lambda client: client.embed_many(["q"]).tolist(),
        {"data": [{"index": 0, "embedding": [1.0, 0.0]}]}, [[1.0, 0.0]],
    ),
}


@pytest.mark.parametrize("kind", sorted(HTTP_CLIENTS))
class TestDefaultTransport:
    """`HttpClient._default_transport` over a patched `requests.post`."""

    @pytest.fixture
    def post(self, monkeypatch):
        """Make every `requests.post` give `outcome` (a reply, or an
        exception to raise); `posted` counts the posts."""
        import requests

        def post(url, json, headers, timeout):
            post.posted += 1
            if isinstance(post.outcome, Exception):
                raise post.outcome
            return post.outcome

        post.posted = 0
        monkeypatch.setattr(requests, "post", post)
        return post

    @staticmethod
    def client(kind):
        """A `kind` client with the default transport, its one call and the
        delays it slept."""
        cls, call, _body, _result = HTTP_CLIENTS[kind]
        slept = []
        client = cls("https://api.example", "m", sleeper=slept.append)
        return client, lambda: call(client), slept

    def test_a_json_reply_is_returned(self, kind, post):
        _cls, _call, body, result = HTTP_CLIENTS[kind]
        post.outcome = _Reply(200, json.dumps(body))
        _client, call, _slept = self.client(kind)
        assert call() == result
        assert post.posted == 1

    @pytest.mark.parametrize("status, text", [(200, "<html>"), (404, "not found")])
    def test_a_non_json_reply_or_a_4xx_is_malformed_and_not_retried(self, kind, post, status, text):
        post.outcome = _Reply(status, text)
        _client, call, slept = self.client(kind)
        with pytest.raises(MalformedResponse):
            call()
        assert post.posted == 1
        assert slept == []

    def test_a_5xx_is_a_provider_error_and_is_retried(self, kind, post):
        post.outcome = _Reply(503, "unavailable")
        _client, call, slept = self.client(kind)
        with pytest.raises(ProviderError, match="gave up after 3 attempts: server error 503"):
            call()
        assert post.posted == 3
        assert slept == [1.0, 2.0]

    @pytest.mark.parametrize(
        "raised, error", [("Timeout", ProviderTimeout), ("ConnectionError", ProviderError)]
    )
    def test_a_transport_exception_is_a_retried_provider_error(self, kind, post, raised, error):
        import requests

        post.outcome = getattr(requests, raised)("no answer")
        client, call, _slept = self.client(kind)
        with pytest.raises(error) as exc_info:
            client._default_transport("https://api.example/x", {}, {})
        assert isinstance(exc_info.value, ProviderTimeout) == (error is ProviderTimeout)
        with pytest.raises(ProviderError, match="gave up after 3 attempts: no answer"):
            call()
        assert post.posted == 1 + 3


@pytest.mark.parametrize("kind", sorted(HTTP_CLIENTS))
def test_one_client_has_at_most_four_requests_in_flight(kind):
    # Eight threads post through one client whose transport holds every
    # request until released: four get in, and the other four wait on the
    # client's cap until those return.
    cls, call, body, result = HTTP_CLIENTS[kind]
    lock = threading.Lock()
    in_flight = []
    peak = [0]
    four_in = threading.Event()
    release = threading.Event()

    def transport(url, payload, headers):
        with lock:
            in_flight.append(1)
            peak[0] = max(peak[0], len(in_flight))
            if len(in_flight) == 4:
                four_in.set()
        release.wait(timeout=30)
        with lock:
            in_flight.pop()
        return body

    client = cls("https://api.example", "m", transport=transport)
    with ThreadPoolExecutor(max_workers=8) as pool:
        calls = [pool.submit(call, client) for _ in range(8)]
        try:
            assert four_in.wait(timeout=10)
            time.sleep(0.2)  # time for a fifth request to get past a broken cap
            assert len(in_flight) == 4
        finally:
            release.set()
        assert [c.result(timeout=30) for c in calls] == [result] * 8
    assert peak[0] == 4


SRC = Path(__file__).resolve().parent.parent / "src"


def _requests_imports(tree, scope=()):
    """The dotted scope of every import of `requests` under `tree`."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            names = []
        if any(name.split(".")[0] == "requests" for name in names):
            yield ".".join(scope)
        inner = scope
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = scope + (node.name,)
        yield from _requests_imports(node, inner)


class TestOneHttpPath:
    def test_requests_is_imported_once_in_the_shared_transport(self):
        found = [
            (path.name, scope)
            for path in sorted((SRC / "prooforge").rglob("*.py"))
            for scope in _requests_imports(ast.parse(path.read_text(encoding="utf-8")))
        ]
        assert found == [("llm_gateway.py", "HttpClient._default_transport")]

    def test_importing_the_cli_leaves_requests_unloaded(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        completed = subprocess.run(
            [sys.executable, "-c", "import sys, prooforge.cli; print('requests' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "False"
