"""Every request the search sends, byte for byte.

Two scripted runs record the sha256 of each request text, in call order:
the worked proof driven by the shipped gateway script (every prompt
section present), and a run whose executor asks for a concept first, so
the concept section changes in the middle of an expansion. The digests
were recorded before the search started reusing rendered sections within
an expansion; any change to a prompt byte, to the call order or to the
number of calls shows up here.

The planner prompt is also pinned under every information configuration:
the worked proof runs once with the fixture corpus and once without one (no
concepts), and its four planner requests, one of which lists a failed
tactic, are hashed together.
"""

import hashlib
import json
import os

import pytest

from conftest import ADD_0_L_SURFACE, backend_spec_path, entities_path, proofs_path
from test_coq_backend import worked_backend
from test_proof_search import info_corpus, route_defaults, tactics_reply
from prooforge.cli import _load_backend_spec
from prooforge.coq_backend import SyntheticBackend
from prooforge.corpus import load_entity_corpus, load_proof_corpus
from prooforge.llm_gateway import MockGateway, ScriptRecord
from prooforge.prompt_builder import CONFIG_MATRIX, InfoConfiguration
from prooforge.proof_search import Outcome, SearchParams, SearchPorts, prove
from prooforge.retrieval import MockEmbeddingProvider, build_index
from prooforge.tokenizer import TokenTable

PROVE_SCRIPT = os.path.join(os.path.dirname(__file__), "fixtures", "gateway_prove.jsonl")


def request_digests(gateway: MockGateway) -> list[tuple[str, str]]:
    return [
        (
            request.role,
            hashlib.sha256(
                "\n".join(content for _role, content in request.messages).encode("utf-8")
            ).hexdigest()[:16],
        )
        for request in gateway.calls
    ]


def fixture_index(corpus, proofs):
    premises = [(record.name, record.internal) for record in corpus.records]
    tactic_examples = [
        (step.tactic, step.before.goals[0].goal_internal if step.before.goals else "")
        for proof in proofs.proofs
        for step in proof.steps
    ]
    return build_index(MockEmbeddingProvider(seed=0), premises, tactic_examples)


WORKED_PROOF_DIGESTS = [
    ("planner", "9d8fdfdc1e7f3405"),
    ("executor", "6fae62b18815004f"),
    ("explain", "dab8e1847808fabf"),
    ("summarize", "8003ed97c876669a"),
    ("notebook", "9ff45fb5d584a025"),
    ("planner", "26a8e9e819d0b348"),
    ("executor", "fab8518b94831d03"),
    ("planner", "357f9b6947588b42"),
    ("executor", "fab8518b94831d03"),
    ("explain", "863aaf58c2bb0a43"),
    ("summarize", "4285867dd699041f"),
    ("notebook", "88e2263eea8bc582"),
    ("planner", "b59a778e0165d171"),
    ("executor", "3281be19e2a8331c"),
    ("explain", "bbb66c808259efce"),
]

INFO_REQUEST_DIGESTS = [
    ("planner", "970e7e444f8a3e50"),
    ("executor", "490a0c96a04c1f9b"),
    ("executor", "125c36da3be22367"),
    ("planner", "eb3e533e89485551"),
    ("executor", "125c36da3be22367"),
    ("explain", "dab8e1847808fabf"),
    ("summarize", "8003ed97c876669a"),
    ("notebook", "16aa2570e873d0ca"),
    ("planner", "a4c2c141d3f90ee5"),
    ("executor", "7ac4dec989b216be"),
    ("explain", "863aaf58c2bb0a43"),
    ("summarize", "4285867dd699041f"),
    ("notebook", "5ad9a8d7d407ffb8"),
    ("planner", "49557b3d9960ecb5"),
    ("executor", "9d2d751e46fb4e87"),
    ("explain", "bbb66c808259efce"),
]


def test_worked_proof_requests_are_unchanged():
    table = TokenTable()
    corpus = load_entity_corpus(entities_path(), table)
    proofs = load_proof_corpus(proofs_path())
    gateway = MockGateway.from_file(PROVE_SCRIPT)
    ports = SearchPorts(
        backend=SyntheticBackend(**_load_backend_spec(backend_spec_path())),
        gateway=gateway,
        index=fixture_index(corpus, proofs),
        corpus=corpus,
        table=table,
    )
    result = prove(ADD_0_L_SURFACE, SearchParams(), ports)
    assert result.outcome is Outcome.PROVED
    assert request_digests(gateway) == WORKED_PROOF_DIGESTS


def test_requests_after_an_info_request_are_unchanged(tmp_path):
    # depth 1: the executor asks for add_comm, then proposes a failing
    # tactic, so the reflection planner and the second executor round both
    # show the enlarged concept section; "intros n" then carries the proof.
    corpus, table = info_corpus(tmp_path)
    gateway = MockGateway(route_defaults() + [
        ScriptRecord(reply='{"info": ["add_comm"]}', route="executor"),
        ScriptRecord(reply=tactics_reply("reflexivity"), route="executor"),
        ScriptRecord(reply=tactics_reply("intros n"), route="executor"),
        ScriptRecord(reply=tactics_reply("simpl"), route="executor"),
        ScriptRecord(reply=tactics_reply("reflexivity"), route="executor"),
    ])
    ports = SearchPorts(
        backend=worked_backend(),
        gateway=gateway,
        index=build_index(
            MockEmbeddingProvider(seed=0),
            [(record.name, record.internal) for record in corpus.records],
            [("intros n", ADD_0_L_SURFACE)],
        ),
        corpus=corpus,
        table=table,
    )
    result = prove(ADD_0_L_SURFACE, SearchParams(), ports)
    assert result.outcome is Outcome.PROVED
    assert [e["event"] for e in ports.recorder.events].count("info") == 1
    assert request_digests(gateway) == INFO_REQUEST_DIGESTS


# Per configuration: the planner digest with the fixture corpus, then without.
PLANNER_DIGESTS = {
    InfoConfiguration.NO_CONTEXT: ("a7e5ac1cb65fd390", "a7e5ac1cb65fd390"),
    InfoConfiguration.QUALIFIED_NAME: ("474f68cde673778d", "474f68cde673778d"),
    InfoConfiguration.EMPTY_REFERENCE: ("3bc59cab774ad05f", "3bc59cab774ad05f"),
    InfoConfiguration.ORIGIN_ONLY: ("9b17e3ed19db7eb1", "3bc59cab774ad05f"),
    InfoConfiguration.INTERNAL_ONLY: ("d35dfb68fca68004", "3bc59cab774ad05f"),
    InfoConfiguration.INTUITION_ONLY: ("60804625df9e3acb", "3bc59cab774ad05f"),
    InfoConfiguration.ORIGIN_INTERNAL: ("a7225460ab99b2d4", "3bc59cab774ad05f"),
    InfoConfiguration.ORIGIN_INTUITION: ("149b1604cb3c64de", "3bc59cab774ad05f"),
    InfoConfiguration.INTERNAL_INTUITION: ("c1f78ac21e21ef39", "3bc59cab774ad05f"),
    InfoConfiguration.COMPLETE: ("7c263052fb9bb410", "3bc59cab774ad05f"),
    InfoConfiguration.CHINESE_TRANSLATION: ("7c263052fb9bb410", "3bc59cab774ad05f"),
}


@pytest.mark.parametrize("with_concepts", [True, False], ids=["concepts", "no-concepts"])
@pytest.mark.parametrize("config", list(InfoConfiguration), ids=lambda c: c.value)
def test_planner_requests_are_unchanged(config, with_concepts):
    table = TokenTable()
    corpus = load_entity_corpus(entities_path(), table)
    proofs = load_proof_corpus(proofs_path())
    gateway = MockGateway.from_file(PROVE_SCRIPT)
    ports = SearchPorts(
        backend=SyntheticBackend(**_load_backend_spec(backend_spec_path())),
        gateway=gateway,
        index=fixture_index(corpus, proofs),
        corpus=corpus if with_concepts else None,
        table=table,
        config=config,
    )
    result = prove(ADD_0_L_SURFACE, SearchParams(), ports)
    assert result.outcome is Outcome.PROVED
    planner = [
        "\n".join(content for _role, content in request.messages)
        for request in gateway.calls
        if request.role == "planner"
    ]
    assert len(planner) == 4
    assert sum("=== Failed Tactics ===" in text for text in planner) == 1
    traits = CONFIG_MATRIX[config]
    has_bodies = traits.origin or traits.internal or traits.intuition
    assert all(
        ("# Glob def:" in text) == (with_concepts and has_bodies) for text in planner
    )
    digest = hashlib.sha256("\x00".join(planner).encode("utf-8")).hexdigest()[:16]
    assert digest == PLANNER_DIGESTS[config][0 if with_concepts else 1]


def translated_entities(tmp_path) -> str:
    """The fixture entities, with `Coq.Init.Nat.add`, a concept of the
    worked proof, also carrying `*_zh` texts, so ChineseTranslation renders
    a translated glob-def chunk."""
    lines = []
    with open(entities_path(), encoding="utf-8") as fh:
        for line in fh:
            if '"name": "Coq.Init.Nat.add"' in line:
                obj = json.loads(line)
                obj.update(
                    origin_zh="加法的不动点定义：对第一个参数 n 做结构递归。",
                    internal_zh="add：对 n 分情况，零时返回 m，后继时返回后继。",
                    intuition_zh="按第一个参数结构递归的加法，所以 0 + n 归约为 n。",
                )
                line = json.dumps(obj, ensure_ascii=False) + "\n"
            lines.append(line)
    path = tmp_path / "entities.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    return str(path)


# Per configuration: the executor digest with the translated fixture corpus,
# then without a corpus. Recorded before the search kept rendered concept
# chunks and prompt bodies between rounds.
EXECUTOR_DIGESTS = {
    InfoConfiguration.NO_CONTEXT: ("7a3c34752853b3ba", "7a3c34752853b3ba"),
    InfoConfiguration.QUALIFIED_NAME: ("7e3efdb7cc043bda", "7e3efdb7cc043bda"),
    InfoConfiguration.EMPTY_REFERENCE: ("02ca88397a4375b3", "02ca88397a4375b3"),
    InfoConfiguration.ORIGIN_ONLY: ("f865fc6ae6fd01ae", "02ca88397a4375b3"),
    InfoConfiguration.INTERNAL_ONLY: ("5f2379ec23178ac1", "02ca88397a4375b3"),
    InfoConfiguration.INTUITION_ONLY: ("167d2c3e43d19b4b", "02ca88397a4375b3"),
    InfoConfiguration.ORIGIN_INTERNAL: ("e2e67cbfe6e884e9", "02ca88397a4375b3"),
    InfoConfiguration.ORIGIN_INTUITION: ("361e80010c04deec", "02ca88397a4375b3"),
    InfoConfiguration.INTERNAL_INTUITION: ("14029bf23ce2f3ac", "02ca88397a4375b3"),
    InfoConfiguration.COMPLETE: ("b453a57a29bcd298", "02ca88397a4375b3"),
    InfoConfiguration.CHINESE_TRANSLATION: ("48878bb16356c607", "02ca88397a4375b3"),
}


@pytest.mark.parametrize("with_concepts", [True, False], ids=["concepts", "no-concepts"])
@pytest.mark.parametrize("config", list(InfoConfiguration), ids=lambda c: c.value)
def test_executor_requests_are_unchanged(tmp_path, config, with_concepts):
    table = TokenTable()
    corpus = load_entity_corpus(translated_entities(tmp_path), table)
    proofs = load_proof_corpus(proofs_path())
    gateway = MockGateway.from_file(PROVE_SCRIPT)
    ports = SearchPorts(
        backend=SyntheticBackend(**_load_backend_spec(backend_spec_path())),
        gateway=gateway,
        index=fixture_index(corpus, proofs),
        corpus=corpus if with_concepts else None,
        table=table,
        config=config,
    )
    result = prove(ADD_0_L_SURFACE, SearchParams(), ports)
    assert result.outcome is Outcome.PROVED
    executor = [
        "\n".join(content for _role, content in request.messages)
        for request in gateway.calls
        if request.role == "executor"
    ]
    assert len(executor) == 4
    translated = with_concepts and CONFIG_MATRIX[config].translated
    assert any("加法" in text for text in executor) == translated
    digest = hashlib.sha256("\x00".join(executor).encode("utf-8")).hexdigest()[:16]
    assert digest == EXECUTOR_DIGESTS[config][0 if with_concepts else 1]
