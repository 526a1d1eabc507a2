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
