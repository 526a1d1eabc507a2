"""Every request the search sends, byte for byte.

Two scripted runs record the sha256 of each request text, in call order:
the worked proof driven by the shipped gateway script (every prompt
section present), and a run whose executor asks for a concept first, so
the concept section changes in the middle of an expansion. The digests
were recorded before the search started reusing rendered sections within
an expansion; any change to a prompt byte, to the call order or to the
number of calls shows up here.
"""

import hashlib
import os

from conftest import ADD_0_L_SURFACE, backend_spec_path, entities_path, proofs_path
from test_coq_backend import worked_backend
from test_proof_search import info_corpus, route_defaults, tactics_reply
from prooforge.cli import _load_backend_spec
from prooforge.coq_backend import SyntheticBackend
from prooforge.corpus import load_entity_corpus, load_proof_corpus
from prooforge.llm_gateway import MockGateway, ScriptRecord
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
