"""The settings every request is sent with, role by role.

`test_prompt_bytes` pins what each request says; this pins how it is asked:
the temperature, the token limit and whether log probabilities are wanted,
for every request of the fixture worked proof, of a ranking call and of a
`clarity` run over two configurations.
"""

import os

from conftest import ADD_0_L_SURFACE, FIXTURES, backend_spec_path, entities_path, proofs_path
from test_prompt_bytes import fixture_index
from prooforge import cli
from prooforge.cli import _load_backend_spec
from prooforge.coq_backend import SyntheticBackend
from prooforge.core_model import GoalState, ProofState, SearchCandidate
from prooforge.corpus import load_entity_corpus, load_proof_corpus
from prooforge.llm_gateway import MockGateway, ScriptRecord
from prooforge.proof_search import Outcome, SearchParams, SearchPorts, SelectionMode, prove, select_best
from prooforge.tokenizer import TokenTable

PROVE_SCRIPT = os.path.join(FIXTURES, "gateway_prove.jsonl")
CLARITY_SCRIPT = os.path.join(FIXTURES, "gateway_clarity.jsonl")

SAMPLED = (0.7, 1024, False)
GREEDY = (0.0, 1024, False)
JUDGED = (0.0, 4, True)

WORKED_PROOF_SETTINGS = [
    ("planner", *SAMPLED),
    ("executor", *SAMPLED),
    ("explain", *SAMPLED),
    ("summarize", *SAMPLED),
    ("notebook", *SAMPLED),
    ("planner", *SAMPLED),
    ("executor", *SAMPLED),
    ("planner", *SAMPLED),
    ("executor", *SAMPLED),
    ("explain", *SAMPLED),
    ("summarize", *SAMPLED),
    ("notebook", *SAMPLED),
    ("planner", *SAMPLED),
    ("executor", *SAMPLED),
    ("explain", *SAMPLED),
]

# Two configurations, two probes each, every probe judged.
CLARITY_SETTINGS = [("probe", *GREEDY), ("judge", *JUDGED)] * 4


def settings_of(requests) -> list[tuple]:
    return [
        (request.role, request.temperature, request.max_tokens, request.want_logprobs)
        for request in requests
    ]


def test_worked_proof_request_settings():
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
    assert prove(ADD_0_L_SURFACE, SearchParams(), ports).outcome is Outcome.PROVED
    assert settings_of(gateway.calls) == WORKED_PROOF_SETTINGS


def test_rank_request_settings():
    gateway = MockGateway([ScriptRecord(reply="[2, 0]", route="rank")])
    goal = ProofState((GoalState((), (), "P", "P"),))
    candidates = [SearchCandidate(state=goal, summary=f"s{i}") for i in range(3)]
    select_best(goal, candidates, 2, SelectionMode.MODEL_BASED, gateway)
    assert settings_of(gateway.calls) == [("rank", *GREEDY)]


def test_clarity_request_settings(tmp_path, monkeypatch, capsys):
    gateways = []
    build = cli._build_gateway

    def recording_build(cfg):
        gateways.append(build(cfg))
        return gateways[-1]

    monkeypatch.setattr(cli, "_build_gateway", recording_build)
    code = cli.main([
        "clarity",
        "--backend", "synthetic",
        "--backend-spec", backend_spec_path(),
        "--gateway", "mock",
        "--gateway-script", CLARITY_SCRIPT,
        "--entities", entities_path(),
        "--theorem", ADD_0_L_SURFACE,
        "--configs", "NoContext,Complete",
        "--per-bundle", "2",
        "--out", str(tmp_path),
    ])
    capsys.readouterr()
    assert code == cli.EXIT_OK
    assert settings_of(call for g in gateways for call in g.calls) == CLARITY_SETTINGS
