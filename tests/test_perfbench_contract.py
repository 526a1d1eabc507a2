"""The benchmark under perfbench/ traces the program from outside by
wrapping names it looks up at run time. This checks those names here, so a
rename fails this suite and not only the benchmark's own, slower tests."""

import dataclasses
import importlib.util
from pathlib import Path

from conftest import ADD_0_L_SURFACE, FIXTURES, entities_path
from test_coq_backend import worked_backend
from prooforge import proof_search
from prooforge.coq_backend import SyntheticBackend
from prooforge.corpus import load_entity_corpus
from prooforge.llm_gateway import InfoRequest, MockGateway
from prooforge.retrieval import MockEmbeddingProvider, build_index, retrieve
from prooforge.tokenizer import TokenTable

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_name_the_benchmark_wraps_exists():
    tracing = _tracing()
    # Raises SystemExit naming every missing attribute.
    tracing.check_wrappable(proof_search, SyntheticBackend, MockGateway, MockEmbeddingProvider)


def test_a_traced_index_retrieves_as_the_original():
    # The traced run swaps only the provider with dataclasses.replace, so
    # the rows and their float32 screen travel with it and it measures the
    # same retrieval path; each call embeds the query exactly once.
    tracing = _tracing()
    index = build_index(
        MockEmbeddingProvider(seed=0),
        premises=[(f"L.lemma{i}", f"statement {i % 7}") for i in range(40)],
        tactics=[(f"tactic{i % 5}", f"goal {i % 3}") for i in range(12)],
    )
    tracer = tracing.Tracer()
    traced = dataclasses.replace(index, provider=tracing.TracedProvider(index.provider, tracer))
    assert traced.rows is index.rows
    calls = 0
    for query in ("statement 3", "goal 1", "L.lemma7 : statement 0"):
        for k in (0, 1, 5, 12, 40, 41):
            assert retrieve(traced, query, k) == retrieve(index, query, k)
            calls += 1
            assert tracer.counts["retrieval.embeds"] == calls
    assert [span[0] for span in tracer.spans] == ["retrieval.embed"] * calls


def test_the_search_calls_every_name_the_benchmark_times():
    # The benchmark's per-layer figures come from the names it swaps in
    # proof_search; a search that stopped looking them up at call time
    # would read as zero there. The worked proof goes through each phase.
    tracing = _tracing()
    table = TokenTable()
    ports = proof_search.SearchPorts(
        backend=worked_backend(),
        gateway=MockGateway.from_file(str(Path(FIXTURES) / "gateway_prove.jsonl")),
        index=build_index(MockEmbeddingProvider(seed=0), premises=[("A.a", "alpha")]),
        corpus=load_entity_corpus(entities_path(), table),
        table=table,
    )
    tracer = tracing.Tracer()
    with tracing.Patched(proof_search, tracer, InfoRequest):
        result = proof_search.prove(ADD_0_L_SURFACE, proof_search.SearchParams(), ports)
    assert result.outcome is proof_search.Outcome.PROVED
    traced = {span[0] for span in tracer.spans}
    for attr in (
        "concept_pairs",
        "retrieve",
        "render_planner_prompt",
        "render_prove_prompt",
        "render_explanation_prompt",
        "parse_action_response",
    ):
        assert tracing.WRAPPED[attr] in traced, attr
