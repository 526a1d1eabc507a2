"""The benchmark under perfbench/ traces the program from outside by
wrapping names it looks up at run time. This checks those names here, so a
rename fails this suite and not only the benchmark's own, slower tests."""

import dataclasses
import importlib.util
from pathlib import Path

from prooforge import proof_search
from prooforge.coq_backend import SyntheticBackend
from prooforge.llm_gateway import MockGateway
from prooforge.retrieval import MockEmbeddingProvider, build_index, retrieve

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
    assert traced.kinds is index.kinds
    calls = 0
    for query in ("statement 3", "goal 1", "L.lemma7 : statement 0"):
        for k in (0, 1, 5, 12, 40, 41):
            assert retrieve(traced, query, k) == retrieve(index, query, k)
            calls += 1
            assert tracer.counts["retrieval.embeds"] == calls
    assert [span[0] for span in tracer.spans] == ["retrieval.embed"] * calls
