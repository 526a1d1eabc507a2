"""Retrieval: embedding providers, exact cosine index, persistence."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from prooforge.errors import FormatError, ProviderError, ZeroVectorError
from prooforge.retrieval import (
    EmbeddingVector,
    HttpEmbeddingProvider,
    MockEmbeddingProvider,
    PREMISE,
    TACTIC,
    build_index,
    load_index,
    retrieve,
    save_index,
)


class BasisProvider:
    """Maps each configured text to a hand-chosen vector; identity is exact."""

    def __init__(self, table: dict, dim: int):
        self.table = table
        self.dim = dim

    def embed(self, text: str) -> EmbeddingVector:
        return EmbeddingVector(tuple(self.table[text]), dim=self.dim)


# ----------------------------------------------------------------------
# EmbeddingVector / providers
# ----------------------------------------------------------------------

class TestVectors:
    def test_dim_must_match(self):
        with pytest.raises(ValueError):
            EmbeddingVector((1.0, 0.0), dim=3)

    def test_entries_must_be_finite(self):
        with pytest.raises(ValueError):
            EmbeddingVector((float("nan"),), dim=1)
        with pytest.raises(ValueError):
            EmbeddingVector((float("inf"),), dim=1)

    def test_mock_provider_deterministic_unit_vectors(self):
        provider = MockEmbeddingProvider(dim=16, seed=7)
        a = provider.embed("some text")
        b = provider.embed("some text")
        assert a == b
        assert a.dim == 16
        assert np.linalg.norm(a.values) == pytest.approx(1.0, abs=1e-12)

    def test_mock_provider_seed_changes_vectors(self):
        one = MockEmbeddingProvider(dim=16, seed=0).embed("text")
        two = MockEmbeddingProvider(dim=16, seed=1).embed("text")
        assert one != two

    def test_http_provider_uses_env_key_and_parses(self, monkeypatch):
        seen = {}

        def transport(url, payload, headers):
            seen["url"] = url
            seen["payload"] = payload
            seen["headers"] = headers
            return {"data": [{"embedding": [3.0, 4.0]}]}

        monkeypatch.setenv("RETR_TEST_KEY", "sk-fake")
        provider = HttpEmbeddingProvider(
            "https://api.example/v1", "embed-small", api_key_env="RETR_TEST_KEY",
            transport=transport,
        )
        vector = provider.embed("hello")
        assert vector.values == (3.0, 4.0)
        assert seen["url"] == "https://api.example/v1/embeddings"
        assert seen["payload"] == {"model": "embed-small", "input": ["hello"]}
        assert seen["headers"]["Authorization"] == "Bearer sk-fake"

    def test_http_provider_malformed_reply(self):
        provider = HttpEmbeddingProvider(
            "https://api.example", "m", transport=lambda *a: {"unexpected": True}
        )
        with pytest.raises(ProviderError):
            provider.embed("q")


# ----------------------------------------------------------------------
# Index construction
# ----------------------------------------------------------------------

class TestBuildIndex:
    def test_empty_inputs(self):
        # [TRIVIAL]
        index = build_index(MockEmbeddingProvider())
        assert index.items == []

    def test_three_premises(self):
        # [TRIVIAL] size contract: 3 items, dim = mock dim.
        provider = MockEmbeddingProvider(dim=24)
        index = build_index(
            provider,
            premises=[("A.a", "P a"), ("B.b", "Q b"), ("C.c", "R c")],
        )
        assert len(index.items) == 3
        assert index.dim == 24
        assert all(item.kind == PREMISE for item in index.items)

    def test_duplicate_texts_share_vectors(self):
        # [TRIVIAL] provider determinism.
        index = build_index(
            MockEmbeddingProvider(),
            premises=[("A.a", "same"), ("A.a2", "same")],
        )
        assert index.items[0].vector != index.items[1].vector  # keys differ
        dup = build_index(
            MockEmbeddingProvider(), tactics=["intros", "intros"]
        )
        assert dup.items[0].vector == dup.items[1].vector

    def test_tactic_payload_is_the_tactic_text(self):
        index = build_index(
            MockEmbeddingProvider(), tactics=[("simpl", "0 + n = n")]
        )
        assert index.items[0].kind == TACTIC
        assert index.items[0].payload == "simpl"


# ----------------------------------------------------------------------
# Retrieval
# ----------------------------------------------------------------------

class TestRetrieve:
    def test_self_similarity_first(self):
        # [TRIVIAL] query equal to an item key returns it first at 1.0.
        provider = MockEmbeddingProvider()
        index = build_index(
            provider, premises=[("A.a", "alpha"), ("B.b", "beta"), ("C.c", "gamma")]
        )
        results = retrieve(index, "B.b : beta", k=3)
        assert results[0][0] == "B.b : beta"
        assert results[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_k_larger_than_item_count(self):
        # [TRIVIAL]
        index = build_index(
            MockEmbeddingProvider(), premises=[("A.a", "x"), ("B.b", "y")]
        )
        assert len(retrieve(index, "anything", k=10)) == 2

    def test_orthogonal_vectors_exact_similarities(self):
        # [DERIVED] hand-chosen orthonormal vectors; oracle = dot products.
        table = {
            "P1 : a": (1.0, 0.0, 0.0),
            "P2 : b": (0.0, 1.0, 0.0),
            "P3 : c": (0.0, 0.0, 1.0),
            "query": (0.0, 1.0, 0.0),
        }
        provider = BasisProvider(table, dim=3)
        index = build_index(
            provider, premises=[("P1", "a"), ("P2", "b"), ("P3", "c")]
        )
        results = retrieve(index, "query", k=3)
        assert results[0] == ("P2 : b", pytest.approx(1.0))
        assert {r[0] for r in results[1:]} == {"P1 : a", "P3 : c"}
        assert all(sim == pytest.approx(0.0) for _, sim in results[1:])

    def test_kind_filter(self):
        provider = MockEmbeddingProvider()
        index = build_index(
            provider,
            premises=[("A.a", "alpha")],
            tactics=[("intros", "goal text")],
        )
        premises_only = retrieve(index, "q", k=5, kind=PREMISE)
        tactics_only = retrieve(index, "q", k=5, kind=TACTIC)
        assert [p for p, _ in premises_only] == ["A.a : alpha"]
        assert [p for p, _ in tactics_only] == ["intros"]

    def test_zero_query_vector_raises(self):
        table = {"P1 : a": (1.0, 0.0), "null": (0.0, 0.0)}
        index = build_index(BasisProvider(table, 2), premises=[("P1", "a")])
        with pytest.raises(ZeroVectorError):
            retrieve(index, "null", k=1)

    def test_provider_failure_wraps_query_key(self):
        class Exploding:
            dim = 2

            def embed(self, text):
                raise RuntimeError("boom")

        index = build_index(BasisProvider({"P1 : a": (1.0, 0.0)}, 2), premises=[("P1", "a")])
        index.provider = Exploding()
        with pytest.raises(ProviderError) as exc_info:
            retrieve(index, "the query", k=1)
        assert exc_info.value.key == "the query"

    @given(
        st.lists(
            st.lists(
                st.floats(min_value=-5, max_value=5, allow_nan=False),
                min_size=4,
                max_size=4,
            ).filter(lambda v: np.linalg.norm(v) > 1e-6),
            min_size=1,
            max_size=8,
        ),
        st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False),
            min_size=4,
            max_size=4,
        ).filter(lambda v: np.linalg.norm(v) > 1e-6),
    )
    def test_ranking_matches_brute_force(self, item_vectors, query_vector):
        # Property: retrieval order equals an independent cosine computation.
        table = {f"P{i} : s{i}": tuple(vec) for i, vec in enumerate(item_vectors)}
        table["query"] = tuple(query_vector)
        provider = BasisProvider(table, 4)
        index = build_index(
            provider, premises=[(f"P{i}", f"s{i}") for i in range(len(item_vectors))]
        )
        results = retrieve(index, "query", k=len(item_vectors))

        q = np.asarray(query_vector)
        expected = []
        for i, vec in enumerate(item_vectors):
            v = np.asarray(vec)
            sim = float(v @ q / (np.linalg.norm(v) * np.linalg.norm(q)))
            expected.append((f"P{i} : s{i}", sim))
        expected.sort(key=lambda pair: (-pair[1], pair[0]))
        assert [p for p, _ in results] == [p for p, _ in expected]
        for (_, got), (_, want) in zip(results, expected):
            assert got == pytest.approx(want, abs=1e-9)


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------

class TestIndexIO:
    def test_round_trip_preserves_results(self, tmp_path):
        provider = MockEmbeddingProvider()
        index = build_index(
            provider,
            premises=[("A.a", "alpha"), ("B.b", "beta")],
            tactics=[("intros", "some goal")],
        )
        path = str(tmp_path / "index.jsonl")
        save_index(index, path)
        reloaded = load_index(path, provider)
        assert reloaded.dim == index.dim
        assert reloaded.items == index.items
        assert retrieve(reloaded, "alpha", k=3) == retrieve(index, "alpha", k=3)

    def test_count_mismatch_rejected(self, tmp_path):
        provider = MockEmbeddingProvider()
        index = build_index(provider, premises=[("A.a", "alpha")])
        path = str(tmp_path / "index.jsonl")
        save_index(index, path)
        content = Path(path).read_text(encoding="utf-8").splitlines()
        content[0] = content[0].rsplit(" ", 1)[0] + " 5"
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(content) + "\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_index(str(bad), provider)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "index.jsonl"
        path.write_text("{}\n", encoding="utf-8")
        with pytest.raises(FormatError) as exc_info:
            load_index(str(path), MockEmbeddingProvider())
        assert exc_info.value.line == 1
