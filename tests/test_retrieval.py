"""Retrieval: embedding providers and the exact per-kind cosine index."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import kind_rows
from test_proof_search import CountingTransport
from prooforge import retrieval
from prooforge.errors import MalformedResponse, ProviderError, RateLimited, ZeroVectorError
from prooforge.retrieval import (
    HttpEmbeddingProvider,
    MockEmbeddingProvider,
    PREMISE,
    TACTIC,
    build_index,
    retrieve,
)


class BasisProvider:
    """Maps each configured text to a hand-chosen vector; identity is exact."""

    def __init__(self, table: dict):
        self.table = table

    def embed(self, text: str) -> np.ndarray:
        return np.asarray(self.table[text], dtype=float)

    def embed_many(self, texts):
        return [self.embed(text) for text in texts]


class ManyBasisProvider(BasisProvider):
    """A BasisProvider whose `embed_many` returns the table's rows as given
    and logs each call's texts."""

    def __init__(self, table: dict):
        super().__init__(table)
        self.calls: list[list[str]] = []

    def embed_many(self, texts):
        self.calls.append(list(texts))
        return [self.table[text] for text in texts]


def http_provider(transport) -> HttpEmbeddingProvider:
    return HttpEmbeddingProvider("http://embed.invalid", "m", transport=transport)


# ----------------------------------------------------------------------
# Providers and their vectors
# ----------------------------------------------------------------------

class TestVectors:
    def test_dim_must_match(self):
        # Within one kind and across kinds.
        table = {"P1 : a": (1.0, 0.0), "P2 : b": (1.0, 0.0, 0.0), "intros \x1f g": (0.0, 1.0, 0.0)}
        for kind in (BasisProvider, ManyBasisProvider):
            with pytest.raises(ValueError, match="mixed dimensions"):
                build_index(kind(table), premises=[("P1", "a"), ("P2", "b")])
            with pytest.raises(ValueError, match="mixed dimensions"):
                build_index(kind(table), premises=[("P1", "a")], tactics=[("intros", "g")])

    def test_entries_must_be_finite(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            table = {"P1 : a": (1.0, bad), "P2 : b": (1.0, 0.0), "query": (bad, 1.0)}
            for kind in (BasisProvider, ManyBasisProvider):
                with pytest.raises(ValueError, match="finite"):
                    build_index(kind(table), premises=[("P2", "b"), ("P1", "a")])
            index = build_index(BasisProvider(table), premises=[("P2", "b")])
            with pytest.raises(ProviderError) as exc_info:
                retrieve(index, "query", 1)
            assert exc_info.value.key == "query"
            provider = HttpEmbeddingProvider(
                "https://api.example", "m",
                transport=lambda *a, bad=bad: {"data": [{"index": 0, "embedding": [bad, 1.0]}]},
            )
            with pytest.raises(ProviderError, match="finite"):
                provider.embed("q")

    def test_mock_provider_deterministic_unit_vectors(self):
        provider = MockEmbeddingProvider(dim=16, seed=7)
        a = provider.embed("some text")
        b = provider.embed("some text")
        assert np.array_equal(a, b)
        assert a.shape == (16,)
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)

    def test_mock_provider_seed_changes_vectors(self):
        one = MockEmbeddingProvider(dim=16, seed=0).embed("text")
        two = MockEmbeddingProvider(dim=16, seed=1).embed("text")
        assert not np.array_equal(one, two)

    def test_http_provider_uses_env_key_and_parses(self, monkeypatch):
        seen = {}

        def transport(url, payload, headers):
            seen["url"] = url
            seen["payload"] = payload
            seen["headers"] = headers
            return {"data": [{"index": 0, "embedding": [3.0, 4.0]}]}

        monkeypatch.setenv("RETR_TEST_KEY", "sk-fake")
        provider = HttpEmbeddingProvider(
            "https://api.example/v1", "embed-small", api_key_env="RETR_TEST_KEY",
            transport=transport,
        )
        vector = provider.embed("hello")
        assert vector.tolist() == [3.0, 4.0]
        assert provider.dim == 2
        assert seen["url"] == "https://api.example/v1/embeddings"
        assert seen["payload"] == {"model": "embed-small", "input": ["hello"]}
        assert seen["headers"]["Authorization"] == "Bearer sk-fake"

    def test_http_provider_malformed_reply(self):
        for reply in (
            {"unexpected": True},
            {"data": [{"index": 0, "embedding": [[1.0, 2.0]]}]},
            {"data": [{"embedding": [1.0, 2.0]}]},
            {"data": [{"index": True, "embedding": [1.0, 2.0]}]},
            {"data": [{"index": 0}]},
            {"data": ["row"]},
        ):
            provider = HttpEmbeddingProvider(
                "https://api.example", "m", transport=lambda *a, reply=reply: reply
            )
            with pytest.raises(ProviderError):
                provider.embed("q")


# ----------------------------------------------------------------------
# Embedding many texts at once
# ----------------------------------------------------------------------

TEXTS = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["", "intros \x1f g", "été", "证明", "\ud83d", "a\udc00b", "x" * 300]),
)


class TestMockEmbedMany:
    @given(
        st.lists(TEXTS, max_size=9),
        st.sampled_from([1, 2, 32, 33]),
        st.sampled_from([0, 1, 2**64 + 12345]),
        st.integers(1, 4),
    )
    def test_equals_the_stacked_single_embeddings_byte_for_byte(self, texts, dim, seed, chunk):
        # Small chunks put the seeding pass's boundaries between the texts.
        provider = MockEmbeddingProvider(dim=dim, seed=seed)
        with mock.patch.object(retrieval, "_SEED_CHUNK", chunk):
            many = provider.embed_many(texts)
        single = [provider.embed(text) for text in texts]
        expected = np.stack(single) if single else np.empty((0, dim))
        assert many.dtype == expected.dtype and many.shape == expected.shape
        assert many.tobytes() == expected.tobytes()

    def test_the_start_states_are_default_rngs(self):
        seeds = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
        states = retrieval._pcg64_states(np.array(seeds, dtype=np.uint64))
        assert states == [np.random.default_rng(s).bit_generator.state["state"] for s in seeds]

    def test_a_zero_draw_falls_back_to_the_ones_direction(self):
        raw = np.zeros(4)
        assert retrieval._unit(raw).tolist() == [0.5] * 4
        out = np.empty(4)
        retrieval._unit(raw, out=out)
        assert out.tolist() == [0.5] * 4


BATCH = retrieval._HTTP_BATCH


class TestHttpEmbedMany:
    def test_a_build_sends_one_request_per_batch_of_distinct_keys(self):
        transport = CountingTransport()
        provider = http_provider(transport)
        premises = [(f"P{i}", "s") for i in range(2 * BATCH + 5)]
        tactics = [("intros", "g")] * 3
        distinct = [f"P{i} : s" for i in range(2 * BATCH + 5)] + ["intros \x1f g"]
        for build in (1, 2):
            index = build_index(provider, premises=premises + premises[:4], tactics=tactics)
            assert transport.requests == build * math.ceil(len(distinct) / BATCH)
            assert transport.texts == distinct * build
        mock_rows = MockEmbeddingProvider().embed_many(distinct)
        assert kind_rows(index)[PREMISE].matrix.tobytes() == np.concatenate(
            [mock_rows[:-1], mock_rows[:4]]
        ).tobytes()
        assert kind_rows(index)[TACTIC].matrix.tobytes() == np.repeat(mock_rows[-1:], 3, 0).tobytes()
        assert provider.dim == 32

    def test_rows_out_of_index_order_land_in_place(self):
        transport = CountingTransport()
        texts = [f"t{i}" for i in range(BATCH + 3)]

        def shuffled(url, payload, headers):
            body = transport(url, payload, headers)
            body["data"] = body["data"][1::2] + body["data"][::2][::-1]
            return body

        rows = http_provider(shuffled).embed_many(texts)
        assert rows.tobytes() == MockEmbeddingProvider().embed_many(texts).tobytes()
        assert http_provider(shuffled).embed("t1").tolist() == rows[1].tolist()

    @pytest.mark.parametrize(
        "fault, named, message",
        [
            ("short", 5, "0 rows for input 5"),
            ("missing-index", 5, "0 rows for input 5"),
            ("repeated-index", 3, "2 rows for input 3"),
            ("extra-row", 0, f"{BATCH + 1} rows for {BATCH} inputs"),
            ("non-finite", 9, "finite"),
            ("huge-integer", 9, "finite"),
            ("other-length", 9, "31 dimensions, the first row has 32"),
            ("string-entries", 9, "entry '1.5' is not a number"),
            ("boolean-entry", 9, "entry True is not a number"),
            ("not-a-list", 0, "malformed"),
        ],
    )
    def test_a_bad_reply_names_the_key(self, fault, named, message):
        # The fault is in the second request, so the key named is
        # counted from that request's first text.
        transport = CountingTransport()

        def faulty(url, payload, headers):
            body = transport(url, payload, headers)
            data = body["data"]
            if transport.requests == 2:
                if fault == "short":
                    del data[5]
                elif fault == "missing-index":
                    del data[5]["index"]
                elif fault == "repeated-index":
                    data[7]["index"] = 3
                elif fault == "extra-row":
                    data.append(dict(data[0], index=len(data)))
                elif fault == "non-finite":
                    data[9]["embedding"][0] = float("nan")
                elif fault == "huge-integer":
                    data[9]["embedding"][0] = -10 ** 400  # 401 digits, past float range
                elif fault == "other-length":
                    data[9]["embedding"].pop()
                elif fault == "string-entries":
                    data[9]["embedding"][:3] = ["1.5", True, " -2 "]
                elif fault == "boolean-entry":
                    data[9]["embedding"][1] = True
                else:
                    body["data"] = 5
            return body

        texts = [f"t{i}" for i in range(2 * BATCH + 33)]
        with pytest.raises(ProviderError, match=message) as exc_info:
            http_provider(faulty).embed_many(texts)
        assert exc_info.value.key == texts[BATCH + named]

    def test_a_failed_request_names_its_first_text(self):
        texts = [f"t{i}" for i in range(2 * BATCH)]
        transport = CountingTransport(fail={texts[BATCH + 4]})
        with pytest.raises(ProviderError, match="endpoint down") as exc_info:
            http_provider(transport).embed_many(texts)
        assert exc_info.value.key == texts[BATCH]
        assert transport.requests == 2


class FlakyTransport(CountingTransport):
    """A CountingTransport whose n-th request, for each n in `faults`,
    raises `faults[n]` instead of answering."""

    def __init__(self, faults):
        super().__init__()
        self.faults = faults

    def __call__(self, url, payload, headers):
        body = super().__call__(url, payload, headers)
        if self.requests in self.faults:
            raise self.faults[self.requests]
        return body


class TestHttpEmbedRetry:
    """The embeddings requests go through the chat gateway's retry policy."""

    TEXTS = [f"t{i}" for i in range(2 * BATCH + 5)]

    def test_transient_failures_in_a_build_are_retried(self):
        transport = FlakyTransport({
            2: RateLimited("slow down", retry_after=2.5),
            3: ProviderError("server error 503"),
        })
        slept = []
        provider = HttpEmbeddingProvider(
            "http://embed.invalid", "m", transport=transport, sleeper=slept.append
        )
        index = build_index(provider, premises=[(text, "s") for text in self.TEXTS])
        assert transport.requests == 3 + 2
        assert slept == [2.5, 2.0]
        keys = [f"{text} : s" for text in self.TEXTS]
        assert kind_rows(index)[PREMISE].matrix.tobytes() == (
            MockEmbeddingProvider().embed_many(keys).tobytes()
        )

    def test_a_wait_longer_than_the_timeout_fails_the_batch_at_once(self):
        transport = FlakyTransport({2: RateLimited("slow down", retry_after=1e12)})
        slept = []
        provider = HttpEmbeddingProvider(
            "http://embed.invalid", "m", transport=transport, sleeper=slept.append
        )
        with pytest.raises(ProviderError, match="longer than the 120 s timeout") as exc_info:
            provider.embed_many(self.TEXTS)
        assert exc_info.value.key == self.TEXTS[BATCH]
        assert transport.requests == 2
        assert slept == []

    def test_a_malformed_response_is_not_retried(self):
        transport = FlakyTransport({2: MalformedResponse("request rejected: 400")})
        provider = HttpEmbeddingProvider(
            "http://embed.invalid", "m", transport=transport, sleeper=lambda s: None
        )
        with pytest.raises(MalformedResponse, match="400") as exc_info:
            provider.embed_many(self.TEXTS)
        assert exc_info.value.key == self.TEXTS[BATCH]
        assert transport.requests == 2


# ----------------------------------------------------------------------
# Index construction
# ----------------------------------------------------------------------

class TestBuildIndex:
    def test_empty_inputs(self):
        # [TRIVIAL]
        index = build_index(MockEmbeddingProvider())
        assert all(not rows.payloads for rows in kind_rows(index).values())
        assert retrieve(index, "anything", 5) == {PREMISE: [], TACTIC: []}

    def test_three_premises(self):
        # [TRIVIAL] size contract: 3 rows, dim = mock dim.
        provider = MockEmbeddingProvider(dim=24)
        index = build_index(
            provider,
            premises=[("A.a", "P a"), ("B.b", "Q b"), ("C.c", "R c")],
        )
        rows = kind_rows(index)[PREMISE]
        assert rows.payloads == ("A.a : P a", "B.b : Q b", "C.c : R c")
        assert rows.matrix.shape == (3, 24)
        assert index.dim == 24
        assert kind_rows(index)[TACTIC].payloads == ()

    def test_duplicate_texts_share_vectors(self):
        # [TRIVIAL] provider determinism.
        index = build_index(
            MockEmbeddingProvider(),
            premises=[("A.a", "same"), ("A.a2", "same")],
        )
        matrix = kind_rows(index)[PREMISE].matrix
        assert not np.array_equal(matrix[0], matrix[1])  # keys differ
        dup = build_index(
            MockEmbeddingProvider(), tactics=[("intros", "g"), ("intros", "g")]
        )
        matrix = kind_rows(dup)[TACTIC].matrix
        assert np.array_equal(matrix[0], matrix[1])

    def test_a_repeated_key_costs_one_request_per_build(self):
        transport = CountingTransport()
        provider = HttpEmbeddingProvider("http://embed.invalid", "m", transport=transport)
        premises = [("A.a", "alpha"), ("B.b", "beta"), ("A.a", "alpha")]
        tactics = [("intros", "g"), ("intros", "g"), ("simpl", "g")]
        distinct = ["A.a : alpha", "B.b : beta", "intros \x1f g", "simpl \x1f g"]
        for build in (1, 2):
            index = build_index(provider, premises=premises, tactics=tactics)
            assert transport.texts == distinct * build
        rows = kind_rows(index)[PREMISE]
        assert rows.payloads == ("A.a : alpha", "B.b : beta", "A.a : alpha")
        assert np.array_equal(rows.matrix[0], rows.matrix[2])
        assert list(rows.key_rank) == [0, 2, 1]
        rows = kind_rows(index)[TACTIC]
        assert rows.payloads == ("intros", "intros", "simpl")
        assert np.array_equal(rows.matrix[0], rows.matrix[1])
        assert not np.array_equal(rows.matrix[0], rows.matrix[2])

    def test_one_embed_many_call_embeds_the_distinct_keys(self):
        table = {"A.a : x": (1.0, 0.0), "B.b : y": (0.0, 1.0), "intros \x1f g": (1.0, 1.0)}
        provider = ManyBasisProvider(table)
        index = build_index(
            provider, premises=[("A.a", "x"), ("B.b", "y"), ("A.a", "x")],
            tactics=[("intros", "g")],
        )
        assert provider.calls == [["A.a : x", "B.b : y", "intros \x1f g"]]
        assert kind_rows(index)[PREMISE].matrix.tolist() == [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
        assert kind_rows(index)[TACTIC].matrix.tolist() == [[1.0, 1.0]]

        class Short(ManyBasisProvider):
            def embed_many(self, texts):
                return super().embed_many(texts)[:-1]

        with pytest.raises(ValueError, match="2 rows for 3 keys"):
            build_index(Short(table), premises=[("A.a", "x"), ("B.b", "y")],
                        tactics=[("intros", "g")])

    def test_a_lone_surrogate_key_and_query_embed(self):
        # A JSON "\ud83d" escape decodes to a lone surrogate, which UTF-8
        # cannot encode; the mock hashes it as request digests do.
        provider = MockEmbeddingProvider()
        index = build_index(
            provider, premises=[("A.a", "ends in \ud83d"), ("B.b", "beta")],
            tactics=[("intros", "\ud83d")],
        )
        ranked = retrieve(index, "A.a : ends in \ud83d", 1)
        assert ranked[PREMISE] == [("A.a : ends in \ud83d", pytest.approx(1.0, abs=1e-12))]
        assert retrieve(index, "intros \x1f \ud83d", 1)[TACTIC][0][1] == pytest.approx(1.0)
        assert len(retrieve(index, "goal \udc00", 2)[PREMISE]) == 2

    def test_tactic_payload_is_the_tactic_text(self):
        index = build_index(
            MockEmbeddingProvider(), tactics=[("simpl", "0 + n = n")]
        )
        assert kind_rows(index)[TACTIC].payloads == ("simpl",)
        assert kind_rows(index)[PREMISE].payloads == ()


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
        results = retrieve(index, "B.b : beta", 3)[PREMISE]
        assert results[0][0] == "B.b : beta"
        assert results[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_k_larger_than_item_count(self):
        # [TRIVIAL]
        index = build_index(
            MockEmbeddingProvider(), premises=[("A.a", "x"), ("B.b", "y")]
        )
        assert len(retrieve(index, "anything", 10)[PREMISE]) == 2

    def test_negative_k_rejected(self):
        index = build_index(MockEmbeddingProvider(), premises=[("A.a", "x")])
        with pytest.raises(ValueError):
            retrieve(index, "anything", -1)

    def test_orthogonal_vectors_exact_similarities(self):
        # [DERIVED] hand-chosen orthonormal vectors; oracle = dot products.
        table = {
            "P1 : a": (1.0, 0.0, 0.0),
            "P2 : b": (0.0, 1.0, 0.0),
            "P3 : c": (0.0, 0.0, 1.0),
            "query": (0.0, 1.0, 0.0),
        }
        provider = BasisProvider(table)
        index = build_index(
            provider, premises=[("P1", "a"), ("P2", "b"), ("P3", "c")]
        )
        results = retrieve(index, "query", 3)[PREMISE]
        assert results[0] == ("P2 : b", pytest.approx(1.0))
        assert {r[0] for r in results[1:]} == {"P1 : a", "P3 : c"}
        assert all(sim == pytest.approx(0.0) for _, sim in results[1:])

    def test_one_call_ranks_each_kind(self):
        provider = MockEmbeddingProvider()
        index = build_index(
            provider,
            premises=[("A.a", "alpha")],
            tactics=[("intros", "goal text")],
        )
        ranked = retrieve(index, "q", k=5)
        assert set(ranked) == {PREMISE, TACTIC}
        assert [p for p, _ in ranked[PREMISE]] == ["A.a : alpha"]
        assert [p for p, _ in ranked[TACTIC]] == ["intros"]

    def test_zero_query_vector_raises(self):
        table = {"P1 : a": (1.0, 0.0), "null": (0.0, 0.0)}
        index = build_index(BasisProvider(table), premises=[("P1", "a")])
        with pytest.raises(ZeroVectorError):
            retrieve(index, "null", 1)

    def test_provider_failure_wraps_query_key(self):
        class Exploding:
            dim = 2

            def embed(self, text):
                raise RuntimeError("boom")

        index = build_index(BasisProvider({"P1 : a": (1.0, 0.0)}), premises=[("P1", "a")])
        index.provider = Exploding()
        with pytest.raises(ProviderError) as exc_info:
            retrieve(index, "the query", 1)
        assert exc_info.value.key == "the query"

    def test_query_dimension_must_match_the_index(self):
        # Each kind that holds rows checks the query's length.
        table = {
            "P1 : a": (1.0, 0.0),
            "intros \x1f g": (0.0, 1.0),
            "short": (1.0,),
            "long": (1.0, 0.0, 0.0),
        }
        provider = BasisProvider(table)
        for index in (
            build_index(provider, premises=[("P1", "a")]),
            build_index(provider, tactics=[("intros", "g")]),
        ):
            for query in ("short", "long"):
                with pytest.raises(ProviderError, match="dimensions") as exc_info:
                    retrieve(index, query, 1)
                assert exc_info.value.key == query
        # An empty kind has no rows to compare against.
        assert retrieve(build_index(provider), "long", 1) == {PREMISE: [], TACTIC: []}

    def test_replaced_provider_embeds_the_query(self):
        # A benchmark or caller may swap the provider with dataclasses.replace:
        # the stored rows are shared, and only the query goes through the
        # new provider.
        provider = MockEmbeddingProvider()
        index = build_index(
            provider,
            premises=[("A.a", "alpha"), ("B.b", "beta")],
            tactics=[("intros", "goal"), ("simpl", "goal")],
        )
        seen = []

        class Recording:
            def embed(self, text):
                seen.append(text)
                return provider.embed(text)

        wrapped = dataclasses.replace(index, provider=Recording())
        assert wrapped.rows is index.rows
        assert retrieve(wrapped, "alpha", 5) == retrieve(index, "alpha", 5)
        assert seen == ["alpha"]

    def test_top_k_keeps_the_ties_at_the_boundary(self):
        # Four rows tie with the k-th similarity for k = 2..4; key order
        # ("p1" < "p7" < "p8" < "p9") prefers the rows inserted last, so a
        # cut that dropped tied rows before ordering them would show.
        rows = [
            ("p0", "z", [1, 0]),
            ("p9", "t", [1, 1]),
            ("p8", "t", [1, 1]),
            ("p7", "t", [1, 1]),
            ("p1", "t", [1, 1]),
            ("p2", "u", [0, 1]),
            ("p3", "v", [-1, 0]),
            ("p4", "w", [0, 0]),
        ]
        vectors = {f"{name} : {text}": vec for name, text, vec in rows}
        vectors["q"] = [1, 0]
        index = build_index(BasisProvider(vectors), premises=[(n, t) for n, t, _v in rows])
        kind = kind_rows(index)[PREMISE]
        q = np.array([1.0, 0.0])
        sims = np.where(kind.zero, -1.0, (kind.matrix @ q) / kind.norms)
        full = [(kind.payloads[i], float(sims[i])) for i in np.lexsort((kind.key_rank, -sims))]
        assert [p.split(" ")[0] for p, _s in full[:5]] == ["p0", "p1", "p7", "p8", "p9"]
        n = len(rows)
        for k in (0, 1, 2, 3, 4, 5, n, n + 5):
            assert retrieve(index, "q", k)[PREMISE] == full[:k]

    @given(
        st.lists(
            st.lists(st.integers(min_value=-2, max_value=2), min_size=3, max_size=3),
            min_size=1,
            max_size=4,
        ),
        st.lists(
            st.tuples(
                st.sampled_from([PREMISE, TACTIC]),
                st.sampled_from(["a", "b"]),
                st.sampled_from(["x", "y"]),
                st.integers(min_value=0, max_value=3),
            ),
            min_size=1,
            max_size=12,
        ),
        st.lists(st.integers(min_value=-2, max_value=2), min_size=3, max_size=3).filter(any),
    )
    def test_ranking_matches_brute_force(self, pool, items, query_vector):
        # Property: each kind's full ranking equals an independent cosine
        # computation sorted by (-sim, key), stable in insertion order.  Keys
        # and vectors repeat; a repeated key is embedded once, so its rows
        # share the first one's vector. Integer components keep every
        # similarity exact, so ties are real ties and the tie-break is what
        # is tested.
        first: dict[str, list] = {}

        def vector(kind, name, text, v):
            key = f"{name} : {text}" if kind == PREMISE else f"{name} \x1f {text}"
            return first.setdefault(key, pool[v % len(pool)])

        premises = [(n, t, vector(k, n, t, v)) for k, n, t, v in items if k == PREMISE]
        tactics = [(n, t, vector(k, n, t, v)) for k, n, t, v in items if k == TACTIC]
        queue = list({
            (kind, name, text): vec
            for kind, rows in ((PREMISE, premises), (TACTIC, tactics))
            for name, text, vec in rows
        }.values())

        class QueueProvider:
            def embed(self, text):
                return np.asarray(query_vector if text == "query" else queue.pop(0), dtype=float)

            def embed_many(self, texts):
                return [self.embed(text) for text in texts]

        index = build_index(
            QueueProvider(),
            premises=[(name, text) for name, text, _v in premises],
            tactics=[(name, text) for name, text, _v in tactics],
        )
        qnorm = math.sqrt(sum(x * x for x in query_vector))
        ranked = retrieve(index, "query", len(items))
        top_two = retrieve(index, "query", 2)
        for kind, rows in (
            (PREMISE, [(f"{n} : {t}", f"{n} : {t}", vec) for n, t, vec in premises]),
            (TACTIC, [(f"{n} \x1f {t}", n, vec) for n, t, vec in tactics]),
        ):
            expected = []
            for key, payload, vec in rows:
                vnorm = math.sqrt(sum(x * x for x in vec))
                dot = sum(x * y for x, y in zip(vec, query_vector))
                expected.append((key, payload, -1.0 if vnorm == 0 else dot / (vnorm * qnorm)))
            expected.sort(key=lambda row: (-row[2], row[0]))
            want = [(payload, sim) for _key, payload, sim in expected]
            assert ranked[kind] == want
            assert top_two[kind] == want[:2]


# ----------------------------------------------------------------------
# The float32 screen
# ----------------------------------------------------------------------

@st.composite
def screened_rows(draw):
    """Row vectors for one kind plus a query, generated from a drawn seed:
    random rows, zero rows, duplicates of a row under another key, positive
    multiples of a row, and a cluster of rows planted within the screen's
    slack of an anchor row (or of the query), so the k-th score falls among
    near-ties whose float32 order may differ from their exact order."""
    dim = draw(st.one_of(st.sampled_from([1, 2, 3, 32, 512]), st.integers(1, 600)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = list(rng.standard_normal((draw(st.integers(1, 12)), dim)))
    query = rng.standard_normal(dim)
    for _ in range(draw(st.integers(0, 3))):
        rows.append(np.zeros(dim))
    for _ in range(draw(st.integers(0, 3))):
        rows.append(rows[draw(st.integers(0, len(rows) - 1))].copy())
    for _ in range(draw(st.integers(0, 2))):
        scale = draw(st.sampled_from([0.5, 3.0, 1e-3]))
        rows.append(rows[draw(st.integers(0, len(rows) - 1))] * scale)
    anchor = draw(st.one_of(st.none(), st.integers(0, len(rows) - 1)))
    centre = query if anchor is None else rows[anchor]
    for _ in range(draw(st.integers(0, 8))):
        spread = draw(st.sampled_from([0.0, 2.0**-40, 2.0**-30, 2.0**-24, 2.0**-20, 2.0**-16]))
        noise = spread * rng.standard_normal(dim)
        rows.append(centre * (1 + spread * rng.standard_normal()) + noise)
    order = rng.permutation(len(rows))
    return [rows[i] for i in order], query


def _screened_index(rows, query):
    """Premise rows keyed by shuffled names, so key order is not insertion
    order, with `query` embedded for the text "query"."""
    rng = np.random.default_rng(len(rows))
    names = [f"p{rng.integers(0, len(rows))}" for _ in rows]
    vectors = {f"{name}#{i} : t": row for i, (name, row) in enumerate(zip(names, rows))}
    vectors["query"] = query
    premises = [(f"{name}#{i}", "t") for i, name in enumerate(names)]
    return build_index(BasisProvider(vectors), premises=premises)


class TestScreen:
    @given(screened_rows(), st.data())
    def test_retrieve_equals_a_brute_force_ranking(self, drawn, data):
        # Each row scored on its own by the exact per-row formula, every
        # row sorted by (-score, key text, insertion order): the screen
        # must never drop a row that belongs in the top k.
        rows, query = drawn
        index = _screened_index(rows, query)
        kind = kind_rows(index)[PREMISE]
        q = np.asarray(query, dtype=float)
        qnorm = float(np.linalg.norm(q))
        scores = []
        for i in range(len(rows)):
            if kind.zero[i]:
                scores.append(-1.0)
            else:
                scores.append(float((kind.matrix[i] * q).sum() / (kind.norms[i] * qnorm)))
        full = sorted(range(len(rows)), key=lambda i: (-scores[i], kind.payloads[i], i))
        # Half the draws put the k-th row among rows that score within the
        # slack of the next one, where the screen's own order may differ.
        slack = retrieval._screen_slack(len(query))
        near = [k for k in range(1, len(rows)) if scores[full[k - 1]] - scores[full[k]] < slack]
        if near and data.draw(st.booleans()):
            k = data.draw(st.sampled_from(near), label="k")
        else:
            k = data.draw(st.integers(0, len(rows) + 1), label="k")
        expected = [(kind.payloads[i], scores[i]) for i in full[:k]]
        assert retrieve(index, "query", k)[PREMISE] == expected

    @given(screened_rows())
    def test_the_screen_error_is_within_its_bound(self, drawn):
        # The premise of the slack: a screened score is within a quarter of
        # the slack of the exact one.
        rows, query = drawn
        index = _screened_index(rows, query)
        kind = kind_rows(index)[PREMISE]
        q = np.asarray(query, dtype=float)
        qnorm = float(np.linalg.norm(q))
        exact = retrieval._cosines(kind, np.arange(len(rows)), q, qnorm)
        unit = (q / qnorm).astype(np.float32)
        screened = np.where(kind.zero, -1.0, kind.screen @ unit)
        assert np.abs(screened - exact).max() <= retrieval._screen_slack(len(query)) / 4

    @given(screened_rows(), st.data())
    def test_a_row_scores_the_same_in_any_subset(self, drawn, data):
        rows, query = drawn
        kind = kind_rows(_screened_index(rows, query))[PREMISE]
        q = np.asarray(query, dtype=float)
        qnorm = float(np.linalg.norm(q))
        every = retrieval._cosines(kind, np.arange(len(rows)), q, qnorm)
        subset = np.array(data.draw(
            st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=2 * len(rows)),
            label="subset",
        ))
        assert retrieval._cosines(kind, subset, q, qnorm).tobytes() == every[subset].tobytes()

    def test_zero_rows_screen_below_every_row(self):
        # Every non-zero row points away from the query; two zero rows
        # screening as 0 would take the top two places before the exact
        # pass and push the best real rows out of the screen.
        vectors = {"a : t": [-1.0, 0.1], "b : t": [-1.0, 0.2], "c : t": [-1.0, 0.3],
                   "z1 : t": [0.0, 0.0], "z2 : t": [0.0, 0.0], "query": [1.0, 0.0]}
        index = build_index(BasisProvider(vectors), premises=[
            ("a", "t"), ("z1", "t"), ("b", "t"), ("z2", "t"), ("c", "t"),
        ])
        assert [p for p, _s in retrieve(index, "query", 2)[PREMISE]] == ["c : t", "b : t"]
        assert [p for p, _s in retrieve(index, "query", 4)[PREMISE]] == [
            "c : t", "b : t", "a : t", "z1 : t",
        ]

    def test_the_screen_is_the_unit_rows_in_float32(self):
        index = build_index(
            BasisProvider({"a : t": [3.0, 4.0], "z : t": [0.0, 0.0]}),
            premises=[("a", "t"), ("z", "t")],
        )
        screen = kind_rows(index)[PREMISE].screen
        assert screen.dtype == np.float32
        assert screen.tolist() == [[np.float32(0.6), np.float32(0.8)], [0.0, 0.0]]


# ----------------------------------------------------------------------
# One pass over both kinds
# ----------------------------------------------------------------------

@st.composite
def two_kind_rows(draw):
    """Premise and tactic rows of one dimension plus a query: either kind
    may be empty; each may hold zero rows, a row copied from the other
    kind, and rows planted within the screen's slack of the query."""
    dim = draw(st.sampled_from([1, 2, 3, 32, 100]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    query = rng.standard_normal(dim)
    kinds = []
    for _kind in (PREMISE, TACTIC):
        rows = list(rng.standard_normal((draw(st.integers(0, 10)), dim)))
        rows += [np.zeros(dim)] * draw(st.integers(0, 2))
        for _ in range(draw(st.integers(0, 4))):
            spread = draw(st.sampled_from([0.0, 2.0**-30, 2.0**-20]))
            rows.append(query * (1 + spread * rng.standard_normal()))
        kinds.append([rows[i] for i in rng.permutation(len(rows))])
    premises, tactics = kinds
    for _ in range(draw(st.integers(0, 2))):
        if premises and tactics:
            tactics[draw(st.integers(0, len(tactics) - 1))] = premises[
                draw(st.integers(0, len(premises) - 1))
            ].copy()
    return premises, tactics, query


def _brute_force(kind, keys, query):
    """Each row of `kind` scored on its own by the exact per-row formula,
    as `TestScreen` scores them, sorted by (-score, key text, insertion
    order)."""
    q = np.asarray(query, dtype=float)
    qnorm = float(np.linalg.norm(q))
    scores = [
        -1.0 if kind.zero[i] else float((kind.matrix[i] * q).sum() / (kind.norms[i] * qnorm))
        for i in range(len(keys))
    ]
    order = sorted(range(len(keys)), key=lambda i: (-scores[i], keys[i], i))
    return [(kind.payloads[i], scores[i]) for i in order]


def _rising_premises(order):
    """An index of premises L.l0, L.l1, ... in two dimensions, stacked in
    `order`, whose cosine to the query (1, 0) rises with the number from 0
    to 1, each more than the screen's slack above the last."""
    angles = np.linspace(math.pi / 2, 0.0, len(order))
    table = {f"L.l{i} : s": [math.cos(a), math.sin(a)] for i, a in enumerate(angles)}
    table["q"] = [1.0, 0.0]
    return build_index(BasisProvider(table), premises=[(f"L.l{i}", "s") for i in order])


class TestFusedPass:
    @given(two_kind_rows(), st.data())
    def test_each_kind_equals_its_own_brute_force_ranking(self, drawn, data):
        self.check_each_kind_against_brute_force(drawn, data)

    @given(two_kind_rows(), st.data())
    def test_a_floor_retaken_from_the_survivors_keeps_the_ranking(self, drawn, data):
        # No survivors allowed per k: every kind with 0 < k < n takes its
        # floor again from the k-th best survivor.
        with mock.patch.object(retrieval, "_SURVIVORS_PER_K", 0):
            self.check_each_kind_against_brute_force(drawn, data)

    @staticmethod
    def check_each_kind_against_brute_force(drawn, data):
        premises, tactics, query = drawn
        rng = np.random.default_rng(len(premises) * 100 + len(tactics))
        names = [f"p{rng.integers(0, 5)}#{i}" for i in range(len(premises))]
        moves = [f"t{rng.integers(0, 3)}" for _ in tactics]
        premise_keys = [f"{name} : s" for name in names]
        tactic_keys = [f"{move} \x1f g#{i}" for i, move in enumerate(moves)]
        table = dict(zip(premise_keys + tactic_keys, premises + tactics))
        table["query"] = query
        index = build_index(
            BasisProvider(table),
            premises=[(name, "s") for name in names],
            tactics=[(move, f"g#{i}") for i, move in enumerate(moves)],
        )
        k = data.draw(st.integers(0, max(len(premises), len(tactics)) + 1), label="k")
        ranked = retrieve(index, "query", k)
        assert ranked == {
            PREMISE: _brute_force(kind_rows(index)[PREMISE], premise_keys, query)[:k],
            TACTIC: _brute_force(kind_rows(index)[TACTIC], tactic_keys, query)[:k],
        }
        assert kind_rows(index)[TACTIC].payloads == tuple(moves)

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_survivors_stay_few_whatever_the_row_order(self, shuffled):
        # Rising along the rows, the weakest of five blocks' maxima is the
        # first block's, below 320 of the 400 rows: the floor is retaken
        # from the survivors, and only the top five are scored exactly. In
        # a shuffled order the block floor alone keeps few rows.
        order = np.random.default_rng(7).permutation(400) if shuffled else range(400)
        index = _rising_premises(order)
        scored = []

        def cosines(rows, top, q, qnorm):
            scored.append(len(top))
            return exact(rows, top, q, qnorm)

        exact = retrieval._cosines
        partition = mock.Mock(wraps=np.partition)
        with mock.patch.object(retrieval, "_cosines", cosines), \
                mock.patch.object(np, "partition", partition):
            ranked = retrieve(index, "q", 5)
        assert [p for p, _s in ranked[PREMISE]] == [f"L.l{i} : s" for i in range(399, 394, -1)]
        if shuffled:
            assert not partition.called and 5 <= scored[0] <= retrieval._SURVIVORS_PER_K * 5
        else:
            assert partition.called and scored == [5]

    def test_the_spans_cut_the_stacked_rows_by_kind(self):
        index = build_index(
            MockEmbeddingProvider(),
            premises=[("A.a", "x"), ("B.b", "y"), ("A.a", "x")],
            tactics=[("intros", "g"), ("simpl", "g")],
        )
        assert index.spans == {PREMISE: (0, 3), TACTIC: (3, 5)}
        for name in ("matrix", "norms", "zero", "key_rank", "screen"):
            assert len(getattr(index.rows, name)) == 5, name
        assert index.rows.payloads[:] == ("A.a : x", "B.b : y", "A.a : x", "intros", "simpl")

    def test_norms_taken_in_blocks_equal_one_norm_pass(self):
        premises = [(f"L.l{i}", "s") for i in range(9)]
        tactics = [(f"t{i}", "g") for i in range(4)]
        whole = build_index(MockEmbeddingProvider(dim=3), premises, tactics)
        with mock.patch.object(retrieval, "_NORM_BLOCK", 7):  # two rows a block
            blocked = build_index(MockEmbeddingProvider(dim=3), premises, tactics)
        expected = np.linalg.norm(whole.rows.matrix, axis=1)
        assert blocked.rows.norms.tobytes() == whole.rows.norms.tobytes() == expected.tobytes()
        assert not whole.any_zero

    def test_one_screen_product_per_query_and_none_for_k_zero(self):
        table = {"A.a : x": [1.0, 0.0], "B.b : y": [0.0, 1.0], "Z.z : w": [0.0, 0.0],
                 "intros \x1f g": [1.0, 1.0], "q": [1.0, 0.5],
                 "zero": [0.0, 0.0], "long": [1.0, 0.0, 0.0]}
        index = build_index(
            BasisProvider(table), premises=[("A.a", "x"), ("B.b", "y"), ("Z.z", "w")],
            tactics=[("intros", "g")],
        )
        assert index.any_zero
        products = []

        class CountingScreen(np.ndarray):
            def __matmul__(self, other):
                products.append(1)
                return np.asarray(self) @ other

        counted = dataclasses.replace(
            index, rows=dataclasses.replace(index.rows, screen=index.rows.screen.view(CountingScreen))
        )
        with mock.patch.object(np, "partition", side_effect=AssertionError("partition")):
            assert retrieve(counted, "q", 1) == {
                PREMISE: [("A.a : x", pytest.approx(2 / math.sqrt(5)))],
                TACTIC: [("intros", pytest.approx(3 / math.sqrt(10)))],
            }
            assert products == [1]
            with mock.patch.object(retrieval, "_cosines", side_effect=AssertionError("scored")):
                assert retrieve(counted, "q", 0) == {PREMISE: [], TACTIC: []}
        assert products == [1]
        # k == 0 still embeds and checks the query.
        with pytest.raises(ZeroVectorError):
            retrieve(index, "zero", 0)
        for query in ("long", "missing"):
            with pytest.raises(ProviderError) as exc_info:
                retrieve(index, query, 0)
            assert exc_info.value.key == query


# ----------------------------------------------------------------------
# Index rows embedded in chunks
# ----------------------------------------------------------------------

CHUNK = retrieval._EMBED_CHUNK


class SizeLogProvider(MockEmbeddingProvider):
    """The mock provider, logging how many texts each `embed_many` call gets."""

    def __init__(self):
        super().__init__()
        self.calls: list[int] = []

    def embed_many(self, texts):
        self.calls.append(len(texts))
        return super().embed_many(texts)


class TwoLengthProvider:
    """Rows of length 2 for the keys of the first chunk of premises
    ``L.l0 .. L.l{CHUNK - 1}``, of length `second` for every other key."""

    def __init__(self, second: int):
        self.second = second

    def embed_many(self, texts):
        first = {f"L.l{i} : s" for i in range(CHUNK)}
        return [[1.0] * (2 if text in first else self.second) for text in texts]


class TestChunkedBuild:
    # Premises spanning two chunks; keys repeat within and across chunks,
    # and the last premise's first use is in the second chunk.
    PREMISES = [(f"L.l{i}", "s") for i in range(CHUNK + 40)]
    PREMISES += [PREMISES[3], PREMISES[-1], PREMISES[CHUNK]]
    TACTICS = [("intros", "g"), ("simpl", "g"), ("intros", "g")]

    def test_keys_spanning_two_chunks_give_the_index_of_one_call(self):
        provider = SizeLogProvider()
        chunked = build_index(provider, self.PREMISES, self.TACTICS)
        assert provider.calls == [CHUNK, 42]
        with mock.patch.object(retrieval, "_EMBED_CHUNK", 2 * CHUNK):
            provider = SizeLogProvider()
            whole = build_index(provider, self.PREMISES, self.TACTICS)
        assert provider.calls == [CHUNK + 42]
        assert chunked.rows.payloads[:] == whole.rows.payloads[:]
        for name in ("matrix", "norms", "zero", "key_rank", "screen"):
            assert getattr(chunked.rows, name).tobytes() == getattr(whole.rows, name).tobytes()
        keys = [f"{n} : {s}" for n, s in self.PREMISES] + [f"{t} \x1f {g}" for t, g in self.TACTICS]
        assert chunked.rows.matrix.tobytes() == MockEmbeddingProvider().embed_many(keys).tobytes()
        assert chunked.spans == whole.spans == {
            PREMISE: (0, CHUNK + 43), TACTIC: (CHUNK + 43, CHUNK + 46),
        }

    def test_an_http_build_in_chunks_sends_the_requests_of_one_call(self):
        # A chunk is a whole number of requests, so the requests are those
        # of one `embed_many` call over every key.
        assert CHUNK % BATCH == 0
        transport = CountingTransport()
        premises = [(f"P{i}", "s") for i in range(CHUNK + BATCH + 5)]
        build_index(http_provider(transport), premises)
        assert transport.requests == math.ceil(len(premises) / BATCH)
        assert transport.texts == [f"P{i} : s" for i in range(len(premises))]

    @pytest.mark.parametrize("second, dims", [(3, r"\[2, 3\]"), (1, r"\[1, 2\]")])
    def test_a_second_chunk_of_another_length_is_a_mixed_dimension_error(self, second, dims):
        message = f"^provider returned mixed dimensions: {dims}$"
        with pytest.raises(ValueError, match=message) as across:
            build_index(TwoLengthProvider(second), self.PREMISES, self.TACTICS)
        with mock.patch.object(retrieval, "_EMBED_CHUNK", 2 * CHUNK):
            with pytest.raises(ValueError, match=message) as within:
                build_index(TwoLengthProvider(second), self.PREMISES, self.TACTICS)
        assert str(across.value) == str(within.value)

    def test_a_short_second_chunk_is_named(self):
        class Short(MockEmbeddingProvider):
            def embed_many(self, texts):
                rows = super().embed_many(texts)
                return rows[:-1] if len(texts) < CHUNK else rows

        with pytest.raises(ValueError, match="^provider returned 41 rows for 42 keys$"):
            build_index(Short(), self.PREMISES, self.TACTICS)

    def test_payloads_are_built_when_read(self):
        # The index keeps the premise texts it was given; a payload is made
        # on each read, and a slice is a tuple of them.
        index = build_index(MockEmbeddingProvider(), [("A.a", "x")], [("intros", "g")])
        payloads = index.rows.payloads
        assert len(payloads) == 2
        assert payloads[0] == payloads[-2] == "A.a : x"
        assert payloads[1] == payloads[-1] == "intros"
        assert payloads[0:2] == tuple(payloads) == ("A.a : x", "intros")
        assert payloads[1:] == ("intros",) and payloads[5:] == ()
        with pytest.raises(IndexError):
            payloads[2]
