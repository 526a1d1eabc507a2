"""Embedding-backed nearest-neighbor retrieval of premises and tactics.

The index is an exact full-scan cosine index: small corpora make anything
fancier pointless. It holds one matrix per kind ("premise" or "tactic"):
one row per item in insertion order, with the row norms, each row's payload
(what gets spliced into prompts) and each row's rank in key-text order (the
key text is what got embedded). A query is embedded once and scored against
every row of both kinds; each kind's results come in descending similarity,
ties broken by ascending key text and then by insertion order, so they are
reproducible across platforms.
A row with zero norm scores -1 against every query.

A provider is any object whose ``embed(text)`` returns a 1-D float array of
finite entries, the same length for every text. Both are checked on every
embedding the index takes. Two providers ship: a deterministic mock that
derives a unit vector from a hash of the text (stable across runs and
machines), and an HTTP provider for real embedding endpoints. Credentials
come from environment variables only.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ProviderError, ZeroVectorError
from .llm_gateway import DEFAULT_API_KEY_ENV

PREMISE = "premise"
TACTIC = "tactic"


def _vector(values) -> np.ndarray:
    """Provider output as a 1-D float array; ValueError unless every entry
    is finite."""
    vector = np.asarray(values, dtype=float)
    if vector.ndim != 1:
        raise ValueError(f"embedding must be 1-D, got shape {vector.shape}")
    if not np.isfinite(vector).all():
        raise ValueError("embedding entries must be finite")
    return vector


class MockEmbeddingProvider:
    """Deterministic provider: a unit vector seeded by a hash of the text.

    Identical texts embed identically on every run and platform; distinct
    texts land in effectively random directions.
    """

    def __init__(self, dim: int = 32, seed: int = 0):
        self.dim = dim
        self.seed = seed

    def embed(self, text: str) -> np.ndarray:
        digest = hashlib.sha256(f"{self.seed}\x1f{text}".encode("utf-8")).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
        raw = rng.standard_normal(self.dim)
        norm = float(np.linalg.norm(raw))
        if norm == 0.0:  # astronomically unlikely; keep the contract total
            raw = np.ones(self.dim)
            norm = float(np.linalg.norm(raw))
        return raw / norm


class HttpEmbeddingProvider:
    """Thin client for an embeddings endpoint.

    The API key is read from the named environment variable at call time and
    never stored in configuration files. `transport` is injectable so the
    request/response handling is testable without a network.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key_env: str = DEFAULT_API_KEY_ENV,
        timeout: float = 30.0,
        transport: Optional[Callable] = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key_env = api_key_env
        self.timeout = timeout
        self._transport = transport or self._default_transport
        self.dim: Optional[int] = None

    def _default_transport(self, url: str, payload: dict, headers: dict) -> dict:
        import requests

        reply = requests.post(url, json=payload, headers=headers, timeout=self.timeout)
        reply.raise_for_status()
        return reply.json()

    def embed(self, text: str) -> np.ndarray:
        headers = {}
        key = os.environ.get(self.api_key_env, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        try:
            body = self._transport(
                f"{self.base_url}/embeddings",
                {"model": self.model, "input": [text]},
                headers,
            )
            vector = _vector(body["data"][0]["embedding"])
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ProviderError(f"malformed embedding response: {exc}", key=text)
        except Exception as exc:
            raise ProviderError(f"embedding request failed: {exc}", key=text)
        if self.dim is None:
            self.dim = len(vector)
        return vector


@dataclass(frozen=True)
class KindRows:
    """Every item of one kind: row i of `matrix` embeds the key of
    `payloads[i]`, `norms[i]` is that row's norm (1.0 for a zero row, which
    `zero[i]` flags) and `key_rank[i]` its position in key-text order."""

    payloads: tuple[str, ...]
    matrix: np.ndarray
    norms: np.ndarray
    zero: np.ndarray
    key_rank: np.ndarray


@dataclass
class RetrievalIndex:
    """Exact cosine index: one `KindRows` per kind, queries embedded through
    `provider`."""

    provider: object
    kinds: dict[str, KindRows]
    dim: int


def build_index(
    provider,
    premises: Sequence[tuple[str, str]] = (),
    tactics: Sequence[tuple[str, str]] = (),
) -> RetrievalIndex:
    """Embed premises and tactics into a fresh index.

    Premises are (name, statement) pairs keyed by ``name : statement``.
    Tactics are (tactic, goal_text) pairs keyed by the tactic plus the goal
    it was used on; the payload returned by retrieval is just the tactic.
    """
    entries = {
        PREMISE: [(f"{name} : {statement}",) * 2 for name, statement in premises],
        TACTIC: [(f"{tactic} \x1f {goal}", tactic) for tactic, goal in tactics],
    }
    vectors = {
        kind: [_vector(provider.embed(key)) for key, _payload in keyed]
        for kind, keyed in entries.items()
    }
    dims = {len(vector) for rows in vectors.values() for vector in rows}
    if len(dims) > 1:
        raise ValueError(f"provider returned mixed dimensions: {sorted(dims)}")
    dim = dims.pop() if dims else getattr(provider, "dim", None) or 0
    kinds = {}
    for kind, keyed in entries.items():
        keys = [key for key, _payload in keyed]
        matrix = np.array(vectors[kind], dtype=float).reshape(len(keys), dim)
        key_rank = np.empty(len(keys), dtype=np.intp)
        key_rank[sorted(range(len(keys)), key=keys.__getitem__)] = np.arange(len(keys))
        norms = np.linalg.norm(matrix, axis=1)
        kinds[kind] = KindRows(
            tuple(payload for _key, payload in keyed),
            matrix,
            np.where(norms == 0.0, 1.0, norms),
            norms == 0.0,
            key_rank,
        )
    return RetrievalIndex(provider=provider, kinds=kinds, dim=dim)


def retrieve(index: RetrievalIndex, query: str, k: int) -> dict[str, list[tuple[str, float]]]:
    """Top-k payloads of every kind by cosine similarity to the query.

    The query is embedded once and scored against the rows of both kinds;
    each kind's list is in descending similarity, ties broken by ascending
    key text, then insertion order. Only the rows scoring at least the k-th
    best similarity (a partition finds it; rows tied with it stay in) are
    sorted; k == 0 and k >= the row count sort every row. A query that
    embeds to the zero vector raises ZeroVectorError; provider failures, and a query vector whose
    length is not that of a non-empty kind's rows, propagate as
    ProviderError with the query as the failing key.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    try:
        q = _vector(index.provider.embed(query))
    except ProviderError:
        raise
    except Exception as exc:
        raise ProviderError(f"query embedding failed: {exc}", key=query)
    qnorm = float(np.linalg.norm(q))
    if qnorm == 0.0:
        raise ZeroVectorError(f"query embeds to the zero vector: {query!r}")
    ranked = {}
    for kind, rows in index.kinds.items():
        if not rows.payloads:
            ranked[kind] = []
            continue
        if len(q) != rows.matrix.shape[1]:
            raise ProviderError(
                f"query embeds to {len(q)} dimensions, the index holds {rows.matrix.shape[1]}",
                key=query,
            )
        sims = np.where(rows.zero, -1.0, (rows.matrix @ q) / (rows.norms * qnorm))
        top = np.arange(len(sims))
        if 0 < k < len(sims):
            top = np.flatnonzero(sims >= np.partition(sims, len(sims) - k)[len(sims) - k])
        order = top[np.lexsort((rows.key_rank[top], -sims[top]))][:k]
        ranked[kind] = [(rows.payloads[i], float(sims[i])) for i in order]
    return ranked
