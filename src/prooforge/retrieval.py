"""Embedding-backed nearest-neighbor retrieval of premises and tactics.

The index holds one matrix per kind ("premise" or "tactic"): one row per
item in insertion order, with the row norms, each row's payload (what gets
spliced into prompts), each row's rank in key-text order (the key text is
what got embedded) and a "screen": the rows divided by their norms and
rounded to float32. A query is embedded once and scored against both kinds;
each kind's results come in descending similarity, ties broken by ascending
key text and then by insertion order, so they are reproducible across
platforms. A row with zero norm scores -1 against every query.

Retrieval is exact in two stages. The float32 screen scores every row
against the unit query, and every row within `_screen_slack` of the k-th
best screened score survives: a bound on the float32 error that follows
from the dimension alone, so no row of the exact top k, nor one tied with
its k-th, is dropped. Only the survivors get exact float64 cosines, each
computed from its own row so that its bits do not depend on which other
rows survive, and only they are sorted.

A provider is any object whose ``embed(text)`` returns a 1-D float array of
finite entries, the same length for every text. Both are checked on every
embedding the index takes. Two providers ship: a deterministic mock that
derives a unit vector from a hash of the text (stable across runs and
machines), and an HTTP provider for real embedding endpoints. Credentials
come from environment variables only.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ProviderError, ZeroVectorError
from .llm_gateway import DEFAULT_API_KEY_ENV

PREMISE = "premise"
TACTIC = "tactic"


def _matrix(outputs: list) -> np.ndarray:
    """Provider outputs as the rows of one float matrix, with one
    finiteness check for them all. ValueError unless every output is 1-D
    with finite entries and all have one length; the first bad output, in
    order, names the error, as `_vector` on each would."""
    try:
        matrix = np.array(outputs, dtype=float)
    except ValueError:  # ragged outputs
        matrix = None
    if matrix is None or matrix.ndim != 2 or not np.isfinite(matrix).all():
        dims = {len(_vector(output)) for output in outputs}
        raise ValueError(f"provider returned mixed dimensions: {sorted(dims)}")
    return matrix


def _screen_slack(dim: int) -> float:
    """How far below the k-th best screened score a row may screen and
    still be in the exact top k, or tied with its k-th row, in `dim`
    dimensions. A screened score is within (dim + 2) * 2**-24 of the true
    cosine and an exact score within (dim + 2) * 2**-52 of it; call their sum
    e. The k-th scores of the two then differ by at most e, so a row scoring
    at least the exact k-th screens at most 2e below the k-th screened score.
    The slack is 4e: that bound doubled for margin."""
    return 4 * (dim + 2) * (2.0**-24 + 2.0**-52)


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
        # The bits of np.linalg.norm on a 1-D float array, without its overhead.
        norm = math.sqrt(raw.dot(raw))
        if norm == 0.0:  # astronomically unlikely; keep the contract total
            raw = np.ones(self.dim)
            norm = math.sqrt(raw.dot(raw))
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
    `zero[i]` flags), `key_rank[i]` its position in key-text order and
    `screen[i]` the row divided by its norm, rounded to float32 (all zeros
    for a zero row, which `retrieve` screens as -1)."""

    payloads: tuple[str, ...]
    matrix: np.ndarray
    norms: np.ndarray
    zero: np.ndarray
    key_rank: np.ndarray
    screen: np.ndarray


@dataclass
class RetrievalIndex:
    """Exact two-stage cosine index: one `KindRows` per kind, queries
    embedded through `provider`."""

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
    Each distinct key is embedded once; a repeated key's row is a copy of
    the first one's. The provider's vectors are let go once they are
    stacked, before each kind's norms and float32 screen are computed.
    """
    entries = {
        PREMISE: [(f"{name} : {statement}",) * 2 for name, statement in premises],
        TACTIC: [(f"{tactic} \x1f {goal}", tactic) for tactic, goal in tactics],
    }
    all_keys = [key for keyed in entries.values() for key, _payload in keyed]
    embedded = {key: provider.embed(key) for key in dict.fromkeys(all_keys)}
    outputs = [embedded[key] for key in all_keys]
    stacked = _matrix(outputs) if outputs else np.empty((0, getattr(provider, "dim", None) or 0))
    del embedded, outputs
    kinds = {}
    start = 0
    for kind, keyed in entries.items():
        keys = [key for key, _payload in keyed]
        matrix = stacked[start:start + len(keys)]
        start += len(keys)
        key_rank = np.empty(len(keys), dtype=np.intp)
        key_rank[sorted(range(len(keys)), key=keys.__getitem__)] = np.arange(len(keys))
        norms = np.linalg.norm(matrix, axis=1)
        zero = norms == 0.0
        norms[zero] = 1.0
        screen = np.divide(
            matrix, norms[:, None], out=np.empty(matrix.shape, np.float32), casting="same_kind"
        )
        kinds[kind] = KindRows(
            tuple(payload for _key, payload in keyed), matrix, norms, zero, key_rank, screen
        )
    return RetrievalIndex(provider=provider, kinds=kinds, dim=stacked.shape[1])


def _cosines(rows: KindRows, top: np.ndarray, q: np.ndarray, qnorm: float) -> np.ndarray:
    """Exact float64 cosines of the rows `top` with `q`, -1 for a zero row.
    Each is summed from its own row alone, so its bits do not depend on
    which other rows are scored with it (a matrix-vector product over a
    subset may sum in another order)."""
    sims = (rows.matrix.take(top, axis=0) * q).sum(axis=1) / (rows.norms.take(top) * qnorm)
    sims[rows.zero.take(top)] = -1.0
    return sims


def retrieve(index: RetrievalIndex, query: str, k: int) -> dict[str, list[tuple[str, float]]]:
    """Top-k payloads of every kind by cosine similarity to the query.

    The query is embedded once and scored against the rows of both kinds;
    each kind's list is in descending similarity, ties broken by ascending
    key text, then insertion order. For 0 < k < the row count, the float32
    screen keeps the rows within `_screen_slack` of the k-th best screened
    score, and only those get exact scores and are sorted; k == 0 and
    k >= the row count score and sort every row. A row's exact score is the
    same float whichever other rows are scored with it.

    A query that embeds to the zero vector raises ZeroVectorError. Provider
    failures, and a query vector whose length is not that of a non-empty
    kind's rows, propagate as ProviderError with the query as the failing
    key.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    try:
        q = _vector(index.provider.embed(query))
    except ProviderError:
        raise
    except Exception as exc:
        raise ProviderError(f"query embedding failed: {exc}", key=query)
    qnorm = math.sqrt(q.dot(q))  # the bits of np.linalg.norm, without its overhead
    if qnorm == 0.0:
        raise ZeroVectorError(f"query embeds to the zero vector: {query!r}")
    unit = (q / qnorm).astype(np.float32)
    slack = _screen_slack(len(q))
    ranked = {}
    for kind, rows in index.kinds.items():
        n = len(rows.payloads)
        if not n:
            ranked[kind] = []
            continue
        if len(q) != rows.matrix.shape[1]:
            raise ProviderError(
                f"query embeds to {len(q)} dimensions, the index holds {rows.matrix.shape[1]}",
                key=query,
            )
        if 0 < k < n:
            screened = rows.screen @ unit
            screened[rows.zero] = -1.0
            top = (screened >= np.partition(screened, n - k)[n - k] - slack).nonzero()[0]
        else:
            top = np.arange(n)
        sims = _cosines(rows, top, q, qnorm)
        best = np.lexsort((rows.key_rank.take(top), -sims))[:k]
        ranked[kind] = [
            (rows.payloads[i], sim)
            for i, sim in zip(top.take(best).tolist(), sims.take(best).tolist())
        ]
    return ranked
