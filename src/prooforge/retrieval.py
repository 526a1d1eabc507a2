"""Embedding-backed nearest-neighbor retrieval of premises and tactics.

The index stacks the items of both kinds ("premise", then "tactic") as the
rows of one matrix, each kind's in insertion order, and keeps one array
each, over every row, of the row norms, the zero-row flags, each row's rank
in its kind's key-text order (the key text is what got embedded) and a
"screen": the rows divided by their norms and rounded to float32. One
`KindRows` holds those arrays and the payloads (what gets spliced into
prompts), and the index's `spans` give each kind's rows among them. The
keys are freed once embedded. A payload is built when read: the index
keeps each premise's name and statement texts, the ones the corpus records
already hold, and renders ``name : statement`` only for the premises a
query returns. A query is embedded once and scored against both kinds;
each kind's results come in descending similarity, ties broken by
ascending key text and then by insertion order, so they are reproducible
across platforms. A row with zero norm scores -1 against every query.

Retrieval is exact in two stages, each one pass over both kinds. One
float32 product of the screen with the unit query scores every row. For a
kind of n rows and 0 < k < n, the maxima of its screened scores over k
consecutive blocks of its rows are the scores of k distinct rows, so their
minimum is at most the k-th best screened score: a floor found without
copying or partially sorting the scores. Every row within `_screen_slack`
of that floor survives, a bound on the float32 error that follows from the
dimension alone, so no row of the exact top k, nor one tied with its k-th,
is dropped; a kind with k >= n keeps every row. When more than
`_SURVIVORS_PER_K` * k rows survive (the floor can fall far when the scores
rise along the rows), a partial sort of the survivors' scores alone gives
the kind's k-th best screened score, since the k best all survive, and the
rows within the slack of it survive instead. The survivors of both
kinds then get exact float64 cosines in one pass, each computed from its
own row so that its bits do not depend on which other rows survive, and
only they are sorted. k == 0 scores nothing.

A provider is any object with two methods: ``embed(text)`` returns a 1-D
float array of finite entries, the same length for every text, and
``embed_many(texts)`` one such row per text in order, as a 2-D array or a
sequence of rows. `build_index` embeds each distinct key once, with one
``embed_many`` call per chunk of `_EMBED_CHUNK` keys, and checks each
chunk's rows (one per key, 1-D, finite, one length for every chunk); a
query goes through ``embed``. An entry too large for a float
counts as not finite. Two providers ship: a deterministic mock that derives
a unit vector from a hash of the text (stable across runs and machines),
and an HTTP provider for real embedding endpoints that sends the texts of
``embed_many`` in fixed-size batches through the chat gateway's client,
`llm_gateway.HttpClient`: its fixed retries and timeout, a concurrency cap
per instance, and credentials from environment variables only.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ProviderError, ZeroVectorError
from .llm_gateway import HttpClient

PREMISE = "premise"
TACTIC = "tactic"


def _matrix(outputs, dim: Optional[int] = None) -> np.ndarray:
    """Provider outputs (a sequence of rows, or a 2-D array, which is not
    copied) as the rows of one float matrix, with one finiteness check for
    them all. ValueError unless every output is 1-D with finite entries and
    all have one length, `dim` when given (an earlier chunk's); the first
    bad output, in order, names the error, as `_vector` on each would, and
    a mixed-dimension error lists `dim` among the lengths."""
    try:
        matrix = np.asarray(outputs, dtype=float)
    except (ValueError, OverflowError):  # ragged outputs, or an entry past float range
        matrix = None
    if (
        matrix is None or matrix.ndim != 2 or not np.isfinite(matrix).all()
        or dim not in (None, matrix.shape[1])
    ):
        dims = {len(_vector(output)) for output in outputs}
        if dim is not None:
            dims.add(dim)
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
    is finite (an integer past float range is not)."""
    try:
        vector = np.asarray(values, dtype=float)
    except OverflowError:
        raise ValueError("embedding entries must be finite") from None
    if vector.ndim != 1:
        raise ValueError(f"embedding must be 1-D, got shape {vector.shape}")
    if not np.isfinite(vector).all():
        raise ValueError("embedding entries must be finite")
    return vector


def _unit(raw: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """`raw` divided by its norm, into `out` if given; a zero vector becomes
    the all-ones direction, which keeps the mock total."""
    # The bits of np.linalg.norm on a 1-D float array, without its overhead.
    norm = math.sqrt(raw.dot(raw))
    if norm == 0.0:  # astronomically unlikely
        raw = np.ones(len(raw))
        norm = math.sqrt(raw.dot(raw))
    return np.divide(raw, norm, out=out)


# numpy's SeedSequence hash constants, and the multiplier of PCG64's
# 128-bit LCG.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1


def _pcg64_states(seeds: np.ndarray) -> list[dict]:
    """The PCG64 `{"state", "inc"}` that `np.random.default_rng(seed)`
    starts from, for each uint64 seed, with the hashing done for all seeds
    at once.

    This mirrors numpy's seeding, which its compatibility policy keeps
    fixed: SeedSequence hashes the seed's two uint32 words (the high one 0
    below 2**32, as SeedSequence pads a one-word seed) into a pool of four,
    mixes the pool and draws `generate_state(4, uint64)` from it; PCG64's
    srandom step then turns the first two words into `initstate` and the
    last two into `initseq`. A test compares it with `default_rng`."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * _MIX_L - y * _MIX_R
        return result ^ (result >> 16)

    zero = np.zeros(len(seeds), np.uint32)
    low, high = (seeds & _M32).astype(np.uint32), (seeds >> 32).astype(np.uint32)
    pool = [hashmix(word) for word in (low, high, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const
        words.append((value ^ (value >> 16)).astype(np.uint64))
    # generate_state's uint64 words are its uint32 words read little-endian.
    state_hi, state_lo, seq_hi, seq_lo = (
        (words[j] | words[j + 1] << 32).tolist() for j in range(0, 8, 2)
    )
    states = []
    for initstate_hi, initstate_lo, initseq_hi, initseq_lo in zip(
        state_hi, state_lo, seq_hi, seq_lo
    ):
        inc = ((initseq_hi << 64 | initseq_lo) << 1 | 1) & _M128
        initstate = initstate_hi << 64 | initstate_lo
        states.append({"state": ((inc + initstate) * _PCG64_MULT + inc) & _M128, "inc": inc})
    return states


#: Texts `MockEmbeddingProvider.embed_many` seeds in one vectorized pass:
#: enough to amortise the array operations, few enough that the pass's
#: arrays stay small beside the output.
_SEED_CHUNK = 1024


class MockEmbeddingProvider:
    """Deterministic provider: a unit vector seeded by a hash of the text.

    Identical texts embed identically on every run and platform; distinct
    texts land in effectively random directions. A lone surrogate in a text
    is hashed as its UTF-8 form (``surrogatepass``), as request digests are.
    """

    def __init__(self, dim: int = 32, seed: int = 0):
        self.dim = dim
        self.seed = seed

    def _seed_bytes(self, text: str) -> bytes:
        """The big-endian uint64 seed of `text`'s vector."""
        data = f"{self.seed}\x1f{text}".encode("utf-8", "surrogatepass")
        return hashlib.sha256(data).digest()[:8]

    def embed(self, text: str) -> np.ndarray:
        rng = np.random.default_rng(int.from_bytes(self._seed_bytes(text), "big"))
        return _unit(rng.standard_normal(self.dim))

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """`np.stack([self.embed(t) for t in texts])`, bit for bit. Each
        chunk of texts gets its generator start states from
        `_pcg64_states`, and every row is drawn from one reused PCG64,
        without building a generator per text."""
        out = np.empty((len(texts), self.dim))
        bit_generator = np.random.PCG64(0)
        generator = np.random.Generator(bit_generator)
        raw = np.empty(self.dim)
        for start in range(0, len(texts), _SEED_CHUNK):
            chunk = texts[start:start + _SEED_CHUNK]
            seeds = np.frombuffer(b"".join(map(self._seed_bytes, chunk)), ">u8")
            rows = out[start:start + len(chunk)]
            for row, state in zip(rows, _pcg64_states(seeds.astype(np.uint64))):
                bit_generator.state = {
                    "bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0,
                }
                generator.standard_normal(out=raw)
                _unit(raw, out=row)
        return out


#: Texts per embeddings request: small enough for servers that cap the
#: inputs of one request, large enough to turn a build's one request per
#: key into one per 32 keys.
_HTTP_BATCH = 32


def _json_numbers(embedding):
    """A reply's embedding, unchanged; ValueError at its first string or
    boolean entry, which `_vector` would read as a number."""
    if isinstance(embedding, list):
        for entry in embedding:
            if isinstance(entry, (str, bool)):
                raise ValueError(f"embedding entry {entry!r} is not a number")
    return embedding


def _placed(batch: Sequence[str], body) -> list:
    """The reply's rows in the batch's order, each placed by its `index`.
    ProviderError unless the reply holds exactly one row per input, naming
    the first input without exactly one row, or the batch's first input when
    every input has one and rows are left over."""
    try:
        data = list(body["data"])
    except (KeyError, TypeError) as exc:
        raise ProviderError(f"malformed embedding response: {exc!r}", key=batch[0])
    placed: list[list] = [[] for _text in batch]
    for item in data:
        index = item.get("index") if isinstance(item, dict) else None
        if type(index) is int and 0 <= index < len(batch):
            placed[index].append(item)
    for index, items in enumerate(placed):
        if len(items) != 1:
            raise ProviderError(
                f"malformed embedding response: {len(items)} rows for input {index}",
                key=batch[index],
            )
    if len(data) != len(batch):
        raise ProviderError(
            f"malformed embedding response: {len(data)} rows for {len(batch)} inputs",
            key=batch[0],
        )
    return [items[0] for items in placed]


class HttpEmbeddingProvider(HttpClient):
    """Client for an embeddings endpoint, sharing the chat gateway's
    `HttpClient`: its retries, timeout and concurrency cap per instance.
    `dim` is the length of the first row embedded, None before."""

    dim: Optional[int] = None

    def embed(self, text: str) -> np.ndarray:
        return self.embed_many([text])[0]

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """One row per text, in order, from requests of `_HTTP_BATCH` texts.
        A failed request raises ProviderError naming its first text; a
        reply row that is missing, repeated, holds a string or a boolean,
        is not 1-D and finite, or is not the length of the first row, one
        naming the text it belongs to."""
        rows = []
        for start in range(0, len(texts), _HTTP_BATCH):
            batch = list(texts[start:start + _HTTP_BATCH])
            body = self.post("embeddings", {"model": self.model, "input": batch}, batch[0])
            for text, item in zip(batch, _placed(batch, body)):
                try:
                    row = _vector(_json_numbers(item["embedding"]))
                except (KeyError, TypeError, ValueError) as exc:
                    raise ProviderError(f"malformed embedding response: {exc}", key=text)
                if rows and len(row) != len(rows[0]):
                    raise ProviderError(
                        f"malformed embedding response: {len(row)} dimensions, "
                        f"the first row has {len(rows[0])}",
                        key=text,
                    )
                rows.append(row)
        if not rows:
            return np.empty((0, self.dim or 0))
        if self.dim is None:
            self.dim = len(rows[0])
        return np.array(rows)


#: Survivors of the block-maximum floor per result, past which `retrieve`
#: takes a kind's floor again from the k-th best survivor. Screened scores
#: in no relation to the row order leave about k * ln(k + 1) survivors; when
#: they rise along the rows, as a library's related lemmas may, the weakest
#: block's maximum can admit most of the kind.
_SURVIVORS_PER_K = 8


#: Entries whose squares `build_index` holds at once while it takes row
#: norms: a block of rows, not the whole matrix, so the temporary stays
#: small beside the rows themselves.
_NORM_BLOCK = 1 << 16


#: Distinct keys `build_index` embeds per ``embed_many`` call: a multiple of
#: `_HTTP_BATCH`, so the HTTP provider sends the requests one call over
#: every key would, and few enough that a chunk's rows stay small beside
#: the index's.
_EMBED_CHUNK = 32 * _HTTP_BATCH


class _Payloads(Sequence):
    """What retrieval returns for each row, built when read: a premise's
    ``name : statement`` from the name and statement texts it was given,
    then each tactic example's tactic. Only those texts are held, and no
    rendered payload is kept. A slice is a tuple of payloads."""

    def __init__(self, names: tuple, statements: tuple, tactics: tuple):
        self._names = names
        self._statements = statements
        self._tactics = tactics

    def __len__(self) -> int:
        return len(self._names) + len(self._tactics)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self.take(range(len(self))[i]))
        return self.take((range(len(self))[i],))[0]

    def take(self, rows) -> list[str]:
        """The payloads of `rows`, non-negative row numbers, in order: one
        call for a query's results, not one per row."""
        names, statements, tactics = self._names, self._statements, self._tactics
        n = len(names)
        return [f"{names[i]} : {statements[i]}" if i < n else tactics[i - n] for i in rows]


@dataclass(frozen=True, eq=False)
class KindRows:
    """Rows of the index: row i of `matrix` embeds the key of `payloads[i]`,
    `norms[i]` is that row's norm (1.0 for a zero row, which `zero[i]`
    flags), `key_rank[i]` its position in its kind's key-text order and
    `screen[i]` the row divided by its norm, rounded to float32 (all zeros
    for a zero row, which `retrieve` screens as -1). Two are equal only
    when they are one object."""

    payloads: _Payloads
    matrix: np.ndarray
    norms: np.ndarray
    zero: np.ndarray
    key_rank: np.ndarray
    screen: np.ndarray


@dataclass
class RetrievalIndex:
    """Exact two-stage cosine index. `rows` holds the rows of every kind,
    stacked in kind order, and `spans[kind]` is the (start, stop) of a
    kind's rows there. `any_zero` says whether any row is zero; it is
    stored, not derived, to spare each query a pass over the zero flags
    when none is. Queries are embedded through `provider`."""

    provider: object
    dim: int
    rows: KindRows
    spans: dict[str, tuple[int, int]]
    any_zero: bool


def build_index(
    provider,
    premises: Sequence[tuple[str, str]] = (),
    tactics: Sequence[tuple[str, str]] = (),
) -> RetrievalIndex:
    """Embed premises and tactics into a fresh index.

    Premises are (name, statement) pairs keyed by ``name : statement``,
    which is also what retrieval returns for one; the index keeps the two
    texts and builds that payload only for a premise `retrieve` returns.
    Tactics are (tactic, goal_text) pairs keyed by the tactic plus the goal
    it was used on; the payload returned by retrieval is just the tactic.
    Each distinct key is embedded once, in order of first use, with one
    ``embed_many`` call per `_EMBED_CHUNK` of them. Each chunk's rows are
    checked (one per key, 1-D, finite, the first chunk's length) and
    written straight into the rows of every item with their keys, so the
    distinct rows are never held beside a copy of all of them; the first
    faulty chunk names the error. The keys are freed once embedded and
    ranked. The norms, zero flags, key ranks and screen are each one array
    over the rows of both kinds, each row's computed once.
    """
    payloads = _Payloads(
        tuple(name for name, _statement in premises),
        tuple(statement for _name, statement in premises),
        tuple(tactic for tactic, _goal in tactics),
    )
    keyed = {
        PREMISE: [f"{name} : {statement}" for name, statement in premises],
        TACTIC: [f"{tactic} \x1f {goal}" for tactic, goal in tactics],
    }
    all_keys = [key for keys in keyed.values() for key in keys]
    # The distinct keys in order of first use, and each item's among them.
    position: dict[str, int] = {}
    inverse = np.fromiter(
        (position.setdefault(key, len(position)) for key in all_keys), np.intp, len(all_keys)
    )
    distinct = list(position)
    # The items sorted by their distinct key, so a chunk's are one slice.
    order = inverse.argsort(kind="stable")
    grouped = inverse.take(order)
    stacked = np.empty((0, getattr(provider, "dim", None) or 0))
    for start in range(0, len(distinct), _EMBED_CHUNK):
        keys = distinct[start:start + _EMBED_CHUNK]
        chunk = _matrix(provider.embed_many(keys), stacked.shape[1] if start else None)
        if len(chunk) != len(keys):
            raise ValueError(f"provider returned {len(chunk)} rows for {len(keys)} keys")
        if not start:
            stacked = np.empty((len(all_keys), chunk.shape[1]))
        lo, hi = grouped.searchsorted([start, start + len(keys)])
        stacked[order[lo:hi]] = chunk.take(grouped[lo:hi] - start, axis=0)
    key_rank = np.empty(len(all_keys), dtype=np.intp)
    spans = {}
    start = 0
    for kind, keys in keyed.items():
        stop = start + len(keys)
        key_rank[start:stop][sorted(range(len(keys)), key=keys.__getitem__)] = np.arange(len(keys))
        spans[kind] = (start, stop)
        start = stop
    # Freed before the norms and the screen are allocated: the keys (2 MB
    # at 10k entities) and the maps over them (12 MB of resident memory at
    # 100k).
    del keyed, all_keys, keys, position, inverse, order, grouped, distinct
    norms = np.empty(len(stacked))
    step = max(1, _NORM_BLOCK // max(1, stacked.shape[1]))
    for start in range(0, len(stacked), step):
        norms[start:start + step] = np.linalg.norm(stacked[start:start + step], axis=1)
    zero = norms == 0.0
    norms[zero] = 1.0
    # Column-major: the one matrix-vector product per query runs about a
    # third faster on it than on a row-major screen.
    screen = np.empty(stacked.shape, np.float32, order="F")
    np.divide(stacked, norms[:, None], out=screen, casting="same_kind")
    return RetrievalIndex(
        provider=provider,
        dim=stacked.shape[1],
        rows=KindRows(payloads, stacked, norms, zero, key_rank, screen),
        spans=spans,
        any_zero=bool(zero.any()),
    )


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

    The query is embedded once and scored against the rows of both kinds
    in one pass; each kind's list is in descending similarity, ties broken
    by ascending key text, then insertion order. One float32 product
    screens every row. For a kind of n rows and 0 < k < n, the maxima of
    its screened scores over k consecutive blocks of its rows belong to k
    distinct rows, so their minimum is at most the k-th best screened
    score; the rows within `_screen_slack` of that floor survive. Past
    `_SURVIVORS_PER_K` * k survivors, the floor becomes the k-th best
    survivor's screened score, which is the kind's k-th best, and the rows
    within the slack of it survive. A kind with k >= n keeps every row. The
    survivors of every kind are scored exactly in one pass and each kind's
    are sorted; a row's exact score is the same float whichever other rows
    are scored with it. k == 0 scores nothing and returns an empty list per
    kind.

    A query that embeds to the zero vector raises ZeroVectorError. Provider
    failures, and a query vector whose length is not that of the index's
    rows (when it has any), propagate as ProviderError with the query as
    the failing key; all three checks run for k == 0 as well.
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
    rows = index.rows
    if rows.payloads and len(q) != index.dim:
        raise ProviderError(
            f"query embeds to {len(q)} dimensions, the index holds {index.dim}", key=query
        )
    if k == 0 or not rows.payloads:
        return {kind: [] for kind in index.spans}
    screened = rows.screen @ (q / qnorm).astype(np.float32)
    if index.any_zero:
        screened[rows.zero] = -1.0
    slack = _screen_slack(len(q))
    kept = []
    for start, stop in index.spans.values():
        n = stop - start
        if k < n:
            scores = screened[start:stop]
            floor = min(np.maximum.reduceat(scores, [i * n // k for i in range(k)]).tolist())
            top = (scores >= floor - slack).nonzero()[0]
            if len(top) > _SURVIVORS_PER_K * k:  # the scores follow the row order
                near = scores.take(top)
                top = top[near >= np.partition(near, len(top) - k)[len(top) - k] - slack]
            kept.append(top + start)
        else:
            kept.append(np.arange(start, stop))
    sims = _cosines(rows, np.concatenate(kept), q, qnorm)
    ranked = {}
    cut = 0
    for kind, top in zip(index.spans, kept):
        kind_sims = sims[cut:cut + len(top)]
        cut += len(top)
        best = np.lexsort((rows.key_rank.take(top), -kind_sims))[:k]
        payloads = rows.payloads.take(top.take(best).tolist())
        ranked[kind] = list(zip(payloads, kind_sims.take(best).tolist()))
    return ranked
