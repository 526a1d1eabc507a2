"""Workload table shared by the generator and the driver.

Each workload fixes the shape of its generated inputs and the search
settings; the seed only picks names, orders and texts.  Theorem shapes are
stratified (drawn from a fixed schedule, then shuffled), so every seed gives
the same mix of shapes and seeds differ only in content, not in cost.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_prooforge():
    """Import the package from this checkout's ``src`` tree, never from an
    installed copy; raise SystemExit when the source tree is absent."""
    if not (SRC / "prooforge" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no prooforge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import prooforge

    origin = Path(prooforge.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: imported prooforge from {origin}, not {SRC}")
    return prooforge


@dataclass(frozen=True)
class Size:
    """How much to generate at one scale."""

    entities: int          # lines in entities.jsonl
    library_proofs: int    # proofs in proofs.jsonl (tactic examples ~ 4-5 each)
    theorems: int          # theorems per pass; a multiple of 6


@dataclass(frozen=True)
class Workload:
    name: str
    why: str      # one line, as in BENCHMARK.json
    shape: str
    full: Size
    tiny: Size
    # (family, share) pairs; shares are in sixths of the theorem list.
    families: tuple[tuple[str, int], ...]
    conj_leaves: tuple[int, int]     # leaves of a conjunction theorem
    chain_leaves: tuple[int, int]    # leaves of a chain theorem, head included
    chain_lemmas: tuple[int, int]    # apply steps of a chain
    swaps: tuple[int, int]           # alternative (swap) lemmas per theorem
    max_depth: int                   # SearchParams.max_depth; budget is computed
    latency_ms: float                # injected wait per gateway call
    info_request: bool               # first executor reply asks for info


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="deep-small",
            why="deep /\\ trees and apply chains on a 200-entity corpus, no latency: "
            "CPU-bound in session replay, prompt rendering, mock routing and search "
            "bookkeeping",
            shape="about 200 entities with dependency links; right-nested /\\ trees "
            "of 6-12 leaves over arrow-introduced hypotheses and apply chains of "
            "4-8 lemmas; 1 theorem in 6 is unprovable because the last lemma of "
            "its chain is never proposed; SearchParams(max_depth=30) with its "
            "computed budget; no gateway latency",
            full=Size(entities=200, library_proofs=8, theorems=24),
            tiny=Size(entities=60, library_proofs=4, theorems=6),
            families=(("conj", 3), ("chain", 2), ("dead-chain", 1)),
            conj_leaves=(6, 12),
            chain_leaves=(2, 5),
            chain_lemmas=(4, 8),
            swaps=(2, 6),
            max_depth=30,
            latency_ms=0.0,
            info_request=False,
        ),
        Workload(
            name="wide-corpus",
            why="10k entities and 2k tactic examples with shallow proofs: full-scan "
            "retrieval, the corpus name scan and set-up (embedding every premise) "
            "dominate",
            shape="about 10k entities and a proof corpus of about 2k tactic "
            "examples; shallow theorems (depth 4 or less); each theorem's first "
            "executor reply asks for one known short name and one unknown name; "
            "default SearchParams(); no gateway latency",
            full=Size(entities=10000, library_proofs=570, theorems=12),
            tiny=Size(entities=120, library_proofs=6, theorems=6),
            families=(("conj", 2), ("chain", 2), ("rewrite", 2)),
            conj_leaves=(2, 2),
            chain_leaves=(1, 1),
            chain_lemmas=(2, 3),
            swaps=(1, 1),
            max_depth=15,
            latency_ms=0.0,
            info_request=True,
        ),
        Workload(
            name="llm-bound",
            why="100 entities, depth 8 or less, 5 ms per gateway call: waiting on the "
            "model is over 90% of wall time, so call counts and concurrency show",
            shape="about 100 entities; shallow to medium theorems (depth 8 or "
            "less); default SearchParams(); every gateway call waits 5 ms before "
            "the mock answers",
            full=Size(entities=100, library_proofs=10, theorems=24),
            tiny=Size(entities=60, library_proofs=4, theorems=6),
            families=(("conj", 2), ("chain", 2), ("rewrite", 2)),
            conj_leaves=(2, 4),
            chain_leaves=(2, 2),
            chain_lemmas=(2, 5),
            swaps=(1, 2),
            max_depth=15,
            latency_ms=5.0,
            info_request=False,
        ),
    )
}

SCALES = ("full", "tiny")
