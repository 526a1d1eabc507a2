"""Set-up bytes: everything `load_entity_corpus` and `build_index` produce,
hashed and pinned for the fixture corpus and for a generated wide corpus
(Inductive constructors, dependency names); each kind's float32 screen has
its own pin, and so has the decoded proof corpus. A malformed line is named
and interns nothing, and the index rejects three kinds of bad embedding."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import FIXTURES, kind_rows
from prooforge.corpus import ENTITIES_HEADER, load_entity_corpus, load_proof_corpus
from prooforge.errors import FormatError
from prooforge.retrieval import MockEmbeddingProvider, build_index
from prooforge.tokenizer import TokenTable

GEN = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"

#: sha256 of `_setup_parts`, per corpus.
PINNED = {
    "fixtures": "159d2a5d8f806b11d140ebe6f6115078684818a50be4db4e1201413e5340dcfb",
    "wide-corpus": "f7af84e1c70908d8f92ac589967592739c168a287cf3f6074df718d1e55afc5b",
}


#: sha256 of each kind's float32 screen (`_array_bytes`), per corpus.
SCREENS = {
    "fixtures": {
        "premise": "e4de61dee1adcf2368a02805e88232be1ac703d3be9d5293db745a8babd0bce6",
        "tactic": "e63cfb31c388959c0597e55115032b6fd353a49927649d32c7e7891767f39050",
    },
    "wide-corpus": {
        "premise": "cf7ef406d66e953c0b81a4af1a0abaa19f8ad7fb3607f6a270f60935aa681f0e",
        "tactic": "0d88b4ae7cb727cb1016b124424563e86cae8c3f5cc62e24693e72763b04af81",
    },
}


#: sha256 of `_proof_parts`, per corpus.
PROOF_PINS = {
    "fixtures": "384914854baa3746674a98a619147cb1bc6a79e65e87133810fb7b07eda6319c",
    "wide-corpus": "b6eff5fecec0a3d522e9cf7dc79c7a850c7d089dfb2e1e1fce0d099772c26544",
    "deep-small": "b8e3c9027d95b8cdfcf87851a5ef0f7e9c11437b1086c5929377b425f613104d",
}


def _set_up(directory: Path):
    """Load both corpora and embed every premise and tactic example, as
    ``prooforge prove`` does with the mock provider at seed 0."""
    table = TokenTable()
    corpus = load_entity_corpus(str(directory / "entities.jsonl"), table)
    proofs = load_proof_corpus(str(directory / "proofs.jsonl"))
    premises = [(record.name, record.internal) for record in corpus.records]
    tactics = [
        (step.tactic, step.before.goals[0].goal_internal if step.before.goals else "")
        for proof in proofs.proofs
        for step in proof.steps
    ]
    return table, corpus, build_index(MockEmbeddingProvider(seed=0), premises, tactics)


def _array_bytes(array: np.ndarray) -> bytes:
    return f"{array.dtype.str}{array.shape}".encode() + array.tobytes()


def _setup_parts(table, corpus, index) -> dict:
    """sha256 of each output of set-up."""
    parts = {
        "records": repr(corpus.records).encode(),
        "tokens": repr(corpus.tokens).encode(),
        "derived": repr(sorted(corpus.derived)).encode(),
        "extras": json.dumps(sorted(corpus.extras.items()), sort_keys=True).encode(),
        "by_name": repr(sorted(corpus.by_name.items())).encode(),
        "table.reverse": repr(sorted(table.reverse.items())).encode(),
        "index.dim": repr(index.dim).encode(),
    }
    for kind, rows in sorted(kind_rows(index).items()):
        parts[f"{kind}.payloads"] = repr(rows.payloads).encode()
        for name in ("matrix", "norms", "zero", "key_rank"):
            parts[f"{kind}.{name}"] = _array_bytes(getattr(rows, name))
    return {name: hashlib.sha256(data).hexdigest() for name, data in parts.items()}


def _digest(parts: dict) -> str:
    return hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()


def _proof_parts(directory: Path) -> dict:
    """sha256 of the `repr` of each field of the loaded proof corpus."""
    proofs = load_proof_corpus(str(directory / "proofs.jsonl"))
    return {
        name: hashlib.sha256(repr(getattr(proofs, name)).encode()).hexdigest()
        for name in ("proofs", "by_theorem", "extras")
    }


def _generate(tmp_path_factory, workload: str) -> Path:
    out = tmp_path_factory.mktemp(workload)
    subprocess.run(
        [sys.executable, str(GEN), "--workload", workload, "--scale", "tiny",
         "--out", str(out)],
        check=True,
    )
    return out


@pytest.fixture(scope="module")
def wide_corpus(tmp_path_factory) -> Path:
    return _generate(tmp_path_factory, "wide-corpus")


@pytest.fixture(scope="module")
def deep_small(tmp_path_factory) -> Path:
    return _generate(tmp_path_factory, "deep-small")


def test_fixture_set_up_bytes_are_pinned():
    parts = _setup_parts(*_set_up(Path(FIXTURES)))
    assert _digest(parts) == PINNED["fixtures"], parts


def test_generated_set_up_bytes_are_pinned(wide_corpus):
    table, corpus, index = _set_up(wide_corpus)
    # The generated corpus exercises derived constructors and dependencies.
    assert corpus.derived
    assert sum(bool(record.dependencies) for record in corpus.records) > 100
    parts = _setup_parts(table, corpus, index)
    assert _digest(parts) == PINNED["wide-corpus"], parts


@pytest.mark.parametrize("corpus", sorted(SCREENS))
def test_screen_bytes_are_pinned(corpus, request):
    directory = Path(FIXTURES) if corpus == "fixtures" else request.getfixturevalue("wide_corpus")
    _table, _corpus, index = _set_up(directory)
    for rows in kind_rows(index).values():
        assert np.array_equal(rows.screen, (rows.matrix / rows.norms[:, None]).astype(np.float32))
    screens = {
        kind: hashlib.sha256(_array_bytes(rows.screen)).hexdigest()
        for kind, rows in sorted(kind_rows(index).items())
    }
    assert screens == SCREENS[corpus]


@pytest.mark.parametrize("corpus", sorted(PROOF_PINS))
def test_proof_corpus_bytes_are_pinned(corpus, request):
    if corpus == "fixtures":
        directory = Path(FIXTURES)
    else:
        directory = request.getfixturevalue(corpus.replace("-", "_"))
    parts = _proof_parts(directory)
    assert _digest(parts) == PROOF_PINS[corpus], parts


def _decoded(corpus) -> dict:
    """Every Hypothesis, GoalState and ProofState occurrence in a proof
    corpus, by type name."""
    states = [state for proof in corpus.proofs for step in proof.steps
              for state in (step.before, step.after)]
    goals = [goal for state in states for goal in state.goals]
    hypotheses = [hyp for goal in goals
                  for hyp in goal.hypotheses_surface + goal.hypotheses_internal]
    return {"ProofState": states, "GoalState": goals, "Hypothesis": hypotheses}


def test_a_proof_corpus_load_shares_equal_values_within_the_call(deep_small):
    path = str(deep_small / "proofs.jsonl")
    first = load_proof_corpus(path)
    for proof in first.proofs:
        for previous, step in zip(proof.steps, proof.steps[1:]):
            assert step.before is previous.after
    decoded = _decoded(first)
    hypotheses = decoded["Hypothesis"]
    triples = {(hyp.name, hyp.surface_type, hyp.internal_type) for hyp in hypotheses}
    assert len({id(hyp) for hyp in hypotheses}) == len(triples) < len(hypotheses)
    for kind, values in decoded.items():
        assert len({id(value) for value in values}) == len(set(values)), kind

    second = load_proof_corpus(path)
    assert second.proofs == first.proofs
    for kind, values in _decoded(second).items():
        assert not {id(value) for value in values} & {id(value) for value in decoded[kind]}, kind


@pytest.mark.parametrize("bad", [
    "{not json",
    "[1, 2]",
    "[" * 100_000 + "]" * 100_000,
    json.dumps({"name": "Bad.x", "kernel_name": "Bad.x", "kind": "Lemma", "origin": "x"}),
    json.dumps({"name": "Bad..x", "kernel_name": "Bad.x", "kind": "Lemma",
                "origin": "x", "internal": "x"}),
    json.dumps({"name": "Bad.x", "kernel_name": "Bad.x", "kind": "Nonsense",
                "origin": "x", "internal": "x"}),
    json.dumps({"name": "Bad.x", "kernel_name": "Bad.x", "kind": "Other:",
                "origin": "x", "internal": "x"}),
    json.dumps({"name": "Bad.x", "kernel_name": "Bad.x", "kind": 5,
                "origin": "x", "internal": "x"}),
    json.dumps({"name": 3, "kernel_name": "Bad.x", "kind": "Lemma",
                "origin": "x", "internal": "x"}),
    json.dumps({"name": "Bad.x", "kernel_name": "Bad.x", "kind": "Lemma",
                "origin": "x", "internal": "x", "dependencies": 7}),
    json.dumps({"name": "Bad.x", "kernel_name": "Bad.x", "kind": "Lemma",
                "origin": "x", "internal": "x", "dependencies": ["Bench.Core.nat", None]}),
])
def test_a_malformed_line_is_named_and_interns_nothing(wide_corpus, tmp_path, bad):
    lines = (wide_corpus / "entities.jsonl").read_text(encoding="utf-8").splitlines()
    assert lines[0] == ENTITIES_HEADER
    lines.insert(40, bad)
    path = tmp_path / "entities.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    table = TokenTable()
    before = len(table)
    with pytest.raises(FormatError) as exc_info:
        load_entity_corpus(str(path), table)
    assert exc_info.value.line == 41
    assert len(table) == before


def test_a_duplicate_line_is_named_and_interns_nothing(wide_corpus, tmp_path):
    lines = (wide_corpus / "entities.jsonl").read_text(encoding="utf-8").splitlines()
    lines.append(lines[30])
    path = tmp_path / "entities.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    table = TokenTable()
    before = len(table)
    with pytest.raises(FormatError, match="duplicate entity") as exc_info:
        load_entity_corpus(str(path), table)
    assert exc_info.value.line == len(lines)
    assert len(table) == before


class ListProvider:
    """Returns each configured text's list as given, unconverted."""

    def __init__(self, table: dict):
        self.table = table

    def embed(self, text: str):
        return self.table[text]

    def embed_many(self, texts):
        return [self.table[text] for text in texts]


@pytest.mark.parametrize("vectors, message", [
    ({"P1 : a": [1.0, 0.0], "P2 : b": [[1.0, 0.0]]}, r"embedding must be 1-D, got shape \(1, 2\)"),
    ({"P1 : a": [1.0, 0.0], "P2 : b": 3.0}, r"embedding must be 1-D, got shape \(\)"),
    ({"P1 : a": [1.0, 0.0], "P2 : b": [1.0, 0.0, 0.0]}, r"provider returned mixed dimensions: \[2, 3\]"),
    ({"P1 : a": [1.0, 0.0], "P2 : b": [float("nan"), 0.0]}, r"embedding entries must be finite"),
    ({"P1 : a": [1.0, 0.0], "P2 : b": [1.0, float("-inf")]}, r"embedding entries must be finite"),
    # An integer too large for a float (401 digits) is not finite.
    ({"P1 : a": [1.0, 0.0], "P2 : b": [-10 ** 400, 0.0]}, r"embedding entries must be finite"),
    # The first bad row in premise order names the error.
    ({"P1 : a": [float("inf"), 0.0], "P2 : b": [1.0, 0.0, 0.0]}, r"embedding entries must be finite"),
    ({"P1 : a": [[1.0]], "P2 : b": [float("nan"), 0.0]}, r"embedding must be 1-D, got shape \(1, 1\)"),
    ({"P1 : a": [1.0], "P2 : b": [[float("nan")]]}, r"embedding must be 1-D, got shape \(1, 1\)"),
])
def test_build_index_rejects_bad_embeddings(vectors, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build_index(ListProvider(vectors), premises=[("P1", "a"), ("P2", "b")])


def test_a_bad_tactic_row_is_checked_after_every_premise():
    vectors = {"P1 : a": [1.0, 0.0], "t \x1f g": [float("nan"), 0.0], "P2 : b": [1.0]}
    with pytest.raises(ValueError, match="^embedding entries must be finite$"):
        build_index(ListProvider(vectors), premises=[("P1", "a")], tactics=[("t", "g")])
    with pytest.raises(ValueError, match=r"^provider returned mixed dimensions: \[1, 2\]$"):
        build_index(ListProvider(vectors), premises=[("P1", "a"), ("P2", "b")])
