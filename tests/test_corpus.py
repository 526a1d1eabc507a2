"""Corpus IO: entity/proof files, constructor derivation, concepts, requires."""

import gc
import json
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    entities_path,
    make_entity,
    proofs_path,
    sigma_1,
    worked_proof,
)
from prooforge.core_model import EntityKind, ProofState, GoalState
from prooforge.corpus import (
    ENTITIES_HEADER,
    PROOFS_HEADER,
    EntityCorpus,
    _read_objects,
    derive_constructors,
    encode_proof,
    extract_concepts,
    load_entity_corpus,
    load_proof_corpus,
    save_entity_corpus,
)
from prooforge.errors import FormatError
from prooforge.proof_search import _lookup_info
from prooforge.tokenizer import (
    DisambiguatedName,
    TokenClass,
    TokenTable,
    load_vocabulary,
    resolve_name,
    save_vocabulary,
)

TRUE_RECORD_LINE = json.dumps(
    {
        "name": "Coq.Init.Logic.True",
        "kernel_name": "Coq.Init.Logic.True",
        "kind": "Inductive",
        "origin": "Inductive True := I : True",
        "internal": "True: Prop | Coq.Init.Logic.True.I : Coq.Init.Logic.True",
    }
)


def _write_entities(tmp_path, *lines) -> str:
    path = tmp_path / "entities.jsonl"
    path.write_text("\n".join([ENTITIES_HEADER, *lines]) + "\n", encoding="utf-8")
    return str(path)


# ----------------------------------------------------------------------
# Entity loading
# ----------------------------------------------------------------------

class TestLoadEntities:
    def test_inductive_record_brings_its_constructor(self, tmp_path):
        # [PAPER] the `True` entity: one explicit record plus the derived
        # record for its constructor `I`.
        path = _write_entities(tmp_path, TRUE_RECORD_LINE)
        table = TokenTable()
        corpus = load_entity_corpus(path, table)
        assert len(corpus) == 2
        names = [r.name for r in corpus.records]
        assert names == ["Coq.Init.Logic.True", "Coq.Init.Logic.True.I"]
        assert corpus.records[1].kind == EntityKind("Constructor")
        assert corpus.derived == frozenset({1})

    def test_header_only_file_is_empty_corpus(self, tmp_path):
        # [TRIVIAL]
        path = _write_entities(tmp_path)
        corpus = load_entity_corpus(path, TokenTable())
        assert len(corpus) == 0

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "entities.jsonl"
        path.write_text(TRUE_RECORD_LINE + "\n", encoding="utf-8")
        with pytest.raises(FormatError) as exc_info:
            load_entity_corpus(str(path), TokenTable())
        assert exc_info.value.line == 1

    def test_empty_origin_flags_its_line(self, tmp_path):
        # [TRIVIAL] invariant breach surfaces as FormatError at the line.
        bad = json.dumps(
            {
                "name": "M.x",
                "kernel_name": "M.x",
                "kind": "Definition",
                "origin": "",
                "internal": "x",
            }
        )
        path = _write_entities(tmp_path, TRUE_RECORD_LINE, bad)
        with pytest.raises(FormatError) as exc_info:
            load_entity_corpus(str(path), TokenTable())
        assert exc_info.value.line == 3

    def test_duplicate_entity_rejected(self, tmp_path):
        path = _write_entities(tmp_path, TRUE_RECORD_LINE, TRUE_RECORD_LINE)
        with pytest.raises(FormatError) as exc_info:
            load_entity_corpus(str(path), TokenTable())
        assert exc_info.value.line == 3

    def test_named_dependencies_resolve_in_second_pass(self, tmp_path):
        # `uses` lists its dependency by name before that entity appears.
        uses = json.dumps(
            {
                "name": "M.uses",
                "kernel_name": "M.uses",
                "kind": "Definition",
                "origin": "o",
                "internal": "i",
                "dependencies": ["M.base"],
            }
        )
        base = json.dumps(
            {
                "name": "M.base",
                "kernel_name": "M.base",
                "kind": "Definition",
                "origin": "o",
                "internal": "i",
            }
        )
        table = TokenTable()
        corpus = load_entity_corpus(_write_entities(tmp_path, uses, base), table)
        base_tid = corpus.tokens[[r.name for r in corpus.records].index("M.base")]
        uses_record = corpus.records[[r.name for r in corpus.records].index("M.uses")]
        assert uses_record.dependencies == (base_tid,)

    def test_a_bool_dependency_is_named_and_interns_nothing(self, tmp_path):
        bad = json.dumps(
            {
                "name": "M.x",
                "kernel_name": "M.x",
                "kind": "Definition",
                "origin": "o",
                "internal": "i",
                "dependencies": [0, 5, True],
            }
        )
        table = TokenTable()
        before = len(table)
        with pytest.raises(FormatError) as exc_info:
            load_entity_corpus(_write_entities(tmp_path, TRUE_RECORD_LINE, bad), table)
        assert exc_info.value.line == 3
        assert len(table) == before

    def test_an_integer_dependency_resolves_only_to_an_entity(self, tmp_path):
        # Token 0 is reserved; 10**6, 10**12 and 10**30 are unallocated and
        # -1 is no id: none names an entity.
        table = TokenTable()
        true_tid = len(table)  # the next id, which `True` gets
        uses = json.dumps(
            {
                "name": "M.uses",
                "kernel_name": "M.uses",
                "kind": "Definition",
                "origin": "o",
                "internal": "i",
                "dependencies": [0, 10**6, -1, 10**12, 10**30, true_tid],
            }
        )
        corpus = load_entity_corpus(_write_entities(tmp_path, TRUE_RECORD_LINE, uses), table)
        assert corpus.tokens[0] == true_tid
        uses_record = corpus.records[[r.name for r in corpus.records].index("M.uses")]
        assert uses_record.dependencies == (true_tid,)

    def test_a_rendered_dependency_with_an_empty_path_names_no_entity(self, tmp_path):
        # `M.base<ker>` has no kernel path: it resolves to nothing and is
        # dropped, beside a rendered name that resolves.
        uses = json.dumps({
            "name": "M.uses", "kernel_name": "M.uses", "kind": "Definition",
            "origin": "o", "internal": "i",
            "dependencies": ["M.base<ker>", "M.base<ker>M.base"],
        })
        base = json.dumps({
            "name": "M.base", "kernel_name": "M.base", "kind": "Definition",
            "origin": "o", "internal": "i",
        })
        table = TokenTable()
        corpus = load_entity_corpus(_write_entities(tmp_path, base, uses), table)
        assert corpus.records[1].dependencies == (corpus.tokens[0],)

    def test_unknown_fields_preserved_as_extras(self, tmp_path):
        extra = json.dumps(
            {
                "name": "M.x",
                "kernel_name": "M.x",
                "kind": "Definition",
                "origin": "o",
                "internal": "i",
                "provenance": "experiment-7",
            }
        )
        corpus = load_entity_corpus(_write_entities(tmp_path, extra), TokenTable())
        assert corpus.extras[0] == {"provenance": "experiment-7"}

    def test_interning_totals_match(self, tmp_path):
        table = TokenTable()
        corpus = load_entity_corpus(entities_path(), table)
        # Every record interned exactly once; by_token total over records.
        assert len(corpus.tokens) == len(corpus.records)
        assert len(set(corpus.tokens)) == len(corpus.tokens)
        for tid, record in zip(corpus.tokens, corpus.records):
            assert corpus.record_for(tid) == record

    def test_equal_texts_are_one_object_within_a_load_and_none_across_loads(self, tmp_path):
        # Every text here is longer than one character: the interpreter
        # shares the empty and one-character strings on its own.
        def line(i, kernel=None):
            return json.dumps({
                "name": f"Mod.lemma{i}",
                "kernel_name": kernel or f"Mod.lemma{i}",
                "kind": "Lemma",
                "origin": f"Lemma lemma{i} : True",
                "internal": f"Coq.Init.Logic.True {i}",
                "intuition": "Holds trivially.",
                "source_file": "Mod/File.v",
                "origin_zh": "引理 平凡",
                "internal_zh": "内部 平凡",
                "intuition_zh": "显然 成立",
            }, ensure_ascii=False)

        path = _write_entities(tmp_path, line(0), line(1), line(2, kernel="Mod.K.lemma2"))
        shared = ("intuition", "source_file", "origin_zh", "internal_zh", "intuition_zh")
        texts = ("name", "kernel_name", "origin", "internal") + shared
        first, second = (load_entity_corpus(path, TokenTable()).records for _ in range(2))
        for records in (first, second):
            assert [r.kernel_name is r.name for r in records] == [True, True, False]
            for key in shared:
                assert len({id(getattr(r, key)) for r in records}) == 1, key
        assert first == second
        for a, b in zip(first, second):
            for key in texts:
                assert getattr(a, key) is not getattr(b, key), key

    @pytest.mark.parametrize("value", [5, ["x"], None], ids=["int", "list", "null"])
    @pytest.mark.parametrize("key", [
        "name", "kernel_name", "kind", "origin", "internal",
        "intuition", "source_file", "origin_zh", "internal_zh", "intuition_zh",
    ])
    def test_a_text_field_that_is_not_a_string_is_named(self, tmp_path, key, value):
        bad = json.dumps({**json.loads(TRUE_RECORD_LINE), "name": "M.x", key: value})
        table = TokenTable()
        before = len(table)
        with pytest.raises(FormatError, match=f"^line 3: {key} must be a string$"):
            load_entity_corpus(_write_entities(tmp_path, TRUE_RECORD_LINE, bad), table)
        assert len(table) == before

    def test_a_missing_text_field_is_named(self, tmp_path):
        obj = json.loads(TRUE_RECORD_LINE)
        del obj["origin"]
        with pytest.raises(FormatError, match="^line 2: missing field: 'origin'$"):
            load_entity_corpus(_write_entities(tmp_path, json.dumps(obj)), TokenTable())


# ----------------------------------------------------------------------
# Lookups against a reference built from plain dicts
# ----------------------------------------------------------------------

# Few segments, so canonical paths repeat, a kernel path is often another
# record's canonical path, last segments repeat, and a derived constructor
# may collide with an explicit record.
_SEG = st.sampled_from(["a", "b", "c"])
_DOTTED = st.lists(_SEG, min_size=1, max_size=3).map(".".join)


@st.composite
def _entity_lines(draw):
    names = draw(st.lists(_DOTTED, min_size=1, max_size=8))
    lines, seen = [], set()
    for name in names:
        kernel = draw(st.sampled_from([name, f"K.{name}"] + names))
        if (name, kernel) in seen:
            continue
        seen.add((name, kernel))
        obj = {"name": name, "kernel_name": kernel, "kind": "Definition",
               "origin": "o", "internal": "i"}
        if draw(st.booleans()):
            ctor = draw(st.sampled_from([f"{name}.{draw(_SEG)}", draw(_DOTTED)]))
            obj.update(kind="Inductive", internal=f"{name} : Type | {ctor} : {name}")
        lines.append(json.dumps(obj))
    return lines


class _Reference:
    """The table and corpus lookups built the way they were before a table
    stored only keys: a dict per direction, rendered names kept, every
    bare path mapped, and a dict from each token to its record's
    position. `writes` are the (key, class, id) writes in table order."""

    def __init__(self, writes, corpus):
        self.entries, self.reverse = {}, {}
        self.by_canonical, self.by_kernel = {}, {}
        for key, cls, tid in writes:
            if cls.kind == TokenClass.GLOBAL:
                self.entries[key] = tid
                self.reverse[tid] = (key.rendered(), cls)
                self.by_canonical.setdefault(key.canonical_path, tid)
                self.by_kernel.setdefault(key.kernel_path, tid)
            else:
                self.reverse[tid] = (key, cls)
        self.records, self.tokens = corpus.records, corpus.tokens
        self.by_token = {tid: i for i, tid in enumerate(corpus.tokens)}
        self.by_name = {}
        for i, record in enumerate(corpus.records):
            for key in (record.name, record.kernel_name, record.name.rsplit(".", 1)[-1]):
                self.by_name.setdefault(key, i)

    def record_for(self, token):
        index = self.by_token.get(token)
        return self.records[index] if index is not None else None

    def resolve_name(self, name):
        tid = self.by_canonical.get(name)
        return tid if tid is not None else self.by_kernel.get(name)

    def lookup_info(self, names, concepts):
        have = {token for token, _record in concepts}
        pairs = []
        for name in names:
            i = self.by_name.get(name)
            if i is not None and self.tokens[i] not in have:
                have.add(self.tokens[i])
                pairs.append((self.tokens[i], self.records[i]))
        return tuple(pairs)

    def vocabulary(self) -> bytes:
        return "".join(
            f"{tid}\t{key}\t{cls.kind}\n" for tid, (key, cls) in sorted(self.reverse.items())
        ).encode("utf-8")


def _corpus_writes(ids_before: set, corpus):
    """The global writes a load made: each record not already interned."""
    return [
        (DisambiguatedName(r.name, r.kernel_name), TokenClass.global_id(), tid)
        for r, tid in zip(corpus.records, corpus.tokens) if tid not in ids_before
    ]


def _assert_matches(table, corpus, ref, directory):
    known = set(ref.reverse) | set(corpus.tokens)
    probes = known | {-1, max(known) + 1, 10**12 + 7}
    for token in probes:
        assert corpus.record_for(token) == ref.record_for(token), token
    assert corpus.by_name == ref.by_name
    names = sorted(ref.by_name) + ["nope"]
    for concepts in ((), tuple((t, None) for t in corpus.tokens[::2])):
        assert _lookup_info(corpus, names, concepts) == ref.lookup_info(names, concepts)
    paths = {p for key in ref.entries for p in (key.canonical_path, key.kernel_path)}
    for path in sorted(paths) + ["nope"]:
        assert resolve_name(table, path) == ref.resolve_name(path), path
    for key in ref.entries:
        assert table.id_for_rendered(key.rendered()) == ref.entries[key]
    assert table.id_for_rendered("nope<ker>nope") is None
    assert sorted(table.reverse.items()) == sorted(ref.reverse.items())
    out = directory / "vocab.tsv"
    save_vocabulary(table, str(out))
    assert out.read_bytes() == ref.vocabulary()


class TestLookupsMatchTheReference:
    @given(lines=_entity_lines(), data=st.data())
    def test_fresh_and_vocabulary_filled_tables(self, tmp_path_factory, lines, data):
        directory = tmp_path_factory.mktemp("lookups")
        path = directory / "entities.jsonl"
        path.write_text("\n".join([ENTITIES_HEADER, *lines]) + "\n", encoding="utf-8")

        table = TokenTable()
        reserved = [(label, TokenClass.reserved(label), tid)
                    for label, tid in table._reserved_ids.items()]
        corpus = load_entity_corpus(str(path), table)
        # A fresh table numbers the load in order: no record needs an entry.
        assert not corpus._displaced
        _assert_matches(table, corpus, _Reference(reserved + _corpus_writes(set(), corpus), corpus),
                        directory)

        # A vocabulary holding some of the entities, in another order, with
        # gaps and a huge id; the load interns the rest after them.
        names = sorted({(r.name, r.kernel_name) for r in corpus.records})
        held = data.draw(st.permutations(names))[:data.draw(st.integers(0, len(names)))]
        ids = data.draw(st.lists(st.integers(0, 60) | st.just(10**12),
                                 min_size=len(held) + 1, max_size=len(held) + 1, unique=True))
        writes = [("nat", TokenClass.reserved("nat"), ids[0])] + [
            (DisambiguatedName(*name), TokenClass.global_id(), tid)
            for name, tid in zip(held, ids[1:])
        ]
        vocab = directory / "held.tsv"
        vocab.write_text("".join(
            f"{tid}\t{key.rendered() if cls.kind == TokenClass.GLOBAL else key}\t{cls.kind}\n"
            for key, cls, tid in writes
        ), encoding="utf-8")
        table = load_vocabulary(str(vocab))
        corpus = load_entity_corpus(str(path), table)
        writes += _corpus_writes(set(ids), corpus)
        _assert_matches(table, corpus, _Reference(writes, corpus), directory)


# ----------------------------------------------------------------------
# Streamed reading
# ----------------------------------------------------------------------

def _read_objects_whole(path: str, expected_header: str):
    """The reader before streaming, kept as the reference: the whole file
    is read, then split at line ends."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read().split("\n")
    if not raw or raw[0].strip() != expected_header:
        raise FormatError(f"missing or wrong header, expected {expected_header!r}", line=1)
    for lineno, line in enumerate(raw[1:], start=2):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"bad JSON: {exc.msg}", line=lineno)
        except RecursionError:
            raise FormatError("bad JSON: nested too deeply", line=lineno)
        if not isinstance(obj, dict):
            raise FormatError("each line must hold one JSON object", line=lineno)
        yield lineno, obj


def _read_all(reader, path: str):
    """What `reader` yields, then the message and line of the FormatError
    it raised, or None."""
    items = []
    try:
        for item in reader(path, ENTITIES_HEADER):
            items.append(item)
    except FormatError as exc:
        return items, (str(exc), exc.line)
    return items, None


_DEEP = "[" * 5000 + "]" * 5000
_LINE = st.one_of(
    st.dictionaries(
        st.text(max_size=4),
        st.none() | st.booleans() | st.integers() | st.text(max_size=6) | st.lists(st.integers(), max_size=2),
        max_size=3,
    ).map(json.dumps),
    st.sampled_from([
        "", " ", "\t", " \t\x0c ", "\x85", "[1, 2]", "null", '"proof"', "5",
        '{"a": ', '{"a" 1}', '{"a": "open', "{'a': 1}", '{"a": 1} x', "nul",
        _DEEP, '{"a": ' + _DEEP + "}",
    ]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=10),
)
_HEADERS = st.sampled_from([
    ENTITIES_HEADER, f" {ENTITIES_HEADER}\t", PROOFS_HEADER, "", "#prooforge-corpus v2 entities",
])


class TestStreamedReading:
    @given(
        header=_HEADERS,
        lines=st.lists(_LINE, max_size=6),
        ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=7, max_size=7),
        final=st.booleans(),
    )
    @example(header=ENTITIES_HEADER, lines=['{"a": 1}', " ", '{"b": [2]}'],
             ends=["\r", "\r\n", "\r"] + ["\n"] * 4, final=False)
    @example(header=ENTITIES_HEADER, lines=["", '{"a": "x', _DEEP],
             ends=["\n"] * 7, final=True)
    @example(header="", lines=[], ends=["\n"] * 7, final=False)
    def test_the_stream_is_the_whole_file_split(self, tmp_path_factory, header, lines, ends, final):
        pieces = [header] + lines
        text = "".join(p + e for p, e in zip(pieces, ends))
        if not final:
            text = text[:len(text) - len(ends[len(pieces) - 1])]
        path = tmp_path_factory.mktemp("stream") / "entities.jsonl"
        path.write_bytes(text.encode("utf-8"))
        expected = _read_all(_read_objects_whole, str(path))
        assert _read_all(_read_objects, str(path)) == expected

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_a_line_end_is_not_part_of_a_bad_line(self, tmp_path, end):
        # An unterminated string is named as such whatever ends its line:
        # the line end is not read as a control character inside it.
        path = tmp_path / "entities.jsonl"
        path.write_bytes(f'{ENTITIES_HEADER}{end}{{"a": "open{end}'.encode("utf-8"))
        with pytest.raises(FormatError, match="^line 2: bad JSON: Unterminated string"):
            list(_read_objects(str(path), ENTITIES_HEADER))


# ----------------------------------------------------------------------
# Proof loading
# ----------------------------------------------------------------------

# Structured proof lines: each field is mostly a valid value, otherwise a
# value of the wrong JSON type or left out; so is each list item. Few
# distinct texts, so states repeat and steps can chain.
_LEFT_OUT = object()
_WRONG = st.sampled_from([None, True, 1, 0.5, [0], {"x": 0}])
_TEXT = st.sampled_from(["", "n", "nat", "n = n"])


def _mostly(valid, otherwise=_WRONG):
    """`valid` seven times in eight, else `otherwise`."""
    return st.integers(0, 7).flatmap(lambda k: valid if k else otherwise)


def _object(**fields):
    fields = {key: _mostly(valid, _WRONG | st.just(_LEFT_OUT)) for key, valid in fields.items()}
    return st.fixed_dictionaries(fields).map(
        lambda obj: {key: value for key, value in obj.items() if value is not _LEFT_OUT}
    )


def _list(item):
    return st.lists(_mostly(item), max_size=2)


_HYPOTHESIS = _object(name=_TEXT, surface_type=_TEXT, internal_type=_TEXT)
_GOAL = _object(
    hypotheses_surface=_list(_HYPOTHESIS),
    hypotheses_internal=_list(_HYPOTHESIS),
    goal_surface=_TEXT,
    goal_internal=_TEXT,
)
_STATE = _object(goals=_list(_GOAL))
_STEP = _object(tactic=_TEXT, before=_STATE, after=_STATE, explanation=_TEXT)
_PROOF_LINE = _mostly(_object(theorem_name=_TEXT, steps=_list(_STEP), note=_WRONG))


class TestLoadProofs:
    def test_worked_proof_loads(self):
        # [PAPER] intros n / simpl / reflexivity with its four states.
        corpus = load_proof_corpus(proofs_path())
        assert len(corpus) == 1
        proof = corpus.proofs[0]
        assert proof.theorem_name == "Coq.Arith.PeanoNat.Nat.add_0_l"
        assert [s.tactic for s in proof.steps] == ["intros n", "simpl", "reflexivity"]
        assert proof.steps == worked_proof().steps

    def test_broken_chain_rejected_naming_step(self, tmp_path):
        # [TRIVIAL] replace step 2's before state with sigma_0's goal.
        obj = json.loads(
            Path(proofs_path()).read_text(encoding="utf-8").splitlines()[1]
        )
        obj["steps"][1]["before"] = obj["steps"][0]["before"]
        path = tmp_path / "proofs.jsonl"
        path.write_text(
            PROOFS_HEADER + "\n" + json.dumps(obj) + "\n", encoding="utf-8"
        )
        with pytest.raises(FormatError) as exc_info:
            load_proof_corpus(str(path))
        assert "step 1" in str(exc_info.value)

    def test_header_only_file_is_empty_corpus(self, tmp_path):
        # [TRIVIAL]
        path = tmp_path / "proofs.jsonl"
        path.write_text(PROOFS_HEADER + "\n", encoding="utf-8")
        assert len(load_proof_corpus(str(path))) == 0

    def test_duplicate_theorem_rejected(self, tmp_path):
        line = Path(proofs_path()).read_text(encoding="utf-8").splitlines()[1]
        path = tmp_path / "proofs.jsonl"
        path.write_text(
            "\n".join([PROOFS_HEADER, line, line]) + "\n", encoding="utf-8"
        )
        with pytest.raises(FormatError) as exc_info:
            load_proof_corpus(str(path))
        assert exc_info.value.line == 3


    @pytest.mark.parametrize("line, message", [
        ("[1, 2]", "each line must hold one JSON object"),
        ("null", "each line must hold one JSON object"),
        ('"proof"', "each line must hold one JSON object"),
        ("5", "each line must hold one JSON object"),
        ("[" * 100_000 + "]" * 100_000, "bad JSON: nested too deeply"),
    ], ids=["list", "null", "string", "number", "deep-list"])
    def test_a_line_that_is_not_an_object_is_named(self, tmp_path, line, message):
        path = tmp_path / "proofs.jsonl"
        path.write_text(PROOFS_HEADER + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match=f"^line 2: {message}$"):
            load_proof_corpus(str(path))

    @pytest.mark.parametrize("edit, message", [
        (lambda obj: obj.update(steps="ab"), "steps must be a list"),
        (lambda obj: obj["steps"].append([]), "each step must be an object"),
        (lambda obj: obj["steps"][0].update(before={"goals": "ab"}), "goals must be a list"),
        (lambda obj: obj["steps"][0].update(after=[]), "after must be an object"),
        (lambda obj: obj["steps"][0]["before"]["goals"].append(None), "each goal must be an object"),
        (lambda obj: obj["steps"][1]["before"]["goals"][0].update(hypotheses_surface={}),
         "hypotheses_surface must be a list"),
        (lambda obj: obj["steps"][1]["before"]["goals"][0]["hypotheses_internal"].append("n"),
         "each hypothesis must be an object"),
        (lambda obj: obj["steps"][1]["before"]["goals"][0]["hypotheses_internal"][0].update(
            internal_type=["nat"]), "internal_type must be a string"),
        (lambda obj: obj["steps"][1]["after"]["goals"][0]["hypotheses_surface"][0].update(name=1),
         "name must be a string"),
        (lambda obj: obj["steps"][0]["before"]["goals"][0].update(goal_surface=None),
         "goal_surface must be a string"),
        (lambda obj: obj["steps"][0]["after"]["goals"][0].update(goal_internal=["x"]),
         "goal_internal must be a string"),
        (lambda obj: obj["steps"][2].update(tactic=7), "tactic must be a string"),
        (lambda obj: obj.update(theorem_name={}), "theorem_name must be a string"),
    ])
    def test_a_field_of_the_wrong_type_is_named(self, tmp_path, edit, message):
        lines = Path(proofs_path()).read_text(encoding="utf-8").splitlines()
        obj = json.loads(lines[1])
        edit(obj)
        path = tmp_path / "proofs.jsonl"
        path.write_text(PROOFS_HEADER + "\n" + json.dumps(obj) + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match=f"^line 2: {message}$"):
            load_proof_corpus(str(path))

    @given(line=_PROOF_LINE)
    def test_any_structured_line_loads_or_is_named(self, tmp_path_factory, line):
        path = tmp_path_factory.mktemp("proofs") / "proofs.jsonl"
        path.write_text(PROOFS_HEADER + "\n" + json.dumps(line) + "\n", encoding="utf-8")
        try:
            corpus = load_proof_corpus(str(path))
        except FormatError as exc:
            assert exc.line == 2
        else:
            assert corpus.proofs[0].theorem_name == line["theorem_name"]
            assert corpus.extras == ({0: {"note": line["note"]}} if "note" in line else {})


# ----------------------------------------------------------------------
# The cyclic collector is paused for a load
# ----------------------------------------------------------------------

_LOADS = {
    "entities": lambda path: load_entity_corpus(path, TokenTable()),
    "proofs": load_proof_corpus,
}
_HEADERS = {"entities": ENTITIES_HEADER, "proofs": PROOFS_HEADER}
_FIXTURES = {"entities": entities_path, "proofs": proofs_path}
# A function each loader calls while it loads the fixture.
_CALLED_IN_LOAD = {"entities": "derive_constructors", "proofs": "validate_proof_chain"}


@pytest.fixture
def collector_restored():
    yield
    gc.enable()


@pytest.mark.usefixtures("collector_restored")
class TestCollectorPause:
    @pytest.mark.parametrize("kind", sorted(_LOADS))
    def test_a_load_pauses_the_collector_and_enables_it_again(self, monkeypatch, kind):
        import prooforge.corpus as corpus_module

        inner = getattr(corpus_module, _CALLED_IN_LOAD[kind])
        seen = []

        def spy(*args):
            seen.append(gc.isenabled())
            return inner(*args)

        monkeypatch.setattr(corpus_module, _CALLED_IN_LOAD[kind], spy)
        _LOADS[kind](_FIXTURES[kind]())
        assert seen and not any(seen)
        assert gc.isenabled()

    @pytest.mark.parametrize("kind", sorted(_LOADS))
    def test_a_format_error_enables_the_collector_again(self, tmp_path, kind):
        path = tmp_path / f"{kind}.jsonl"
        path.write_text(_HEADERS[kind] + "\n{not json\n", encoding="utf-8")
        with pytest.raises(FormatError):
            _LOADS[kind](str(path))
        assert gc.isenabled()

    @pytest.mark.parametrize("fails", [False, True], ids=["loads", "raises"])
    @pytest.mark.parametrize("kind", sorted(_LOADS))
    def test_a_caller_who_disabled_the_collector_keeps_it_disabled(self, tmp_path, kind, fails):
        path = tmp_path / f"{kind}.jsonl"
        path.write_text(_HEADERS[kind] + ("\n[]\n" if fails else "\n"), encoding="utf-8")
        gc.disable()
        try:
            _LOADS[kind](str(path))
        except FormatError:
            assert fails
        assert not gc.isenabled()

    def test_a_load_leaves_no_cycle_for_the_collector(self):
        # What makes the pause safe: a load builds nothing the collector
        # could free.
        gc.collect()
        loaded = [_LOADS[kind](_FIXTURES[kind]()) for kind in sorted(_LOADS)]
        assert gc.collect() == 0
        assert all(loaded)


# ----------------------------------------------------------------------
# Round-trips
# ----------------------------------------------------------------------

class TestRoundTrips:
    def test_entities_save_load_fixpoint(self, tmp_path):
        table = TokenTable()
        corpus = load_entity_corpus(entities_path(), table)
        first = str(tmp_path / "first.jsonl")
        save_entity_corpus(corpus, table, first)
        table2 = TokenTable()
        reloaded = load_entity_corpus(first, table2)
        second = str(tmp_path / "second.jsonl")
        save_entity_corpus(reloaded, table2, second)
        assert Path(first).read_bytes() == Path(second).read_bytes()
        assert [r.name for r in reloaded.records] == [r.name for r in corpus.records]

    def test_encoded_proofs_load_back_as_a_fixpoint(self, tmp_path):
        # A proofs file as the benchmark generator writes one: `encode_proof`
        # lines under PROOFS_HEADER.
        def write(corpus, path):
            lines = [PROOFS_HEADER]
            for proof in corpus.proofs:
                lines.append(json.dumps(encode_proof(proof), sort_keys=True, ensure_ascii=False))
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            return path

        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        corpus = load_proof_corpus(proofs_path())
        reloaded = load_proof_corpus(str(write(corpus, first)))
        write(reloaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert reloaded.proofs == corpus.proofs
        assert reloaded.by_theorem == corpus.by_theorem

    def test_record_save_load_identity(self, tmp_path):
        record = make_entity(
            "M.thing",
            kind="Lemma",
            kernel="M.Impl.thing",
            intuition="does a thing",
            origin_zh="起源",
            internal_zh="内部",
            intuition_zh="直觉",
            source_file="M/Thing.v",
        )
        extras = {"note": "kept", "tags": ["a", 1]}
        path = str(tmp_path / "entities.jsonl")
        save_entity_corpus(EntityCorpus(records=(record,), extras={0: extras}), TokenTable(), path)
        reloaded = load_entity_corpus(path, TokenTable())
        assert reloaded.records == (record,)
        assert reloaded.extras == {0: extras}


# ----------------------------------------------------------------------
# Constructor derivation
# ----------------------------------------------------------------------

class TestDeriveConstructors:
    def test_nat_yields_two_constructors(self):
        record = make_entity(
            "Coq.Init.Datatypes.nat",
            kind="Inductive",
            internal=(
                "nat : Set | Coq.Init.Datatypes.O : Coq.Init.Datatypes.nat "
                "| Coq.Init.Datatypes.S : Coq.Init.Datatypes.nat -> "
                "Coq.Init.Datatypes.nat"
            ),
        )
        ctors = derive_constructors(record)
        assert [c.name for c in ctors] == [
            "Coq.Init.Datatypes.O",
            "Coq.Init.Datatypes.S",
        ]
        assert all(c.kind == EntityKind("Constructor") for c in ctors)

    @pytest.mark.parametrize("kernel, expected", [
        ("M.t", ["M.t.mk", "M.u"]),
        ("M.Impl.t", ["M.Impl.t.mk", "M.u"]),
    ])
    def test_a_constructor_shares_its_equal_texts(self, kernel, expected):
        # Kernel names follow the parent's kernel path; one equal to the
        # constructor's name is that name, and origin and internal are one.
        record = make_entity(
            "M.t", kernel=kernel, kind="Inductive",
            internal="t : Set | M.t.mk : nat -> M.t | M.u : M.t",
        )
        ctors = derive_constructors(record)
        assert [c.kernel_name for c in ctors] == expected
        assert [c.kernel_name is c.name for c in ctors] == [kernel == "M.t", True]
        assert all(c.origin is c.internal for c in ctors)
        assert ctors[0].origin == "M.t.mk : nat -> M.t"

    def test_non_inductive_yields_nothing(self):
        assert derive_constructors(make_entity("M.f", kind="Definition")) == []

    def test_malformed_tail_skipped(self):
        record = make_entity(
            "M.t", kind="Inductive", internal="t : Set | not a clause"
        )
        assert derive_constructors(record) == []

    @pytest.mark.parametrize("clause", ["a b : t", " : t", "c :"])
    def test_a_clause_without_a_one_word_name_and_a_type_is_skipped(self, clause):
        record = make_entity("t", kind="Inductive", internal=f"t : Set | {clause} | d : t")
        assert [c.name for c in derive_constructors(record)] == ["d"]

    def test_a_clause_whose_name_makes_no_record_is_skipped(self):
        # `a..b` has an empty path segment, so no record takes it as a name.
        record = make_entity("t", kind="Inductive", internal="t : Set | a..b : t | c : t")
        assert [c.name for c in derive_constructors(record)] == ["c"]


# ----------------------------------------------------------------------
# Concept extraction
# ----------------------------------------------------------------------

def _three_record_setup():
    """eq / nat / add corpus where add's record depends on nat and the
    state goal mentions eq and add but never nat."""
    table = TokenTable()
    records = [
        make_entity("eq", kind="Inductive"),
        make_entity("nat", kind="Inductive"),
        make_entity("Coq.Init.Nat.add", kind="Fixpoint"),
    ]
    tokens = [table.intern_entity(r) for r in records]
    nat_tid = tokens[1]
    records[2] = make_entity(
        "Coq.Init.Nat.add", kind="Fixpoint", dependencies=(nat_tid,)
    )
    corpus = EntityCorpus(records=tuple(records), tokens=tuple(tokens))
    return table, corpus, tokens


class TestExtractConcepts:
    def test_depth_zero_on_worked_goal(self):
        # [PAPER] sigma_1's internal goal mentions eq, nat, and add.
        table, corpus, tokens = _three_record_setup()
        state = ProofState(
            (GoalState((), (), "0 + n = n", "eq nat ( Coq.Init.Nat.add 0 n ) n"),)
        )
        assert extract_concepts(corpus, table, state, depth=0) == frozenset(tokens)

    def test_a_token_with_no_record_is_kept_and_not_expanded(self):
        # A table may hold an entity the corpus has no record of, as a
        # `--vocab` table with an extra entry does.
        table, corpus, _ = _three_record_setup()
        extra = table.intern_entity(make_entity("Extra.e", kind="Definition"))
        assert corpus.record_for(extra) is None
        state = ProofState((GoalState((), (), "e", "Extra.e"),))
        assert extract_concepts(corpus, table, state, depth=1) == frozenset({extra})

    def test_empty_state_any_depth(self):
        # [TRIVIAL]
        table, corpus, _ = _three_record_setup()
        assert extract_concepts(corpus, table, ProofState(()), depth=3) == frozenset()

    def test_depth_one_unions_dependencies(self):
        # [DERIVED] manual closure on the hand-built corpus: depth 0 sees
        # {eq, add}; depth 1 adds add's dependency nat.
        table, corpus, tokens = _three_record_setup()
        eq_tid, nat_tid, add_tid = tokens
        state = ProofState(
            (GoalState((), (), "g", "eq ( Coq.Init.Nat.add x y ) z"),)
        )
        depth0 = extract_concepts(corpus, table, state, depth=0)
        assert depth0 == frozenset({eq_tid, add_tid})
        depth1 = extract_concepts(corpus, table, state, depth=1)
        assert depth1 == frozenset({eq_tid, add_tid, nat_tid})

    def test_monotone_in_depth(self):
        table, corpus, _ = _three_record_setup()
        state = ProofState(
            (GoalState((), (), "g", "eq ( Coq.Init.Nat.add x y ) z"),)
        )
        previous = frozenset()
        for depth in range(4):
            current = extract_concepts(corpus, table, state, depth=depth)
            assert previous <= current
            previous = current

    def test_negative_depth_rejected(self):
        table, corpus, _ = _three_record_setup()
        with pytest.raises(ValueError):
            extract_concepts(corpus, table, ProofState(()), depth=-1)
