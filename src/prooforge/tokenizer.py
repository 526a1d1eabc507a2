"""Semantic tokenization of global entities and term texts.

Identity of a global entity is its DisambiguatedName: the user-facing
canonical path plus the assistant's internal kernel path, rendered as
``canonical<ker>kernel``. Interning the same pair twice yields the same
TokenId; distinct pairs always get distinct ids. Ids are append-only:
re-interning never renumbers.

Lexemes inside a term text fall into three classes:

* GlobalIdentifier: a dotted path that resolves to an interned entity, by
  its canonical path first and then by its kernel path. When entities share
  a path, the one interned first owns it.
* Reserved: keywords, structural markers, the anonymous-binder marker, the
  goal-completion marker, de Bruijn relocation marker, hint database names,
  and built-in tactic names, all drawn from a static list.
* LocalVariable: every other lexeme. Locals share one class and have no
  token id.

Resolution and tokenization never mutate the table, so they are safe to run
concurrently with each other; interning is the only mutating operation.

A table stores each token's key once: the DisambiguatedName of a global,
or the label of a reserved token. The rendered ``canonical<ker>kernel``
text and the TokenClass of an id are built when `TokenTable.reverse` is
read. A kernel path equal to its own canonical path gets no entry in the
kernel-path map, since the canonical lookup that runs first finds it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from collections import Counter
from collections.abc import Mapping
from typing import Iterable, Optional

from .core_model import ANONYMOUS_NAME, EntityRecord
from .errors import FormatError

TokenId = int

#: Separator between the canonical path and the kernel path in rendered names.
KERNEL_SEPARATOR = "<ker>"

_KEYWORDS = (
    "forall", "fun", "fix", "cofix", "let", "in", "match", "with", "end",
    "if", "then", "else", "as", "return", "where",
    "Prop", "Set", "Type", "SProp",
)
_STRUCTURAL = (
    "(", ")", "{", "}", "[", "]", ",", ";", ":", ".", "|",
    "->", "=>", ":=", "<-", "=", "@", "*", "+", "-", "/", "<", ">",
    "<=", ">=", "<>", "%", "?", "!", "&", "~", "^", "'", '"', "\\",
)
_SPECIAL = (ANONYMOUS_NAME, "goalcompleted", "REL", "_")
_HINT_DATABASES = ("core", "arith", "zarith", "bool", "datatypes", "sets", "zfc")
_BUILTIN_TACTICS = (
    "idtac", "intro", "intros", "simpl", "reflexivity", "split", "assumption",
    "apply", "exact", "auto", "eauto", "induction", "destruct", "rewrite",
    "unfold", "ring", "lia", "omega", "trivial", "constructor",
)

#: The static reserved list, in a fixed order.
RESERVED_TOKENS: tuple[str, ...] = (
    _KEYWORDS + _STRUCTURAL + _SPECIAL + _HINT_DATABASES + _BUILTIN_TACTICS
)

_RESERVED_SET = frozenset(RESERVED_TOKENS)

# Multi-character operators, longest first so the scanner is greedy.
_MULTI_OPS = tuple(sorted((op for op in _STRUCTURAL if len(op) > 1), key=len, reverse=True))

_IDENT = r"[A-Za-z_][A-Za-z0-9_']*"
_PATH_RE = re.compile(rf"{_IDENT}(?:\.{_IDENT})*")
# A token id as `save_vocabulary` writes it: ASCII decimal, no leading zero.
_TOKEN_ID_RE = re.compile(r"0|[1-9][0-9]*")


@dataclass(frozen=True)
class TokenClass:
    """Classification of one lexeme.

    kind is "global", "local", or "reserved". For reserved tokens detail is
    the reserved label itself; for globals and locals it is empty.
    """

    kind: str
    detail: str = ""

    GLOBAL = "global"
    LOCAL = "local"
    RESERVED = "reserved"

    def __post_init__(self):
        if self.kind not in (self.GLOBAL, self.LOCAL, self.RESERVED):
            raise ValueError(f"unknown token class kind {self.kind!r}")
        if self.kind != self.RESERVED and self.detail:
            raise ValueError(f"{self.kind} token class carries no detail")
        if self.kind == self.RESERVED and not self.detail:
            raise ValueError("reserved token class requires its label")

    @classmethod
    def global_id(cls) -> "TokenClass":
        return _GLOBAL_CLASS

    @classmethod
    def reserved(cls, label: str) -> "TokenClass":
        return cls(cls.RESERVED, label)


_GLOBAL_CLASS = TokenClass(TokenClass.GLOBAL)
_LOCAL_CLASS = TokenClass(TokenClass.LOCAL)


@dataclass(frozen=True, slots=True)
class DisambiguatedName:
    """Canonical path plus kernel path; the identity of a global entity."""

    canonical_path: str
    kernel_path: str

    def __post_init__(self):
        if not self.canonical_path or not self.kernel_path:
            raise ValueError("both paths of a disambiguated name must be non-empty")

    def rendered(self) -> str:
        return f"{self.canonical_path}{KERNEL_SEPARATOR}{self.kernel_path}"

    @classmethod
    def parse(cls, text: str) -> "DisambiguatedName":
        if KERNEL_SEPARATOR not in text:
            raise ValueError(f"missing {KERNEL_SEPARATOR!r} separator in {text!r}")
        canonical, kernel = text.split(KERNEL_SEPARATOR, 1)
        return cls(canonical, kernel)


class _RenderedKeys(Mapping):
    """Read-only view of a table's stored keys, id -> (name-or-label,
    TokenClass): a global's disambiguated name is rendered, and its class
    built, on each read."""

    def __init__(self, keys: dict):
        self._keys = keys

    def __getitem__(self, tid):
        key = self._keys[tid]
        if type(key) is DisambiguatedName:
            return key.rendered(), _GLOBAL_CLASS
        return key, TokenClass.reserved(key)

    def __contains__(self, tid) -> bool:
        return tid in self._keys

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


class TokenTable:
    """Append-only bidirectional mapping between names and token ids.

    Each id's key is stored once, in `_keys`: the DisambiguatedName of a
    global identifier or the label of a reserved token. entries maps
    DisambiguatedName -> TokenId for globals; reverse is a read-only view
    mapping every allocated id back to its (name-or-label, TokenClass),
    rendered when read. Reserved tokens are interned at construction so
    tokenization stays read-only. Every write goes through `_write`,
    whether it interns or loads a file.
    """

    def __init__(self, reserved: Iterable[str] = RESERVED_TOKENS):
        self.entries: dict[DisambiguatedName, TokenId] = {}
        self._keys: dict[TokenId, DisambiguatedName | str] = {}
        self.reverse: Mapping[TokenId, tuple[str, TokenClass]] = _RenderedKeys(self._keys)
        self.next_id: TokenId = 0
        self._by_canonical: dict[str, TokenId] = {}
        self._by_kernel: dict[str, TokenId] = {}
        self._reserved_ids: dict[str, TokenId] = {}
        # The key -> id map of each token class kind.
        self._ids = {
            TokenClass.RESERVED: self._reserved_ids,
            TokenClass.GLOBAL: self.entries,
        }
        for label in reserved:
            self.intern_reserved(label)

    def __len__(self) -> int:
        return len(self._keys)

    def _write(self, key, cls: TokenClass, tid: TokenId) -> TokenId:
        """Record token `tid` for `key` and return it; a `key` that already
        has an id in its class keeps it, and that id is returned. `key` is
        the DisambiguatedName of a global or the label of a reserved token,
        and is hashed once. Interning offers `next_id`, which no key has
        yet; `load_vocabulary` offers the id it reads, after checking that
        neither it nor the key is taken."""
        existing = self._ids[cls.kind].setdefault(key, tid)
        if existing != tid:
            return existing
        self._keys[tid] = key
        if cls.kind == TokenClass.GLOBAL:
            # First interning wins for bare-path lookup; later entities sharing
            # a path remain reachable through their full disambiguated name.
            self._by_canonical.setdefault(key.canonical_path, tid)
            if key.kernel_path != key.canonical_path:
                self._by_kernel.setdefault(key.kernel_path, tid)
        self.next_id = max(self.next_id, tid + 1)
        return tid

    def intern_reserved(self, label: str) -> TokenId:
        return self._write(label, TokenClass.reserved(label), self.next_id)

    def intern_entity(self, entity: EntityRecord) -> TokenId:
        """Intern an entity, returning its stable TokenId.

        Idempotent per DisambiguatedName; existing ids are never renumbered.
        """
        name = DisambiguatedName(entity.name, entity.kernel_name)
        return self._write(name, _GLOBAL_CLASS, self.next_id)

    def id_for_rendered(self, rendered: str) -> Optional[TokenId]:
        try:
            return self.entries.get(DisambiguatedName.parse(rendered))
        except ValueError:
            return None

    def reserved_id(self, label: str) -> Optional[TokenId]:
        return self._reserved_ids.get(label)

    def class_counts(self) -> dict[str, int]:
        """Tokens per class kind the table stores (reserved, then global),
        counted from the stored keys."""
        return {kind: len(ids) for kind, ids in self._ids.items()}


def resolve_name(table: TokenTable, name: str) -> Optional[TokenId]:
    """Resolve a name to a TokenId, or None when unknown.

    The name is tried against canonical paths, then against kernel paths;
    on each, the entity interned first owns a path that several share. None
    is a value meaning "not a global here", not a failure.
    """
    tid = table._by_canonical.get(name)
    return tid if tid is not None else table._by_kernel.get(name)


def _scan_lexemes(text: str) -> list[str]:
    lexemes: list[str] = []
    pos = 0
    size = len(text)
    while pos < size:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        match = _PATH_RE.match(text, pos)
        if match:
            lexemes.append(match.group(0))
            pos = match.end()
            continue
        for op in _MULTI_OPS:
            if text.startswith(op, pos):
                lexemes.append(op)
                pos += len(op)
                break
        else:
            lexemes.append(ch)
            pos += 1
    return lexemes


def tokenize_term(
    table: TokenTable, internal_text: str
) -> list[tuple[str, TokenClass, Optional[TokenId]]]:
    """Tokenize an internal term text into (lexeme, class, id-or-None) triples.

    Total on arbitrary text: reserved lexemes take their pre-interned ids,
    resolvable identifiers become GlobalIdentifier tokens, and everything
    else, unknown punctuation included, is a LocalVariable with no id. The
    table is never mutated here.
    """
    out: list[tuple[str, TokenClass, Optional[TokenId]]] = []
    for lexeme in _scan_lexemes(internal_text):
        if lexeme in _RESERVED_SET or lexeme in table._reserved_ids:
            out.append((lexeme, TokenClass.reserved(lexeme), table.reserved_id(lexeme)))
            continue
        tid = resolve_name(table, lexeme) if _PATH_RE.fullmatch(lexeme) else None
        if tid is not None:
            out.append((lexeme, _GLOBAL_CLASS, tid))
        else:
            out.append((lexeme, _LOCAL_CLASS, None))
    return out


def coverage_report(table: TokenTable, corpus_terms: Iterable[str]) -> tuple[float, Counter]:
    """Fraction of identifier lexemes that resolve, plus the unresolved multiset.

    Only identifier-shaped, non-reserved lexemes count toward the fraction.
    An empty denominator reports full coverage.
    """
    total = 0
    resolved = 0
    unresolved: Counter = Counter()
    for term in corpus_terms:
        for lexeme, cls, _tid in tokenize_term(table, term):
            if cls.kind == TokenClass.RESERVED or not _PATH_RE.fullmatch(lexeme):
                continue
            total += 1
            if cls.kind == TokenClass.GLOBAL:
                resolved += 1
            else:
                unresolved[lexeme] += 1
    fraction = resolved / total if total else 1.0
    return fraction, unresolved


def save_vocabulary(table: TokenTable, path: str) -> None:
    """Write the table as tab-separated ``id<TAB>key<TAB>class`` lines, sorted
    by id. Global keys are rendered disambiguated names; reserved keys are the
    labels."""
    lines = []
    for tid in sorted(table.reverse):
        key, cls = table.reverse[tid]
        lines.append(f"{tid}\t{key}\t{cls.kind}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))


def load_vocabulary(path: str) -> TokenTable:
    """Reload a vocabulary file into a table equal to the one that wrote it.
    An id other than `save_vocabulary`'s plain decimal digits, a repeated id
    or a repeated key of one class is a FormatError naming its line, since
    `save_vocabulary` writes none of them."""
    table = TokenTable(reserved=())
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise FormatError("expected id<TAB>key<TAB>class", line=lineno)
            tid_text, text, kind = parts
            if not _TOKEN_ID_RE.fullmatch(tid_text):
                raise FormatError(f"bad token id {tid_text!r}", line=lineno)
            tid = int(tid_text)
            if tid in table.reverse:
                raise FormatError(f"duplicate token id {tid}", line=lineno)
            try:
                if kind == TokenClass.GLOBAL:
                    key, cls = DisambiguatedName.parse(text), TokenClass.global_id()
                elif kind == TokenClass.RESERVED:
                    key, cls = text, TokenClass.reserved(text)
                else:
                    raise ValueError(f"unknown token class {kind!r}")
            except ValueError as exc:
                raise FormatError(str(exc), line=lineno)
            if key in table._ids[kind]:
                raise FormatError(f"repeated {kind} key {text!r}", line=lineno)
            table._write(key, cls, tid)
    return table
