"""Semantic tokenization of global entities and term texts.

Identity of a global entity is its DisambiguatedName: the user-facing
canonical path plus the assistant's internal kernel path, rendered as
``canonical<ker>kernel``. Interning the same pair twice yields the same
TokenId; distinct pairs always get distinct ids. Ids are append-only:
re-interning never renumbers.

Lexemes inside a term text fall into three classes:

* GlobalIdentifier: a dotted path that resolves to an interned entity.
* LocalVariable: any identifier that does not resolve; the class carries the
  variable's type text when the caller supplies it, else the empty string.
  Local-variable ids are allocated per type text, not per occurrence, so two
  variables of type ``nat`` share a class.
* Reserved: keywords, structural markers, the anonymous-binder marker, the
  goal-completion marker, de Bruijn relocation marker, hint database names,
  and built-in tactic names, all drawn from a versioned static list.

Resolution and tokenization never mutate the table, so they are safe to run
concurrently with each other; interning is the only mutating operation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from collections import Counter
from typing import Iterable, Mapping, Optional

from .core_model import ANONYMOUS_NAME, EntityRecord
from .errors import FormatError

TokenId = int

#: Separator between the canonical path and the kernel path in rendered names.
KERNEL_SEPARATOR = "<ker>"

#: Version of the reserved-token list shipped below.
RESERVED_LIST_VERSION = 1

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

#: The versioned static reserved list, in a fixed order.
RESERVED_TOKENS: tuple[str, ...] = (
    _KEYWORDS + _STRUCTURAL + _SPECIAL + _HINT_DATABASES + _BUILTIN_TACTICS
)

_RESERVED_SET = frozenset(RESERVED_TOKENS)

# Multi-character operators, longest first so the scanner is greedy.
_MULTI_OPS = tuple(sorted((op for op in _STRUCTURAL if len(op) > 1), key=len, reverse=True))

_IDENT = r"[A-Za-z_][A-Za-z0-9_']*"
_PATH_RE = re.compile(rf"{_IDENT}(?:\.{_IDENT})*")


@dataclass(frozen=True)
class TokenClass:
    """Classification of one lexeme.

    kind is "global", "local", or "reserved". For local classes, detail is the
    variable's type text (possibly empty); for reserved tokens it is the
    reserved label itself; for globals it is empty.
    """

    kind: str
    detail: str = ""

    GLOBAL = "global"
    LOCAL = "local"
    RESERVED = "reserved"

    def __post_init__(self):
        if self.kind not in (self.GLOBAL, self.LOCAL, self.RESERVED):
            raise ValueError(f"unknown token class kind {self.kind!r}")
        if self.kind == self.GLOBAL and self.detail:
            raise ValueError("global token class carries no detail")
        if self.kind == self.RESERVED and not self.detail:
            raise ValueError("reserved token class requires its label")

    @classmethod
    def global_id(cls) -> "TokenClass":
        return cls(cls.GLOBAL)

    @classmethod
    def local(cls, type_text: str = "") -> "TokenClass":
        return cls(cls.LOCAL, " ".join(type_text.split()))

    @classmethod
    def reserved(cls, label: str) -> "TokenClass":
        return cls(cls.RESERVED, label)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ResolutionContext:
    """Name-resolution inputs for one term.

    aliases maps a short or alternative name to the kernel path it denotes.
    open_modules lists path prefixes to try in order when a bare name fails.
    section_bindings are names shadowed by section-local declarations; they
    never resolve globally. local_types maps local variable names to their
    type texts for LocalVariable classification.
    """

    current_module: str = ""
    open_modules: tuple[str, ...] = ()
    aliases: Mapping[str, str] = field(default_factory=dict)
    section_bindings: frozenset[str] = frozenset()
    local_types: Mapping[str, str] = field(default_factory=dict)


EMPTY_CONTEXT = ResolutionContext()


class TokenTable:
    """Append-only bidirectional mapping between names and token ids.

    entries maps DisambiguatedName -> TokenId for global identifiers; reverse
    maps every allocated id back to its (name-or-label, TokenClass). Reserved
    tokens are interned at construction so tokenization stays read-only.
    Every write goes through `_write`, whether it interns or loads a file.
    """

    def __init__(self, reserved: Iterable[str] = RESERVED_TOKENS):
        self.entries: dict[DisambiguatedName, TokenId] = {}
        self.reverse: dict[TokenId, tuple[str, TokenClass]] = {}
        self.next_id: TokenId = 0
        self._by_canonical: dict[str, TokenId] = {}
        self._by_kernel: dict[str, TokenId] = {}
        self._reserved_ids: dict[str, TokenId] = {}
        self._local_ids: dict[str, TokenId] = {}
        # The key -> id map of each token class kind.
        self._ids = {
            TokenClass.GLOBAL: self.entries,
            TokenClass.RESERVED: self._reserved_ids,
            TokenClass.LOCAL: self._local_ids,
        }
        for label in reserved:
            self.intern_reserved(label)

    def __len__(self) -> int:
        return len(self.reverse)

    def _write(self, key, cls: TokenClass, tid: TokenId) -> TokenId:
        """Record a new token: `key` is the DisambiguatedName of a global,
        the label of a reserved token or the type text of a local class."""
        self._ids[cls.kind][key] = tid
        if cls.kind == TokenClass.GLOBAL:
            self.reverse[tid] = (key.rendered(), cls)
            # First interning wins for bare-path lookup; later entities sharing
            # a path remain reachable through their full disambiguated name.
            self._by_canonical.setdefault(key.canonical_path, tid)
            self._by_kernel.setdefault(key.kernel_path, tid)
        else:
            self.reverse[tid] = (key, cls)
        self.next_id = max(self.next_id, tid + 1)
        return tid

    def _intern(self, key, cls: TokenClass) -> TokenId:
        existing = self._ids[cls.kind].get(key)
        if existing is not None:
            return existing
        return self._write(key, cls, self.next_id)

    def intern_reserved(self, label: str) -> TokenId:
        return self._intern(label, TokenClass.reserved(label))

    def intern_local(self, type_text: str = "") -> TokenId:
        cls = TokenClass.local(type_text)
        return self._intern(cls.detail, cls)

    def intern_entity(self, entity: EntityRecord) -> TokenId:
        """Intern an entity, returning its stable TokenId.

        Idempotent per DisambiguatedName; existing ids are never renumbered.
        """
        name = DisambiguatedName(entity.name, entity.kernel_name)
        return self._intern(name, TokenClass.global_id())

    def id_for_rendered(self, rendered: str) -> Optional[TokenId]:
        try:
            return self.entries.get(DisambiguatedName.parse(rendered))
        except ValueError:
            return None

    def reserved_id(self, label: str) -> Optional[TokenId]:
        return self._reserved_ids.get(label)

    def local_id(self, type_text: str = "") -> Optional[TokenId]:
        return self._local_ids.get(TokenClass.local(type_text).detail)

    def class_counts(self) -> Counter:
        return Counter(cls.kind for _, cls in self.reverse.values())


def resolve_name(table: TokenTable, name: str, context: ResolutionContext) -> Optional[TokenId]:
    """Resolve a possibly-short name to a TokenId, or None when unknown.

    Section-local shadowing wins over any global candidate. Otherwise the
    alias table is consulted first (it maps names to kernel paths), then the
    name is tried verbatim against canonical and kernel paths, then prefixed
    with the current module and each open module in order. None is a value
    meaning "not a global here", not a failure.
    """
    if name in context.section_bindings:
        return None
    kernel = context.aliases.get(name)
    if kernel is not None:
        return table._by_kernel.get(kernel)
    direct = table._by_canonical.get(name)
    if direct is not None:
        return direct
    direct = table._by_kernel.get(name)
    if direct is not None:
        return direct
    prefixes = []
    if context.current_module:
        prefixes.append(context.current_module)
    prefixes.extend(context.open_modules)
    for prefix in prefixes:
        hit = table._by_canonical.get(f"{prefix}.{name}")
        if hit is not None:
            return hit
    return None


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
    table: TokenTable,
    internal_text: str,
    context: ResolutionContext = EMPTY_CONTEXT,
) -> list[tuple[str, TokenClass, Optional[TokenId]]]:
    """Tokenize an internal term text into (lexeme, class, id-or-None) triples.

    Total on arbitrary text: reserved lexemes take their pre-interned ids,
    resolvable identifiers become GlobalIdentifier tokens, and everything
    else falls back to a LocalVariable class whose id is the class id when
    the table has one interned and None otherwise. The table is never
    mutated here.
    """
    out: list[tuple[str, TokenClass, Optional[TokenId]]] = []
    for lexeme in _scan_lexemes(internal_text):
        if lexeme in _RESERVED_SET or lexeme in table._reserved_ids:
            out.append((lexeme, TokenClass.reserved(lexeme), table.reserved_id(lexeme)))
            continue
        if _PATH_RE.fullmatch(lexeme):
            tid = resolve_name(table, lexeme, context)
            if tid is not None:
                out.append((lexeme, TokenClass.global_id(), tid))
                continue
            type_text = context.local_types.get(lexeme, "")
            cls = TokenClass.local(type_text)
            out.append((lexeme, cls, table.local_id(type_text)))
            continue
        # Unknown punctuation: classify as an untyped local per the coverage
        # fallback so tokenization is total.
        out.append((lexeme, TokenClass.local(""), table.local_id("")))
    return out


def coverage_report(
    table: TokenTable,
    corpus_terms: Iterable[str],
    context: ResolutionContext = EMPTY_CONTEXT,
) -> tuple[float, Counter]:
    """Fraction of identifier lexemes that resolve, plus the unresolved multiset.

    Only identifier-shaped, non-reserved lexemes count toward the fraction.
    An empty denominator reports full coverage.
    """
    total = 0
    resolved = 0
    unresolved: Counter = Counter()
    for term in corpus_terms:
        for lexeme, cls, _tid in tokenize_term(table, term, context):
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
    labels; local keys are the class type texts."""
    lines = []
    for tid in sorted(table.reverse):
        key, cls = table.reverse[tid]
        lines.append(f"{tid}\t{key}\t{cls.kind}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))


def load_vocabulary(path: str) -> TokenTable:
    """Reload a vocabulary file into a table equal to the one that wrote it.
    A repeated id or a repeated key of one class is a FormatError naming
    its line, since `save_vocabulary` never writes either."""
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
            try:
                tid = int(tid_text)
            except ValueError:
                raise FormatError(f"bad token id {tid_text!r}", line=lineno)
            if tid in table.reverse:
                raise FormatError(f"duplicate token id {tid}", line=lineno)
            try:
                if kind == TokenClass.GLOBAL:
                    key, cls = DisambiguatedName.parse(text), TokenClass.global_id()
                elif kind == TokenClass.RESERVED:
                    key, cls = text, TokenClass.reserved(text)
                elif kind == TokenClass.LOCAL:
                    cls = TokenClass.local(text)
                    key = cls.detail
                else:
                    raise ValueError(f"unknown token class {kind!r}")
            except ValueError as exc:
                raise FormatError(str(exc), line=lineno)
            if key in table._ids[kind]:
                raise FormatError(f"repeated {kind} key {text!r}", line=lineno)
            table._write(key, cls, tid)
    return table
