"""The proof-engine port and its two backends.

The port is five session operations: ``start_session`` opens a theorem (a
theorem that does not compile raises SessionDesync carrying the bare compile
error), ``clone_session`` copies, ``compile_tactic`` validates without
advancing, ``apply_tactic`` advances, and ``close_session`` releases the
session. Tactic texts are compared and sent in one form, `canonical_tactic`.

Two backends ship. SyntheticBackend implements a deterministic toy goal
calculus so the whole search stack runs offline: goals are plain term texts,
and the supported tactics are

* ``intros`` / ``intros x y ...`` — peel ``forall x:T, body`` binders (one
  binder per ``forall``) and top-level ``A -> B`` arrows into hypotheses;
* ``simpl`` — rewrite the focused goal with the backend's scripted rewrite
  table (literal replacements, applied to a fixpoint);
* ``reflexivity`` — discharge ``lhs = rhs`` when both sides are textually
  equal (no implicit reduction: unreduced equations fail);
* ``split`` — turn a top-level ``A /\\ B`` into two goals;
* ``assumption`` — discharge a goal equal to some hypothesis type;
* ``apply <name>`` — consult the backend's lemma table: the focused goal must
  equal the lemma conclusion and is replaced by the lemma premises;
* ``idtac`` — succeed without changing anything.

Elaborated (internal) texts come from a scripted ``internal_forms`` mapping,
defaulting to the surface text, so fixtures can carry real elaborations.
Its ``start_session`` checks the theorem with ``compile_theorem``, kept as a
method of its own because the offline benchmark times it under that name.
Proof states are immutable, so ``clone_session`` copies a session by value
and ``close_session`` has nothing to release.

SubprocessBackend drives a prover that speaks a subset of SerAPI over pipes
(``Add``, ``Exec``, ``Cancel`` and a ``Goals`` query), reading each command's
answers up to its ``Completed``. Goals come back as printed strings, without
hypotheses or internal forms. It is feature-gated on an executable being
configured. Since real provers advance on execution, validation executes the
tactic and then cancels exactly the state ids it added.
"""

from __future__ import annotations

import itertools
import os
import re
import threading
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .core_model import (
    GoalState,
    Hypothesis,
    ProofState,
    state_fingerprint,
)
from .errors import SessionDesync

#: Compiler error text is cut to this many characters before prompt inclusion.
ERROR_TEXT_LIMIT = 2000

#: ``simpl`` stops rewriting after this many passes even without a fixpoint.
MAX_REWRITE_PASSES = 50

#: ``simpl`` also stops before a replacement that would make the goal longer
#: than this, so a rewrite that grows the text cannot exhaust memory.
MAX_REWRITE_CHARS = 100_000


@dataclass(frozen=True)
class CompileResult:
    """A check's outcome: the state it reaches, or the non-empty error that
    fails it; `success` says which."""

    state: Optional[ProofState] = None
    error: Optional[str] = None

    def __post_init__(self):
        if not (self.error if self.state is None else self.error is None):
            raise ValueError("a result carries a state or a non-empty error, not both")

    @property
    def success(self) -> bool:
        return self.state is not None


def truncate_error(error: str) -> str:
    return error[:ERROR_TEXT_LIMIT]


def canonical_tactic(tactic: str) -> str:
    """The one form of a tactic's text: no surrounding blanks and no
    trailing periods. The search deduplicates and budgets on it, backends
    run it, and session transcripts hold it."""
    return tactic.strip().rstrip(".")


@dataclass
class BackendSession:
    """One proof attempt in flight; `transcript` holds every applied tactic
    in order, so a backend that cannot copy a live prover (the subprocess
    adapter) can rebuild a clone by replaying it."""

    session_id: int
    theorem: str
    requires: tuple[str, ...]
    state: ProofState
    transcript: list = field(default_factory=list)
    poisoned: bool = False


@dataclass(frozen=True)
class Lemma:
    """A scripted lemma for ``apply``: proves `conclusion`, leaves `premises`."""

    conclusion: str
    premises: tuple[str, ...] = ()


_FORALL_RE = re.compile(
    r"^forall\s+\(?\s*([A-Za-z_][A-Za-z0-9_']*)\s*:\s*([^,()]+?)\s*\)?\s*,\s*(.*)$",
    re.DOTALL,
)


def _split_top(text: str, separator: str) -> Optional[tuple[str, str]]:
    """Split at the first top-level occurrence of `separator` (depth 0)."""
    depth = 0
    limit = len(text) - len(separator) + 1
    for i in range(limit):
        ch = text[i]
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif depth == 0 and text.startswith(separator, i):
            return text[:i].rstrip(), text[i + len(separator):].lstrip()
    return None


def _not_found(name: str) -> CompileResult:
    return CompileResult(error=f"The reference {name} was not found in the current environment.")


def _balanced(text: str) -> bool:
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


class SyntheticBackend:
    """Deterministic scripted prover for desk-scale testing.

    `rewrites` drives ``simpl`` (ordered literal replacements, iterated to a
    fixpoint). `lemmas` drives ``apply``. `required_modules` maps qualified
    names to the logical module that must be Require'd before a theorem or
    ``apply`` may mention them. `internal_forms` maps surface texts to their
    elaborated internal counterparts. `auto_solved` lists theorem sources
    that compile to an already-complete state.
    """

    def __init__(
        self,
        rewrites: Mapping[str, str] = (),
        lemmas: Mapping[str, Lemma] = (),
        required_modules: Mapping[str, str] = (),
        internal_forms: Mapping[str, str] = (),
        auto_solved: Sequence[str] = (),
    ):
        self.rewrites = dict(rewrites)
        self.lemmas = dict(lemmas)
        self.required_modules = dict(required_modules)
        self.internal_forms = dict(internal_forms)
        self.auto_solved = frozenset(auto_solved)
        self._ids = itertools.count(1)

    # -- elaboration helpers ------------------------------------------------

    def _internal(self, surface: str) -> str:
        return self.internal_forms.get(surface, surface)

    def _goal(self, hyps_surface, hyps_internal, surface: str) -> GoalState:
        return GoalState(
            hypotheses_surface=tuple(hyps_surface),
            hypotheses_internal=tuple(hyps_internal),
            goal_surface=surface,
            goal_internal=self._internal(surface),
        )

    # -- theorem compilation ------------------------------------------------

    def _missing_reference(self, text: str, requires: Sequence[str]) -> Optional[str]:
        for name, module in self.required_modules.items():
            pattern = rf"(?<![A-Za-z0-9_'.]){re.escape(name)}(?![A-Za-z0-9_'.])"
            if re.search(pattern, text) and f"Require Import {module}." not in requires:
                return name
        return None

    def compile_theorem(self, theorem_source: str, requires: Sequence[str] = ()) -> CompileResult:
        source = theorem_source.strip()
        if not source:
            return CompileResult(error="Syntax error: empty statement.")
        if not _balanced(source):
            return CompileResult(error="Syntax error: unbalanced parentheses.")
        missing = self._missing_reference(source, requires)
        if missing is not None:
            return _not_found(missing)
        if source in self.auto_solved:
            return CompileResult(ProofState(()))
        return CompileResult(ProofState((self._goal((), (), source),)))

    def start_session(self, theorem_source: str, requires: Sequence[str] = ()) -> BackendSession:
        result = self.compile_theorem(theorem_source, requires)
        if not result.success:
            raise SessionDesync(result.error)
        return BackendSession(
            session_id=next(self._ids),
            theorem=theorem_source,
            requires=tuple(requires),
            state=result.state,
        )

    def clone_session(self, session: BackendSession) -> BackendSession:
        """Independent copy at the same state; states are immutable, so only
        the transcript list needs copying."""
        return BackendSession(
            session_id=next(self._ids),
            theorem=session.theorem,
            requires=session.requires,
            state=session.state,
            transcript=list(session.transcript),
        )

    def close_session(self, session: BackendSession) -> None:
        """A synthetic session holds nothing to release."""

    # -- tactic rules -------------------------------------------------------

    def _rewrite_fixpoint(self, text: str) -> str:
        for _pass in range(MAX_REWRITE_PASSES):
            updated = text
            for pattern, replacement in self.rewrites.items():
                growth = len(replacement) - len(pattern)
                if growth > 0 and len(updated) + growth * updated.count(pattern) > MAX_REWRITE_CHARS:
                    return updated
                updated = updated.replace(pattern, replacement)
            if updated == text:
                return text
            text = updated
        return text

    def _peel(self, goal: GoalState, name: Optional[str]) -> Optional[GoalState]:
        """Introduce one binder of the focused goal, or None if impossible."""
        text = goal.goal_surface.strip()
        match = _FORALL_RE.match(text)
        if match:
            bound, typ, body = match.group(1), match.group(2).strip(), match.group(3).strip()
            hyp_name = name or bound
        else:
            arrow = _split_top(text, " -> ")
            if arrow is None:
                return None
            typ, body = arrow
            hyp_name = name or self._fresh_hyp_name(goal)
        hyps_surface = goal.hypotheses_surface + (Hypothesis(hyp_name, surface_type=typ),)
        hyps_internal = goal.hypotheses_internal + (
            Hypothesis(hyp_name, internal_type=self._internal(typ)),
        )
        return self._goal(hyps_surface, hyps_internal, body)

    @staticmethod
    def _fresh_hyp_name(goal: GoalState) -> str:
        taken = {h.name for h in goal.hypotheses_surface}
        if "H" not in taken:
            return "H"
        n = 0
        while f"H{n}" in taken:
            n += 1
        return f"H{n}"

    def _step(self, tactic: str, state: ProofState) -> CompileResult:
        text = canonical_tactic(tactic)
        if not text:
            return CompileResult(error="empty tactic")
        if not state.goals:
            return CompileResult(error="No such goal.")
        focus, rest = state.goals[0], state.goals[1:]
        words = text.split()
        head = words[0]

        if head == "idtac" and len(words) == 1:
            return CompileResult(state)

        if head == "intros":
            names = words[1:]
            goal = focus
            if names:
                for name in names:
                    peeled = self._peel(goal, name)
                    if peeled is None:
                        return CompileResult(
                            error=f"No quantified variable to introduce as {name}."
                        )
                    goal = peeled
            else:
                while True:
                    peeled = self._peel(goal, None)
                    if peeled is None:
                        break
                    goal = peeled
            return CompileResult(ProofState((goal,) + rest))

        if head == "simpl" and len(words) == 1:
            reduced = self._rewrite_fixpoint(focus.goal_surface)
            goal = self._goal(focus.hypotheses_surface, focus.hypotheses_internal, reduced)
            return CompileResult(ProofState((goal,) + rest))

        if head == "reflexivity" and len(words) == 1:
            sides = _split_top(focus.goal_surface, " = ")
            if sides is None:
                return CompileResult(error="The relation of the goal is not an equality.")
            lhs, rhs = sides
            if lhs.strip() != rhs.strip():
                return CompileResult(
                    error=f'Unable to unify "{rhs.strip()}" with "{lhs.strip()}".'
                )
            return CompileResult(ProofState(rest))

        if head == "split" and len(words) == 1:
            halves = _split_top(focus.goal_surface, " /\\ ")
            if halves is None:
                return CompileResult(error="The goal is not a conjunction.")
            left = self._goal(focus.hypotheses_surface, focus.hypotheses_internal, halves[0])
            right = self._goal(focus.hypotheses_surface, focus.hypotheses_internal, halves[1])
            return CompileResult(ProofState((left, right) + rest))

        if head == "assumption" and len(words) == 1:
            for hyp in focus.hypotheses_surface:
                if hyp.surface_type.strip() == focus.goal_surface.strip():
                    return CompileResult(ProofState(rest))
            return CompileResult(error="No such assumption.")

        if head == "apply" and len(words) == 2:
            name = words[1]
            lemma = self.lemmas.get(name)
            missing = self._missing_reference(name, ())
            if missing is not None or lemma is None:
                return _not_found(missing or name)
            if lemma.conclusion.strip() != focus.goal_surface.strip():
                return CompileResult(
                    error=f'Unable to unify "{lemma.conclusion}" with "{focus.goal_surface}".'
                )
            new_goals = tuple(
                self._goal(focus.hypotheses_surface, focus.hypotheses_internal, premise)
                for premise in lemma.premises
            )
            return CompileResult(ProofState(new_goals + rest))

        return CompileResult(error=f"Unknown tactic: {text}.")

    # -- the port operations ------------------------------------------------

    def compile_tactic(self, tactic: str, state: ProofState, session: BackendSession) -> CompileResult:
        """Validate without advancing. The session must sit at `state`, checked
        by fingerprint unless `state` is the session's own state object."""
        if session.state is not state and state_fingerprint(session.state) != state_fingerprint(state):
            raise SessionDesync(
                f"session {session.session_id} is not at the state being validated"
            )
        result = self._step(tactic, state)
        if result.success or len(result.error) <= ERROR_TEXT_LIMIT:
            return result
        return CompileResult(error=truncate_error(result.error))

    def apply_tactic(self, tactic: str, session: BackendSession) -> ProofState:
        """Advance the session; the tactic must have validated on its state.

        Applying on the synthetic backend re-runs the rule; a tactic that no
        longer succeeds surfaces the contract breach as SessionDesync."""
        result = self._step(tactic, session.state)
        if not result.success:
            session.poisoned = True
            raise SessionDesync(
                f"tactic {tactic!r} failed on session {session.session_id}: {result.error}"
            )
        session.transcript.append(canonical_tactic(tactic))
        session.state = result.state
        return result.state


def replay_trace(
    backend,
    theorem_source: str,
    requires: Sequence[str],
    trace: Sequence[tuple[str, str]],
) -> ProofState:
    """Replay a (tactic, explanation) trace from scratch: each tactic is
    validated then applied. Returns the final state; raises SessionDesync if
    any step fails validation. The session is closed either way."""
    session = backend.start_session(theorem_source, requires)
    try:
        for tactic, _explanation in trace:
            result = backend.compile_tactic(tactic, session.state, session)
            if not result.success:
                raise SessionDesync(f"trace step {tactic!r} failed: {result.error}")
            backend.apply_tactic(tactic, session)
        return session.state
    finally:
        backend.close_session(session)


# ======================================================================
# S-expression answers and the subprocess adapter
# ======================================================================

_SEXP_TOKEN_RE = re.compile(
    r'(?P<open>\()|(?P<close>\))|"(?P<string>(?:[^"\\]|\\.)*)"'
    r'|(?P<atom>[^\s()"]+)|(?P<stray>")',
    re.DOTALL,
)
_SEXP_ESCAPE_RE = re.compile(r'\\(?:([ntrb"\\])|([0-9]{3})|x([0-9A-Fa-f]{2}))')
_SEXP_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "b": "\b", '"': '"', "\\": "\\"}


def _sexp_escape(match) -> str:
    """One escape's character; a byte of ``\\ddd`` (decimal) or ``\\xhh``
    above 127 becomes a surrogate that `_sexp_string` turns back into it."""
    simple, decimal, hexadecimal = match.groups()
    if simple:
        return _SEXP_ESCAPES[simple]
    byte = int(decimal) if decimal else int(hexadecimal, 16)
    if byte > 255:
        raise ValueError(f"escape {match.group()} is not a byte")
    return chr(byte if byte < 128 else 0xDC00 + byte)


def _sexp_string(body: str) -> str:
    """A quoted string's text. Decodes the OCaml escapes sexplib prints
    (``\\n \\t \\r \\b \\\\ \\"``, and bytes of the UTF-8 text as ``\\ddd``
    or ``\\xhh``); any other backslash is kept, as sexplib reads it."""
    text = _SEXP_ESCAPE_RE.sub(_sexp_escape, body)
    return text.encode("utf-8", "surrogateescape").decode("utf-8")


def parse_sexp(text: str):
    """Parse one s-expression into nested lists of atoms (strings).

    Quoted strings are decoded by `_sexp_string`. Reads with an explicit
    stack, so any nesting depth parses. Raises ValueError on malformed input.
    """
    stack: list[list] = [[]]
    for match in _SEXP_TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "open":
            stack.append([])
        elif kind == "close":
            if len(stack) == 1:
                raise ValueError("unexpected )")
            stack[-2].append(stack.pop())
        elif kind == "string":
            stack[-1].append(_sexp_string(match.group(kind)))
        elif kind == "atom":
            stack[-1].append(match.group())
        else:
            raise ValueError("unterminated string")
    if len(stack) > 1:
        raise ValueError("unbalanced s-expression")
    if not stack[0]:
        raise ValueError("empty s-expression")
    if len(stack[0]) > 1:
        raise ValueError("trailing tokens after s-expression")
    return stack[0][0]


def _payloads(items, head: str) -> list:
    """The second element of each ``(head x ...)`` among `items`."""
    return [b[1] for b in items if isinstance(b, list) and len(b) > 1 and b[0] == head]


def _coq_error(bodies: list) -> Optional[str]:
    """The message of the first ``(CoqExn (... (str "message") ...))`` body,
    or None when no body is a CoqExn."""
    exns = _payloads(bodies, "CoqExn")
    if not exns:
        return None
    messages = [m for m in _payloads(exns[0], "str") if isinstance(m, str) and m]
    return messages[0] if messages else "prover error without a message"


#: Escapes that keep a quoted sentence, and so its command, on one line.
_COMMAND_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r"})


class SubprocessBackend:
    """Adapter for a prover that speaks a subset of SerAPI over pipes.

    One subprocess per session, one command per line: ``(Add () "s")``,
    ``(Exec sid)``, ``(Cancel (sid ...))`` and ``(Query ((pp ((pp_format
    PpStr)))) Goals)``. A command's answers are read up to its ``(Answer tag
    Completed)``, skipping any other line. State ids come from ``(Added sid
    ...)``, errors from the ``str`` field of ``(CoqExn (...))`` and goals from
    ``(ObjList ((CoqString "goal") ...))``, one per string, read without
    hypotheses or internal forms. A command unanswered after `timeout`
    seconds kills the prover; a dead or garbled prover poisons and closes the
    session and raises SessionDesync, which prunes the branch. Each session
    writes its commands to `log_dir` when given, which is created if
    missing. A session that fails to start has its prover closed.
    """

    def __init__(
        self,
        executable: str,
        args: Sequence[str] = (),
        log_dir: Optional[str] = None,
        timeout: float = 60.0,
    ):
        if not executable:
            raise ValueError("subprocess backend requires an executable path")
        self.executable = executable
        self.args = tuple(args)
        self.log_dir = log_dir
        if log_dir:
            os.makedirs(log_dir, exist_ok=True)
        self.timeout = timeout
        self._ids = itertools.count(1)
        self._procs: dict[int, object] = {}

    def _spawn(self):
        import subprocess

        return subprocess.Popen(
            (self.executable,) + self.args,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            bufsize=1,
        )

    def _log(self, session: BackendSession, line: str) -> None:
        if not self.log_dir:
            return
        path = os.path.join(self.log_dir, f"session-{session.session_id}.log")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")

    def _send(self, session: BackendSession, command: str) -> list:
        """Send one command; returns the bodies of its answers."""
        proc = self._procs.get(session.session_id)
        if proc is None or session.poisoned:
            raise SessionDesync(f"session {session.session_id} has no live process")
        self._log(session, command)
        deadline = threading.Timer(self.timeout, proc.kill)
        deadline.start()
        try:
            proc.stdin.write(command + "\n")
            proc.stdin.flush()
            bodies = []
            for line in proc.stdout:
                if not line.strip():
                    continue
                answer = parse_sexp(line)
                if isinstance(answer, list) and len(answer) == 3 and answer[0] == "Answer":
                    if answer[2] == "Completed":
                        return bodies
                    bodies.append(answer[2])
            raise SessionDesync("prover subprocess closed its output")
        except (OSError, ValueError, SessionDesync) as exc:
            session.poisoned = True
            self.close_session(session)
            raise SessionDesync(f"session {session.session_id} poisoned: {exc}") from exc
        finally:
            deadline.cancel()
            deadline.join()

    def _exec_sentence(self, session: BackendSession, sentence: str) -> tuple[list, Optional[str]]:
        """Add one sentence and execute it. Returns the state ids it added and
        None, or the error with those ids already cancelled."""
        bodies = self._send(session, f'(Add () "{sentence.translate(_COMMAND_ESCAPES)}")')
        sids = [sid for sid in _payloads(bodies, "Added") if isinstance(sid, str)]
        error = _coq_error(bodies)
        if error is None and not sids:
            error = "statement was not accepted"
        if error is None:
            error = _coq_error(self._send(session, f"(Exec {sids[-1]})"))
        if error is not None and sids:
            self._cancel(session, sids)
        return sids, error

    def _cancel(self, session: BackendSession, sids: list) -> None:
        self._send(session, f"(Cancel ({' '.join(sids)}))")

    def _query_goals(self, session: BackendSession) -> ProofState:
        bodies = self._send(session, "(Query ((pp ((pp_format PpStr)))) Goals)")
        texts = [
            text
            for objs in _payloads(bodies, "ObjList")
            for text in _payloads(objs, "CoqString")
            if isinstance(text, str) and text.strip()
        ]
        return ProofState(tuple(GoalState((), (), text, text) for text in texts))

    def start_session(self, theorem_source: str, requires: Sequence[str] = ()) -> BackendSession:
        session = BackendSession(
            session_id=next(self._ids),
            theorem=theorem_source,
            requires=tuple(requires),
            state=ProofState(()),
        )
        self._procs[session.session_id] = self._spawn()
        try:
            for sentence in tuple(requires) + (f"Theorem goal_ : {theorem_source}.", "Proof."):
                _sids, error = self._exec_sentence(session, sentence)
                if error is not None:
                    raise SessionDesync(error)
            session.state = self._query_goals(session)
        except BaseException:
            self.close_session(session)
            raise
        return session

    def clone_session(self, session: BackendSession) -> BackendSession:
        """A new prover replaying the theorem and the transcript; a replay
        that fails closes it before the error propagates."""
        clone = self.start_session(session.theorem, session.requires)
        try:
            for tactic in session.transcript:
                self.apply_tactic(tactic, clone)
        except BaseException:
            self.close_session(clone)
            raise
        return clone

    def compile_tactic(self, tactic: str, state: ProofState, session: BackendSession) -> CompileResult:
        sids, error = self._exec_sentence(session, f"{canonical_tactic(tactic)}.")
        if error is not None:
            return CompileResult(error=truncate_error(error))
        after = self._query_goals(session)
        self._cancel(session, sids)
        return CompileResult(after)

    def apply_tactic(self, tactic: str, session: BackendSession) -> ProofState:
        canonical = canonical_tactic(tactic)
        _sids, error = self._exec_sentence(session, f"{canonical}.")
        if error is not None:
            session.poisoned = True
            raise SessionDesync(error)
        session.transcript.append(canonical)
        session.state = self._query_goals(session)
        return session.state

    def close_session(self, session: BackendSession) -> None:
        """Kill the session's prover, reap it and close its pipes."""
        proc = self._procs.pop(session.session_id, None)
        if proc is None:
            return
        proc.kill()
        proc.wait()
        proc.stdout.close()
        try:
            proc.stdin.close()
        except BrokenPipeError:  # a command the dead prover never read
            pass
