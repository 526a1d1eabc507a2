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

SubprocessBackend adapts a serialization-protocol prover subprocess
(s-expression framing over pipes). It is best-effort and feature-gated on an
executable being configured; everything test-critical runs on the synthetic
backend. Validation-then-apply maps to checkpoint/rollback there, since real
provers advance on execution.
"""

from __future__ import annotations

import itertools
import re
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


@dataclass(frozen=True)
class CompileResult:
    success: bool
    error: Optional[str] = None
    state: Optional[ProofState] = None

    def __post_init__(self):
        if self.success and (self.state is None or self.error is not None):
            raise ValueError("successful result must carry a state and no error")
        if not self.success and not self.error:
            raise ValueError("failed result must carry an error")


def is_goal_complete(state: ProofState) -> bool:
    return len(state.goals) == 0


def is_subgoal_complete(prev: ProofState, next_state: ProofState) -> bool:
    return 0 < len(next_state.goals) < len(prev.goals)


def truncate_error(error: str, limit: int = ERROR_TEXT_LIMIT) -> str:
    return error if len(error) <= limit else error[:limit]


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
    return CompileResult(False, error=f"The reference {name} was not found in the current environment.")


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
            return CompileResult(False, error="Syntax error: empty statement.")
        if not _balanced(source):
            return CompileResult(False, error="Syntax error: unbalanced parentheses.")
        missing = self._missing_reference(source, requires)
        if missing is not None:
            return _not_found(missing)
        if source in self.auto_solved:
            return CompileResult(True, state=ProofState(()))
        return CompileResult(True, state=ProofState((self._goal((), (), source),)))

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
            return CompileResult(False, error="empty tactic")
        if not state.goals:
            return CompileResult(False, error="No such goal.")
        focus, rest = state.goals[0], state.goals[1:]
        words = text.split()
        head = words[0]

        if head == "idtac" and len(words) == 1:
            return CompileResult(True, state=state)

        if head == "intros":
            names = words[1:]
            goal = focus
            if names:
                for name in names:
                    peeled = self._peel(goal, name)
                    if peeled is None:
                        return CompileResult(
                            False, error=f"No quantified variable to introduce as {name}."
                        )
                    goal = peeled
            else:
                while True:
                    peeled = self._peel(goal, None)
                    if peeled is None:
                        break
                    goal = peeled
            return CompileResult(True, state=ProofState((goal,) + rest))

        if head == "simpl" and len(words) == 1:
            reduced = self._rewrite_fixpoint(focus.goal_surface)
            goal = self._goal(focus.hypotheses_surface, focus.hypotheses_internal, reduced)
            return CompileResult(True, state=ProofState((goal,) + rest))

        if head == "reflexivity" and len(words) == 1:
            sides = _split_top(focus.goal_surface, " = ")
            if sides is None:
                return CompileResult(
                    False, error="The relation of the goal is not an equality."
                )
            lhs, rhs = sides
            if lhs.strip() != rhs.strip():
                return CompileResult(
                    False, error=f'Unable to unify "{rhs.strip()}" with "{lhs.strip()}".'
                )
            return CompileResult(True, state=ProofState(rest))

        if head == "split" and len(words) == 1:
            halves = _split_top(focus.goal_surface, " /\\ ")
            if halves is None:
                return CompileResult(False, error="The goal is not a conjunction.")
            left = self._goal(focus.hypotheses_surface, focus.hypotheses_internal, halves[0])
            right = self._goal(focus.hypotheses_surface, focus.hypotheses_internal, halves[1])
            return CompileResult(True, state=ProofState((left, right) + rest))

        if head == "assumption" and len(words) == 1:
            for hyp in focus.hypotheses_surface:
                if hyp.surface_type.strip() == focus.goal_surface.strip():
                    return CompileResult(True, state=ProofState(rest))
            return CompileResult(False, error="No such assumption.")

        if head == "apply" and len(words) == 2:
            name = words[1]
            lemma = self.lemmas.get(name)
            missing = self._missing_reference(name, ())
            if missing is not None or lemma is None:
                return _not_found(missing or name)
            if lemma.conclusion.strip() != focus.goal_surface.strip():
                return CompileResult(
                    False,
                    error=f'Unable to unify "{lemma.conclusion}" with "{focus.goal_surface}".',
                )
            new_goals = tuple(
                self._goal(focus.hypotheses_surface, focus.hypotheses_internal, premise)
                for premise in lemma.premises
            )
            return CompileResult(True, state=ProofState(new_goals + rest))

        return CompileResult(False, error=f"Unknown tactic: {text}.")

    # -- the port operations ------------------------------------------------

    def compile_tactic(self, tactic: str, state: ProofState, session: BackendSession) -> CompileResult:
        """Validate without advancing. The session must sit at `state`, checked
        by fingerprint unless `state` is the session's own state object."""
        if session.state is not state and state_fingerprint(session.state) != state_fingerprint(state):
            raise SessionDesync(
                f"session {session.session_id} is not at the state being validated"
            )
        result = self._step(tactic, state)
        if result.success:
            return result
        return CompileResult(False, error=truncate_error(result.error))

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
        canonical = canonical_tactic(tactic)
        if canonical != "idtac":
            session.transcript.append(canonical)
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
    any step fails validation."""
    session = backend.start_session(theorem_source, requires)
    for tactic, _explanation in trace:
        result = backend.compile_tactic(tactic, session.state, session)
        if not result.success:
            raise SessionDesync(f"trace step {tactic!r} failed: {result.error}")
        backend.apply_tactic(tactic, session)
    return session.state


# ======================================================================
# S-expression answers and the subprocess adapter
# ======================================================================

def parse_sexp(text: str):
    """Parse one s-expression into nested lists of atoms (strings).

    Supports quoted strings with backslash escapes. Raises ValueError on
    malformed input.
    """
    tokens = _sexp_tokens(text)
    if not tokens:
        raise ValueError("empty s-expression")
    expr, rest = _sexp_read(tokens, 0)
    if rest != len(tokens):
        raise ValueError("trailing tokens after s-expression")
    return expr


def _sexp_tokens(text: str) -> list[str]:
    tokens = []
    i = 0
    size = len(text)
    while i < size:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            tokens.append(ch)
            i += 1
        elif ch == '"':
            j = i + 1
            out = []
            while j < size and text[j] != '"':
                if text[j] == "\\" and j + 1 < size:
                    out.append(text[j + 1])
                    j += 2
                else:
                    out.append(text[j])
                    j += 1
            if j >= size:
                raise ValueError("unterminated string")
            tokens.append('"' + "".join(out))
            i = j + 1
        else:
            j = i
            while j < size and not text[j].isspace() and text[j] not in '()"':
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


def _sexp_read(tokens: list[str], pos: int):
    tok = tokens[pos]
    if tok == "(":
        out = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            expr, pos = _sexp_read(tokens, pos)
            out.append(expr)
        if pos >= len(tokens):
            raise ValueError("unbalanced s-expression")
        return out, pos + 1
    if tok == ")":
        raise ValueError("unexpected )")
    return (tok[1:] if tok.startswith('"') else tok), pos + 1


class SubprocessBackend:
    """Adapter for a serialization-protocol prover subprocess.

    Best-effort: constructed only when an executable path is configured, one
    subprocess per session, commands framed as s-expressions over stdin, and
    answers read until the matching Completed acknowledgment. A crashed or
    timed-out subprocess poisons the session so the search prunes the branch.
    Validation compiles the tactic and then cancels back to the checkpoint
    state id, mirroring compile/apply on provers that advance on execution.
    Each session writes its command transcript to `log_dir` when given.
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
        self.timeout = timeout
        self._ids = itertools.count(1)
        self._procs: dict[int, object] = {}
        self._tips: dict[int, int] = {}

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
        import os

        path = os.path.join(self.log_dir, f"session-{session.session_id}.log")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")

    def _send(self, session: BackendSession, command: str) -> list:
        proc = self._procs.get(session.session_id)
        if proc is None or session.poisoned:
            raise SessionDesync(f"session {session.session_id} has no live process")
        self._log(session, command)
        try:
            proc.stdin.write(command + "\n")
            proc.stdin.flush()
            answers = []
            while True:
                line = proc.stdout.readline()
                if not line:
                    raise SessionDesync("prover subprocess closed its output")
                line = line.strip()
                if not line:
                    continue
                answer = parse_sexp(line)
                answers.append(answer)
                flat = _flatten_atoms(answer)
                if "Completed" in flat or "CoqExn" in flat:
                    return answers
        except (OSError, ValueError, SessionDesync):
            session.poisoned = True
            self.close_session(session)
            raise SessionDesync(f"session {session.session_id} poisoned")

    def _exec_sentence(self, session: BackendSession, sentence: str) -> Optional[str]:
        """Add one sentence and execute it; returns an error text or None."""
        escaped = sentence.replace("\\", "\\\\").replace('"', '\\"')
        answers = self._send(session, f'(Add () "{escaped}")')
        sids = [int(a) for a in _collect_after(answers, "Added") if a.isdigit()]
        if not sids:
            return _first_error(answers) or "statement was not accepted"
        tip = sids[-1]
        answers = self._send(session, f"(Exec {tip})")
        error = _first_error(answers)
        if error is not None:
            self._send(session, f"(Cancel ({' '.join(str(s) for s in sids)}))")
            return error
        self._tips[session.session_id] = tip
        return None

    def _query_goals(self, session: BackendSession) -> ProofState:
        answers = self._send(session, "(Query ((pp ((pp_format PpStr)))) Goals)")
        texts = [a for a in _collect_strings(answers) if a.strip()]
        goals = tuple(
            GoalState((), (), goal_text, goal_text) for goal_text in texts
        )
        return ProofState(goals)

    def start_session(self, theorem_source: str, requires: Sequence[str] = ()) -> BackendSession:
        session = BackendSession(
            session_id=next(self._ids),
            theorem=theorem_source,
            requires=tuple(requires),
            state=ProofState(()),
        )
        self._procs[session.session_id] = self._spawn()
        for sentence in tuple(requires) + (f"Theorem goal_ : {theorem_source}.", "Proof."):
            error = self._exec_sentence(session, sentence)
            if error is not None:
                self.close_session(session)
                raise SessionDesync(error)
        session.state = self._query_goals(session)
        return session

    def clone_session(self, session: BackendSession) -> BackendSession:
        clone = self.start_session(session.theorem, session.requires)
        for tactic in session.transcript:
            self.apply_tactic(tactic, clone)
        return clone

    def compile_tactic(self, tactic: str, state: ProofState, session: BackendSession) -> CompileResult:
        checkpoint = self._tips.get(session.session_id)
        error = self._exec_sentence(session, f"{canonical_tactic(tactic)}.")
        if error is not None:
            return CompileResult(False, error=truncate_error(error))
        after = self._query_goals(session)
        tip = self._tips.get(session.session_id)
        if checkpoint is not None and tip is not None and tip != checkpoint:
            self._send(session, f"(Cancel ({tip}))")
            self._tips[session.session_id] = checkpoint
        return CompileResult(True, state=after)

    def apply_tactic(self, tactic: str, session: BackendSession) -> ProofState:
        canonical = canonical_tactic(tactic)
        error = self._exec_sentence(session, f"{canonical}.")
        if error is not None:
            session.poisoned = True
            raise SessionDesync(error)
        session.transcript.append(canonical)
        session.state = self._query_goals(session)
        return session.state

    def close_session(self, session: BackendSession) -> None:
        """Kill the session's prover, reap it and close its pipes."""
        proc = self._procs.pop(session.session_id, None)
        self._tips.pop(session.session_id, None)
        if proc is None:
            return
        proc.kill()
        proc.wait()
        proc.stdout.close()
        try:
            proc.stdin.close()
        except BrokenPipeError:  # a command the dead prover never read
            pass


def _flatten_atoms(expr) -> list[str]:
    if isinstance(expr, str):
        return [expr]
    out = []
    for item in expr:
        out.extend(_flatten_atoms(item))
    return out


def _collect_after(answers, marker: str) -> list[str]:
    atoms = []
    for answer in answers:
        flat = _flatten_atoms(answer)
        for i, atom in enumerate(flat):
            if atom == marker and i + 1 < len(flat):
                atoms.append(flat[i + 1])
    return atoms


def _first_error(answers) -> Optional[str]:
    for answer in answers:
        flat = _flatten_atoms(answer)
        if "CoqExn" in flat:
            strings = [a for a in flat if " " in a or a.islower()]
            return strings[-1] if strings else "prover error"
    return None


def _collect_strings(answers) -> list[str]:
    out = []
    for answer in answers:
        for atom in _flatten_atoms(answer):
            if " " in atom or "\n" in atom:
                out.append(atom)
    return out
