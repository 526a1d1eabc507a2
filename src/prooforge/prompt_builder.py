"""Rendering of every prompt the system sends.

One skeleton, the ``_BLOCK_*`` constants below, drives the proving prompt.
Eleven information configurations control what goes into it:

====================  ==========  ======  ========  =========  =========
configuration         structured  origin  internal  intuition  qualified
                                  body    body      body       names
====================  ==========  ======  ========  =========  =========
NoContext             no          -       -         -          no
QualifiedName         no          -       -         -          yes
EmptyReference        yes         no      no        no         yes
OriginOnly            yes         yes     no        no         yes
InternalOnly          yes         no      yes       no         yes
IntuitionOnly         yes         no      no        yes        yes
OriginInternal        yes         yes     yes       no         yes
OriginIntuition       yes         yes     no        yes        yes
InternalIntuition     yes         no      yes       yes        yes
Complete              yes         yes     yes       yes        yes
ChineseTranslation    yes         yes     yes       yes        yes
====================  ==========  ======  ========  =========  =========

A structured configuration shows the proof state in surface and internal
forms and adds the glob-def, proof tracing, related premises, related
tactics, public notes and hint sections. The two bare configurations carry
only the proof-state block and the action instructions. ChineseTranslation
renders glob-def bodies from
the records' pre-translated ``*_zh`` fields (falling back to the untranslated
text when a translation is missing); nothing is machine-translated here.

The planner and proving prompts share one input, a `StateContext`:
`render_state_context` renders a state's proof-state block and its concepts'
glob-def text once under one configuration, and both prompts read the state,
the concepts and the configuration from it alone. Each block is filled in one
``str.format`` pass, so inserted text is never scanned for placeholders.

All renderers are pure functions of their inputs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .core_model import EntityRecord, Notebook, ProofState


class InfoConfiguration(Enum):
    NO_CONTEXT = "NoContext"
    QUALIFIED_NAME = "QualifiedName"
    EMPTY_REFERENCE = "EmptyReference"
    ORIGIN_ONLY = "OriginOnly"
    INTERNAL_ONLY = "InternalOnly"
    INTUITION_ONLY = "IntuitionOnly"
    ORIGIN_INTERNAL = "OriginInternal"
    ORIGIN_INTUITION = "OriginIntuition"
    INTERNAL_INTUITION = "InternalIntuition"
    COMPLETE = "Complete"
    CHINESE_TRANSLATION = "ChineseTranslation"

    @classmethod
    def parse(cls, text: str) -> "InfoConfiguration":
        for member in cls:
            if member.value == text or member.name == text:
                return member
        raise ValueError(f"unknown configuration {text!r}")


@dataclass(frozen=True)
class ConfigTraits:
    """What one configuration includes; the table above, as data."""

    structured: bool
    origin: bool
    internal: bool
    intuition: bool
    qualified_names: bool
    translated: bool = False


CONFIG_MATRIX: dict[InfoConfiguration, ConfigTraits] = {
    InfoConfiguration.NO_CONTEXT: ConfigTraits(False, False, False, False, False),
    InfoConfiguration.QUALIFIED_NAME: ConfigTraits(False, False, False, False, True),
    InfoConfiguration.EMPTY_REFERENCE: ConfigTraits(True, False, False, False, True),
    InfoConfiguration.ORIGIN_ONLY: ConfigTraits(True, True, False, False, True),
    InfoConfiguration.INTERNAL_ONLY: ConfigTraits(True, False, True, False, True),
    InfoConfiguration.INTUITION_ONLY: ConfigTraits(True, False, False, True, True),
    InfoConfiguration.ORIGIN_INTERNAL: ConfigTraits(True, True, True, False, True),
    InfoConfiguration.ORIGIN_INTUITION: ConfigTraits(True, True, False, True, True),
    InfoConfiguration.INTERNAL_INTUITION: ConfigTraits(True, False, True, True, True),
    InfoConfiguration.COMPLETE: ConfigTraits(True, True, True, True, True),
    InfoConfiguration.CHINESE_TRANSLATION: ConfigTraits(True, True, True, True, True, translated=True),
}

# Section labels reported in PromptBundle.sections_present.
SECTION_PROOF_STATE = "proof_state"
SECTION_GLOB_DEF = "glob_def"
SECTION_PROOF_TRACING = "proof_tracing"
SECTION_RELATED_PREMISES = "related_premises"
SECTION_RELATED_TACTIC = "related_tactic"
SECTION_PUBLIC_NOTES = "public_notes"
SECTION_HINT = "hint"
SECTION_AVAILABLE_ACTIONS = "available_actions"


def expected_sections(config: InfoConfiguration) -> frozenset:
    present = {SECTION_PROOF_STATE, SECTION_AVAILABLE_ACTIONS}
    if CONFIG_MATRIX[config].structured:
        present.update((
            SECTION_GLOB_DEF,
            SECTION_PROOF_TRACING,
            SECTION_RELATED_PREMISES,
            SECTION_RELATED_TACTIC,
            SECTION_PUBLIC_NOTES,
            SECTION_HINT,
        ))
    return frozenset(present)


@dataclass(frozen=True)
class PromptBundle:
    rendered: str
    config: InfoConfiguration
    concept_tokens: tuple[int, ...]

    @property
    def sections_present(self) -> frozenset:
        return expected_sections(self.config)


# ======================================================================
# Template blocks: the proving prompt's skeleton, in rendering order. Each
# is filled by one str.format call; _BLOCK_HEADER and _BLOCK_ACTIONS are
# literal text (the braces in _BLOCK_ACTIONS are JSON) and never formatted.
# ======================================================================

_BLOCK_HEADER = (
    "I am currently working on a formal proof in Coq. "
    "Here is my current state and context:\n\n"
)
_BLOCK_PROOF_STATE = (
    "=== Current Proof States ===\n"
    "# Hypotheses:\n"
    "{hyps}\n"
    "\n"
    "# Goal:\n"
    "{goal}\n"
    "\n"
)
_BLOCK_GLOB_DEF = (
    "Global definitions referenced:\n"
    "# Glob def:\n"
    "{glob_def}\n"
)
_BLOCK_PROOF_TRACING = (
    "=== Proof Tracing ===\n"
    "This shows how we reached the current state through previous tactics:\n"
    "\n"
    "Tactics: {tactic_seq}\n"
    "{proof_summary}\n"
    "\n"
)
_BLOCK_PREMISES = (
    "=== Related Premises ===\n"
    "Potentially relevant premises (for reference only):\n"
    "{premises}\n"
    "\n"
)
_BLOCK_TACTICS = (
    "=== Related Tactic ===\n"
    "Commonly used tactics for similar proofstates (for reference only):\n"
    "{tactics}\n"
    "\n"
)
_BLOCK_NOTES = (
    "=== Public Notes ===\n"
    "Curated insights relevant to current proof:\n"
    "{public_notes}\n"
    "\n"
)
_BLOCK_HINT = (
    "=== Hint ===\n"
    "Some hints may help you to understand the proof:\n"
    "{hint}\n"
    "\n"
)
_BLOCK_ACTIONS = (
    "=== Available Actions ===\n"
    "\n"
    "Please choose ONE of the following actions:\n"
    "\n"
    "1. Request more information about specific concepts/tactics mentioned above\n"
    "Your response must be in this format:\n"
    "{\n"
    '  "info": ["concept_name1", "concept_name2", "tactic1", "tactic2", ...]\n'
    "}\n"
    "\n"
    "2. Suggest a list of up to 10 tactics to try - prefer single atomic tactics "
    "over compound ones unless the combination is highly confident. "
    "I will provide the compiler's response for each\n"
    "Your response must be in this format:\n"
    "{\n"
    "  tactics: [\n"
    '    {"tactic": "tactic1", "reason": "explanation for why this specific tactic is recommended"},\n'
    '    {"tactic": "tactic2", "reason": "explanation for why this specific tactic is recommended"},\n'
    "    ...\n"
    "  ]\n"
    "}\n"
)

_QUALIFIED_RE = re.compile(
    r"(?<![A-Za-z0-9_'.])(?:[A-Za-z_][A-Za-z0-9_']*\.)+([A-Za-z_][A-Za-z0-9_']*)"
)


def shorten_qualified_names(text: str) -> str:
    """Replace every dotted path with its final segment."""
    return _QUALIFIED_RE.sub(r"\1", text)


def _order_concepts(
    state: ProofState, concepts: Sequence[tuple[int, EntityRecord]]
) -> list[tuple[int, EntityRecord]]:
    # First occurrence in the internal goal texts, then the internal
    # hypothesis types; concepts never mentioned keep their input order last.
    scan = "\n".join(
        [g.goal_internal for g in state.goals]
        + [h.internal_type for g in state.goals for h in g.hypotheses_internal]
    )
    far = len(scan) + 1

    def position(record: EntityRecord) -> int:
        pos = scan.find(record.name)
        if pos < 0:
            short = record.name.rsplit(".", 1)[-1]
            pos = scan.find(short)
        return pos if pos >= 0 else far

    indexed = list(enumerate(concepts))
    indexed.sort(key=lambda pair: (position(pair[1][1]), pair[0]))
    return [entry for _i, entry in indexed]


def _render_hypotheses(state: ProofState, traits: ConfigTraits) -> str:
    blocks: list[str] = []
    multi = len(state.goals) > 1
    for number, goal in enumerate(state.goals, start=1):
        lines: list[str] = []
        if multi:
            lines.append(f"Goal {number}:")
        for hs, hi in zip(goal.hypotheses_surface, goal.hypotheses_internal):
            if traits.structured:
                line = f"{hs.name} : {hs.surface_type}"
                if hi.internal_type and hi.internal_type != hs.surface_type:
                    line += f"  (internal: {hi.internal_type})"
                lines.append(line)
            elif traits.qualified_names:
                lines.append(f"{hi.name} : {hi.internal_type}")
            else:
                lines.append(f"{hs.name} : {shorten_qualified_names(hs.surface_type)}")
        blocks.append("\n".join(lines))
    return "\n".join(block for block in blocks if block)


def _render_goal(state: ProofState, traits: ConfigTraits) -> str:
    blocks: list[str] = []
    multi = len(state.goals) > 1
    for number, goal in enumerate(state.goals, start=1):
        prefix = f"Goal {number}: " if multi else ""
        if traits.structured:
            text = prefix + goal.goal_surface
            if goal.goal_internal != goal.goal_surface:
                text += f"\n{' ' * len(prefix)}(internal) {goal.goal_internal}"
            blocks.append(text)
        elif traits.qualified_names:
            blocks.append(prefix + goal.goal_internal)
        else:
            blocks.append(prefix + shorten_qualified_names(goal.goal_surface))
    return "\n".join(blocks)


def _record_texts(record: EntityRecord, traits: ConfigTraits) -> tuple[str, str, str]:
    if traits.translated:
        return (
            record.origin_zh or record.origin,
            record.internal_zh or record.internal,
            record.intuition_zh or record.intuition,
        )
    return record.origin, record.internal, record.intuition


def _render_glob_defs(
    concepts: list[tuple[int, EntityRecord]], traits: ConfigTraits
) -> str:
    if not (traits.origin or traits.internal or traits.intuition):
        return ""
    chunks: list[str] = []
    for _token, record in concepts:
        origin, internal, intuition = _record_texts(record, traits)
        lines = [f"- {record.name} ({record.kind.render()})"]
        if traits.origin:
            lines.append(f"  Origin: {origin}")
        if traits.internal:
            lines.append(f"  Internal: {internal}")
        if traits.intuition and intuition:
            lines.append(f"  Intuition: {intuition}")
        chunks.append("\n".join(lines))
    return "\n".join(chunks)


def _render_list(entries: Sequence[str]) -> str:
    return "\n".join(f"- {entry}" for entry in entries)


@dataclass(frozen=True)
class StateContext:
    """What the planner and proving prompts share, rendered once from a
    state, its concepts and a configuration: the configuration itself, the
    proof-state block, the concepts' glob-def text and their token ids in
    prompt order."""

    config: InfoConfiguration
    state_block: str
    glob_defs: str
    concept_tokens: tuple[int, ...]


def render_state_context(
    state: ProofState,
    concepts: Sequence[tuple[int, EntityRecord]] = (),
    config: InfoConfiguration = InfoConfiguration.COMPLETE,
) -> StateContext:
    """`concepts` are (token_id, EntityRecord) pairs, as `concept_pairs`
    returns them; the ids are carried into each bundle for clarity probing."""
    traits = CONFIG_MATRIX[config]
    ordered = _order_concepts(state, concepts)
    return StateContext(
        config=config,
        state_block=_BLOCK_PROOF_STATE.format(
            hyps=_render_hypotheses(state, traits), goal=_render_goal(state, traits)
        ),
        glob_defs=_render_glob_defs(ordered, traits),
        concept_tokens=tuple(token for token, _record in ordered),
    )


def render_prove_prompt(
    context: StateContext,
    trace: Sequence[tuple[str, str]] = (),
    summary: str = "",
    premises: Sequence[str] = (),
    tactics: Sequence[str] = (),
    notes: Notebook = Notebook(),
    hint: str = "",
) -> PromptBundle:
    """Render the proving prompt for one state context; its configuration
    decides which sections appear."""
    parts = [_BLOCK_HEADER, context.state_block]
    if CONFIG_MATRIX[context.config].structured:
        parts += [
            _BLOCK_GLOB_DEF.format(glob_def=context.glob_defs),
            _BLOCK_PROOF_TRACING.format(
                tactic_seq=" -> ".join(tactic for tactic, _ in trace),
                proof_summary=summary,
            ),
            _BLOCK_PREMISES.format(premises=_render_list(premises)),
            _BLOCK_TACTICS.format(tactics=_render_list(tactics)),
            _BLOCK_NOTES.format(public_notes=_render_list(notes.items)),
            _BLOCK_HINT.format(hint=hint),
        ]
    parts.append(_BLOCK_ACTIONS)
    return PromptBundle(
        rendered="".join(parts),
        config=context.config,
        concept_tokens=context.concept_tokens,
    )


# ======================================================================
# Planner / reflection prompt
# ======================================================================

PLANNER_SECTION_LABELS = (
    "## Core Concepts",
    "## Applicable Theorems",
    "## Proof Techniques",
    "## Hypothesis-Goal Relationships",
    "## Strategic Summary",
)


def render_planner_prompt(
    context: StateContext,
    trace: Sequence[tuple[str, str]] = (),
    summary: str = "",
    notes: Notebook = Notebook(),
    errors: Sequence[tuple[str, str]] = (),
) -> str:
    """Strategy-analysis prompt; with `errors`, a reflection prompt that lists
    each failed tactic and its compiler error verbatim. It shows the
    context's proof-state block, and its glob-def block when there is text."""
    head = (
        "You are planning the next steps of a formal Coq proof. "
        "Analyze the state and context below, then lay out a strategy.\n\n"
        + context.state_block
    )
    if context.glob_defs:
        head += _BLOCK_GLOB_DEF.format(glob_def=context.glob_defs) + "\n"
    lines = ["=== Proof Tracing ===", "Tactics: " + " -> ".join(t for t, _ in trace)]
    if summary:
        lines.append(summary)
    lines += ["", "=== Public Notes ===", _render_list(notes.items), ""]
    if errors:
        lines += [
            "=== Failed Tactics ===",
            "These tactics failed to compile; account for the errors:",
        ]
        for tactic, error in errors:
            lines.append(f"- tactic: {tactic}")
            lines.append(f"  error: {error}")
        lines.append("")
    lines += [
        "Respond with exactly these labeled sections:",
        *PLANNER_SECTION_LABELS,
    ]
    return head + "\n".join(lines)


# ======================================================================
# Explanation / summarization / notebook / ranking prompts
# ======================================================================

EXPLAIN_MARKER = "Explain the transformation"
SUMMARIZE_MARKER = "Summarize the proof progress"
NOTEBOOK_MARKER = "Merge the following proof insights"
RANK_MARKER = "Rank the candidate proof states"


def render_explanation_prompt(
    before: ProofState, tactic: str, after: ProofState
) -> str:
    before_goals = "\n".join(g.goal_surface for g in before.goals) or "(no goals)"
    after_goals = "\n".join(g.goal_surface for g in after.goals) or "(no goals)"
    return "\n".join([
        f"{EXPLAIN_MARKER} performed by the tactic `{tactic}` on a Coq proof state.",
        "",
        "Goals before:",
        before_goals,
        "",
        "Goals after:",
        after_goals,
        "",
        "In one or two sentences, explain what changed and why this tactic was the right move.",
    ])


def render_summarize_prompt(
    trace: Sequence[tuple[str, str]], state: ProofState
) -> str:
    remaining = "\n".join(g.goal_surface for g in state.goals) or "(complete)"
    return "\n".join([
        f"{SUMMARIZE_MARKER} so far and judge the position.",
        "",
        "Tactics applied: " + " -> ".join(t for t, _ in trace),
        "",
        "Goals remaining:",
        remaining,
        "",
        "Reply with a short summary of the proof so far, the steps you expect will finish it,",
        "and a line of the form `score: <value between 0 and 1>` rating how promising this state is.",
    ])


def render_notebook_prompt(
    initial_state: ProofState, insights: Sequence[str], notebook: Notebook
) -> str:
    goal = initial_state.goals[0].goal_surface if initial_state.goals else "(complete)"
    return "\n".join([
        f"{NOTEBOOK_MARKER} into a single curated list.",
        "",
        f"Theorem under proof: {goal}",
        "",
        "Existing notes:",
        _render_list(notebook.items) or "- (none)",
        "",
        "New insights:",
        _render_list(insights),
        "",
        f"Reply with a JSON array of at most {notebook.capacity} strings: the merged, ranked notes,",
        "most useful first. Keep distinct lessons, drop duplicates.",
    ])


def render_rank_prompt(
    initial_state: ProofState,
    candidates: Sequence[tuple[int, str, str]],
    keep: int,
) -> str:
    """candidates: (id, goals_text, summary) triples."""
    goal = initial_state.goals[0].goal_surface if initial_state.goals else "(complete)"
    lines = [
        f"{RANK_MARKER} for proving: {goal}",
        "",
    ]
    for cid, goals_text, summary in candidates:
        lines.append(f"Candidate {cid}:")
        lines.append(f"  goals: {goals_text}")
        if summary:
            lines.append(f"  summary: {summary}")
    lines += [
        "",
        f"Reply with a JSON array of the {keep} most promising candidate ids, best first.",
    ]
    return "\n".join(lines)


# ======================================================================
# Clarity probe / judge
# ======================================================================

PROBE_MARKER = "please provide the strict Coq definition"
JUDGE_MARKER = "Answer: YES or NO"


def render_clarity_probe(structured_prompt: PromptBundle, concept_name: str) -> str:
    return (
        "Given the following structural proof context:\n\n"
        f"{structured_prompt.rendered}\n"
        f"Now, {PROBE_MARKER} of the concept `{concept_name}`."
    )


def render_clarity_judge(
    concept_name: str, generated_definition: str, reference: EntityRecord
) -> str:
    return "\n".join([
        f"Reference definition of `{concept_name}`:",
        reference.origin,
        "",
        f"Is the following definition semantically correct for `{concept_name}`?",
        "",
        generated_definition,
        "",
        JUDGE_MARKER,
    ])
