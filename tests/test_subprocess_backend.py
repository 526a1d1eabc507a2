"""SubprocessBackend against `fake_prover.py`, a stdio SerAPI subset backed
by SyntheticBackend: the 25 conformance scenarios give the same results and
events on both backends, a crashing, hanging or garbled prover costs exactly
one branch, and no prover or thread outlives a test."""

import collections
import json
import os
import pathlib
import sys
import threading
import time

import pytest

from conftest import FAKE_PROVER, PACKAGE_DIR
from test_acceptance import SCENARIOS
from test_proof_search import info_corpus, route_defaults, tactics_reply
from prooforge.coq_backend import SubprocessBackend, SyntheticBackend
from prooforge.errors import PortFailure, SessionDesync
from prooforge.llm_gateway import MockGateway, ScriptRecord
from prooforge.proof_search import (
    Outcome,
    RunRecorder,
    SearchParams,
    SearchPorts,
    prove,
)


def spec_of(backend: SyntheticBackend) -> dict:
    """The fake prover's spec for a synthetic backend."""
    return {
        "rewrites": backend.rewrites,
        "lemmas": {
            name: {"conclusion": lemma.conclusion, "premises": list(lemma.premises)}
            for name, lemma in backend.lemmas.items()
        },
        "required_modules": backend.required_modules,
        "internal_forms": backend.internal_forms,
        "auto_solved": sorted(backend.auto_solved),
    }


class FakeProverBackend(SubprocessBackend):
    """Runs `fake_prover.py` on a spec file and keeps every child it starts."""

    def __init__(self, spec_path, timeout: float = 60.0):
        super().__init__(
            sys.executable,
            args=("-S", FAKE_PROVER, PACKAGE_DIR, str(spec_path)),
            timeout=timeout,
        )
        self.spawned = []

    def _spawn(self):
        self.spawned.append(super()._spawn())
        return self.spawned[-1]


@pytest.fixture
def fake_backend(tmp_path):
    """A factory of fake-prover backends; afterwards every child they started
    is reaped and no thread is left over."""
    threads = threading.active_count()
    made = []

    def make(synthetic: SyntheticBackend, fault=None, timeout: float = 60.0, stats=None):
        spec_path = tmp_path / f"spec-{len(made)}.json"
        spec_path.write_text(json.dumps(dict(spec_of(synthetic), fault=fault, stats=stats)))
        made.append(FakeProverBackend(spec_path, timeout=timeout))
        return made[-1]

    yield make
    for backend in made:
        assert backend._procs == {}
        assert all(proc.returncode is not None for proc in backend.spawned)
    assert threading.active_count() == threads


def run(theorem, params, records, backend, tmp_path, needs_corpus=False):
    """The proof's result (or the PortFailure it raised) and its events."""
    ports = SearchPorts(backend=backend, gateway=MockGateway(records), recorder=RunRecorder())
    if needs_corpus:
        ports.corpus, ports.table = info_corpus(tmp_path)
    try:
        result = prove(theorem, params, ports)
    except PortFailure as exc:
        result = f"PortFailure: {exc}"
    return result, ports.recorder.events


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
def test_scenario_matches_the_synthetic_backend(scenario, fake_backend, tmp_path):
    def on(backend):
        return run(
            scenario.theorem, scenario.params, scenario.records(), backend,
            tmp_path, scenario.needs_corpus,
        )

    expected = on(scenario.backend())
    assert on(fake_backend(scenario.backend())) == expected


# ----------------------------------------------------------------------
# Faults: each prunes exactly one branch
# ----------------------------------------------------------------------

def _executor(*tactics):
    return ScriptRecord(reply=tactics_reply(*tactics), route="executor")


# Depth 1 yields `intros H` (goal B -> A) and `intros` (goal A). At depth 2
# the first branch tries `ring`, the fault's sentence; the second proves
# with `assumption`.
FAULT_THEOREM = "A -> B -> A"
FAULT_PARAMS = SearchParams(max_depth=2, beam_width=2, max_retries=0)


def _fault_records():
    return route_defaults() + [
        _executor("intros H", "intros"), _executor("ring"), _executor("assumption"),
    ]


@pytest.mark.parametrize("kind", ["crash", "hang", "garbage", "deep"])
def test_a_faulty_prover_costs_one_branch(kind, fake_backend, tmp_path):
    fault = {"kind": kind, "sentence": "ring.", "flag": str(tmp_path / "fired")}
    expected, expected_events = run(
        FAULT_THEOREM, FAULT_PARAMS, _fault_records(), SyntheticBackend(), tmp_path
    )
    # Every command waits up to the timeout, so it must cover an ordinary
    # prover start or clone replay on a loaded host; `hang` waits it out once.
    backend = fake_backend(SyntheticBackend(), fault=fault, timeout=5.0)
    start = time.monotonic()
    result, events = run(FAULT_THEOREM, FAULT_PARAMS, _fault_records(), backend, tmp_path)
    assert time.monotonic() - start < 30.0

    assert os.path.exists(fault["flag"])
    assert result == expected
    assert result.outcome is Outcome.PROVED
    pruned = [e for e in events if e["event"] == "branch-pruned"]
    assert [(e["depth"], e["branch"]) for e in pruned] == [(2, 0)]
    ring = [e for e in expected_events if e.get("tactic") == "ring"]
    assert [e for e in events if e not in pruned] == [
        e for e in expected_events if e not in ring
    ]


def test_a_failed_clone_replay_closes_the_clone(fake_backend, tmp_path):
    backend = fake_backend(SyntheticBackend())
    parent = backend.start_session("A -> A")
    backend.apply_tactic("intros", parent)
    # Children started from now on answer CoqExn to the transcript's tactic.
    spec_path = pathlib.Path(backend.args[-1])
    spec = json.loads(spec_path.read_text())
    spec["fault"] = {"kind": "error", "sentence": "intros.", "flag": str(tmp_path / "fired")}
    spec_path.write_text(json.dumps(spec))

    with pytest.raises(SessionDesync, match="injected error"):
        backend.clone_session(parent)
    assert list(backend._procs) == [parent.session_id]
    assert backend.spawned[1].returncode is not None
    assert backend.spawned[0].poll() is None
    backend.close_session(parent)


def test_validation_cancels_what_it_added(fake_backend):
    backend = fake_backend(SyntheticBackend())
    session = backend.start_session("A -> B -> A")
    assert [g.goal_surface for g in session.state.goals] == ["A -> B -> A"]
    failed = backend.compile_tactic("assumption", session.state, session)
    assert failed.error == "No such assumption."
    validated = backend.compile_tactic("intros", session.state, session)
    assert [g.goal_surface for g in validated.state.goals] == ["A"]
    # Neither validation moved the prover: `intros H` still sees B -> A.
    assert [g.goal_surface for g in backend.apply_tactic("intros H", session).goals] == [
        "B -> A"
    ]
    backend.close_session(session)


def test_a_multi_line_tactic_is_one_command(fake_backend):
    synthetic = SyntheticBackend()
    backend = fake_backend(synthetic)
    tactic = "intros\nassumption"

    def outcome(backend):
        session = backend.start_session("A -> A")
        result = backend.compile_tactic(tactic, session.state, session)
        after = backend.apply_tactic(tactic, session)
        backend.close_session(session)
        goals = [g.goal_surface for g in result.state.goals] if result.success else None
        return result.success, result.error, goals, [g.goal_surface for g in after.goals]

    assert outcome(backend) == outcome(synthetic) == (True, None, ["A"], ["A"])


def test_prover_starts_and_executed_sentences_of_the_worked_proof(fake_backend, tmp_path):
    """The gate for one prover per proof: today every clone starts a prover
    and replays the theorem and the transcript."""
    scenario = SCENARIOS[0]
    assert scenario.name == "happy-three-layers"
    stats = tmp_path / "stats"
    backend = fake_backend(scenario.backend(), stats=str(stats))
    clones = []
    clone_session = backend.clone_session
    backend.clone_session = lambda session: clones.append(len(session.transcript)) or clone_session(session)

    result, _events = run(scenario.theorem, scenario.params, scenario.records(), backend, tmp_path)
    assert result.outcome is Outcome.PROVED
    counts = collections.Counter(stats.read_text().split())
    # One clone per layer, of transcripts of 0, 1 and 2 tactics.
    assert clones == [0, 1, 2]
    assert counts["start"] == 1 + len(clones) == 4
    # Each start runs `Theorem` and `Proof.`; each clone replays its
    # transcript; 3 validations and 3 applies run one sentence each.
    assert counts["exec"] == 2 * 4 + (0 + 1 + 2) + 3 + 3 == 17


def test_a_session_that_fails_to_start_closes_its_prover(fake_backend, tmp_path):
    backend = fake_backend(SyntheticBackend())
    backend.log_dir = str(tmp_path / "missing")  # logging the first command fails
    with pytest.raises(FileNotFoundError):
        backend.start_session("A -> A")
    assert backend._procs == {}
    assert backend.spawned[0].returncode is not None


# ----------------------------------------------------------------------
# Protocol edges
# ----------------------------------------------------------------------

def _fault(kind: str, sentence: str, tmp_path) -> dict:
    return {"kind": kind, "sentence": sentence, "flag": str(tmp_path / "fired")}


def test_a_backend_needs_an_executable():
    with pytest.raises(ValueError, match="subprocess backend requires an executable path"):
        SubprocessBackend("")


def test_a_closed_session_sends_no_command(fake_backend):
    backend = fake_backend(SyntheticBackend())
    session = backend.start_session("A -> A")
    backend.close_session(session)
    with pytest.raises(SessionDesync, match=f"session {session.session_id} has no live process"):
        backend.compile_tactic("intros", session.state, session)


def test_a_blank_answer_line_is_skipped(fake_backend, tmp_path):
    backend = fake_backend(SyntheticBackend(), fault=_fault("blank", "intros.", tmp_path))
    session = backend.start_session("A -> A")
    result = backend.compile_tactic("intros", session.state, session)
    assert (tmp_path / "fired").exists()
    assert [g.goal_surface for g in result.state.goals] == ["A"]
    backend.close_session(session)


def test_an_add_answered_without_a_state_id_is_not_accepted(fake_backend, tmp_path):
    # The prover answers the Add of `intros.` with neither Added nor
    # CoqExn: the tactic fails, and the session validates it once the
    # fault has fired.
    backend = fake_backend(SyntheticBackend(), fault=_fault("unadded", "intros.", tmp_path))
    session = backend.start_session("A -> A")
    failed = backend.compile_tactic("intros", session.state, session)
    assert failed.error == "statement was not accepted"
    result = backend.compile_tactic("intros", session.state, session)
    assert [g.goal_surface for g in result.state.goals] == ["A"]
    backend.close_session(session)


def test_a_prover_that_stops_reading_poisons_its_session(fake_backend, tmp_path):
    # Once `intros.` runs, the prover closes its input: the next command
    # meets a broken pipe, and the session closes although that command is
    # still buffered for the prover's input.
    backend = fake_backend(SyntheticBackend(), fault=_fault("deaf", "intros.", tmp_path))
    session = backend.start_session("A -> A")
    with pytest.raises(SessionDesync, match=f"session {session.session_id} poisoned: .*Broken pipe"):
        backend.compile_tactic("intros", session.state, session)
    assert session.poisoned
    assert backend._procs == {}
    assert backend.spawned[0].stdin.closed

