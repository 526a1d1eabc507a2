"""Shared fixtures: canonical worked-proof states, corpus paths, helpers.

The states built here mirror the shipped fixture corpora exactly, so tests
can cross-check loaded data against independently constructed structures.
"""

import dataclasses
import os
import threading

import pytest
from hypothesis import HealthCheck, settings

import prooforge.coq_backend as coq_backend

from prooforge.core_model import (
    EntityKind,
    EntityRecord,
    GoalState,
    Hypothesis,
    InteractiveProof,
    ProofState,
    TacticStep,
)
from prooforge.retrieval import KindRows

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=(HealthCheck.too_slow,),
)
settings.load_profile("suite")

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

#: The stdio prover `SubprocessBackend` tests run, and the package directory
#: it is started with.
FAKE_PROVER = os.path.join(os.path.dirname(__file__), "fake_prover.py")
PACKAGE_DIR = os.path.dirname(coq_backend.__file__)


@pytest.fixture
def fixtures_dir() -> str:
    return FIXTURES


@pytest.fixture(autouse=True)
def no_worker_thread_outlives_a_test():
    """Fail any test after which a `prooforge-*` thread (a lane or the
    prefetch worker of a proof) is still alive."""
    yield
    left = sorted(t.name for t in threading.enumerate() if t.name.startswith("prooforge-"))
    assert not left, f"threads still alive after the test: {left}"


def entities_path() -> str:
    return os.path.join(FIXTURES, "entities.jsonl")


def proofs_path() -> str:
    return os.path.join(FIXTURES, "proofs.jsonl")


def backend_spec_path() -> str:
    return os.path.join(FIXTURES, "backend_spec.json")


def kind_rows(index) -> dict:
    """Each kind's `KindRows` of a retrieval index: its stacked `rows` cut
    by its `spans`, the arrays as views and the payloads as tuples."""
    return {
        kind: KindRows(*(
            getattr(index.rows, field.name)[start:stop] for field in dataclasses.fields(KindRows)
        ))
        for kind, (start, stop) in index.spans.items()
    }


# ----------------------------------------------------------------------
# The worked three-step proof of `forall n:nat, 0 + n = n`:
# sigma_0 --intros n--> sigma_1 --simpl--> sigma_2 --reflexivity--> sigma_3.
# ----------------------------------------------------------------------

ADD_0_L_SURFACE = "forall n:nat, 0 + n = n"
ADD_0_L_INTERNAL = (
    "forall ( n : Coq.Init.Datatypes.nat ) , "
    "Coq.Init.Logic.eq.eq Coq.Init.Datatypes.nat "
    "( Coq.Init.Nat.add Coq.Init.Datatypes.O n ) n"
)


def sigma_0() -> ProofState:
    return ProofState(
        (GoalState((), (), ADD_0_L_SURFACE, ADD_0_L_INTERNAL),)
    )


# The hypothesis `n : nat` of sigma_1 and sigma_2, in each view.
_N_SURFACE = (Hypothesis("n", surface_type="nat"),)
_N_INTERNAL = (Hypothesis("n", internal_type="Coq.Init.Datatypes.nat"),)


def sigma_1() -> ProofState:
    return ProofState(
        (
            GoalState(
                _N_SURFACE,
                _N_INTERNAL,
                "0 + n = n",
                "Coq.Init.Logic.eq.eq Coq.Init.Datatypes.nat "
                "( Coq.Init.Nat.add Coq.Init.Datatypes.O n ) n",
            ),
        )
    )


def sigma_2() -> ProofState:
    return ProofState(
        (
            GoalState(
                _N_SURFACE,
                _N_INTERNAL,
                "n = n",
                "Coq.Init.Logic.eq.eq Coq.Init.Datatypes.nat n n",
            ),
        )
    )


def sigma_3() -> ProofState:
    return ProofState(())


def worked_proof() -> InteractiveProof:
    return InteractiveProof(
        theorem_name="Coq.Arith.PeanoNat.Nat.add_0_l",
        steps=(
            TacticStep(
                "intros n",
                sigma_0(),
                sigma_1(),
                explanation="Introduce the universally quantified n as a hypothesis.",
            ),
            TacticStep(
                "simpl",
                sigma_1(),
                sigma_2(),
                explanation="Reduce 0 + n to n by the first-argument recursion of add.",
            ),
            TacticStep(
                "reflexivity",
                sigma_2(),
                sigma_3(),
                explanation="Both sides are now the same term, closing the goal.",
            ),
        ),
    )


def make_entity(
    name: str,
    kind: str = "Definition",
    kind_label: str = "",
    kernel: str = "",
    origin: str = "origin text",
    internal: str = "internal text",
    intuition: str = "",
    dependencies: tuple = (),
    **extra,
) -> EntityRecord:
    """A minimal valid record; name defaults the kernel path."""
    return EntityRecord(
        name=name,
        kind=EntityKind(kind, kind_label),
        origin=origin,
        internal=internal,
        kernel_name=kernel or name,
        intuition=intuition,
        dependencies=tuple(dependencies),
        **extra,
    )
