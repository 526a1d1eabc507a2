"""Live-mode smoke test: one real theorem against one real endpoint.

Skipped unless both PROOFORGE_LIVE_BASE_URL and PROOFORGE_LIVE_MODEL are
set, so it never runs in CI. Point them at an OpenAI-style
chat-completions endpoint (with PROOFORGE_API_KEY exported if the
endpoint needs one) and run:

    PROOFORGE_LIVE_BASE_URL=https://... PROOFORGE_LIVE_MODEL=... \
        python3 -m pytest tests/test_live_smoke.py -v

A live model is nondeterministic, so the assertions are structural: the
search terminates with a legal outcome, stays within its budget, and any
proof it claims must replay to completion on a fresh session.
"""

import os

import pytest

from conftest import ADD_0_L_SURFACE
from test_coq_backend import worked_backend
from prooforge.coq_backend import replay_trace
from prooforge.llm_gateway import HttpGateway
from prooforge.proof_search import Outcome, SearchParams, SearchPorts, prove

BASE_URL = os.environ.get("PROOFORGE_LIVE_BASE_URL", "")
MODEL = os.environ.get("PROOFORGE_LIVE_MODEL", "")

pytestmark = pytest.mark.skipif(
    not (BASE_URL and MODEL),
    reason="live smoke test: set PROOFORGE_LIVE_BASE_URL and PROOFORGE_LIVE_MODEL",
)


def test_one_theorem_against_the_live_endpoint():
    gateway = HttpGateway(base_url=BASE_URL, model=MODEL)
    params = SearchParams(max_depth=5, beam_width=1, max_retries=1)
    ports = SearchPorts(backend=worked_backend(), gateway=gateway)

    result = prove(ADD_0_L_SURFACE, params, ports)

    assert result.outcome in (Outcome.PROVED, Outcome.FAILURE, Outcome.BUDGET_EXHAUSTED)
    assert 0 <= result.tactic_evaluations_used <= params.budget
    assert 0 <= result.depth_reached <= params.max_depth
    if result.outcome is Outcome.PROVED:
        final = replay_trace(worked_backend(), ADD_0_L_SURFACE, (), result.trace)
        assert final.is_complete
