"""One beam-search run, fully scripted and reproducible.

Builds a synthetic backend that knows how to prove `forall n:nat, 0 + n = n`,
scripts the gateway's executor replies (everything else falls to route
defaults), and runs the planner/executor search. Prints the validation
budget, the event stream the recorder captured, and the final trace — then
replays that trace on a fresh session to show it stands on its own.

Run from anywhere:  python3 demos/03_proof_search.py
"""

import json

from prooforge import (
    Lemma,
    MockGateway,
    Outcome,
    ScriptRecord,
    SearchParams,
    SearchPorts,
    SyntheticBackend,
    prove,
    replay_trace,
)

THEOREM = "forall n:nat, 0 + n = n"


def build_backend() -> SyntheticBackend:
    return SyntheticBackend(
        rewrites={"0 + n": "n"},
        internal_forms={THEOREM: "forall ( n : nat ) , eq nat ( add O n ) n"},
        lemmas={"add_0_l": Lemma(THEOREM)},
    )


def build_gateway() -> MockGateway:
    def tactics(*names: str) -> str:
        return json.dumps(
            {"tactics": [{"tactic": t, "reason": "demo"} for t in names]}
        )

    return MockGateway([
        # The executor is scripted move by move; note the failing first try.
        ScriptRecord(reply=tactics("reflexivity"), route="executor"),
        ScriptRecord(reply=tactics("intros n"), route="executor"),
        ScriptRecord(reply=tactics("simpl"), route="executor"),
        ScriptRecord(reply=tactics("reflexivity"), route="executor"),
        # Route defaults for everything the loop asks along the way.
        ScriptRecord(reply="Introduce the variable, simplify, then close "
                           "by reflexivity.", route="planner", default=True),
        ScriptRecord(reply="The tactic advanced the goal.", route="explain",
                     default=True),
        ScriptRecord(reply="score: 0.6", route="summarize", default=True),
        ScriptRecord(reply='["simpl reduces 0 + n"]', route="notebook",
                     default=True),
    ])


def main() -> None:
    params = SearchParams(max_depth=5, beam_width=1, max_retries=1)
    print(f"params: depth {params.max_depth}, beam {params.beam_width}, "
          f"{params.tactics_per_state} tactics/state, "
          f"reconsider x{params.reconsider_factor}")
    print(f"validation budget: {params.budget} "
          f"(default-shape budget: {SearchParams().budget})\n")

    ports = SearchPorts(backend=build_backend(), gateway=build_gateway())
    result = prove(THEOREM, params, ports)

    print("recorded events:")
    for event in ports.recorder.events:
        summary = {k: v for k, v in event.items() if k != "event"}
        print(f"  {event['event']:14} {json.dumps(summary)[:78]}")

    print(f"\noutcome: {result.outcome.value}  "
          f"evaluations: {result.tactic_evaluations_used}  "
          f"depth: {result.depth_reached}")
    for i, (tactic, explanation) in enumerate(result.trace, 1):
        print(f"  {i}. {tactic:14} -- {explanation}")

    assert result.outcome is Outcome.PROVED
    final = replay_trace(build_backend(), THEOREM, (), result.trace)
    print(f"\nreplayed on a fresh session: complete = {final.is_complete}")


if __name__ == "__main__":
    main()
