"""Concept clarity, configuration reports, and the success correlation.

Shows the clarity score on raw YES/NO logprob pairs, runs scripted clarity
probes for three configurations against the bundled corpus, prints the
report table, and correlates per-configuration clarity with proof success
rates the way the `report` command does.

Run from anywhere:  python3 demos/04_clarity_and_correlation.py
"""

import math
from pathlib import Path

from prooforge import (
    GoalState,
    InfoConfiguration,
    MockGateway,
    ProofState,
    ScriptRecord,
    TokenTable,
    YesNoLogprobs,
    clarity_score,
    format_report_table,
    load_entity_corpus,
    pearson_r,
    render_prove_prompt,
    render_state_context,
    run_configuration,
    sample_probes,
)
from prooforge.proof_search import concept_pairs

FIXTURES = Path(__file__).resolve().parents[1] / "tests" / "fixtures"


def scripted_judges(score: float) -> MockGateway:
    """A gateway whose generated definitions always judge back to `score`."""
    return MockGateway([
        ScriptRecord(
            reply="It adds two natural numbers by structural recursion.",
            route="probe", default=True,
        ),
        ScriptRecord(
            reply="YES", route="judge", default=True,
            yes_no=(math.log(score), math.log(1.0 - score)),
        ),
    ])


def main() -> None:
    print("clarity_score on raw logprob pairs:")
    for lpy, lpn in ((-0.1, -0.1), (-0.5, -1.5), (-4.0, -0.2)):
        score = clarity_score(YesNoLogprobs(lpy, lpn))
        print(f"  log P(YES)={lpy:+.1f}  log P(NO)={lpn:+.1f}  ->  {score:.4f}")
    print()

    table = TokenTable()
    corpus = load_entity_corpus(str(FIXTURES / "entities.jsonl"), table)
    by_name = {r.name: r for r in corpus.records}
    record = by_name["Coq.Arith.PeanoNat.Nat.add_0_l"]
    state = ProofState(
        goals=(GoalState((), (), "forall n:nat, 0 + n = n", record.internal),)
    )

    # Scripted judges: the model "understands" more as context grows.
    scripted_clarity = {
        InfoConfiguration.NO_CONTEXT: 0.45,
        InfoConfiguration.ORIGIN_ONLY: 0.60,
        InfoConfiguration.COMPLETE: 0.82,
    }
    concepts = concept_pairs(corpus, table, state)
    reports = []
    for config, target in scripted_clarity.items():
        bundle = render_prove_prompt(render_state_context(state, concepts, config))
        probes = sample_probes([bundle], per_bundle=2, seed=7)
        reports.append(
            run_configuration(config, probes, scripted_judges(target), corpus)
        )
    print(format_report_table(reports))
    print()

    # Correlating mean clarity with proof success per configuration.
    clarity = [r.mean_score for r in reports]
    success = [21.0, 38.0, 45.0]
    r = pearson_r(clarity, success)
    print(f"mean clarity    : {[f'{c:.3f}' for c in clarity]}")
    print(f"success rate (%): {success}")
    print(f"Pearson r (clarity vs success rate): {r:.2f}")


if __name__ == "__main__":
    main()
