"""What each context configuration shows the model.

Renders one proof state under all eleven configurations, prints the section
inclusion matrix, and dumps two renderings side by side so the difference is
visible: `NoContext` references concepts with bare semantic tokens, while
`Complete` spells out qualified names with all three definition
representations.

Run from anywhere:  python3 demos/02_prompt_configurations.py
"""

from pathlib import Path

from prooforge import (
    GoalState,
    InfoConfiguration,
    ProofState,
    TokenTable,
    load_entity_corpus,
    render_prove_prompt,
    render_state_context,
)

FIXTURES = Path(__file__).resolve().parents[1] / "tests" / "fixtures"

SECTION_ORDER = (
    "proof_state", "glob_def", "proof_tracing", "related_premises",
    "related_tactic", "public_notes", "hint", "available_actions",
)


def main() -> None:
    table = TokenTable()
    corpus = load_entity_corpus(str(FIXTURES / "entities.jsonl"), table)
    by_name = {r.name: (t, r) for t, r in zip(corpus.tokens, corpus.records)}

    record = by_name["Coq.Arith.PeanoNat.Nat.add_0_l"][1]
    state = ProofState(
        goals=(GoalState((), (), "forall n:nat, 0 + n = n", record.internal),)
    )
    concepts = [by_name["Coq.Init.Nat.add"], by_name["Coq.Init.Datatypes.nat"]]

    print("Section inclusion matrix (x = present):\n")
    width = max(len(c.value) for c in InfoConfiguration)
    header = " ".join(f"{s[:12]:>12}" for s in SECTION_ORDER)
    print(f"{'':{width}} {header}")
    for config in InfoConfiguration:
        bundle = render_prove_prompt(render_state_context(state, concepts, config))
        row = " ".join(
            f"{'x' if s in bundle.sections_present else '.':>12}"
            for s in SECTION_ORDER
        )
        print(f"{config.value:{width}} {row}")

    for config in (InfoConfiguration.NO_CONTEXT, InfoConfiguration.COMPLETE):
        bundle = render_prove_prompt(render_state_context(state, concepts, config))
        print(f"\n{'=' * 72}\n{config.value} ({len(bundle.rendered)} chars)"
              f"\n{'=' * 72}")
        print(bundle.rendered[:900])
        if len(bundle.rendered) > 900:
            print(f"... [{len(bundle.rendered) - 900} more chars]")


if __name__ == "__main__":
    main()
