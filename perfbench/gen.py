"""Seeded workload generator.

    python3 perfbench/gen.py --workload deep-small --seed 0 --out DIR [--scale full]

Writes, in prooforge's own formats, into DIR:

* ``entities.jsonl`` and ``proofs.jsonl`` -- ``#prooforge-corpus v1`` files;
  the proofs are built by replaying oracle tactics through SyntheticBackend,
  so ``load_proof_corpus`` accepts their chains;
* ``backend_spec.json`` -- lemmas, rewrites and internal forms, as the CLI's
  ``--backend-spec`` reads them;
* ``config.json`` -- a CLI run config carrying the search parameters;
* ``theorems.txt`` -- a CLI theorem list;
* ``scripts/t<N>.jsonl`` -- one routed MockGateway script per theorem, with
  one default reply per role; every reply text belongs to exactly one role;
* ``manifest.json`` -- the workload record (shape, why, latency) and, per
  theorem, its statement, script and expected outcome.

The same (workload, scale, seed) always gives byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

from workloads import SCALES, WORKLOADS, load_prooforge

CHAIN_LENGTH = 8          # lemmas per chain in the shared chain pool
_STEMS = (
    "sorted", "bounded", "even", "prime", "monotone", "finite", "dense",
    "closed", "linear", "stable", "acyclic", "total", "injective", "positive",
    "compact", "regular", "balanced", "reachable", "coprime", "minimal",
)
_AREAS = ("Logic", "Arith", "Lists", "Order", "Sets", "Graphs", "Sorting", "Relations")
_FILLER_KINDS = ("Definition", "Lemma", "Fixpoint", "Inductive", "Theorem", "Axiom")


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False)


class _Corpus:
    """Entities in generation order plus the short-name -> qualified map that
    internal forms are written with."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.lines: list[dict] = []
        self.qualified: dict[str, str] = {"nat": "Bench.Core.nat"}
        self.names: list[str] = []
        self._serial = 0

    def short(self, prefix: str) -> str:
        self._serial += 1
        return f"{prefix}{self._serial}"

    def module(self) -> str:
        return f"Bench.{self.rng.choice(_AREAS)}.M{self.rng.randrange(40)}"

    def deps(self, count: int = 2) -> list[str]:
        return sorted(self.rng.sample(self.names, min(count, len(self.names))))

    def add(self, short: str, kind: str, origin: str, internal: str, intuition: str,
            deps: list[str], module: str = "") -> str:
        module = module or self.module()
        name = f"{module}.{short}"
        obj = {
            "name": name,
            "kernel_name": name,
            "kind": kind,
            "origin": origin,
            "internal": internal,
            "intuition": intuition,
            "source_file": module.replace(".", "/") + ".v",
        }
        if deps:
            obj["dependencies"] = deps
        self.lines.append(obj)
        self.qualified[short] = name
        self.names.append(name)
        return name

    def internal(self, surface: str) -> str:
        """Surface text with every known short name qualified."""
        return " ".join(self.qualified.get(word, word) for word in surface.split(" "))

    def prop(self, prefix: str) -> str:
        """A unary predicate on nat, defined through one private support
        definition, so every atom brings the same number of concepts."""
        stem = self.rng.choice(_STEMS)
        support = self.short("s")
        support_name = self.add(
            support, "Definition",
            origin=f"Definition {support} (n : nat) : Prop := {stem} (S n)",
            internal=f"fun ( n : Bench.Core.nat ) => {stem} ( Bench.Core.S n )",
            intuition=f"The successor of n is {stem}.",
            deps=["Bench.Core.nat"],
        )
        short = self.short(prefix)
        self.add(
            short, "Definition",
            origin=f"Definition {short} (n : nat) : Prop := {support} n",
            internal=f"fun ( n : Bench.Core.nat ) => {support_name} n",
            intuition=f"The number n is {stem} in the sense of {short}; it unfolds to {support}.",
            deps=[support_name],
        )
        return short


def _build_corpus(rng: random.Random, size) -> dict:
    corpus = _Corpus(rng)
    corpus.add(
        "nat", "Inductive",
        origin="Inductive nat : Set := O : nat | S : nat -> nat",
        internal="nat : Set | Bench.Core.O : Bench.Core.nat | "
        "Bench.Core.S : Bench.Core.nat -> Bench.Core.nat",
        intuition="Unary natural numbers built from zero and successor.",
        deps=[], module="Bench.Core",
    )

    atoms = [corpus.prop("p") for _ in range(max(16, min(size.entities // 10, 200)))]

    chains = []     # each: ([atom_0 .. atom_7], [lemma_1 .. lemma_8])
    for _ in range(max(2, min(size.entities // 50, 30))):
        chain_atoms = [corpus.prop("q") for _ in range(CHAIN_LENGTH)]
        lemmas = []
        for i in range(CHAIN_LENGTH):
            short = corpus.short("step")
            goal = chain_atoms[i]
            premise = chain_atoms[i + 1] if i + 1 < CHAIN_LENGTH else None
            statement = f"forall n : nat, {premise} n -> {goal} n" if premise else f"forall n : nat, {goal} n"
            corpus.add(
                short, "Lemma",
                origin=f"Lemma {short} : {statement}",
                internal=corpus.internal(statement),
                intuition=f"Reduces {goal} to " + (f"{premise}." if premise else "nothing: it closes the chain."),
                deps=sorted({corpus.qualified[goal]} | ({corpus.qualified[premise]} if premise else set())),
            )
            lemmas.append((short, f"{goal} n", [f"{premise} n"] if premise else []))
        chains.append((chain_atoms, lemmas))

    rewrites = []   # (f, g, h): f (g n) simplifies to h n
    for _ in range(max(3, min(size.entities // 50, 100))):
        trio = []
        for role in ("f", "g", "h"):
            short = corpus.short(role)
            deps = ["Bench.Core.nat"]
            corpus.add(
                short, "Fixpoint",
                origin=f"Fixpoint {short} (n : nat) : nat := match n with 0 => 0 | S k => S ({short} k) end",
                internal=f"fix {short} ( n : Bench.Core.nat ) : Bench.Core.nat := match n with "
                f"| Bench.Core.O => Bench.Core.O | Bench.Core.S k => Bench.Core.S ( {short} k ) end",
                intuition=f"A structurally recursive map {short} on naturals.",
                deps=deps,
            )
            trio.append(short)
        rewrites.append(tuple(trio))

    while len(corpus.lines) < size.entities:
        kind = _FILLER_KINDS[len(corpus.lines) % len(_FILLER_KINDS)]
        short = corpus.short("x")
        deps = corpus.deps()
        uses = " ".join(f"( {d} n )" for d in deps)
        if kind == "Inductive":
            module = corpus.module()
            internal = (
                f"{short} : Set | {module}.{short}.mk : Bench.Core.nat -> {module}.{short} "
                f"| {module}.{short}.nil : {module}.{short}"
            )
            corpus.add(
                short, kind,
                origin=f"Inductive {short} : Set := mk : nat -> {short} | nil : {short}",
                internal=internal,
                intuition=f"A tagged container type {short} with two constructors.",
                deps=deps, module=module,
            )
            continue
        corpus.add(
            short, kind,
            origin=f"{kind} {short} : forall n : nat, {rng.choice(_STEMS)} n",
            internal=f"forall ( n : Bench.Core.nat ) , {uses}",
            intuition=f"A {kind.lower()} relating {len(deps)} earlier entities at every n.",
            deps=deps,
        )
    return {"corpus": corpus, "atoms": atoms, "chains": chains, "rewrites": rewrites}


# ----------------------------------------------------------------------
# Theorems
# ----------------------------------------------------------------------

def _conj(leaves: list[str]) -> str:
    return " /\\ ".join(f"{leaf} n" for leaf in leaves)


def _cycle(span: tuple[int, int]):
    """lo, lo+1, ..., hi, lo, ... forever."""
    lo, hi = span
    i = 0
    while True:
        yield lo + i % (hi - lo + 1)
        i += 1


def _family_order(workload, count: int) -> list[str]:
    """Families interleaved so that every prefix of the list holds close to
    the workload's mix (largest remainder first)."""
    order, given = [], {family: 0 for family, _share in workload.families}
    for i in range(count):
        family = max(workload.families, key=lambda fs: fs[1] * (i + 1) / 6 - given[fs[0]])[0]
        given[family] += 1
        order.append(family)
    return order


def _make_theorems(rng: random.Random, workload, count: int, pools: dict, spec: dict,
                   tag: str, swaps: bool = True) -> list[dict]:
    """Stratified theorem list.  The workload fixes everything that steers
    the search -- family order, sizes, chain head and swap positions, the
    order of proposed tactics -- so every seed costs the same; the seed picks
    the atoms, chains, hypothesis orders and texts."""
    corpus, atoms, chains, rewrite_pool = (
        pools["corpus"], pools["atoms"], pools["chains"], pools["rewrites"]
    )
    conj_k = _cycle(workload.conj_leaves)
    chain_k = _cycle(workload.chain_leaves)
    chain_c = _cycle(workload.chain_lemmas)
    swap_m = _cycle(workload.swaps)

    theorems = []
    for index, family in enumerate(_family_order(workload, count)):
        name = f"{tag}{index}"
        if family == "rewrite":
            f, g, h = rng.choice(rewrite_pool)
            body = f"{f} ( {g} n ) = {h} n"
            theorems.append(dict(
                name=name, family=family, expect="proved",
                statement=f"forall n:nat, {body}",
                texts=[body, f"{h} n = {h} n"],
                first=["intros"], tactics=["reflexivity", "simpl"],
                oracle=["intros", "simpl", "reflexivity"],
            ))
            continue

        if family == "conj":
            leaves = rng.sample(atoms, next(conj_k))
            head, chain_lemmas = None, []
        else:
            k = next(chain_k)
            c = next(chain_c)
            chain_atoms, lemmas = rng.choice(chains)
            start = CHAIN_LENGTH - c
            head = chain_atoms[start]
            chain_lemmas = [short for short, _goal, _premises in lemmas[start:]]
            leaves = rng.sample(atoms, k - 1)
            leaves.insert(index % k, head)
        hyps = [leaf for leaf in leaves if leaf != head]
        if not hyps:
            hyps = [rng.choice(atoms)]
        rng.shuffle(hyps)
        goal = _conj(leaves)
        statement = "forall n:nat, " + " -> ".join(f"{h} n" for h in hyps) + " -> " + goal
        texts = [" -> ".join(f"{h} n" for h in hyps) + " -> " + goal]
        texts += [_conj(leaves[i:]) for i in range(len(leaves))]

        applies = [f"apply {lemma}" for lemma in chain_lemmas]
        if family == "dead-chain":
            applies = applies[:-1]
        nodes = len(leaves) - 1
        m = min(next(swap_m), 8 - len(applies), nodes) if swaps else 0
        swapped = []
        for j in sorted({(2 * t + 1) * nodes // (2 * m) for t in range(m)} if m else ()):
            lemma = corpus.short("swap")
            spec["lemmas"][lemma] = {
                "conclusion": _conj(leaves[j:]),
                "premises": [_conj(leaves[j + 1:]), f"{leaves[j]} n"],
            }
            swapped.append(f"apply {lemma}")

        oracle = ["intros"]
        for i, leaf in enumerate(leaves):
            if i + 1 < len(leaves):
                oracle.append("split")
            oracle += [f"apply {lemma}" for lemma in chain_lemmas] if leaf == head else ["assumption"]
        theorems.append(dict(
            name=name, family=family,
            expect="unproved" if family == "dead-chain" else "proved",
            statement=statement, texts=texts,
            first=["intros"], tactics=["split"] + swapped + applies + ["assumption"],
            oracle=oracle,
        ))
    return theorems


# ----------------------------------------------------------------------
# Gateway scripts
# ----------------------------------------------------------------------

def _tactic_reply(name: str, tactics: list[str]) -> str:
    return _dump({"tactics": [
        {"tactic": t, "reason": f"{t} fits the shape of the focused goal of {name}"}
        for t in tactics
    ]})


def _script(rng: random.Random, theorem: dict, corpus: _Corpus, info: bool) -> list[dict]:
    name = theorem["name"]
    stem = rng.choice(_STEMS)
    planner = "\n".join([
        f"## Core Concepts\nThe goal of {name} is a statement about {stem} numbers; "
        "every hypothesis is a property of the same n.",
        "## Applicable Theorems\nThe chain lemmas and the swap lemmas listed in the "
        "context apply only when their conclusion matches the focused goal verbatim.",
        "## Proof Techniques\nIntroduce everything first, split conjunctions from the "
        "left, close atoms by assumption, and walk apply chains one lemma at a time.",
        "## Hypothesis-Goal Relationships\nEach atom of the conjunction appears among "
        "the hypotheses unless it heads an apply chain.",
        f"## Strategic Summary\nFor {name}: intros, then alternate split and "
        "assumption until the goal stack is empty.",
    ])
    records = [{"route": "planner", "default": True, "reply": planner}]
    if info:
        known = rng.choice(corpus.names).rsplit(".", 1)[-1]
        records.append({"route": "executor", "reply": _dump({"info": [known, f"unknown_{name}"]})})
    records.append({"route": "executor", "reply": _tactic_reply(name, theorem["first"])})
    records.append({"route": "executor", "default": True,
                    "reply": _tactic_reply(name, theorem["tactics"])})
    records.append({"route": "explain", "default": True,
                    "reply": f"In {name} the tactic removes one connective or one "
                    f"chain link from the focused goal, so fewer {stem} obligations remain."})
    score = rng.choice(("0.6", "0.7", "0.8"))
    records.append({"route": "summarize", "default": True,
                    "reply": f"Progress on {name}: the remaining goals are atoms or "
                    f"shorter conjunctions; expect a few more steps.\nscore: {score}"})
    records.append({"route": "notebook", "default": True,
                    "reply": _dump([f"{name}: split conjunctions before closing atoms",
                                    f"{name}: apply chain lemmas in order"])})
    records.append({"route": "rank", "default": True, "reply": _dump([0, 1, 2])})
    return records


# ----------------------------------------------------------------------
# Proof corpus by oracle replay
# ----------------------------------------------------------------------

def _library(pf, spec: dict, theorems: list[dict]) -> list[str]:
    from prooforge.corpus import encode_proof

    backend = pf.SyntheticBackend(
        rewrites=spec["rewrites"],
        lemmas={k: pf.Lemma(v["conclusion"], tuple(v["premises"])) for k, v in spec["lemmas"].items()},
        internal_forms=spec["internal_forms"],
    )
    lines = []
    for theorem in theorems:
        session = backend.start_session(theorem["statement"])
        steps = []
        for tactic in theorem["oracle"]:
            before = session.state
            result = backend.compile_tactic(tactic, before, session)
            if not result.success:
                raise RuntimeError(f"oracle step {tactic!r} fails on {theorem['statement']!r}")
            backend.apply_tactic(tactic, session)
            steps.append(pf.TacticStep(
                tactic=tactic, before=before, after=session.state,
                explanation=f"{tactic} advances {theorem['name']}",
            ))
        if session.state.goals:
            raise RuntimeError(f"oracle leaves goals open on {theorem['statement']!r}")
        lines.append(_dump(encode_proof(pf.InteractiveProof(theorem["name"], tuple(steps)))))
    return lines


def generate(workload_name: str, seed: int, out: Path, scale: str = "full") -> None:
    pf = load_prooforge()
    from prooforge.corpus import ENTITIES_HEADER, PROOFS_HEADER

    workload = WORKLOADS[workload_name]
    size = getattr(workload, scale)
    rng = random.Random(f"{workload_name}:{scale}:{seed}")
    pools = _build_corpus(rng, size)
    corpus = pools["corpus"]
    spec = {"lemmas": {}, "rewrites": {}, "internal_forms": {}}
    for _atoms, lemmas in pools["chains"]:
        for short, goal, premises in lemmas:
            spec["lemmas"][short] = {"conclusion": goal, "premises": premises}
    for f, g, h in pools["rewrites"]:
        spec["rewrites"][f"{f} ( {g} n )"] = f"{h} n"

    theorems = _make_theorems(rng, workload, size.theorems, pools, spec, tag="t")
    library = _make_theorems(rng, workload, size.library_proofs, pools, spec, tag="lib", swaps=False)
    for theorem in library:
        theorem["name"] = f"Bench.Lib.{theorem['name']}"
    for theorem in theorems + library:
        for text in theorem["texts"] + [theorem["statement"], "nat"]:
            spec["internal_forms"][text] = corpus.internal(text)
        for atom in theorem["statement"].split(" "):
            if atom in corpus.qualified:
                spec["internal_forms"][f"{atom} n"] = corpus.internal(f"{atom} n")
    for lemma in spec["lemmas"].values():
        for text in [lemma["conclusion"]] + lemma["premises"]:
            spec["internal_forms"][text] = corpus.internal(text)
    spec["required_modules"] = {}
    spec["auto_solved"] = []

    out.mkdir(parents=True, exist_ok=True)
    (out / "scripts").mkdir(exist_ok=True)
    (out / "entities.jsonl").write_text(
        "\n".join([ENTITIES_HEADER] + [_dump(o) for o in corpus.lines]) + "\n", encoding="utf-8")
    (out / "proofs.jsonl").write_text(
        "\n".join([PROOFS_HEADER] + _library(pf, spec, library)) + "\n", encoding="utf-8")
    (out / "backend_spec.json").write_text(json.dumps(spec, indent=1, sort_keys=True) + "\n",
                                           encoding="utf-8")
    params = pf.SearchParams(max_depth=workload.max_depth)
    params = pf.SearchParams(max_depth=workload.max_depth, budget=pf.compute_budget(params))
    config = {
        "backend": "synthetic", "backend_spec": "backend_spec.json",
        "gateway": "mock", "entities": "entities.jsonl", "proofs": "proofs.jsonl",
        "seed": 0, "retrieve_k": 5, "info_config": "Complete",
        "max_depth": params.max_depth, "beam_width": params.beam_width,
        "max_retries": params.max_retries, "tactics_per_state": params.tactics_per_state,
        "reconsider_factor": params.reconsider_factor, "budget": params.budget,
        "selection": params.selection_mode.value,
    }
    (out / "config.json").write_text(json.dumps(config, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
    (out / "theorems.txt").write_text(
        f"# {workload_name} seed {seed} scale {scale}\n"
        + "".join(t["statement"] + "\n" for t in theorems), encoding="utf-8")

    entries = []
    for theorem in theorems:
        records = _script(rng, theorem, corpus, workload.info_request)
        path = f"scripts/{theorem['name']}.jsonl"
        (out / path).write_text("".join(_dump(r) + "\n" for r in records), encoding="utf-8")
        entries.append({"statement": theorem["statement"], "script": path,
                        "expect": theorem["expect"], "family": theorem["family"]})
    manifest = {
        "workload": workload_name, "seed": seed, "scale": scale,
        "latency_ms": workload.latency_ms, "shape": workload.shape, "why": workload.why,
        "theorems": entries,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n",
                                       encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", default="full", choices=SCALES)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out, args.scale)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
