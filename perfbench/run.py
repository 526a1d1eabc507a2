"""Offline proof-search benchmark.

    python3 perfbench/run.py --workload deep-small --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30          # every workload

For one workload it generates the inputs from the seed (in a child process,
excluded from every figure), sets up the corpora and the retrieval index
several times, then proves the theorem list back to back, pass after pass,
for ``--seconds``: a closed loop with one client and no threads.  Each
theorem gets a fresh SyntheticBackend and MockGateway, and shares the token
table, corpus and index, as ``prooforge bench`` does.  Every set-up phase
and every proof runs between two host-speed probes (``hostspeed.py``), and
the end-to-end timings are medians corrected to the host's full speed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` proves every
theorem twice, untraced and traced in alternating order, and prints the
per-layer metrics plus the tracing overhead.  Either way the outputs are
checked, and the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import hostspeed
import tracing
from workloads import ROOT, SCALES, WORKLOADS, load_prooforge

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
SETUP_MIN_REPS = 9        # set-up is repeated at least this often ...
SETUP_MIN_S = 2.0         # ... and for at least this long; the median counts

# name -> (unit, better, bound).  BENCHMARK.json lists the same metrics.
END_TO_END = {
    "theorems_per_s": ("1/s", "higher", 0.25),
    "proof_wall_p50_ms": ("ms", "lower", 0.25),
    "proof_wall_p90_ms": ("ms", "lower", 0.25),
    "proved_rate": ("ratio", "higher", 0.05),
    "gateway_calls_per_theorem": ("count", "lower", 0.05),
    "prompt_kchars_per_theorem": ("kchar", "lower", 0.05),
    "validations_per_theorem": ("count", "lower", 0.05),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

# name -> (unit, better), from the traced run.
PER_LAYER = {
    "proof_search.expansions_per_theorem": ("count", "lower"),
    "proof_search.self_ms_per_theorem": ("ms", "lower"),
    "proof_search.select_best.us_per_call": ("us", "lower"),
    "proof_search.update_notebook.us_per_call": ("us", "lower"),
    "proof_search.gateway_inflight_max": ("count", "higher"),
    "coq_backend.compile_tactic.calls_per_theorem": ("count", "lower"),
    "coq_backend.compile_tactic.us_per_call": ("us", "lower"),
    "coq_backend.compile_tactic.ok_ratio": ("ratio", "higher"),
    "coq_backend.apply_tactic.calls_per_theorem": ("count", "lower"),
    "coq_backend.apply_tactic.us_per_call": ("us", "lower"),
    "coq_backend.clone_session.calls_per_theorem": ("count", "lower"),
    "coq_backend.clone_session.us_per_call": ("us", "lower"),
    "coq_backend.clone_session.mean_transcript_len": ("count", "lower"),
    "coq_backend.share": ("ratio", "lower"),
    "retrieval.retrieve.calls_per_theorem": ("count", "lower"),
    "retrieval.retrieve.ms_per_call": ("ms", "lower"),
    "retrieval.share": ("ratio", "lower"),
    "retrieval.embeds_per_expansion": ("count", "lower"),
    "retrieval.build_index_s": ("s", "lower"),
    "corpus.load_entity_corpus_s": ("s", "lower"),
    "corpus.load_proof_corpus_s": ("s", "lower"),
    "tokenizer.vocab_tokens": ("count", "lower"),
    "corpus.concept_pairs.us_per_call": ("us", "lower"),
    "corpus.info_requests_per_theorem": ("count", "lower"),
    **{f"prompt_builder.render.{role}.us_per_call": ("us", "lower") for role in tracing.RENDER_ROLES},
    "prompt_builder.share": ("ratio", "lower"),
    **{f"llm_gateway.calls_per_theorem.{role}": ("count", "lower") for role in tracing.ROLES},
    **{f"llm_gateway.prompt_kchars_per_theorem.{role}": ("kchar", "lower") for role in tracing.ROLES},
    "llm_gateway.wait_share": ("ratio", "lower"),
    "llm_gateway.overhead_us_per_call": ("us", "lower"),
    "llm_gateway.parse_action_response.us_per_call": ("us", "lower"),
    "llm_gateway.failed_calls_per_theorem": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


@dataclasses.dataclass
class Theorem:
    statement: str
    script: str
    expect: str
    roles: dict          # reply text -> role, from the script


@dataclasses.dataclass
class Attempt:
    theorem: int
    wall_s: float
    key: tuple           # (outcome, tactics, evaluations, depth) or ("error", type)
    trace: tuple         # the proved (tactic, explanation) trace
    evaluations: int
    calls: Counter       # per role
    chars: Counter       # per role
    mock_calls: int
    failed_calls: int
    inflight_max: int
    waited_s: float      # injected latency actually slept
    error: str = ""
    timing: hostspeed.Timing | None = None


class Env:
    """Everything loaded once per run: generated files and shared ports."""

    def __init__(self, pf, work: Path):
        self.pf = pf
        self.work = work
        self.manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
        self.config = json.loads((work / "config.json").read_text(encoding="utf-8"))
        spec = json.loads((work / self.config["backend_spec"]).read_text(encoding="utf-8"))
        self.spec = dict(
            rewrites=spec.get("rewrites", {}),
            lemmas={k: pf.Lemma(v["conclusion"], tuple(v.get("premises", ())))
                    for k, v in spec.get("lemmas", {}).items()},
            required_modules=spec.get("required_modules", {}),
            internal_forms=spec.get("internal_forms", {}),
            auto_solved=spec.get("auto_solved", ()),
        )
        cfg = self.config
        self.params = pf.SearchParams(
            max_depth=cfg["max_depth"], beam_width=cfg["beam_width"],
            max_retries=cfg["max_retries"], tactics_per_state=cfg["tactics_per_state"],
            reconsider_factor=cfg["reconsider_factor"], budget=cfg["budget"],
            selection_mode=pf.SelectionMode(cfg["selection"]),
        )
        self.info_config = pf.InfoConfiguration.parse(cfg["info_config"])
        self.latency_s = self.manifest["latency_ms"] / 1000.0
        listed = [line.strip() for line in
                  (work / "theorems.txt").read_text(encoding="utf-8").splitlines()
                  if line.strip() and not line.startswith("#")]
        self.theorems = []
        for entry, statement in zip(self.manifest["theorems"], listed, strict=True):
            if entry["statement"] != statement:
                raise SystemExit("perfbench: theorems.txt and manifest.json disagree")
            roles = {}
            script = work / entry["script"]
            for line in script.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                if roles.setdefault(record["reply"], record["route"]) != record["route"]:
                    raise SystemExit(f"perfbench: {script.name} shares a reply between roles")
            self.theorems.append(Theorem(statement, str(script), entry["expect"], roles))
        self.phases: dict[str, list[float]] = {}
        self.setup: list[tuple] = []      # per set-up: one Timing per phase
        self.speed = hostspeed.HostSpeed()

    def set_up(self) -> None:
        """What a user pays before the first proof: load both corpora and
        embed every premise and tactic example, as ``prooforge prove`` does.
        Each phase is timed between its own host-speed probes."""
        pf, cfg, work = self.pf, self.config, self.work
        self.table = self.corpus = self.index = None
        table = pf.TokenTable()
        corpus, entities = self.speed.time(pf.load_entity_corpus, str(work / cfg["entities"]), table)
        proofs, proof_corpus = self.speed.time(pf.load_proof_corpus, str(work / cfg["proofs"]))
        index, indexing = self.speed.time(self._index, corpus, proofs)
        self.table, self.corpus, self.index = table, corpus, index
        self.setup.append((entities, proof_corpus, indexing))
        for phase, timing in (("corpus.load_entity_corpus_s", entities),
                              ("corpus.load_proof_corpus_s", proof_corpus),
                              ("retrieval.build_index_s", indexing)):
            self.phases.setdefault(phase, []).append(timing.wall_s)

    def _index(self, corpus, proofs):
        premises = [(record.name, record.internal) for record in corpus.records]
        tactic_examples = []
        for proof in proofs.proofs:
            for step in proof.steps:
                goal = step.before.goals[0].goal_internal if step.before.goals else ""
                tactic_examples.append((step.tactic, goal))
        provider = self.pf.MockEmbeddingProvider(seed=self.config["seed"])
        return self.pf.build_index(provider, premises, tactic_examples)

    def prove(self, number: int, tracer=None) -> Attempt:
        """One theorem, start to finish, with fresh per-theorem ports,
        timed between two host-speed probes."""
        (result, error, gateway, mock), timing = self.speed.time(self._attempt, number, tracer)
        if result is None:
            key, trace, evaluations = ("error", error), (), 0
        else:
            trace = result.trace
            evaluations = result.tactic_evaluations_used
            key = (result.outcome.value, tuple(t for t, _e in trace), evaluations, result.depth_reached)
        return Attempt(number, timing.wall_s, key, trace, evaluations, gateway.calls, gateway.chars,
                       len(mock.calls), gateway.failed, gateway.inflight_max, gateway.waited, error,
                       timing)

    def _attempt(self, number: int, tracer) -> tuple:
        pf = self.pf
        theorem = self.theorems[number]
        backend = pf.SyntheticBackend(**self.spec)
        mock = pf.MockGateway.from_file(theorem.script)
        index = self.index
        if tracer is not None:
            tracer.theorem = number
            backend = tracing.TracedBackend(backend, tracer)
            index = dataclasses.replace(index, provider=tracing.TracedProvider(index.provider, tracer))
        gateway = tracing.BenchGateway(mock, self.latency_s, theorem.roles, tracer)
        ports = pf.SearchPorts(
            backend=backend, gateway=gateway, index=index, corpus=self.corpus,
            table=self.table, config=self.info_config, requires=(),
            retrieve_k=self.config["retrieve_k"], recorder=pf.RunRecorder(),
        )
        error = ""
        try:
            if tracer is None:
                result = pf.prove(theorem.statement, self.params, ports)
            else:
                result = tracer.call("prove", pf.prove, theorem.statement, self.params, ports)
        except Exception as exc:   # every failure counts against error_rate
            result, error = None, type(exc).__name__
        return result, error, gateway, mock


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------

def digest(env: Env, first: dict) -> str:
    hasher = hashlib.sha256()
    for number in range(len(env.theorems)):
        line = [env.theorems[number].statement, *first[number].key]
        hasher.update((json.dumps(line, sort_keys=True) + "\n").encode("utf-8"))
    return hasher.hexdigest()


def check(env: Env, attempts: list, seed: int, scale: str, record: bool) -> tuple[list, str]:
    """Returns (failures, digest).  Every Proved trace must replay to an
    empty goal state on a fresh backend, no run may overdraw its budget,
    per-role call counts must sum to the gateway's total, every repeat of a
    theorem must give its first result, every theorem must end as its
    generator expects, and the default seed must reproduce the recorded
    digest."""
    pf = env.pf
    failures = []
    first: dict[int, Attempt] = {}
    for attempt in attempts:
        first.setdefault(attempt.theorem, attempt)
        theorem = env.theorems[attempt.theorem]
        if attempt.evaluations > env.params.budget:
            failures.append(f"budget overdrawn on theorem {attempt.theorem}")
        if sum(attempt.calls.values()) != attempt.mock_calls or attempt.calls.get("unknown"):
            failures.append(f"per-role calls do not sum to the total on theorem {attempt.theorem}")
        base = first[attempt.theorem]
        if (attempt.key, attempt.calls, attempt.chars) != (base.key, base.calls, base.chars):
            failures.append(f"theorem {attempt.theorem} gave a different result on a repeat")
        proved = attempt.key[0] == pf.Outcome.PROVED.value
        if proved != (theorem.expect == "proved") or attempt.error:
            failures.append(f"theorem {attempt.theorem} ended {attempt.key[0]}, expected {theorem.expect}")
    if len(first) != len(env.theorems):
        failures.append("the first pass did not complete")
        return failures, ""
    for number, attempt in sorted(first.items()):
        if attempt.key[0] != pf.Outcome.PROVED.value:
            continue
        try:
            state = pf.replay_trace(pf.SyntheticBackend(**env.spec), env.theorems[number].statement,
                                    (), attempt.trace)
        except pf.ProoforgeError as exc:
            failures.append(f"proved trace of theorem {number} does not replay: {exc}")
            continue
        if state.goals:
            failures.append(f"proved trace of theorem {number} leaves goals open")
    value = digest(env, first)
    if seed == DEFAULT_SEED:
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
        key = f"{env.manifest['workload']}/{scale}"
        if record:
            recorded[key] = value
            DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        elif recorded.get(key) != value:
            failures.append(f"digest {value} differs from the recorded {recorded.get(key)}")
    return failures, value


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def _percentile(values: list, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when nothing was counted."""
    return num / den if den else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def theorem_walls(env: Env, attempts: list, correct: bool = True) -> list:
    """Each theorem's median wall over its repeats in the run, corrected to
    the host's full speed (see hostspeed.py) unless ``correct`` is false."""
    fastest = env.speed.fastest()
    walls: dict[int, list] = {}
    for a in attempts:
        wall = hostspeed.corrected(a.timing, fastest) if correct else a.wall_s
        walls.setdefault(a.theorem, []).append(wall)
    return [statistics.median(w) for _n, w in sorted(walls.items())]


def setup_seconds(env: Env, correct: bool = True) -> float:
    fastest = env.speed.fastest()
    return statistics.median(sum(hostspeed.corrected(t, fastest) if correct else t.wall_s
                                 for t in phases)
                             for phases in env.setup)


def end_to_end(env: Env, attempts: list) -> dict:
    """Timings are host-corrected medians: each theorem's median wall over
    its repeats, with the CPU part scaled to the host's full speed.  The
    percentiles run over the workload's whole theorem list.  Counts come
    from the first attempt of each theorem, since every repeat is checked to
    give the same result."""
    first: dict[int, Attempt] = {}
    for a in attempts:
        first.setdefault(a.theorem, a)
    walls = theorem_walls(env, attempts)
    walls_ms = [wall * 1000.0 for wall in walls]
    n = len(first)
    proved = sum(1 for a in first.values() if a.key[0] == env.pf.Outcome.PROVED.value)
    return {
        "theorems_per_s": n / sum(walls),
        "proof_wall_p50_ms": _percentile(walls_ms, 50),
        "proof_wall_p90_ms": _percentile(walls_ms, 90),
        "proved_rate": proved / n,
        "gateway_calls_per_theorem": sum(a.mock_calls for a in first.values()) / n,
        "prompt_kchars_per_theorem": sum(sum(a.chars.values()) for a in first.values()) / n / 1000.0,
        "validations_per_theorem": sum(a.evaluations for a in first.values()) / n,
        "setup_s": setup_seconds(env),
        "peak_rss_mb": _peak_rss_mb(),
    }


def per_layer(env: Env, tracer, traced: list, untraced_s: float, traced_s: float) -> dict:
    calls, total, self_time = tracer.totals()
    counts = tracer.counts
    n = len(traced)
    prove_s = total["prove"]
    expansions = calls["corpus.concept_pairs"]

    def per_call(name, scale, times=total):
        return _ratio(times[name], calls[name]) * scale

    out = {
        "proof_search.expansions_per_theorem": expansions / n,
        "proof_search.self_ms_per_theorem": self_time["prove"] / n * 1e3,
        "proof_search.select_best.us_per_call": per_call("proof_search.select_best", 1e6, self_time),
        "proof_search.update_notebook.us_per_call": per_call("proof_search.update_notebook", 1e6, self_time),
        "proof_search.gateway_inflight_max": max(a.inflight_max for a in traced),
    }
    for method in ("compile_tactic", "apply_tactic", "clone_session"):
        name = f"coq_backend.{method}"
        out[f"{name}.calls_per_theorem"] = calls[name] / n
        out[f"{name}.us_per_call"] = per_call(name, 1e6)
    out["coq_backend.compile_tactic.ok_ratio"] = _ratio(
        counts["coq_backend.compile_tactic.ok"], calls["coq_backend.compile_tactic"])
    out["coq_backend.clone_session.mean_transcript_len"] = _ratio(
        counts["coq_backend.clone_session.transcript"], calls["coq_backend.clone_session"])
    out["coq_backend.share"] = sum(t for k, t in total.items() if k.startswith("coq_backend.")) / prove_s
    out["retrieval.retrieve.calls_per_theorem"] = calls["retrieval.retrieve"] / n
    out["retrieval.retrieve.ms_per_call"] = per_call("retrieval.retrieve", 1e3)
    out["retrieval.share"] = total["retrieval.retrieve"] / prove_s
    out["retrieval.embeds_per_expansion"] = _ratio(counts["retrieval.embeds"], expansions)
    for phase in ("retrieval.build_index_s", "corpus.load_entity_corpus_s", "corpus.load_proof_corpus_s"):
        out[phase] = statistics.median(env.phases[phase])
    out["tokenizer.vocab_tokens"] = len(env.table)
    out["corpus.concept_pairs.us_per_call"] = per_call("corpus.concept_pairs", 1e6)
    out["corpus.info_requests_per_theorem"] = counts["corpus.info_requests"] / n
    for role in tracing.RENDER_ROLES:
        out[f"prompt_builder.render.{role}.us_per_call"] = per_call(f"prompt_builder.render.{role}", 1e6)
    out["prompt_builder.share"] = sum(
        t for k, t in total.items() if k.startswith("prompt_builder.")) / prove_s
    role_calls, role_chars = Counter(), Counter()
    for attempt in traced:
        role_calls.update(attempt.calls)
        role_chars.update(attempt.chars)
    for role in tracing.ROLES:
        out[f"llm_gateway.calls_per_theorem.{role}"] = role_calls[role] / n
        out[f"llm_gateway.prompt_kchars_per_theorem.{role}"] = role_chars[role] / n / 1000.0
    gateway_s = total["llm_gateway.complete"]
    waited = sum(a.waited_s for a in traced)
    out["llm_gateway.wait_share"] = gateway_s / prove_s
    out["llm_gateway.overhead_us_per_call"] = _ratio(gateway_s - waited, calls["llm_gateway.complete"]) * 1e6
    out["llm_gateway.parse_action_response.us_per_call"] = per_call("llm_gateway.parse_action_response", 1e6)
    out["llm_gateway.failed_calls_per_theorem"] = sum(a.failed_calls for a in traced) / n
    out["trace.overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0
    return out


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------

def _generate(workload: str, seed: int, scale: str, work: Path) -> None:
    subprocess.run(
        [sys.executable, str(HERE / "gen.py"), "--workload", workload, "--seed", str(seed),
         "--scale", scale, "--out", str(work)],
        check=True, stdout=subprocess.DEVNULL, timeout=170,
    )


def _loop(env: Env, seconds: float, step) -> tuple[list, float]:
    """Theorems back to back, pass after pass, until `seconds` have passed
    and at least one full pass is done."""
    attempts = []
    start = time.perf_counter()
    count = len(env.theorems)
    i = 0
    while i < count or time.perf_counter() - start < seconds:
        attempts.extend(step(i % count, i))
        i += 1
    return attempts, time.perf_counter() - start


def run_workload(args) -> tuple[dict, list]:
    pf = load_prooforge()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.scale}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        _generate(args.workload, args.seed, args.scale, work)
        env = Env(pf, work)
        return _measure(pf, env, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(pf, env: Env, args) -> tuple[dict, list]:
    lines = []
    if args.trace:
        tracing.check_wrappable(pf.proof_search, pf.SyntheticBackend, pf.MockGateway,
                                pf.MockEmbeddingProvider)
    started = time.perf_counter()
    while len(env.setup) < SETUP_MIN_REPS or time.perf_counter() - started < SETUP_MIN_S:
        gc.collect()
        env.set_up()
    gc.collect()

    if not args.trace:
        attempts, loop_s = _loop(env, args.seconds, lambda number, _i: [env.prove(number)])
        failures, value = check(env, attempts, args.seed, args.scale, args.record)
        metrics = end_to_end(env, attempts)
        n, distinct = len(attempts), len(env.theorems)
        repeats = min(Counter(a.theorem for a in attempts).values())
        lines.append(f"{args.workload} seed {args.seed} scale {args.scale}: {n} theorems "
                     f"attempted in {loop_s:.2f} s, each of {distinct} theorems at least "
                     f"{repeats} times; set-up measured {len(env.setup)} times")
        raw = theorem_walls(env, attempts, correct=False)
        lines.append(f"  host: {len(env.speed.samples)} probes, fastest "
                     f"{env.speed.fastest() * 1e3:.3f} ms, median probe "
                     f"{env.speed.slowdown():.2f}x the fastest; uncorrected: theorems_per_s "
                     f"{len(raw) / sum(raw):.4f}, p50 {_percentile(raw, 50) * 1e3:.4f} ms, "
                     f"setup_s {setup_seconds(env, correct=False):.4f}")
        timing = f"{n} attempts: {distinct} theorems at their median of >={repeats}"
        samples = {
            "theorems_per_s": timing, "proof_wall_p50_ms": timing, "proof_wall_p90_ms": timing,
            "setup_s": f"median of {len(env.setup)}", "peak_rss_mb": "1",
        }
        for name, (unit, _better, _bound) in END_TO_END.items():
            lines.append(f"  {name:<28} {metrics[name]:>12.4f} {unit:<6} "
                         f"(n={samples.get(name, f'{distinct} theorems')})")
        failed = sum(1 for a in attempts if a.error)
        lines.append(f"  {'error_rate':<28} {failed / n:>12.4f} {'ratio':<6} (n={n}; "
                     "also given as failed/attempted)")
    else:
        tracer = tracing.Tracer()
        untraced_s = traced_s = 0.0
        traced = []

        def paired(number, i):
            nonlocal untraced_s, traced_s
            order = (False, True) if i % 2 == 0 else (True, False)
            pair = []
            for traced_run in order:
                if traced_run:
                    with tracing.Patched(pf.proof_search, tracer, pf.InfoRequest):
                        attempt = env.prove(number, tracer)
                    traced_s += attempt.wall_s
                    traced.append(attempt)
                else:
                    attempt = env.prove(number)
                    untraced_s += attempt.wall_s
                pair.append(attempt)
            return pair

        attempts, loop_s = _loop(env, args.seconds, paired)
        failures, value = check(env, attempts, args.seed, args.scale, args.record)
        metrics = per_layer(env, tracer, traced, untraced_s, traced_s)
        attempts = traced
        lines.append(f"{args.workload} seed {args.seed} scale {args.scale}: {len(traced)} traced "
                     f"theorems, each paired with an untraced run, in {loop_s:.2f} s")
        for name, (unit, _better) in PER_LAYER.items():
            lines.append(f"  {name:<52} {metrics[name]:>14.4f} {unit}")
    units = PER_LAYER if args.trace else END_TO_END
    if set(metrics) != set(units):
        failures.append("the run measured other metrics than it declares")
    status = "all checks passed" if not failures else "CHECKS FAILED: " + "; ".join(failures[:5])
    lines.append(f"  digest {value or '-'}; {status}")
    result = {
        "correct": not failures,
        "attempted": len(attempts),
        "failed": sum(1 for a in attempts if a.error),
        "metrics": {name: {"value": value, "unit": units[name][0]} for name, value in metrics.items()},
    }
    return result, lines



def _run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    combined, correct = {}, True
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]), flush=True)
        result = json.loads(out[-1]) if out else {"correct": False}
        combined[name] = result
        correct = correct and proc.returncode == 0 and result.get("correct", False)
    print(json.dumps({"correct": correct, "workloads": combined}, sort_keys=True))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="full", choices=SCALES)
    parser.add_argument("--record", action="store_true",
                        help="store this run's digest as the recorded one (default seed only)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    result, lines = run_workload(args)
    print("\n".join(lines))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
