"""Operator command line.

Subcommands: `ingest` (load + validate corpora, emit the vocabulary),
`vocab` (build or inspect vocabularies), `prove` (one theorem), `bench`
(a theorem list with per-theorem isolation), `clarity` (per-configuration
probe runs), `report` (run-log aggregation and the clarity/success
correlation), and `dump-prompt` (render a prompt for inspection).

Exit codes: 0 success, 1 domain-level negative result (unproved theorem,
incomplete clarity run), 2 usage/format/port errors.

Every output is deterministic for fixed inputs and seed: run logs and
manifests carry no timestamps and serialize with sorted keys. Credentials
are taken from environment variables only — config files name the variable
(`api_key_env`), never the secret itself.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import glob
import hashlib
import json
import os
import shutil
import sys
from typing import Optional, Sequence

from . import __version__
from .clarity_eval import (
    DEFAULT_PROBES_PER_BUNDLE,
    format_report_rows,
    format_report_table,
    parse_report_rows,
    pearson_r,
    run_configuration,
    sample_probes,
)
from .coq_backend import Lemma, SubprocessBackend, SyntheticBackend, truncate_error
from .corpus import load_entity_corpus, load_proof_corpus
from .errors import (
    DegenerateSeries,
    FormatError,
    PortFailure,
    ProoforgeError,
    SessionDesync,
)
from .llm_gateway import DEFAULT_API_KEY_ENV, HttpGateway, MockGateway
from .prompt_builder import InfoConfiguration, render_prove_prompt, render_state_context
from .proof_search import (
    Outcome,
    RunRecorder,
    SearchParams,
    SearchPorts,
    SelectionMode,
    concept_pairs,
    prove,
)
from .retrieval import HttpEmbeddingProvider, MockEmbeddingProvider, build_index
from .tokenizer import TokenTable, coverage_report, load_vocabulary, save_vocabulary

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

_FORBIDDEN_CONFIG_KEYS = {"api_key", "apikey", "token", "secret", "password"}

# The search-shape config keys, each named after its SearchParams field.
_SHAPE_KEYS = ("max_depth", "beam_width", "max_retries", "tactics_per_state", "reconsider_factor", "budget")

# Every default the library owns is read from it; the rest belong to the CLI.
_DEFAULTS = {
    "backend": "synthetic",
    "backend_spec": "",
    "executable": "",
    "gateway": "mock",
    "gateway_script": "",
    "base_url": "",
    "model": "",
    "api_key_env": DEFAULT_API_KEY_ENV,
    "embed_url": "",
    "embed_model": "",
    "entities": "",
    "proofs": "",
    "vocab": "",
    "seed": 0,
    "out": "runs",
    "retrieve_k": SearchPorts.retrieve_k,
    **{key: getattr(SearchParams, key) for key in _SHAPE_KEYS},
    "selection": SearchParams.selection_mode.value,
    "info_config": SearchPorts.config.value,
    "require": [],
    "jobs": 1,
    "per_bundle": DEFAULT_PROBES_PER_BUNDLE,
    "unjudgeable_half": False,
    "configs": "all",
}


_TYPE_NAMES = {int: "an integer", str: "a string", bool: "true or false"}


def _scan_forbidden(obj, path="") -> Optional[str]:
    if isinstance(obj, dict):
        for key, value in obj.items():
            where = f"{path}.{key}" if path else key
            if key.lower().replace("-", "_") in _FORBIDDEN_CONFIG_KEYS:
                return where
            found = _scan_forbidden(value, where)
            if found:
                return found
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            found = _scan_forbidden(value, f"{path}[{i}]")
            if found:
                return found
    return None


def load_run_config(path: str) -> dict:
    """Read a JSON config file; reject any key that looks like a stored
    credential — secrets belong in environment variables — any unknown key,
    and any value not of its key's type (ValueError naming the key)."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    offending = _scan_forbidden(obj)
    if offending is not None:
        raise ValueError(
            f"config file {path} stores a credential under {offending!r}; "
            "credentials must come from environment variables only"
        )
    unknown = set(obj) - set(_DEFAULTS)
    if unknown:
        raise ValueError(
            f"config file {path} has unknown keys: {', '.join(sorted(unknown))}"
        )
    for key, value in obj.items():
        # Each value has its default's type: an integer is no bool or float.
        if key == "budget":
            ok, what = value is None or type(value) is int, "an integer or null"
        elif key == "require":
            ok = type(value) is list and all(type(module) is str for module in value)
            what = "a list of strings"
        else:
            kind = type(_DEFAULTS[key])
            ok, what = type(value) is kind, _TYPE_NAMES[kind]
        if not ok:
            raise ValueError(f"config file {path}: {key} must be {what}")
    return obj


def _merged(args: argparse.Namespace) -> dict:
    """Effective settings: defaults <- config file <- explicit flags."""
    merged = dict(_DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        merged.update(load_run_config(config_path))
    for key in _DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


# ---------------------------------------------------------------------------
# Port construction
# ---------------------------------------------------------------------------

def _load_backend_spec(path: str) -> dict:
    """SyntheticBackend arguments from a JSON spec; a malformed spec raises
    ValueError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
            lemmas = {
                name: Lemma(body["conclusion"], tuple(body.get("premises", ())))
                for name, body in obj.get("lemmas", {}).items()
            }
            return dict(
                rewrites=dict(obj.get("rewrites", {})),
                lemmas=lemmas,
                required_modules=dict(obj.get("required_modules", {})),
                internal_forms=dict(obj.get("internal_forms", {})),
                auto_solved=tuple(obj.get("auto_solved", ())),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"backend spec {path} is malformed: {type(exc).__name__}: {exc}"
            ) from None


def _synthetic_spec(cfg: dict) -> dict:
    """SyntheticBackend arguments: the parsed `--backend-spec`, or none."""
    return _load_backend_spec(cfg["backend_spec"]) if cfg["backend_spec"] else {}


def _build_backend(cfg: dict, run: str, spec: Optional[dict] = None):
    """A fresh configured backend. A subprocess backend writes its session
    logs to the run's own `sessions-<run>` directory under `--out`, emptied
    of any earlier run's logs: `run` is the `_run_digest` of a proved
    statement, or the subcommand for `clarity` and `dump-prompt`. A
    synthetic backend is built from `spec`, the `_synthetic_spec` a caller
    parsed once for many runs, or else from a fresh parse."""
    if cfg["backend"] == "subprocess":
        if not cfg["executable"]:
            raise ValueError("the subprocess backend requires --executable")
        log_dir = os.path.join(cfg["out"], f"sessions-{run}")
        shutil.rmtree(log_dir, ignore_errors=True)
        return SubprocessBackend(cfg["executable"], log_dir=log_dir)
    return SyntheticBackend(**(_synthetic_spec(cfg) if spec is None else spec))


def _build_gateway(cfg: dict):
    if cfg["gateway"] == "mock":
        if not cfg["gateway_script"]:
            raise ValueError("the mock gateway requires --gateway-script")
        return MockGateway.from_file(cfg["gateway_script"])
    if not cfg["base_url"] or not cfg["model"]:
        raise ValueError("the http gateway requires --base-url and --model")
    return HttpGateway(
        base_url=cfg["base_url"], model=cfg["model"], api_key_env=cfg["api_key_env"]
    )


def _load_corpora(cfg: dict):
    table = load_vocabulary(cfg["vocab"]) if cfg["vocab"] else TokenTable()
    corpus = load_entity_corpus(cfg["entities"], table) if cfg["entities"] else None
    proofs = load_proof_corpus(cfg["proofs"]) if cfg["proofs"] else None
    return table, corpus, proofs


def _build_index(cfg: dict, corpus, proofs):
    if corpus is None:
        return None
    if cfg["embed_url"]:
        provider = HttpEmbeddingProvider(
            base_url=cfg["embed_url"],
            model=cfg["embed_model"] or "embedding",
            api_key_env=cfg["api_key_env"],
        )
    else:
        provider = MockEmbeddingProvider(seed=cfg["seed"])
    premises = [(record.name, record.internal) for record in corpus.records]
    tactic_examples = []
    if proofs is not None:
        for proof in proofs.proofs:
            for step in proof.steps:
                goal = step.before.goals[0].goal_internal if step.before.goals else ""
                tactic_examples.append((step.tactic, goal))
    return build_index(provider, premises, tactic_examples)


def _params(cfg: dict) -> SearchParams:
    """Search parameters; with no budget set, the budget is the one the
    search shape allows (`compute_budget`)."""
    return SearchParams(
        **{key: cfg[key] for key in _SHAPE_KEYS},
        selection_mode=SelectionMode(cfg["selection"]),
    )


def _params_dict(params: SearchParams) -> dict:
    fields = dataclasses.asdict(params)
    fields["selection"] = fields.pop("selection_mode").value
    return fields


def _initial_state(backend, statement: str, cfg: dict):
    """The state `statement` opens at: start a session, read its state and
    close it. A theorem that does not compile is a ValueError."""
    try:
        session = backend.start_session(statement, tuple(cfg["require"]))
    except SessionDesync as exc:
        raise ValueError(f"theorem does not compile: {truncate_error(str(exc))}") from None
    backend.close_session(session)
    return session.state


def _resolve_theorem(name_or_statement: str, proofs) -> str:
    """A known proof-corpus theorem name resolves to its initial goal text;
    anything else is taken as the statement itself."""
    if proofs is not None:
        index = proofs.by_theorem.get(name_or_statement)
        if index is not None and proofs.proofs[index].steps:
            before = proofs.proofs[index].steps[0].before
            if before.goals:
                return before.goals[0].goal_surface
    return name_or_statement


def _write_json(path: str, obj) -> None:
    """Write `obj` as UTF-8 JSON. A lone surrogate, which a reply's JSON
    ``\\ud83d`` escape can carry and UTF-8 cannot encode, is written as that
    escape again; it can only stand inside a JSON string, so the file loads
    back to the same text."""
    text = json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    _write_text(path, text, errors="backslashreplace")


def _write_text(path: str, text: str, errors: str = "strict") -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", errors=errors) as fh:
        fh.write(text)


def _run_digest(statement: str) -> str:
    """The digest naming the run log and session logs of `statement`'s run."""
    return hashlib.sha256(statement.encode("utf-8")).hexdigest()[:12]


def _run_log_path(out_dir: str, statement: str) -> str:
    return os.path.join(out_dir, f"run-{_run_digest(statement)}.json")


def _read_theorem_list(path: str) -> list[str]:
    statements = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if line and not line.startswith("#"):
                statements.append(line)
    return statements


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_ingest(args: argparse.Namespace) -> int:
    cfg = _merged(args)
    if not cfg["entities"] or not cfg["proofs"] or not args.vocab_out:
        raise ValueError("ingest requires --entities, --proofs, and --vocab-out")
    table = TokenTable()
    corpus = load_entity_corpus(cfg["entities"], table)
    proofs = load_proof_corpus(cfg["proofs"])
    save_vocabulary(table, args.vocab_out)
    terms = [record.internal for record in corpus.records]
    for proof in proofs.proofs:
        for step in proof.steps:
            for state in (step.before, step.after):
                for goal in state.goals:
                    terms.append(goal.goal_internal)
                    terms.extend(h.internal_type for h in goal.hypotheses_internal)
    fraction, unresolved = coverage_report(table, terms)
    step_count = sum(len(p.steps) for p in proofs.proofs)
    print(f"entities: {len(corpus.records)} records ({len(corpus.derived)} derived)")
    print(f"proofs: {len(proofs.proofs)} proofs, {step_count} steps")
    print(f"vocabulary: {len(table)} tokens -> {args.vocab_out}")
    print(f"coverage: {fraction:.4f}")
    if unresolved:
        top = ", ".join(name for name, _count in unresolved.most_common(5))
        print(f"unresolved (top): {top}")
    return EXIT_OK


def cmd_vocab(args: argparse.Namespace) -> int:
    cfg = _merged(args)
    if cfg["entities"] and args.vocab_out:
        table = TokenTable()
        load_entity_corpus(cfg["entities"], table)
        save_vocabulary(table, args.vocab_out)
    elif cfg["vocab"]:
        table = load_vocabulary(cfg["vocab"])
    else:
        raise ValueError("vocab requires --entities with --vocab-out, or --vocab")
    print(f"vocabulary: {len(table)} tokens")
    for kind, count in table.class_counts().items():
        print(f"  {kind}: {count}")
    return EXIT_OK


def _log_head(statement: str, cfg: dict) -> dict:
    """The fields every run log starts with."""
    return {"theorem": statement, "info_config": cfg["info_config"], "seed": cfg["seed"]}


def _run_single(statement: str, cfg: dict, table, corpus, index, gateway=None, spec=None):
    """Prove one statement on a fresh backend, built from `spec` as
    `_build_backend` does. `gateway` is shared across runs when given;
    otherwise each run builds its own, so a mock script replays from the
    start for every theorem."""
    recorder = RunRecorder()
    ports = SearchPorts(
        backend=_build_backend(cfg, _run_digest(statement), spec),
        gateway=_build_gateway(cfg) if gateway is None else gateway,
        index=index,
        corpus=corpus,
        table=table,
        config=InfoConfiguration.parse(cfg["info_config"]),
        requires=tuple(cfg["require"]),
        retrieve_k=cfg["retrieve_k"],
        recorder=recorder,
    )
    params = _params(cfg)
    result = prove(statement, params, ports)
    log = {
        **_log_head(statement, cfg),
        "params": _params_dict(params),
        "outcome": result.outcome.value,
        "depth_reached": result.depth_reached,
        "tactic_evaluations_used": result.tactic_evaluations_used,
        "trace": [[tactic, explanation] for tactic, explanation in result.trace],
        "events": recorder.events,
    }
    return result, log


def _manifest(cfg: dict, statements: Sequence[str]) -> dict:
    return {
        "version": __version__,
        "seed": cfg["seed"],
        "backend": cfg["backend"],
        "backend_spec": cfg["backend_spec"],
        "gateway": cfg["gateway"],
        "info_config": cfg["info_config"],
        "entities": cfg["entities"],
        "proofs": cfg["proofs"],
        "vocab": cfg["vocab"],
        "require": list(cfg["require"]),
        "params": _params_dict(_params(cfg)),
        "theorems": list(statements),
    }


def cmd_prove(args: argparse.Namespace) -> int:
    cfg = _merged(args)
    table, corpus, proofs = _load_corpora(cfg)
    index = _build_index(cfg, corpus, proofs)
    statement = _resolve_theorem(args.theorem, proofs)
    result, log = _run_single(statement, cfg, table, corpus, index)
    _write_json(_run_log_path(cfg["out"], statement), log)
    _write_json(os.path.join(cfg["out"], "manifest.json"), _manifest(cfg, [statement]))
    print(f"theorem: {statement}")
    print(
        f"outcome: {result.outcome.value}  depth: {result.depth_reached}  "
        f"evaluations: {result.tactic_evaluations_used}"
    )
    if result.outcome is Outcome.PROVED:
        for i, (tactic, _explanation) in enumerate(result.trace, start=1):
            print(f"  {i}. {tactic}")
        return EXIT_OK
    return EXIT_DOMAIN


def cmd_bench(args: argparse.Namespace) -> int:
    """Prove each theorem of the list, then write `summary.json` and
    `manifest.json`. A `ProoforgeError` costs only its theorem, logged as a
    PortError. Any other exception ends the run: the finished theorems' logs
    are kept, but no summary or manifest is written."""
    cfg = _merged(args)
    if cfg["jobs"] < 1:
        raise ValueError(f"jobs must be at least 1, not {cfg['jobs']}")
    statements = _read_theorem_list(args.theorems)
    if not statements:
        raise ValueError(f"theorem list {args.theorems} is empty")
    table, corpus, proofs = _load_corpora(cfg)
    index = _build_index(cfg, corpus, proofs)
    out_dir = cfg["out"]
    # One HttpGateway for every run, so its concurrency cap holds across
    # --jobs workers; a MockGateway stays per run.
    shared_gateway = None if cfg["gateway"] == "mock" else _build_gateway(cfg)
    # The spec is parsed once; each theorem still gets a fresh backend.
    spec = None if cfg["backend"] == "subprocess" else _synthetic_spec(cfg)

    def run_one(raw: str):
        """One theorem; its run log is written as soon as it finishes, so an
        error that ends the run keeps every finished theorem's log."""
        statement = _resolve_theorem(raw, proofs)
        result, error = None, None
        try:
            result, log = _run_single(
                statement, cfg, table, corpus, index, gateway=shared_gateway, spec=spec
            )
        except ProoforgeError as exc:
            log = {**_log_head(statement, cfg), "outcome": "PortError", "error": str(exc)}
            error = exc
        _write_json(_run_log_path(out_dir, statement), log)
        return statement, result, log, error

    if cfg["jobs"] == 1:
        outcomes = [run_one(raw) for raw in statements]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=cfg["jobs"]) as pool:
            outcomes = list(pool.map(run_one, statements))

    for statement, result, _log, error in outcomes:
        if error is not None:
            print(f"{statement}: PortError ({error})")
            continue
        print(
            f"{statement}: {result.outcome.value} "
            f"(depth {result.depth_reached}, evaluations {result.tactic_evaluations_used})"
        )

    summary = _tally([log for _statement, _result, log, _error in outcomes])
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    resolved = [statement for statement, _result, _log, _error in outcomes]
    _write_json(os.path.join(out_dir, "manifest.json"), _manifest(cfg, resolved))
    rate = f"{summary['success_rate']:.2%}" if summary["success_rate"] is not None else "-"
    print("proved {proved}/{completed} ({rate}), {port_errors} port errors".format(rate=rate, **summary))
    return EXIT_OK if summary["port_errors"] == 0 else EXIT_DOMAIN


def _clarity_configs(cfg: dict) -> list[InfoConfiguration]:
    """The configurations `--configs` names; naming none is a usage error."""
    if cfg["configs"] == "all":
        return list(InfoConfiguration)
    configs = [InfoConfiguration.parse(name) for name in cfg["configs"].split(",") if name]
    if not configs:
        raise ValueError(f"configs {cfg['configs']!r} names no configuration")
    return configs


def cmd_clarity(args: argparse.Namespace) -> int:
    cfg = _merged(args)
    configs = _clarity_configs(cfg)
    if not cfg["entities"]:
        raise ValueError("clarity requires --entities")
    statements = []
    if args.theorem:
        statements.append(args.theorem)
    if args.theorems:
        statements.extend(_read_theorem_list(args.theorems))
    if not statements:
        raise ValueError("clarity requires --theorem or --theorems")
    table, corpus, proofs = _load_corpora(cfg)
    backend = _build_backend(cfg, "clarity")
    states = []
    for statement in statements:
        state = _initial_state(backend, _resolve_theorem(statement, proofs), cfg)
        states.append((state, concept_pairs(corpus, table, state)))

    reports = []
    for config in configs:
        bundles = [
            render_prove_prompt(render_state_context(state, concepts, config))
            for state, concepts in states
        ]
        probes = sample_probes(bundles, per_bundle=cfg["per_bundle"], seed=cfg["seed"])
        gateway = _build_gateway(cfg)
        reports.append(
            run_configuration(
                config,
                probes,
                gateway,
                corpus,
                unjudgeable_half=bool(cfg["unjudgeable_half"]),
            )
        )

    table_text = format_report_table(reports)
    rows_text = format_report_rows(reports)
    out_dir = cfg["out"]
    _write_text(os.path.join(out_dir, "clarity_table.txt"), table_text)
    _write_text(os.path.join(out_dir, "clarity_rows.tsv"), rows_text)
    print(table_text, end="")
    incomplete = [report for report in reports if report.incomplete]
    for report in incomplete:
        print(f"incomplete: {report.config.value}: {report.error}", file=sys.stderr)
    if incomplete:
        print("warning: at least one configuration run is incomplete", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


def _tally(logs: Sequence[dict]) -> dict:
    """Outcome counts over run logs. The rate and the means cover the runs
    that did not end in a port error, and are None when there are none."""
    completed = [log for log in logs if log["outcome"] != "PortError"]
    n = len(completed)
    proved = sum(log["outcome"] == Outcome.PROVED.value for log in completed)
    return {
        "runs": len(logs),
        "completed": n,
        "port_errors": len(logs) - n,
        "proved": proved,
        "success_rate": proved / n if n else None,
        "avg_depth": sum(log.get("depth_reached", 0) for log in completed) / n if n else None,
        "avg_tactics": sum(log.get("tactic_evaluations_used", 0) for log in completed) / n if n else None,
    }


def _load_run_logs(runs_dir: str) -> list[dict]:
    logs = []
    for path in sorted(glob.glob(os.path.join(runs_dir, "*.json"))):
        base = os.path.basename(path)
        if base in ("manifest.json", "summary.json"):
            continue
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        if isinstance(obj, dict) and "outcome" in obj:
            logs.append(obj)
    return logs


def cmd_report(args: argparse.Namespace) -> int:
    cfg = _merged(args)
    runs_dir = args.runs or cfg["out"]
    if not os.path.isdir(runs_dir):
        raise ValueError(f"run directory {runs_dir} does not exist")
    logs = _load_run_logs(runs_dir)
    if not logs:
        raise ValueError(f"run directory {runs_dir} holds no run logs")

    grouped: dict[str, list[dict]] = {}
    for log in logs:
        grouped.setdefault(log.get("info_config", "Complete"), []).append(log)

    lines = [
        f"{'Configuration':<22} {'Runs':>5} {'Proved':>6} {'Success%':>8} "
        f"{'AvgDepth':>8} {'AvgTactics':>10}",
        "-" * 64,
    ]
    success_by_config: dict[str, float] = {}
    for config in sorted(grouped):
        tally = _tally(grouped[config])
        proved, completed = tally["proved"], tally["completed"]
        rate = 100.0 * proved / completed if completed else 0.0
        success_by_config[config] = rate
        lines.append(
            f"{config:<22} {tally['runs']:>5} {proved:>6} {rate:>8.1f} "
            f"{tally['avg_depth'] or 0.0:>8.2f} {tally['avg_tactics'] or 0.0:>10.2f}"
        )

    if args.clarity:
        with open(args.clarity, "r", encoding="utf-8") as fh:
            clarity_rows = parse_report_rows(fh.read())
        pairs = [
            (mean, success_by_config[config])
            for config, (_count, mean, _excluded) in sorted(clarity_rows.items())
            if mean is not None and config in success_by_config
        ]
        if len(pairs) >= 2:
            try:
                r = pearson_r([x for x, _ in pairs], [y for _, y in pairs])
                lines.append(f"Pearson r (clarity vs success rate): {r:.2f}")
            except DegenerateSeries:
                lines.append("Correlation undefined: constant series")
        else:
            lines.append("Correlation skipped: fewer than two joined configurations")

    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.report_out:
        _write_text(args.report_out, text)
    return EXIT_OK


def cmd_dump_prompt(args: argparse.Namespace) -> int:
    cfg = _merged(args)
    table, corpus, proofs = _load_corpora(cfg)
    backend = _build_backend(cfg, "dump-prompt")
    state = _initial_state(backend, _resolve_theorem(args.theorem, proofs), cfg)
    context = render_state_context(
        state,
        concept_pairs(corpus, table, state),
        InfoConfiguration.parse(cfg["info_config"]),
    )
    bundle = render_prove_prompt(context)
    print(bundle.rendered, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

_COMMON_FLAGS = {
    "seed": dict(type=int, default=None),
    "out": dict(default=None, help="output directory"),
    "entities": dict(default=None, help="entity corpus path"),
    "proofs": dict(default=None, help="proof corpus path"),
    "vocab": dict(default=None, help="vocabulary file path"),
}


def _add_common(parser: argparse.ArgumentParser, *names: str) -> None:
    """Register `--config` and the named `_COMMON_FLAGS` (all of them when
    none is named); a subcommand names only the flags it reads."""
    parser.add_argument("--config", help="JSON config file (no credentials)")
    for name in names or _COMMON_FLAGS:
        parser.add_argument(f"--{name}", **_COMMON_FLAGS[name])


def _add_backend(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", choices=("synthetic", "subprocess"), default=None)
    parser.add_argument("--backend-spec", dest="backend_spec", default=None)
    parser.add_argument("--executable", default=None)
    parser.add_argument(
        "--require", action="append", default=None, help="Require line (repeatable)"
    )


def _add_gateway(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gateway", choices=("mock", "http"), default=None)
    parser.add_argument("--gateway-script", dest="gateway_script", default=None)
    parser.add_argument("--base-url", dest="base_url", default=None)
    parser.add_argument("--model", default=None)
    parser.add_argument("--api-key-env", dest="api_key_env", default=None)


def _add_search(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--embed-url", dest="embed_url", default=None)
    parser.add_argument("--embed-model", dest="embed_model", default=None)
    parser.add_argument("--retrieve-k", dest="retrieve_k", type=int, default=None)
    for key in _SHAPE_KEYS:
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, type=int, default=None)
    parser.add_argument(
        "--selection", choices=("ModelBased", "ShortestProof"), default=None
    )
    parser.add_argument("--info-config", dest="info_config", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prooforge",
        description="Structured-context theorem proving toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    # No abbreviated flags: ingest's --vocab-out must not answer to --vocab.
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        parser_class=functools.partial(argparse.ArgumentParser, allow_abbrev=False),
    )

    p = sub.add_parser("ingest", help="load corpora and emit the vocabulary")
    _add_common(p, "entities", "proofs")
    p.add_argument("--vocab-out", dest="vocab_out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("vocab", help="build or inspect a vocabulary")
    _add_common(p, "entities", "vocab")
    p.add_argument("--vocab-out", dest="vocab_out", default=None)
    p.set_defaults(func=cmd_vocab)

    p = sub.add_parser("prove", help="prove one theorem")
    _add_common(p)
    _add_backend(p)
    _add_gateway(p)
    _add_search(p)
    p.add_argument("theorem", help="statement text or proof-corpus theorem name")
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("bench", help="prove a theorem list")
    _add_common(p)
    _add_backend(p)
    _add_gateway(p)
    _add_search(p)
    p.add_argument("--theorems", required=True, help="file of statements, one per line")
    p.add_argument("--jobs", type=int, default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("clarity", help="run clarity probes per configuration")
    _add_common(p)
    _add_backend(p)
    _add_gateway(p)
    p.add_argument("--theorem", default=None)
    p.add_argument("--theorems", default=None)
    p.add_argument("--configs", default=None, help="comma list or 'all'")
    p.add_argument("--per-bundle", dest="per_bundle", type=int, default=None)
    p.add_argument(
        "--unjudgeable-half",
        dest="unjudgeable_half",
        action="store_const",
        const=True,
        default=None,
        help="score unjudgeable probes 0.5 instead of excluding them",
    )
    p.set_defaults(func=cmd_clarity)

    p = sub.add_parser("report", help="aggregate run logs; correlate with clarity")
    _add_common(p, "out")
    p.add_argument("--runs", default=None, help="run-log directory (default: --out)")
    p.add_argument("--clarity", default=None, help="clarity rows TSV to correlate")
    p.add_argument("--report-out", dest="report_out", default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("dump-prompt", help="render a structured prompt")
    _add_common(p, "out", "entities", "proofs", "vocab")
    _add_backend(p)
    p.add_argument("--info-config", dest="info_config", default=None)
    p.add_argument("theorem")
    p.set_defaults(func=cmd_dump_prompt)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
    except PortFailure as exc:
        print(f"port failure: {exc}", file=sys.stderr)
    except (ProoforgeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
