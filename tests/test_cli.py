"""Command-line behaviors: exit codes, printed outcomes, run-log and
manifest determinism, report aggregation with the clarity correlation, and
the no-credentials-in-config rule."""

import json
import os
import threading
import time
from pathlib import Path

import pytest

from conftest import FIXTURES, entities_path, proofs_path, backend_spec_path
from prooforge import cli
from prooforge.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, main
from prooforge.clarity_eval import parse_report_rows
from prooforge.llm_gateway import HttpGateway

PROVE_SCRIPT = os.path.join(FIXTURES, "gateway_prove.jsonl")
FAIL_SCRIPT = os.path.join(FIXTURES, "gateway_fail.jsonl")
CLARITY_SCRIPT = os.path.join(FIXTURES, "gateway_clarity.jsonl")
THEOREMS = os.path.join(FIXTURES, "theorems.txt")

WORKED = "forall n:nat, 0 + n = n"


def mock_ports_args() -> list[str]:
    return [
        "--backend", "synthetic",
        "--backend-spec", backend_spec_path(),
        "--gateway", "mock",
    ]


def prove_args(out_dir, script=PROVE_SCRIPT) -> list[str]:
    return [
        "prove",
        *mock_ports_args(),
        "--gateway-script", script,
        "--entities", entities_path(),
        "--proofs", proofs_path(),
        "--out", str(out_dir),
    ]


# ----------------------------------------------------------------------
# ingest / vocab
# ----------------------------------------------------------------------

class TestIngest:
    def test_ingest_reports_counts_and_writes_vocabulary(self, tmp_path, capsys):
        vocab_out = tmp_path / "vocab.txt"
        code = main([
            "ingest",
            "--entities", entities_path(),
            "--proofs", proofs_path(),
            "--vocab-out", str(vocab_out),
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.splitlines()[0].startswith("entities: ")
        assert "proofs: 1 proofs, 3 steps" in out
        assert "coverage: 0.3986" in out
        assert "unresolved (top):" in out
        assert vocab_out.exists()

    def test_malformed_line_is_named(self, tmp_path, capsys):
        # [TRIVIAL] format errors carry the offending line number.
        broken = tmp_path / "entities.jsonl"
        lines = Path(entities_path()).read_text(encoding="utf-8").splitlines()
        lines[2] = '{"name": "broken"'
        broken.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main([
            "ingest",
            "--entities", str(broken),
            "--proofs", proofs_path(),
            "--vocab-out", str(tmp_path / "v.txt"),
        ])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "format error" in err
        assert "line 3" in err

    def test_missing_file(self, tmp_path, capsys):
        code = main([
            "ingest",
            "--entities", str(tmp_path / "nope.jsonl"),
            "--proofs", proofs_path(),
            "--vocab-out", str(tmp_path / "v.txt"),
        ])
        assert code == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_vocab_build_and_inspect(self, tmp_path, capsys):
        vocab_out = tmp_path / "vocab.txt"
        assert main([
            "vocab", "--entities", entities_path(), "--vocab-out", str(vocab_out)
        ]) == EXIT_OK
        built = capsys.readouterr().out
        assert main(["vocab", "--vocab", str(vocab_out)]) == EXIT_OK
        inspected = capsys.readouterr().out
        assert built == inspected
        assert "reserved:" in built


# ----------------------------------------------------------------------
# prove
# ----------------------------------------------------------------------

class TestProve:
    def test_solvable_theorem_exits_zero_with_trace(self, tmp_path, capsys):
        # [PAPER] the worked theorem proves under the scripted gateway.
        code = main(prove_args(tmp_path) + [WORKED])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert f"theorem: {WORKED}" in out
        assert "outcome: Proved" in out
        assert "  1. intros n" in out
        assert "  2. simpl" in out
        assert "  3. reflexivity" in out

    def test_proof_corpus_name_resolves_to_its_statement(self, tmp_path, capsys):
        code = main(prove_args(tmp_path) + ["Coq.Arith.PeanoNat.Nat.add_0_l"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert f"theorem: {WORKED}" in out

    def test_unsolvable_theorem_exits_one(self, tmp_path, capsys):
        code = main(prove_args(tmp_path, script=FAIL_SCRIPT) + ["P /\\ Q"])
        out = capsys.readouterr().out
        assert code == EXIT_DOMAIN
        assert "outcome: Failure" in out

    def test_zero_budget_reports_exhaustion(self, tmp_path, capsys):
        # [PAPER] a zero allowance burns out before the first validation.
        code = main(prove_args(tmp_path) + ["--budget", "0", WORKED])
        out = capsys.readouterr().out
        assert code == EXIT_DOMAIN
        assert "outcome: BudgetExhausted" in out

    def test_budget_follows_the_search_shape(self, tmp_path):
        # With no budget set, the budget is compute_budget of the shape;
        # an explicit --budget still wins.
        cases = [
            ([], 860),
            (["--reconsider-factor", "1"], 430),
            (["--max-depth", "5"], 260),
            (["--reconsider-factor", "1", "--budget", "100"], 100),
        ]
        for i, (flags, budget) in enumerate(cases):
            out = tmp_path / str(i)
            assert main(prove_args(out) + flags + [WORKED]) == EXIT_OK
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            assert manifest["params"]["budget"] == budget

    def test_run_log_is_written(self, tmp_path):
        main(prove_args(tmp_path) + [WORKED])
        logs = [p for p in os.listdir(tmp_path) if p.startswith("run-")]
        assert len(logs) == 1
        log = json.loads((tmp_path / logs[0]).read_text(encoding="utf-8"))
        assert log["outcome"] == "Proved"
        assert log["theorem"] == WORKED
        assert [t for t, _e in log["trace"]] == ["intros n", "simpl", "reflexivity"]
        assert log["events"][0]["event"] == "start"
        assert (tmp_path / "manifest.json").exists()

    def test_malformed_backend_spec_is_a_usage_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"lemmas": {"a": {}}}), encoding="utf-8")
        code = main(prove_args(tmp_path) + ["--backend-spec", str(spec), "A -> A"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith(f"error: backend spec {spec} is malformed:")
        assert "conclusion" in err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("[1]", "a script record must be a JSON object"),
            ('{"route": "planer", "reply": "x"}', "'planer' is not a role"),
            ('{"reply": "x"', "Expecting"),
        ],
        ids=["not-an-object", "unknown-route", "bad-json"],
    )
    def test_malformed_gateway_script_is_a_usage_error(self, tmp_path, capsys, line, message):
        script = tmp_path / "script.jsonl"
        script.write_text(
            '# replies\n{"route": "planner", "default": true, "reply": "p"}\n' + line + "\n",
            encoding="utf-8",
        )
        code = main(prove_args(tmp_path, script=str(script)) + ["A -> A"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith(f"error: gateway script {script}, line 3: ")
        assert message in err

    def test_missing_gateway_script_is_a_usage_error(self, tmp_path, capsys):
        code = main([
            "prove", "--backend", "synthetic",
            "--backend-spec", backend_spec_path(),
            "--gateway", "mock", "--out", str(tmp_path), WORKED,
        ])
        assert code == EXIT_USAGE
        assert "gateway-script" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Config files: merge order and the credentials rule
# ----------------------------------------------------------------------

class TestConfigFiles:
    def test_config_supplies_defaults_and_flags_override(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "backend_spec": backend_spec_path(),
            "gateway_script": PROVE_SCRIPT,
            "entities": entities_path(),
            "proofs": proofs_path(),
            "out": str(tmp_path / "from-config"),
        }), encoding="utf-8")
        code = main(["prove", "--config", str(config), WORKED])
        assert code == EXIT_OK
        assert (tmp_path / "from-config" / "manifest.json").exists()
        # An explicit flag wins over the config value.
        code = main([
            "prove", "--config", str(config), "--out", str(tmp_path / "flag"), WORKED
        ])
        assert code == EXIT_OK
        assert (tmp_path / "flag" / "manifest.json").exists()

    def test_config_budget_wins_over_the_search_shape(self, tmp_path):
        # A config that sets the shape resizes the budget; one that also
        # sets the budget keeps it.
        for i, (keys, budget) in enumerate([
            ({"reconsider_factor": 1}, 430),
            ({"reconsider_factor": 1, "budget": 100}, 100),
        ]):
            config = tmp_path / f"run{i}.json"
            config.write_text(json.dumps(keys), encoding="utf-8")
            out = tmp_path / str(i)
            assert main(prove_args(out) + ["--config", str(config), WORKED]) == EXIT_OK
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            assert manifest["params"]["budget"] == budget

    def test_stored_credentials_are_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(
            json.dumps({"seed": 1, "api_key": "sk-not-allowed"}), encoding="utf-8"
        )
        code = main(["prove", "--config", str(config), WORKED])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "api_key" in err
        assert "environment variables" in err

    def test_nested_credentials_are_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(
            json.dumps({"require": [{"secret": "hunter2"}]}), encoding="utf-8"
        )
        code = main(["prove", "--config", str(config), WORKED])
        assert code == EXIT_USAGE
        assert "secret" in capsys.readouterr().err

    def test_unknown_keys_are_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"frobnicate": 1}), encoding="utf-8")
        code = main(["prove", "--config", str(config), WORKED])
        assert code == EXIT_USAGE
        assert "frobnicate" in capsys.readouterr().err


# ----------------------------------------------------------------------
# bench
# ----------------------------------------------------------------------

def bench_args(out_dir) -> list[str]:
    return [
        "bench",
        *mock_ports_args(),
        "--gateway-script", PROVE_SCRIPT,
        "--entities", entities_path(),
        "--proofs", proofs_path(),
        "--theorems", THEOREMS,
        "--out", str(out_dir),
    ]


class TestBench:
    def test_bench_summarizes_the_suite(self, tmp_path, capsys):
        code = main(bench_args(tmp_path / "runs"))
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert f"{WORKED}: Proved" in out
        assert "P /\\ Q: Failure" in out
        assert "proved 1/2 (50.00%), 0 port errors" in out
        summary = json.loads((tmp_path / "runs" / "summary.json").read_text())
        assert summary["runs"] == 2
        assert summary["proved"] == 1
        assert summary["success_rate"] == 0.5

    def test_report_tallies_the_runs_as_bench_does(self, tmp_path, capsys):
        # A port error counts as a run and nowhere else.
        runs = tmp_path / "runs"
        assert main(bench_args(runs)) == EXIT_OK
        summary = json.loads((runs / "summary.json").read_text(encoding="utf-8"))
        (runs / "run-port-error.json").write_text(
            json.dumps({"theorem": "X", "info_config": "Complete", "outcome": "PortError"}),
            encoding="utf-8",
        )
        capsys.readouterr()
        assert main(["report", "--runs", str(runs)]) == EXIT_OK
        row = capsys.readouterr().out.splitlines()[2].split()
        assert row == [
            "Complete",
            str(summary["runs"] + 1),
            str(summary["proved"]),
            f"{100 * summary['success_rate']:.1f}",
            f"{summary['avg_depth']:.2f}",
            f"{summary['avg_tactics']:.2f}",
        ]

    def test_equal_seeds_produce_byte_identical_logs(self, tmp_path, capsys):
        # Two runs, same seed, different directories: every artifact byte
        # matches.
        for name in ("a", "b"):
            assert main(bench_args(tmp_path / name) + ["--seed", "7"]) == EXIT_OK
        capsys.readouterr()
        names_a = sorted(os.listdir(tmp_path / "a"))
        names_b = sorted(os.listdir(tmp_path / "b"))
        assert names_a == names_b
        mismatched = []
        for name in names_a:
            left = (tmp_path / "a" / name).read_bytes()
            right = (tmp_path / "b" / name).read_bytes()
            if left != right:
                mismatched.append(name)
        assert mismatched == []

    def test_http_concurrency_cap_spans_all_jobs(self, tmp_path, monkeypatch, capsys):
        # Eight workers share one HttpGateway, so at most its four
        # requests are ever in flight at once.
        lock = threading.Lock()
        inflight = {"now": 0, "peak": 0}
        reply = json.dumps({"tactics": [{"tactic": "intros"}, {"tactic": "assumption"}]})

        def transport(self, url, payload, headers):
            with lock:
                inflight["now"] += 1
                inflight["peak"] = max(inflight["peak"], inflight["now"])
            try:
                time.sleep(0.01)
                return {"choices": [{"message": {"content": reply}}]}
            finally:
                with lock:
                    inflight["now"] -= 1

        monkeypatch.setattr(HttpGateway, "_default_transport", transport)
        theorems = tmp_path / "theorems.txt"
        theorems.write_text(
            "".join(f"{p} -> {p}\n" for p in "ABCDEFGH"), encoding="utf-8"
        )
        code = main([
            "bench",
            "--backend", "synthetic",
            "--gateway", "http",
            "--base-url", "http://localhost:9",
            "--model", "stub",
            "--theorems", str(theorems),
            "--out", str(tmp_path / "runs"),
            "--jobs", "8",
        ])
        assert code == EXIT_OK
        assert "proved 8/8" in capsys.readouterr().out
        assert 1 <= inflight["peak"] <= 4


# ----------------------------------------------------------------------
# clarity
# ----------------------------------------------------------------------

class TestClarity:
    def test_scripted_probes_aggregate(self, tmp_path, capsys):
        code = main([
            "clarity",
            *mock_ports_args(),
            "--gateway-script", CLARITY_SCRIPT,
            "--entities", entities_path(),
            "--theorem", WORKED,
            "--configs", "NoContext,Complete",
            "--per-bundle", "2",
            "--out", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "Configuration" in out
        rows = parse_report_rows(
            (tmp_path / "clarity_rows.tsv").read_text(encoding="utf-8")
        )
        assert set(rows) == {"NoContext", "Complete"}
        for count, mean, excluded in rows.values():
            assert count >= 1
            assert excluded == 0
            # The scripted judge always answers YES at probability 0.8.
            assert mean == pytest.approx(0.8, abs=1e-9)
        assert (tmp_path / "clarity_table.txt").exists()

    def test_a_theorem_that_does_not_compile_is_a_usage_error(self, tmp_path, capsys):
        code = main([
            "clarity",
            *mock_ports_args(),
            "--gateway-script", CLARITY_SCRIPT,
            "--entities", entities_path(),
            "--theorem", "(((",
            "--out", str(tmp_path),
        ])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: theorem does not compile: Syntax error: unbalanced parentheses.\n"
        )

    def test_requires_a_theorem(self, tmp_path, capsys):
        code = main([
            "clarity",
            *mock_ports_args(),
            "--gateway-script", CLARITY_SCRIPT,
            "--entities", entities_path(),
            "--out", str(tmp_path),
        ])
        assert code == EXIT_USAGE
        assert "theorem" in capsys.readouterr().err


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------

def write_config_runs(runs_dir, config: str, proved: int, total: int) -> None:
    os.makedirs(runs_dir, exist_ok=True)
    for i in range(total):
        log = {
            "theorem": f"thm-{config}-{i}",
            "info_config": config,
            "outcome": "Proved" if i < proved else "Failure",
            "depth_reached": 3,
            "tactic_evaluations_used": 12,
        }
        path = os.path.join(runs_dir, f"run-{config}-{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(log, fh)


TABLE_RATES = (
    ("NoContext", 0.445, 21, 100),
    ("OriginOnly", 0.581, 1, 4),
    ("InternalOnly", 0.712, 19, 50),
    ("OriginInternal", 0.798, 21, 50),
    ("Complete", 0.823, 9, 20),
)


def write_table_fixture(tmp_path):
    runs_dir = str(tmp_path / "runs")
    for config, _mean, proved, total in TABLE_RATES:
        write_config_runs(runs_dir, config, proved, total)
    rows = ["config\tprobe_count\tmean\texcluded_count"]
    for config, mean, _proved, _total in TABLE_RATES:
        rows.append(f"{config}\t40\t{mean:.6f}\t0")
    clarity = tmp_path / "clarity_rows.tsv"
    clarity.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return runs_dir, str(clarity)


class TestReport:
    def test_clarity_success_correlation(self, tmp_path, capsys):
        # [PAPER] the five configuration pairs correlate at 0.98.
        runs_dir, clarity = write_table_fixture(tmp_path)
        code = main(["report", "--runs", runs_dir, "--clarity", clarity])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "NoContext" in out and "21.0" in out
        assert "Complete" in out and "45.0" in out
        assert "Pearson r (clarity vs success rate): 0.98" in out

    def test_single_configuration_skips_the_correlation(self, tmp_path, capsys):
        runs_dir = str(tmp_path / "runs")
        write_config_runs(runs_dir, "Complete", 2, 4)
        clarity = tmp_path / "rows.tsv"
        clarity.write_text(
            "config\tprobe_count\tmean\texcluded_count\nComplete\t10\t0.800000\t0\n",
            encoding="utf-8",
        )
        code = main(["report", "--runs", runs_dir, "--clarity", str(clarity)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "Correlation skipped: fewer than two joined configurations" in out

    def test_empty_directory_is_a_usage_error(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        runs_dir.mkdir()
        code = main(["report", "--runs", str(runs_dir)])
        assert code == EXIT_USAGE
        assert "no run logs" in capsys.readouterr().err

    def test_missing_directory_is_a_usage_error(self, tmp_path, capsys):
        code = main(["report", "--runs", str(tmp_path / "absent")])
        assert code == EXIT_USAGE
        assert "does not exist" in capsys.readouterr().err

    def test_report_out_writes_the_text(self, tmp_path, capsys):
        runs_dir = str(tmp_path / "runs")
        write_config_runs(runs_dir, "Complete", 1, 2)
        out_file = tmp_path / "report.txt"
        code = main(["report", "--runs", runs_dir, "--report-out", str(out_file)])
        printed = capsys.readouterr().out
        assert code == EXIT_OK
        assert out_file.read_text(encoding="utf-8") == printed


# ----------------------------------------------------------------------
# dump-prompt
# ----------------------------------------------------------------------

class TestDumpPrompt:
    def args(self, config: str) -> list[str]:
        return [
            "dump-prompt",
            "--backend", "synthetic",
            "--backend-spec", backend_spec_path(),
            "--entities", entities_path(),
            "--info-config", config,
            WORKED,
        ]

    def test_renders_the_configured_prompt(self, capsys):
        assert main(self.args("NoContext")) == EXIT_OK
        bare = capsys.readouterr().out
        assert bare.startswith("I am currently working on a formal proof in Coq")
        assert "=== Current Proof States ===" in bare
        assert "0 + n = n" in bare
        assert "Global definitions referenced:" not in bare
        assert main(self.args("Complete")) == EXIT_OK
        full = capsys.readouterr().out
        assert "Global definitions referenced:" in full
        assert len(full) > len(bare)

    def test_a_theorem_that_does_not_compile_is_a_usage_error(self, capsys):
        assert main(self.args("Complete")[:-1] + ["((("]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: theorem does not compile: Syntax error: unbalanced parentheses.\n"
        )


# ----------------------------------------------------------------------
# clarity and dump-prompt open each theorem with one session and close it
# once its state is read
# ----------------------------------------------------------------------

class CountingBackend:
    """Counts every port call it passes on to the real backend."""

    def __init__(self, inner):
        self.inner = inner
        self.counts = {}

    def __getattr__(self, name):
        method = getattr(self.inner, name)

        def counted(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return method(*args, **kwargs)

        return counted


@pytest.fixture
def counting_backends(monkeypatch):
    backends = []
    build = cli._build_backend

    def counting_build(cfg):
        backends.append(CountingBackend(build(cfg)))
        return backends[-1]

    monkeypatch.setattr(cli, "_build_backend", counting_build)
    return backends


def test_dump_prompt_opens_one_session_and_closes_it(counting_backends, capsys):
    assert main(TestDumpPrompt().args("Complete")) == EXIT_OK
    capsys.readouterr()
    assert [b.counts for b in counting_backends] == [
        {"start_session": 1, "close_session": 1}
    ]


def test_clarity_opens_one_session_per_theorem(counting_backends, tmp_path, capsys):
    theorems = tmp_path / "theorems.txt"
    theorems.write_text(f"{WORKED}\nA -> A\n", encoding="utf-8")
    code = main([
        "clarity",
        *mock_ports_args(),
        "--gateway-script", CLARITY_SCRIPT,
        "--entities", entities_path(),
        "--theorem", WORKED,
        "--theorems", str(theorems),
        "--configs", "Complete",
        "--out", str(tmp_path / "out"),
    ])
    capsys.readouterr()
    assert code == EXIT_OK
    assert [b.counts for b in counting_backends] == [
        {"start_session": 3, "close_session": 3}
    ]


# ----------------------------------------------------------------------
# Each subcommand registers only the flags it reads
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ["dump-prompt", "--max-depth", "3", WORKED],
        ["dump-prompt", "--gateway", "mock", WORKED],
        ["dump-prompt", "--retrieve-k", "3", WORKED],
        ["clarity", "--max-depth", "3", "--theorem", WORKED],
        ["clarity", "--info-config", "Complete", "--theorem", WORKED],
        ["clarity", "--embed-model", "m", "--theorem", WORKED],
        ["ingest", "--vocab", "v.txt", "--vocab-out", "out.txt"],
        ["ingest", "--seed", "3", "--vocab-out", "out.txt"],
        ["ingest", "--out", "runs", "--vocab-out", "out.txt"],
        ["vocab", "--proofs", "p.jsonl"],
        ["vocab", "--seed", "3"],
        ["vocab", "--out", "runs"],
        ["report", "--seed", "3"],
        ["dump-prompt", "--seed", "3", WORKED],
    ],
    ids=lambda argv: f"{argv[0]} {argv[1]}",
)
def test_unread_flags_are_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err
