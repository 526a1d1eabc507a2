"""Command-line behaviors: exit codes, printed outcomes, run-log and
manifest determinism, report aggregation with the clarity correlation, and
the no-credentials-in-config rule."""

import hashlib
import json
import os
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest

from conftest import (
    FAKE_PROVER, FIXTURES, PACKAGE_DIR, entities_path, proofs_path, backend_spec_path,
)
from prooforge import cli
from prooforge.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, main
from prooforge.coq_backend import SubprocessBackend
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

    def test_a_proofs_line_that_is_not_an_object_is_named(self, tmp_path, capsys):
        broken = tmp_path / "proofs.jsonl"
        lines = Path(proofs_path()).read_text(encoding="utf-8").splitlines()
        broken.write_text("\n".join([lines[0], "[1, 2]"] + lines[1:]) + "\n", encoding="utf-8")
        code = main([
            "ingest",
            "--entities", entities_path(),
            "--proofs", str(broken),
            "--vocab-out", str(tmp_path / "v.txt"),
        ])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "format error: line 2: each line must hold one JSON object" in err

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
        # The classes a table stores; a local name has no token id.
        assert built == "vocabulary: 98 tokens\n  reserved: 85\n  global: 13\n"


    def test_a_vocabulary_with_a_huge_id_proves_and_prompts_as_without_one(
        self, tmp_path, capsys
    ):
        # `Coq.Init.Nat.add` moves to id 10**12, out of the corpus's order:
        # the table and corpus hold one entry for it, not a slot per id, and
        # the run and its prompt are those of a fresh table.
        vocab = tmp_path / "vocab.tsv"
        assert main(["vocab", "--entities", entities_path(), "--vocab-out", str(vocab)]) == EXIT_OK
        lines = vocab.read_text(encoding="utf-8").splitlines()
        add = next(line for line in lines if "\tCoq.Init.Nat.add<ker>" in line)
        lines.remove(add)
        lines.append("1000000000000" + add[add.index("\t"):])
        vocab.write_text("\n".join(lines) + "\n", encoding="utf-8")
        dump = ["dump-prompt", "--backend", "synthetic", "--backend-spec", backend_spec_path(),
                "--entities", entities_path(), "--info-config", "Complete", WORKED]
        capsys.readouterr()
        outputs = []
        for extra in ([], ["--vocab", str(vocab)]):
            tracemalloc.start()
            try:
                assert main(prove_args(tmp_path / f"run{len(extra)}") + extra + [WORKED]) == EXIT_OK
                assert main(dump[:-1] + extra + [WORKED]) == EXIT_OK
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 << 20
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "- Coq.Init.Nat.add (Fixpoint)" in outputs[1]


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

    def test_a_negative_retrieve_k_is_a_usage_error(self, tmp_path, capsys):
        # The search ports reject it before any proof starts, so no run log
        # is written and the message is theirs, not retrieve's.
        code = main(prove_args(tmp_path) + ["--retrieve-k", "-1", WORKED])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: retrieve_k must be non-negative\n"
        assert not list(tmp_path.glob("run-*.json"))

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

    def test_the_subprocess_backend_proves_into_a_fresh_out(self, tmp_path, monkeypatch, capsys):
        wrapper = fake_prover_wrapper(tmp_path)
        spawned = []
        spawn = SubprocessBackend._spawn
        monkeypatch.setattr(
            SubprocessBackend, "_spawn", lambda self: spawned.append(spawn(self)) or spawned[-1]
        )
        out = tmp_path / "fresh" / "out"
        code = main([
            "prove", "--backend", "subprocess", "--executable", str(wrapper),
            "--gateway", "mock", "--gateway-script", PROVE_SCRIPT,
            "--entities", entities_path(), "--proofs", proofs_path(),
            "--out", str(out), WORKED,
        ])
        assert code == EXIT_OK, capsys.readouterr().err
        assert "outcome: Proved" in capsys.readouterr().out
        assert sorted(out.glob("sessions-*/session-*.log"))
        assert spawned and all(proc.returncode is not None for proc in spawned)

    def test_a_second_run_replaces_the_first_runs_session_logs(self, tmp_path, capsys):
        wrapper = fake_prover_wrapper(tmp_path)
        out = tmp_path / "out"
        for _run in range(2):
            code = main([
                "prove", *subprocess_ports_args(wrapper), "--gateway-script", PROVE_SCRIPT,
                "--entities", entities_path(), "--proofs", proofs_path(),
                "--out", str(out), WORKED,
            ])
            assert code == EXIT_OK, capsys.readouterr().err
        assert session_logs(out) == {WORKED: 4}

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

    def test_non_string_executor_reply_is_a_usage_error(self, tmp_path, capsys):
        # Such a reply once loaded and ended the proof with an AttributeError.
        script = tmp_path / "script.jsonl"
        script.write_text(
            Path(PROVE_SCRIPT).read_text(encoding="utf-8")
            + '{"route": "executor", "reply": 5}\n',
            encoding="utf-8",
        )
        code = main(prove_args(tmp_path / "runs", script=str(script)) + [WORKED])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith(f"error: gateway script {script}, line 11: reply must be a string")

    def test_lone_surrogate_in_a_reply_is_logged_as_its_escape(self, tmp_path, capsys):
        # The JSON escape \ud83d loads as a lone surrogate, which UTF-8
        # cannot encode; the run log writes it back as the same escape.
        lines = Path(PROVE_SCRIPT).read_text(encoding="utf-8").splitlines()
        script = tmp_path / "script.jsonl"
        script.write_text(
            "\n".join(
                line.replace('"reply": "The tactic', '"reply": "\\ud83d The tactic')
                for line in lines
            )
            + "\n",
            encoding="utf-8",
        )
        runs = tmp_path / "runs"
        assert main(prove_args(runs, script=str(script)) + [WORKED]) == EXIT_OK
        [log_path] = runs.glob("run-*.json")
        raw = log_path.read_bytes()
        raw.decode("utf-8")
        assert b"\\ud83d The tactic" in raw
        with open(log_path, encoding="utf-8") as fh:
            log = json.load(fh)
        assert [explanation[:1] for _tactic, explanation in log["trace"]] == ["\ud83d"] * 3
        capsys.readouterr()
        assert main(["report", "--runs", str(runs)]) == EXIT_OK
        assert "Complete" in capsys.readouterr().out

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

    @pytest.mark.parametrize("key, value, what", [
        ("max_depth", "5", "an integer"),
        ("max_depth", 5.0, "an integer"),
        ("beam_width", 2.5, "an integer"),
        ("beam_width", True, "an integer"),
        ("retrieve_k", None, "an integer"),
        ("seed", "0", "an integer"),
        ("budget", "100", "an integer or null"),
        ("budget", False, "an integer or null"),
        ("require", "Coq.Arith", "a list of strings"),
        ("require", ["Coq.Arith", 1], "a list of strings"),
        ("require", None, "a list of strings"),
        ("out", 5, "a string"),
        ("gateway_script", None, "a string"),
        ("unjudgeable_half", 1, "true or false"),
    ])
    def test_a_value_of_the_wrong_type_is_a_usage_error(self, tmp_path, capsys, key, value, what):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({key: value}), encoding="utf-8")
        code = main(prove_args(tmp_path / "out") + ["--config", str(config), WORKED])
        assert code == EXIT_USAGE
        assert f"{key} must be {what}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_values_of_their_keys_types_are_accepted(self, tmp_path):
        config = tmp_path / "run.json"
        obj = {"budget": None, "require": ["Coq.Arith"], "unjudgeable_half": True,
               "max_depth": 4, "selection": "ModelBased"}
        config.write_text(json.dumps(obj), encoding="utf-8")
        assert cli.load_run_config(str(config)) == obj

    def test_unknown_keys_are_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"frobnicate": 1}), encoding="utf-8")
        code = main(["prove", "--config", str(config), WORKED])
        assert code == EXIT_USAGE
        assert "frobnicate" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Session logs of the subprocess backend
# ----------------------------------------------------------------------

def fake_prover_wrapper(tmp_path) -> str:
    """`--executable` takes no arguments, so a wrapper starts the fake
    prover on the fixture backend spec."""
    wrapper = tmp_path / "prover"
    wrapper.write_text(
        f'#!/bin/sh\nexec "{sys.executable}" -S "{FAKE_PROVER}" "{PACKAGE_DIR}" '
        f'"{backend_spec_path()}"\n',
        encoding="utf-8",
    )
    wrapper.chmod(0o755)
    return str(wrapper)


def subprocess_ports_args(wrapper: str) -> list[str]:
    return ["--backend", "subprocess", "--executable", wrapper, "--gateway", "mock"]


def session_logs(out) -> dict[str, int]:
    """Per `sessions-<digest>` directory under `out`, named by the theorem of
    its `run-<digest>.json`, the number of session logs in it. Every log
    must open exactly one theorem, that run's."""
    counts = {}
    for directory in sorted(out.glob("sessions-*")):
        digest = directory.name[len("sessions-"):]
        run_log = json.loads((out / f"run-{digest}.json").read_text(encoding="utf-8"))
        theorem = run_log["theorem"]
        command = '(Add () "Theorem goal_ : %s.")' % theorem.replace("\\", "\\\\")
        logs = sorted(directory.glob("session-*.log"))
        for log in logs:
            opened = [
                line for line in log.read_text(encoding="utf-8").splitlines()
                if '"Theorem goal_ : ' in line
            ]
            assert opened == [command], log
        counts[theorem] = len(logs)
    return counts


@pytest.mark.parametrize("command", ["clarity", "dump-prompt"])
def test_each_run_of_clarity_and_dump_prompt_replaces_its_session_logs(command, tmp_path, capsys):
    wrapper = fake_prover_wrapper(tmp_path)
    out = tmp_path / "out"
    backend = ["--backend", "subprocess", "--executable", wrapper]
    argv = {
        "clarity": [
            "clarity", *backend, "--gateway", "mock", "--gateway-script", CLARITY_SCRIPT,
            "--theorem", WORKED, "--configs", "Complete",
        ],
        "dump-prompt": ["dump-prompt", *backend, WORKED],
    }[command] + ["--entities", entities_path(), "--out", str(out)]
    for _run in range(2):
        assert main(argv) == EXIT_OK, capsys.readouterr().err
    logs = sorted(out.rglob("session-*.log"))
    assert [log.relative_to(out).as_posix() for log in logs] == [
        f"sessions-{command}/session-1.log"
    ]
    opened = [
        line for line in logs[0].read_text(encoding="utf-8").splitlines()
        if '"Theorem goal_ : ' in line
    ]
    assert opened == ['(Add () "Theorem goal_ : %s.")' % WORKED]


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
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_jobs_below_one_is_a_usage_error(self, tmp_path, capsys, source):
        if source == "flag":
            extra = ["--jobs", "-3"]
        else:
            config = tmp_path / "config.json"
            config.write_text('{"jobs": 0}', encoding="utf-8")
            extra = ["--config", str(config)]
        code = main(bench_args(tmp_path / "runs") + extra)
        assert code == EXIT_USAGE
        jobs = -3 if source == "flag" else 0
        assert capsys.readouterr().err == f"error: jobs must be at least 1, not {jobs}\n"
        assert not (tmp_path / "runs").exists()

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

    def test_each_theorem_writes_its_own_session_logs(self, tmp_path, capsys):
        wrapper = fake_prover_wrapper(tmp_path)
        out = tmp_path / "runs"
        code = main([
            "bench", *subprocess_ports_args(wrapper), "--gateway-script", PROVE_SCRIPT,
            "--entities", entities_path(), "--proofs", proofs_path(),
            "--theorems", THEOREMS, "--jobs", "2", "--out", str(out),
        ])
        assert code == EXIT_OK, capsys.readouterr().err
        counts = session_logs(out)
        assert set(counts) == {WORKED, "P /\\ Q"}
        assert all(counts.values())

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_the_backend_spec_is_parsed_once_per_bench(self, tmp_path, monkeypatch, capsys, jobs):
        # Every theorem gets a fresh backend from one parse of the spec, and
        # the files are those of a bench that parsed it once per theorem:
        # the digests below were taken from such a run. The fixture paths
        # are relative, so the manifest names no directory of this checkout.
        load = cli._load_backend_spec
        calls = []

        def counting_load(path):
            calls.append(path)
            return load(path)

        monkeypatch.setattr(cli, "_load_backend_spec", counting_load)
        monkeypatch.chdir(FIXTURES)
        theorems = tmp_path / "theorems.txt"
        theorems.write_text(f"{WORKED}\nP /\\ Q\nA -> A\n", encoding="utf-8")
        out = tmp_path / "runs"
        code = main([
            "bench", "--backend", "synthetic", "--backend-spec", "backend_spec.json",
            "--gateway", "mock", "--gateway-script", "gateway_prove.jsonl",
            "--entities", "entities.jsonl", "--proofs", "proofs.jsonl",
            "--theorems", str(theorems), "--jobs", jobs, "--out", str(out),
        ])
        capsys.readouterr()
        assert code == EXIT_OK
        assert calls == ["backend_spec.json"]
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()[:16]
            for path in out.iterdir()
        }
        assert digests == {
            "manifest.json": "ffb13db39464f67d",
            "run-27923b57b355.json": "1944e6567fa77fb4",
            "run-2f758eb7f9b9.json": "c6bae6d5cb44774d",
            "run-a892815b190e.json": "858896a24221546f",
            "summary.json": "2f7d786cef38e179",
        }

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

    def test_a_crash_keeps_the_finished_theorems_logs(self, tmp_path, monkeypatch, capsys):
        # A later theorem raises an error that is not a ProoforgeError: the
        # run ends, and the first theorem's log is on disk as a clean run
        # writes it.
        assert main(bench_args(tmp_path / "clean")) == EXIT_OK
        run_single = cli._run_single

        def crash_after_the_worked_proof(statement, *args, **kwargs):
            if statement != WORKED:
                raise RuntimeError("prover exploded")
            return run_single(statement, *args, **kwargs)

        monkeypatch.setattr(cli, "_run_single", crash_after_the_worked_proof)
        with pytest.raises(RuntimeError, match="prover exploded"):
            main(bench_args(tmp_path / "runs"))
        capsys.readouterr()
        log_name = os.path.basename(cli._run_log_path("", WORKED))
        assert os.listdir(tmp_path / "runs") == [log_name]
        assert (tmp_path / "runs" / log_name).read_bytes() == (
            tmp_path / "clean" / log_name
        ).read_bytes()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_gateway_crash_ends_the_run_without_a_summary(
        self, tmp_path, monkeypatch, capsys, jobs
    ):
        # A RuntimeError is not a ProoforgeError, so it is outside the
        # per-theorem failure domain: the first theorem's log is kept as a
        # clean run writes it, and no summary.json or manifest.json is.
        assert main(bench_args(tmp_path / "clean") + ["--jobs", jobs]) == EXIT_OK
        build_gateway = cli._build_gateway

        class CrashesOnTheSecondTheorem:
            def __init__(self, inner):
                self.inner = inner

            def complete(self, request):
                if "P /\\ Q" in request.messages[-1][1]:
                    raise RuntimeError("gateway exploded")
                return self.inner.complete(request)

        monkeypatch.setattr(
            cli, "_build_gateway", lambda cfg: CrashesOnTheSecondTheorem(build_gateway(cfg))
        )
        with pytest.raises(RuntimeError, match="gateway exploded"):
            main(bench_args(tmp_path / "runs") + ["--jobs", jobs])
        capsys.readouterr()
        log_name = os.path.basename(cli._run_log_path("", WORKED))
        assert os.listdir(tmp_path / "runs") == [log_name]
        assert (tmp_path / "runs" / log_name).read_bytes() == (
            tmp_path / "clean" / log_name
        ).read_bytes()

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

    def test_a_bad_judge_pair_fails_the_script_load(self, tmp_path, capsys):
        script = tmp_path / "script.jsonl"
        script.write_text(
            '{"route": "probe", "default": true, "reply": "p"}\n'
            '{"route": "judge", "default": true, "yes_no": [0.5, -1.0]}\n',
            encoding="utf-8",
        )
        code = main([
            "clarity",
            *mock_ports_args(),
            "--gateway-script", str(script),
            "--entities", entities_path(),
            "--theorem", WORKED,
            "--out", str(tmp_path / "out"),
        ])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err == (
            f"error: gateway script {script}, line 2: "
            "log probabilities must be <= 0 and not NaN\n"
        )
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("configs", ["", ","])
    def test_an_empty_configuration_list_is_a_usage_error(self, tmp_path, capsys, configs):
        code = main([
            "clarity",
            *mock_ports_args(),
            "--gateway-script", CLARITY_SCRIPT,
            "--entities", entities_path(),
            "--theorem", WORKED,
            "--configs", configs,
            "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: configs {configs!r} names no configuration\n"
        )
        assert not (tmp_path / "out").exists()

    def test_an_incomplete_run_names_each_configuration_and_its_error(self, tmp_path, capsys):
        script = tmp_path / "script.jsonl"
        script.write_text('{"route": "probe", "default": true, "reply": "p"}\n', encoding="utf-8")
        code = main([
            "clarity",
            *mock_ports_args(),
            "--gateway-script", str(script),
            "--entities", entities_path(),
            "--theorem", WORKED,
            "--configs", "NoContext,Complete",
            "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_DOMAIN
        assert capsys.readouterr().err == (
            "incomplete: NoContext: script exhausted for route 'judge'\n"
            "incomplete: Complete: script exhausted for route 'judge'\n"
            "warning: at least one configuration run is incomplete\n"
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

    def counting_build(cfg, run):
        backends.append(CountingBackend(build(cfg, run)))
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
