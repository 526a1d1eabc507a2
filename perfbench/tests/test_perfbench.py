"""The benchmark's own tests: ``python3 -m pytest perfbench/tests -q``."""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import hostspeed
import run
from workloads import ROOT, WORKLOADS, load_prooforge

RUN = Path(run.__file__)


def _files(directory: Path) -> dict:
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_byte_identical_per_seed(workload, tmp_path):
    gen.generate(workload, 7, tmp_path / "a", "tiny")
    gen.generate(workload, 7, tmp_path / "b", "tiny")
    gen.generate(workload, 8, tmp_path / "c", "tiny")
    first = _files(tmp_path / "a")
    assert first == _files(tmp_path / "b")
    assert first != _files(tmp_path / "c")
    assert {"entities.jsonl", "proofs.jsonl", "backend_spec.json", "config.json",
            "theorems.txt", "manifest.json"} <= set(first)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_passes_every_check(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--scale", "tiny",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    declared = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(declared)


@pytest.fixture(scope="module")
def deep_env(tmp_path_factory):
    pf = load_prooforge()
    work = tmp_path_factory.mktemp("deep")
    gen.generate("deep-small", 3, work, "tiny")
    env = run.Env(pf, work)
    env.set_up()
    return env


def _proved_attempt(env):
    for number in range(len(env.theorems)):
        attempt = env.prove(number)
        if attempt.key[0] == "Proved":
            return attempt
    raise AssertionError("no theorem was proved")


def test_checks_pass_on_honest_attempts(deep_env):
    attempts = [deep_env.prove(n) for n in range(len(deep_env.theorems))]
    failures, digest = run.check(deep_env, attempts, seed=3, scale="tiny", record=False)
    assert failures == [] and re.fullmatch(r"[0-9a-f]{64}", digest)


def test_corrupted_trace_is_caught(deep_env):
    attempts = [deep_env.prove(n) for n in range(len(deep_env.theorems))]
    victim = next(i for i, a in enumerate(attempts) if a.key[0] == "Proved")
    trace = attempts[victim].trace
    attempts[victim] = dataclasses.replace(attempts[victim], trace=trace[:-1])
    failures, _digest = run.check(deep_env, attempts, seed=3, scale="tiny", record=False)
    assert any(f"proved trace of theorem {victim}" in f for f in failures)


def test_overdrawn_budget_is_caught(deep_env):
    attempt = _proved_attempt(deep_env)
    overdrawn = dataclasses.replace(attempt, evaluations=deep_env.params.budget + 1)
    failures, _digest = run.check(deep_env, [attempt, overdrawn], seed=3, scale="tiny", record=False)
    assert any("budget overdrawn" in f for f in failures)


def test_role_counts_must_sum_to_the_total(deep_env):
    attempt = _proved_attempt(deep_env)
    short = dataclasses.replace(attempt, mock_calls=attempt.mock_calls + 1)
    failures, _digest = run.check(deep_env, [short], seed=3, scale="tiny", record=False)
    assert any("per-role calls" in f for f in failures)


def test_host_correction_scales_only_the_cpu_part():
    fastest = 0.001
    at_full_speed = hostspeed.Timing(wall_s=0.5, cpu_s=0.1, probes=(0.001, 0.001))
    assert hostspeed.corrected(at_full_speed, fastest) == pytest.approx(0.5)
    # host at half speed: 0.2 s of CPU would have taken 0.1 s; 0.3 s of waiting stays
    half_speed = hostspeed.Timing(wall_s=0.5, cpu_s=0.2, probes=(0.002, 0.002))
    assert hostspeed.corrected(half_speed, fastest) == pytest.approx(0.4)
    # CPU time of several threads beyond the wall time scales the whole wall
    threads = hostspeed.Timing(wall_s=0.5, cpu_s=0.9, probes=(0.002, 0.002))
    assert hostspeed.corrected(threads, fastest) == pytest.approx(0.25)


def test_host_probe_records_every_sample():
    speed = hostspeed.HostSpeed()
    result, timing = speed.time(sum, [1, 2, 3])
    assert result == 6 and len(speed.samples) == 2 and timing.probes == tuple(speed.samples)
    assert speed.fastest() == min(speed.samples) > 0 and speed.slowdown() >= 1.0


def test_benchmark_json_matches_the_run():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == run.PER_LAYER
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]] + list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deep-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
