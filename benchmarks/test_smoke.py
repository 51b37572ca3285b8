"""Smoke test of the benchmark: every workload at tiny size, plus negative controls.

    python3 -m pytest benchmarks/test_smoke.py -q

Not part of the package suite (pytest's testpaths is tests/); it checks
that run.py emits exactly the metrics BENCHMARK.json names, that its
output checks catch a corrupted result, and that it refuses to run
without the package sources.
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seed", "3", "--seconds", "1", "--size", "tiny"]

# Workload-specific end-to-end figures printed on the detail lines.
DETAIL_NAMES = {
    "train": ["train_rot_per_s.quat", "train_rot_per_s.6d", "train_rot_per_s.A", "score_per_s",
              "gradcheck_per_s", "cli_train_ms"],
    "solve": ["solve_p50_ms", "solve_tail_ms", "solves_per_s", "cli_wahba_ms", "cli_avg_ms"],
}


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def run_tiny(workload, trace):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--trace", str(trace), *TINY],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    return {line.split(":")[0] for line in lines[:-1]}, result


@pytest.mark.parametrize("workload", sorted(DETAIL_NAMES))
def test_end_to_end_metrics(workload):
    names, result = run_tiny(workload, 0)
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    shared = ["setup_s.raw", "work_per_s.raw", "cli_ms.raw", "reference_kernel_ms",
              "reference_process_ms", "peak_rss_mb", "failed_frac"]
    for name in DETAIL_NAMES[workload] + shared:
        assert name in names


@pytest.mark.parametrize("workload", sorted(DETAIL_NAMES))
def test_per_layer_metrics(workload):
    _, result = run_tiny(workload, 1)
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["symrep.symeig4.calls"] > 0
    if workload == "solve":
        assert metrics["symrep.symeig4.matrices_per_call"] == 1.0
        assert metrics["symrep.symeig4.calls_b1"] == metrics["symrep.symeig4.calls"]
    else:
        assert metrics["symrep.symeig4.calls_b2_999"] > 0
        assert metrics["nn.dt_evaluate.self_ms"] > 0 and metrics["cli.run_grad_check.self_ms"] > 0


def run_in_process(argv, capsys):
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_flipped_q_star_is_counted_as_failure(monkeypatch, capsys):
    solve = run.wahba.solve_wahba
    monkeypatch.setattr(run.wahba, "solve_wahba", lambda c, **kw: -solve(c, **kw))
    result = run_in_process(["--workload", "solve", "--trace", "0", *TINY], capsys)
    assert not result["correct"] and result["failed"] > 0


def test_corrupted_jacobian_is_counted_as_failure(monkeypatch, capsys):
    monkeypatch.setattr(run.cli, "run_grad_check",
                        functools.partial(run.cli.run_grad_check, self_test=True))
    result = run_in_process(["--workload", "train", "--trace", "0", *TINY], capsys)
    assert not result["correct"] and result["failed"] > 0


def test_missing_layer_is_reported_absent(monkeypatch, capsys):
    monkeypatch.setitem(run.PER_LAYER, "symrep.removed_function.self_ms", "ms")
    assert run.main(["--workload", "solve", "--trace", "1", *TINY]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert "symrep.removed_function: absent (not a public so3sym function)" in out
    assert json.loads(out[-1])["metrics"]["symrep.removed_function.self_ms"]["value"] == 0.0


def test_refuses_to_run_without_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / BENCH.name / "run.py"),
                           "--workload", "solve", "--trace", "0", *TINY],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
