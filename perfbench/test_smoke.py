"""Smoke tests of the benchmark itself (a few seconds each).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))


def _tiny(trace, capsys):
    code = run.main(["--workload", "ladder", "--tiny", "--seconds", "0.5",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_tiny_run_emits_every_metric(at_root, capsys, trace, section):
    code, summary = _tiny(trace, capsys)
    assert code == 0
    assert summary["correct"] is True
    assert summary["failed"] == 0 and summary["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == want


def test_tampered_hash_is_counted_as_failed(at_root, capsys, monkeypatch):
    monkeypatch.setitem(reference.PINNED_SHA256, "sl2/Q", "0" * 64)
    code, summary = _tiny(0, capsys)
    assert code != 0
    assert summary["correct"] is False
    assert summary["failed"] == summary["attempted"] >= 1


def test_traced_self_times_fit_in_wall_time(at_root, capsys):
    code, _ = _tiny(1, capsys)
    assert code == 0
    record = json.loads(
        (HERE / "out" / "ladder-seed0-trace1-tiny.json").read_text("ascii"))
    traced = [p for p in record["passes"] if "self_total_s" in p]
    assert len(traced) >= 2
    for p in traced:
        assert 0 < p["self_total_s"] <= p["wall_s"]
    assert record["trace_problems"] == []


def test_trace_check_catches_count_drift_and_overlong_self_time():
    counts = {name: 1 for name in run.tracer.EXACT_COUNTS}
    drifted = {**counts, "linalg.fold.calls": 2}
    result = {"traced_passes": [
        {"layers": counts, "self_total_s": 1.0, "wall_s": 2.0},
        {"layers": drifted, "self_total_s": 3.0, "wall_s": 2.0},
    ]}
    problems = run.check_trace(result)
    assert len(problems) == 2
    assert problems[0].startswith("linalg.fold.calls")
    assert "self times" in problems[1]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_inputs_are_a_function_of_the_seed(tmp_path):
    a, b, c = (tmp_path / d for d in "abc")
    for d in (a, b, c):
        d.mkdir()
    inputs.write_inputs(a, 7)
    inputs.write_inputs(b, 7)
    inputs.write_inputs(c, 8)
    for name in ("takiff.json", "sl3-gf3-rebased.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert ((a / "sl3-gf3-rebased.json").read_bytes()
            != (c / "sl3-gf3-rebased.json").read_bytes())


def test_basis_change_is_invertible_for_every_seed():
    for seed in range(20):
        b, binv = inputs.draw_basis_change(random.Random(seed), 8, 3)
        prod = [[sum(b[i][k] * binv[k][j] for k in range(8)) % 3
                 for j in range(8)] for i in range(8)]
        assert prod == [[int(i == j) for j in range(8)] for i in range(8)]
        assert sum(1 for i in range(8) for j in range(8)
                   if i != j and b[i][j]) == len(inputs.BASIS_OFF_DIAGONAL)
