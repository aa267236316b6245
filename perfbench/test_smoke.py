"""Smoke test of the benchmark itself: every workload once at its tiny size.

Run with ``python -m pytest perfbench/test_smoke.py``.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = HERE.parent, seed: int = 3) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)
    return proc.returncode, proc.stdout.strip().splitlines()


@functools.cache
def _runs(workload: str) -> dict[int, tuple[int, list[str]]]:
    return {trace: _run(workload, trace) for trace in (0, 1)}


@pytest.mark.parametrize("name", WORKLOADS)
def test_metrics_printed_with_units(name):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        _, lines = _runs(name)[trace]
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {m: v["unit"] for m, v in result["metrics"].items()} == expected
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())
        table = {line.split()[2] for line in lines if line.startswith(f"# {name} ")}
        assert set(expected) | {"failed_frac"} <= table


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_failed_checks(workload):
    for code, lines in _runs(workload).values():
        result = json.loads(lines[-1])
        frac = next(line.split()[3] for line in lines
                    if line.startswith(f"# {workload} ") and line.split()[2] == "failed_frac")
        assert (code, result["correct"], result["failed"], float(frac)) == (0, True, 0, 0.0)
        assert result["attempted"] > 0


def test_strong_duality_with_interior_multiplier():
    # Seed 1 draws the tiny binding-q4 instance whose selected subset keeps a
    # multiplier inside (0, C); the primal oracle misses there by 4.5e-6, and
    # the independent dual maximisation confirms the dual value instead.
    code, lines = _run("binding-q4", 0, seed=1)
    assert (code, json.loads(lines[-1])["failed"]) == (0, 0)


def test_strong_duality_check_catches_a_wrong_value(tmp_path):
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import gen
    import workloads
    from selcon import dual

    csv = tmp_path / "pool.csv"
    gen.write_csv(csv, *gen.binding_pool(600, 1))
    prob = workloads.load_problem(csv, (0.06, 0.5, 0.44), 0.3, 10.0, "by_group",
                                  dual.TrainerConfig(seed=0))
    subset = tuple(range(8))
    state = dual.train_dual_exact(subset, prob.train, prob.valpart, prob.lam, prob.C, prob.trainer)
    sel = workloads.Selected(subset, state.mu, state.model, state.f_value, prob.valpart)
    assert workloads.strong_duality(subset, prob, sel) is None
    sel.f_value *= 1 + 1e-5
    assert workloads.strong_duality(subset, prob, sel) is not None


def test_fails_without_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    code, lines = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
