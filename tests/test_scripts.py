"""Smoke runs of the experiment scripts against the studies they wrap."""

import json
import os
import subprocess
import sys
from pathlib import Path

from selcon.metrics import sweep_rows_to_csv
from selcon.scenarios import delta_trend, fairness_study

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, str(ROOT / "scripts" / name), *flags],
                   env=env, check=True, capture_output=True)


def test_delta_sweep_writes_the_study_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    run_script("delta_sweep.py", "--seeds", "1", "--n", "60", "--k", "6", "--out", str(out))
    lines = out.read_text(encoding="utf-8").splitlines()
    rows = delta_trend(1, [8.0, 4.0, 1.0, 0.25], n=60, d=4, k=6, lam=0.3, C=10.0)
    assert lines[0] == "method,k,delta,seed,metric,value"
    assert len(lines) == 1 + len(rows) == 5
    assert out.read_text(encoding="utf-8") == sweep_rows_to_csv(rows)


def test_fairness_demo_writes_the_study_rows(tmp_path):
    out = tmp_path / "fairness.json"
    run_script("fairness_demo.py", "--seeds", "1", "--k", "4", "--out", str(out))
    report = json.loads(out.read_text(encoding="utf-8"))
    rows = fairness_study(1, [1.0, 0.5, 0.25], k=4, lam=0.1, C=20.0)
    assert set(report) == {"k", "C", "rows"}
    assert len(report["rows"]) == len(rows) == 3
    assert report == {"k": 4, "C": 20.0, "rows": rows}
