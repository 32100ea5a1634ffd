"""Smoke tests: the stand-alone experiment scripts run against the library."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def test_ratio_experiment_writes_its_files(tmp_path):
    outdir = tmp_path / "ratio"
    proc = run_script("ratio_experiment.py", "--n", "1000", "--outdir", str(outdir),
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name in ("synthetic_channels.csv", "mlp_layer0.csv", "summary.json"):
        assert (outdir / name).is_file()


def test_cost_report_prints_one_row_per_architecture(tmp_path):
    proc = run_script("cost_report.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split()[0] for line in proc.stdout.splitlines()
            if line.strip().endswith("%")]
    assert rows == ["small_cnn", "deep_cnn", "mlp"]
