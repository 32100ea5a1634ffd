"""Smoke tests: the stand-alone experiment script and the architecture files run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from l1bn.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_ratio_experiment_writes_its_files(tmp_path):
    outdir = tmp_path / "ratio"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ratio_experiment.py"), "--outdir", str(outdir)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in outdir.iterdir()) == [f"mlp_layer{i}.csv" for i in range(3)]


@pytest.mark.parametrize("arch", sorted((ROOT / "scripts").glob("*.arch")), ids=lambda p: p.stem)
def test_every_arch_file_costs_the_paper_headline(arch, tmp_path):
    # with the root omitted only per-element terms remain, whatever the layer
    # shapes: 3 ns/15 uW per square against 2 ns/8 uW per sign+abs give 1.5x
    # and a (15 - 8)/15 = 46.67% power saving
    assert main(["cost", "--arch", str(arch), "--outdir", str(tmp_path)]) == 0
    totals = json.loads((tmp_path / "totals.json").read_text(encoding="utf-8"))
    assert totals["time_ratio_l2_over_l1"] == 1.5
    assert abs(totals["power_saving_pct"] - 700 / 15) <= 1e-9
