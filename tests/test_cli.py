import argparse
import csv
import dataclasses
import importlib.util
import json
import math
import os
import shutil
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from l1bn import cli, gradcheck
from l1bn.cli import build_parser, main
from l1bn.costmodel import CostProfile, model_report, parse_architecture
from l1bn.gradcheck import GradReport, ParamCheck
from l1bn.ratio import channelwise_ratio_map
from l1bn.tensor import Rng


def read_json(path):
    return json.loads(path.read_text())


class TestGradcheckCommand:
    def test_default_run_three_reports_exit_zero(self, tmp_path, capsys):
        outdir = tmp_path / "gc"
        assert main(["gradcheck", "--outdir", str(outdir)]) == 0
        payload = read_json(outdir / "reports.json")
        assert payload["passed"] is True
        assert len(payload["reports"]) == 3
        assert {r["mode"] for r in payload["reports"]} == {"l2", "l1", "l1c"}
        assert payload["schema_version"] == 1
        out = capsys.readouterr().out
        assert out.count("[ok]") == 3

    def test_impossible_threshold_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "GRADCHECK_THRESHOLD", 1e-12)
        assert main(["gradcheck", "--outdir", str(tmp_path / "gc")]) == 1
        assert read_json(tmp_path / "gc" / "reports.json")["threshold"] == 1e-12

    @pytest.mark.parametrize("mode", ["l2", "l1", "l1c"])
    @pytest.mark.parametrize("side, code, status", [("at", 0, "ok"), ("below", 1, "FAIL")])
    def test_threshold_edge_is_inclusive(self, tmp_path, capsys, monkeypatch,
                                         mode, side, code, status):
        # a max_rel_err equal to the threshold passes; one ulp of threshold less fails
        argv = ["gradcheck", "--modes", mode]
        assert main(argv + ["--outdir", str(tmp_path / "ref")]) == 0
        worst = read_json(tmp_path / "ref" / "reports.json")["max_rel_err"]
        threshold = worst if side == "at" else math.nextafter(worst, 0.0)
        capsys.readouterr()
        monkeypatch.setattr(cli, "GRADCHECK_THRESHOLD", threshold)
        assert main(argv + ["--outdir", str(tmp_path / "gc")]) == code
        payload = read_json(tmp_path / "gc" / "reports.json")
        assert payload["threshold"] == threshold
        assert payload["max_rel_err"] == worst
        assert payload["passed"] is (code == 0)
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith(f"[{status}]")
        assert len(lines) == 1 + code

    def test_both_layouts(self, tmp_path):
        outdir = tmp_path / "gc"
        assert main(["gradcheck", "--layouts", "2d,4d", "--modes", "l1",
                     "--outdir", str(outdir)]) == 0
        payload = read_json(outdir / "reports.json")
        shapes = [tuple(r["shape"]) for r in payload["reports"]]
        assert (7, 3) in shapes and (7, 3, 3, 2) in shapes

    def test_manifest_reproduces_seed_and_options(self, tmp_path):
        outdir = tmp_path / "gc"
        main(["gradcheck", "--seed", "77", "--outdir", str(outdir)])
        manifest = read_json(outdir / "manifest.json")
        assert manifest["seed"] == 77
        assert manifest["options"]["modes"] == "l2,l1,l1c"
        assert manifest["command"] == "gradcheck"
        assert manifest["version"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_probe_names_slot_and_index(self, tmp_path, capsys, monkeypatch):
        # a step of 1e308 overflows the first γ probe; the message names γ's own
        # index, not the flat coordinate of the one pass over (x, γ, β)
        monkeypatch.setattr(gradcheck, "DEFAULT_STEP", 1e308)
        assert main(["gradcheck", "--outdir", str(tmp_path / "gc")]) == 1
        out, err = capsys.readouterr()
        assert err.splitlines() == ["gradcheck: non-finite probe value near gamma (0,)"]
        assert out == ""
        assert not (tmp_path / "gc").exists()

    @pytest.mark.parametrize("slot, flat, modes, line", [
        ("d_gamma", 1, ("l2", "l1", "l1c"), "non-finite fused backward value at gamma (1,)"),
        ("d_input", 0, ("l1",), "non-finite fused backward value at input (0, 0)"),
    ], ids=["gamma-every-mode", "input-l1-only"])
    def test_nan_analytic_gradient_fails_in_one_line(self, tmp_path, capsys, monkeypatch,
                                                     slot, flat, modes, line):
        # neither NaN may pass as a max_rel_err: max() would skip it or keep it by position
        real = gradcheck.bn_backward

        def poisoned(d_y, cache, params):
            grads = real(d_y, cache, params)
            if params.mode.value not in modes:
                return grads
            values = getattr(grads, slot).copy()
            values.flat[flat] = np.nan
            return dataclasses.replace(grads, **{slot: values})

        monkeypatch.setattr(gradcheck, "bn_backward", poisoned)
        assert main(["gradcheck", "--outdir", str(tmp_path / "gc")]) == 1
        out, err = capsys.readouterr()
        assert err.splitlines() == [f"gradcheck: {line}"]
        assert out == ""
        assert not (tmp_path / "gc").exists()


class TestRatioCommand:
    def test_gaussian_summary_near_constant(self, tmp_path, capsys):
        outdir = tmp_path / "ratio"
        assert main(["ratio", "--n", "100000", "--outdir", str(outdir)]) == 0
        summary = read_json(outdir / "summary.json")
        assert abs(summary["mean_ratio"] - math.sqrt(math.pi / 2)) <= 0.01
        assert summary["in_gaussian_band"] is True
        csv_lines = (outdir / "ratios.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "channel,sigma_l2,sigma_l1,ratio"
        assert len(csv_lines) == 2

    @pytest.mark.parametrize("source", [["--n", "50000"], ["--channel-map"]],
                             ids=["stream", "channel-map"])
    def test_uniform_control_flagged(self, tmp_path, source):
        outdir = tmp_path / "ratio"
        assert main(["ratio", "--dist", "uniform", *source, "--outdir", str(outdir)]) == 0
        summary = read_json(outdir / "summary.json")
        assert abs(summary["mean_ratio"] - 2 / math.sqrt(3)) <= 0.01
        assert summary["in_gaussian_band"] is False

    def test_channel_map(self, tmp_path):
        outdir = tmp_path / "ratio"
        assert main(["ratio", "--channel-map", "--channels", "6",
                     "--outdir", str(outdir)]) == 0
        summary = read_json(outdir / "summary.json")
        assert summary["num_features"] == 6
        d = cli.RATIO_DEFAULTS
        report = channelwise_ratio_map(
            Rng(cli.DEFAULT_SEED).normal((d["m"], 6), d["mu"], d["sigma"]))
        assert summary["mean_ratio"] == report.mean_ratio
        with open(outdir / "ratios.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["channel", "sigma_l2", "sigma_l1", "ratio"]
        assert rows[1:] == [[str(v) for v in row] for row in report.rows()]
        assert len(rows) == 7


class TestTrainCommand:
    def test_sanity_preset(self, tmp_path, capsys):
        outdir = tmp_path / "train"
        assert main(["train", "--preset", "sanity", "--outdir", str(outdir)]) == 0
        summary = read_json(outdir / "summary.json")
        assert min(summary["acc_l2"]) >= 0.99
        assert min(summary["acc_l1"]) >= 0.99
        csv_lines = (outdir / "l2_seed1234.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "epoch,train_loss,train_acc,test_acc"
        assert len(csv_lines) == 16  # header + 15 epochs

    def test_gap_over_tolerance_fails_with_one_line(self, tmp_path, capsys, monkeypatch):
        argv = ["train", "--preset", "parity", "--runs", "1", "--epochs", "1"]
        assert main(argv + ["--outdir", str(tmp_path / "pass")]) == 0
        passing = capsys.readouterr().out
        gap = read_json(tmp_path / "pass" / "summary.json")["gap_pp"]
        assert 0.0 < gap <= cli.PARITY_TOLERANCE_PP == 2.0
        monkeypatch.setattr(cli, "PARITY_TOLERANCE_PP", 0.0)
        assert main(argv + ["--outdir", str(tmp_path / "fail")]) == 1
        assert capsys.readouterr().out.splitlines() == [
            *passing.splitlines(), f"train failed: gap {gap:.2f}pp > tolerance 0.0pp"]

    @pytest.mark.parametrize("side, code", [("at", 0), ("below", 1)])
    def test_tolerance_edge_is_inclusive(self, tmp_path, capsys, monkeypatch, side, code):
        # a gap_pp equal to the tolerance passes; one ulp of tolerance less fails
        argv = ["train", "--preset", "parity", "--runs", "1", "--epochs", "1"]
        assert main(argv + ["--outdir", str(tmp_path / "ref")]) == 0
        gap = read_json(tmp_path / "ref" / "summary.json")["gap_pp"]
        tolerance = gap if side == "at" else math.nextafter(gap, 0.0)
        capsys.readouterr()
        monkeypatch.setattr(cli, "PARITY_TOLERANCE_PP", tolerance)
        assert main(argv + ["--outdir", str(tmp_path / "run")]) == code
        assert read_json(tmp_path / "run" / "summary.json")["gap_pp"] == gap
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + code
        assert all(line.startswith("train failed: ") for line in lines[1:])

    @pytest.mark.parametrize("preset", ["sanity", "parity"])
    def test_parity_csvs_come_from_parity_gap_records(self, tmp_path, monkeypatch, preset):
        captured, parity_gap = {}, cli.parity_gap

        def recording_parity_gap(*args, **kwargs):
            summary = parity_gap(*args, **kwargs)
            captured.update(summary["records"])
            return summary

        monkeypatch.setattr(cli, "parity_gap", recording_parity_gap)
        outdir = tmp_path / "train"
        assert main(["train", "--preset", preset, "--runs", "2", "--epochs", "1",
                     "--outdir", str(outdir)]) == 0
        summary = read_json(outdir / "summary.json")
        assert "records" not in summary
        assert set(captured) == {"l2", "l1"}
        for mode, records in captured.items():
            assert [(r.mode, r.seed) for r in records] == [(mode, 1234), (mode, 1235)]
            # one epoch takes every run well above chance (0.1 for parity, 0.5 for sanity)
            assert min(r.final_test_acc for r in records) >= 0.7
            assert summary[f"acc_{mode}"] == [r.final_test_acc for r in records]
            for rec in records:
                with open(outdir / f"{mode}_seed{rec.seed}.csv", newline="") as fh:
                    rows = list(csv.reader(fh))
                assert rows[0] == ["epoch", "train_loss", "train_acc", "test_acc"]
                assert rows[1:] == [[str(v) for v in row] for row in rec.rows()]

    def test_no_bn_mode_available(self, tmp_path):
        outdir = tmp_path / "train"
        assert main(["train", "--preset", "sanity", "--modes", "none,l1c", "--runs", "1",
                     "--epochs", "1", "--outdir", str(outdir)]) == 0
        summary = read_json(outdir / "summary.json")
        assert {k[len("acc_"):] for k in summary if k.startswith("acc_")} == {"none", "l1c"}

    def test_modes_apply_to_parity_preset(self, tmp_path, capsys):
        outdir = tmp_path / "train"
        assert main(["train", "--preset", "parity", "--modes", "l1c", "--runs", "1",
                     "--epochs", "1", "--outdir", str(outdir)]) == 0
        assert sorted(p.name for p in outdir.glob("*.csv")) == ["l1c_seed1234.csv"]
        summary = read_json(outdir / "summary.json")
        assert "gap_pp" not in summary
        assert set(summary) >= {"acc_l1c", "mean_acc_l1c", "diverged_l1c"}
        assert capsys.readouterr().out.startswith("parity: mean acc L1C=")

    def test_runs_apply_to_sanity_preset(self, tmp_path):
        outdir = tmp_path / "train"
        assert main(["train", "--preset", "sanity", "--runs", "2", "--epochs", "1",
                     "--outdir", str(outdir)]) == 0
        assert sorted(p.name for p in outdir.glob("*.csv")) == [
            "l1_seed1234.csv", "l1_seed1235.csv", "l2_seed1234.csv", "l2_seed1235.csv"]
        assert read_json(outdir / "summary.json")["seeds"] == [1234, 1235]

    @pytest.mark.parametrize("argv, seeds", [
        (["--preset", "sanity", "--runs", "2", "--epochs", "1"], (1234, 1235)),
        (["--preset", "parity", "--runs", "1", "--epochs", "1"], (1234,)),
    ], ids=["sanity", "parity"])
    def test_outputs_bit_identical_across_runs(self, tmp_path, argv, seeds):
        # no argv here is hashed, so the fingerprint's rerun does not cover it;
        # the manifests differ only in the recorded output path
        runs = []
        for outdir in (tmp_path / "a", tmp_path / "b"):
            assert main(["train", *argv, "--outdir", str(outdir)]) == 0
            files = snapshot(outdir)
            manifest = json.loads(files.pop("manifest.json"))
            manifest["options"].pop("outdir")
            runs.append((files, manifest))
        assert runs[0] == runs[1]
        assert sorted(runs[0][0]) == sorted(
            [f"{m}_seed{seed}.csv" for m in ("l2", "l1") for seed in seeds] + ["summary.json"])


class TestCostCommand:
    ARCH = "fc1 256 1 1 100\nconv1 32 8 8 16\n"

    def test_totals_and_headline_figures(self, tmp_path, capsys):
        arch = tmp_path / "net.arch"
        arch.write_text(self.ARCH)
        outdir = tmp_path / "cost"
        assert main(["cost", "--arch", str(arch), "--outdir", str(outdir)]) == 0
        totals = read_json(outdir / "totals.json")
        assert totals["time_ratio_l2_over_l1"] == 1.5
        assert totals["power_saving_pct"] == pytest.approx(100 * 7 / 15)
        assert totals["power_saving_pct_round10"] == 50.0
        out = capsys.readouterr().out
        assert "1.50x" in out and "46.7%" in out and "~50%" in out
        profile = model_report(parse_architecture(arch))
        with open(outdir / "layers.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["name", "m", "h", "w", "c", "sign_l1", "abs_l1", "square_l2",
                           "root_l2", "time_l2_ns", "time_l1_ns", "power_l2_uw", "power_l1_uw"]
        assert rows[1:] == [[str(v) for v in (
            *vars(lc.shape).values(),
            lc.counts_l1["sign"], lc.counts_l1["abs"], lc.counts_l2["square"],
            lc.counts_l2["root"], lc.weighted_l2["time_ns"], lc.weighted_l1["time_ns"],
            lc.weighted_l2["power_uw"], lc.weighted_l1["power_uw"])] for lc in profile.layers]
        assert len(rows) == 3

    def test_include_root_changes_totals(self, tmp_path):
        arch = tmp_path / "net.arch"
        arch.write_text(self.ARCH)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["cost", "--arch", str(arch), "--outdir", str(out_a)])
        main(["cost", "--arch", str(arch), "--include-root", "--outdir", str(out_b)])
        assert (read_json(out_b / "totals.json")["time_ratio_l2_over_l1"]
                > read_json(out_a / "totals.json")["time_ratio_l2_over_l1"])

    def test_custom_costs_override(self, tmp_path):
        arch = tmp_path / "net.arch"
        arch.write_text("fc1 16 1 1 4\n")
        costs = tmp_path / "costs.json"
        costs.write_text(json.dumps({"square": {"time_ns": 6.0}}))
        outdir = tmp_path / "cost"
        assert main(["cost", "--arch", str(arch), "--costs", str(costs),
                     "--outdir", str(outdir)]) == 0
        totals = read_json(outdir / "totals.json")
        assert totals["time_ratio_l2_over_l1"] == 3.0


ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
SAMPLE_ARCH = str(ROOT / "scripts" / "sample.arch")

# a quick successful run of each command, and the files it writes after manifest.json
QUICK_RUNS = {
    "gradcheck": (["gradcheck", "--modes", "l2"], ["reports.json"]),
    "ratio": (["ratio", "--n", "1000"], ["ratios.csv", "summary.json"]),
    "train": (["train", "--runs", "1", "--epochs", "1"],
              ["l2_seed1234.csv", "l1_seed1234.csv", "summary.json"]),
    "cost": (["cost", "--arch", SAMPLE_ARCH], ["layers.csv", "totals.json"]),
}


def snapshot(outdir):
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


def write_arch(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    return str(path)


def shrinking_runs(tmp_path):
    """(first, second) argv pairs whose second run writes shorter files."""
    long_arch = write_arch(tmp_path, "three_layers.arch", [
        "conv1 32 16 16 64", "conv2 32 8 8 128", "fc1 256 1 1 1000"])
    short_arch = write_arch(tmp_path, "one.arch", ["fc1 16 1 1 4"])
    return {
        "gradcheck": (["gradcheck", "--modes", "l2,l1,l1c"], ["gradcheck", "--modes", "l2"]),
        # summary.json holds scalars only: the longer map's counts lengthen it
        "ratio": (["ratio", "--channel-map", "--channels", "16", "--m", "100000"],
                  ["ratio", "--channel-map", "--channels", "3"]),
        "cost": (["cost", "--arch", long_arch], ["cost", "--arch", short_arch]),
    }


# Runs every subcommand with an audit hook that records each open under the
# output directory; prints the (path, flags) pairs as JSON.
OPEN_RECORDER = """
import json, os, sys
from l1bn.cli import main

outdir, cases = sys.argv[1], json.loads(sys.argv[2])
opened = []

def record(event, args):
    if event == "open" and not isinstance(args[0], int):
        path = os.fsdecode(os.fspath(args[0]))
        if path.startswith(outdir):
            opened.append((path, args[2]))

sys.addaudithook(record)
for i, argv in enumerate(cases):
    main(argv + ["--outdir", os.path.join(outdir, str(i))])
print(json.dumps(opened))
"""


def read_csv(path):
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return {name: [row[k] for row in rows] for k, name in enumerate(header)}


class TestJsonIsOverTheCsvRows:
    """The JSON's figures are over the rows of the CSV, the only copy of those rows."""

    @pytest.mark.parametrize("argv", [["ratio"], ["ratio", "--dist", "uniform"],
                                      ["ratio", "--channel-map"]], ids=" ".join)
    def test_ratio_summary(self, tmp_path, argv):
        assert main(argv + ["--outdir", str(tmp_path)]) == 0
        summary = read_json(tmp_path / "summary.json")
        columns = read_csv(tmp_path / "ratios.csv")
        assert columns["channel"] == [str(k) for k in range(summary["num_features"])]
        sigma_l2, sigma_l1, ratios = (np.array(columns[name], dtype=np.float64)
                                      for name in ("sigma_l2", "sigma_l1", "ratio"))
        # a float's str round-trips, so the CSV's values are the report's bit for bit
        assert np.array_equal(ratios, sigma_l2 / sigma_l1)
        assert summary["mean_ratio"] == float(np.mean(ratios))
        assert summary["gaussian_gap"] == summary["mean_ratio"] - summary["gaussian_constant"]
        assert summary["in_gaussian_band"] == (
            abs(summary["gaussian_gap"]) <= summary["band_half_width"])

    @pytest.mark.parametrize("arch", ["sample.arch", "deep_cnn.arch", "mlp.arch"])
    def test_cost_totals(self, tmp_path, arch):
        assert main(["cost", "--arch", str(ROOT / "scripts" / arch),
                     "--outdir", str(tmp_path)]) == 0
        totals = read_json(tmp_path / "totals.json")
        columns = read_csv(tmp_path / "layers.csv")
        assert columns["name"] == [s.name for s in parse_architecture(ROOT / "scripts" / arch)]

        def column_sum(name, kind):
            return sum(kind(v) for v in columns[name])

        # the counts are integers: each total is exactly its column's sum
        assert totals["counts_l1"] == {"sign": column_sum("sign_l1", int),
                                       "abs": column_sum("abs_l1", int),
                                       "square": 0, "root": 0}
        assert totals["counts_l2"] == {"sign": 0, "abs": 0,
                                       "square": column_sum("square_l2", int),
                                       "root": column_sum("root_l2", int)}
        # the weighted totals weigh the summed counts, so they match up to rounding
        for norm in ("l2", "l1"):
            for field, column in (("time_ns", f"time_{norm}_ns"),
                                  ("power_uw", f"power_{norm}_uw")):
                assert totals[f"totals_{norm}"][field] == pytest.approx(
                    column_sum(column, float), rel=1e-12, abs=0)
        assert totals["time_ratio_l2_over_l1"] == (
            totals["totals_l2"]["time_ns"] / totals["totals_l1"]["time_ns"])
        assert totals["power_saving_fraction"] == (
            1.0 - totals["totals_l1"]["power_uw"] / totals["totals_l2"]["power_uw"])


class TestOutputFiles:
    """Outputs are rewritten in place: same bytes as a fresh write, no truncating open."""

    @pytest.mark.parametrize("case", ["gradcheck", "ratio", "cost"])
    def test_rerun_with_shorter_outputs_leaves_fresh_bytes(self, tmp_path, case):
        first, second = shrinking_runs(tmp_path)[case]
        outdir = tmp_path / "out"
        assert main(second + ["--outdir", str(outdir)]) == 0
        fresh = snapshot(outdir)
        shutil.rmtree(outdir)
        assert main(first + ["--outdir", str(outdir)]) == 0
        longer = snapshot(outdir)
        assert main(second + ["--outdir", str(outdir)]) == 0
        assert snapshot(outdir) == fresh
        assert set(longer) == set(fresh)
        assert all(len(longer[name]) > len(fresh[name]) for name in fresh)

    @pytest.mark.parametrize("command", QUICK_RUNS)
    def test_every_output_goes_through_one_writer(self, tmp_path, monkeypatch, command):
        # with _write_output recording instead of writing, no file may appear
        argv, names = QUICK_RUNS[command]
        writes = []
        monkeypatch.setattr(cli, "_write_output", lambda path, text: writes.append(path))
        outdir = tmp_path / "out"
        assert main(argv + ["--outdir", str(outdir)]) == 0
        assert writes == [outdir / name for name in ["manifest.json", *names]]
        assert not outdir.exists()

    def test_json_keys_are_the_record_fields(self, tmp_path):
        # a field added to a record reaches the file with no second edit
        def names(cls):
            return {f.name for f in dataclasses.fields(cls)}

        assert main(["gradcheck", "--layouts", "2d,4d", "--outdir", str(tmp_path / "gc")]) == 0
        reports = read_json(tmp_path / "gc" / "reports.json")["reports"]
        assert len(reports) == 6
        for report in reports:
            assert set(report) == names(GradReport)
            for slot in ("input", "gamma", "beta"):
                assert set(report[slot]) == names(ParamCheck)
        assert main(["cost", "--arch", SAMPLE_ARCH, "--outdir", str(tmp_path / "cost")]) == 0
        totals = read_json(tmp_path / "cost" / "totals.json")
        # the per-layer figures are the rows of layers.csv only
        assert set(totals) == names(CostProfile) - {"layers"} | {
            "schema_version", "power_saving_pct", "power_saving_pct_round10"}
        assert main(["ratio", "--outdir", str(tmp_path / "ratio")]) == 0
        assert set(read_json(tmp_path / "ratio" / "summary.json")) == {
            "schema_version", "mean_ratio", "gaussian_constant", "gaussian_gap",
            "in_gaussian_band", "band_half_width", "sample_count", "num_features"}

    def test_file_modes_match_open_for_writing(self, tmp_path):
        outdir = tmp_path / "cost"
        argv = ["cost", "--arch", SAMPLE_ARCH, "--outdir", str(outdir)]
        old = os.umask(0o002)
        try:
            with open(tmp_path / "reference", "w"):
                pass
            assert main(argv) == 0
        finally:
            os.umask(old)
        expected = stat.S_IMODE((tmp_path / "reference").stat().st_mode)
        assert expected == 0o664
        assert {stat.S_IMODE(p.stat().st_mode) for p in outdir.iterdir()} == {expected}
        # a file that exists keeps its mode, as it does under open(path, "w")
        (outdir / "layers.csv").chmod(0o600)
        before = snapshot(outdir)
        assert main(argv) == 0
        assert stat.S_IMODE((outdir / "layers.csv").stat().st_mode) == 0o600
        assert snapshot(outdir) == before

    def test_no_subcommand_opens_an_output_with_truncation(self, tmp_path):
        cases = [
            ["gradcheck"],
            ["ratio", "--n", "1000"],
            ["ratio", "--channel-map", "--channels", "2"],
            ["train", "--preset", "sanity", "--modes", "l2,none", "--epochs", "1"],
            ["train", "--preset", "parity", "--runs", "1", "--epochs", "1"],
            ["cost", "--arch", SAMPLE_ARCH],
        ]
        outdir = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-c", OPEN_RECORDER, str(outdir), json.dumps(cases)],
            env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        opened = json.loads(proc.stdout.splitlines()[-1])
        written = {str(p) for p in outdir.rglob("*") if p.is_file()}
        # the hook saw every output file: a quiet hook would pass vacuously
        assert {path for path, _ in opened} == written and len(written) >= 6 * 2
        assert [path for path, flags in opened if flags & os.O_TRUNC] == []

    def test_outputs_are_utf8_whatever_the_locale(self, tmp_path):
        arch = write_arch(tmp_path, "net.arch", ["conv_\u03b1 32 8 8 16"])
        here, c_locale = tmp_path / "here", tmp_path / "c_locale"
        assert main(["cost", "--arch", arch, "--outdir", str(here)]) == 0
        env = {k: v for k, v in os.environ.items() if not k.startswith("LC_")}
        env.update(LANG="C", LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "l1bn.cli", "cost", "--arch", arch,
             "--outdir", str(c_locale)], env=env, capture_output=True, text=True,
            timeout=60)
        assert proc.returncode == 0, proc.stderr
        csv_bytes = (c_locale / "layers.csv").read_bytes()
        assert csv_bytes.split(b"\r\n")[1].startswith("conv_\u03b1,".encode("utf-8"))
        assert csv_bytes == (here / "layers.csv").read_bytes()


# scripts/fingerprint.py holds the one table of option cases, OPTION_CASES, and
# the one table of failing runs, ERROR_RUNS
_spec = importlib.util.spec_from_file_location("fingerprint", ROOT / "scripts" / "fingerprint.py")
fingerprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprint)


@pytest.fixture
def prepared(tmp_path, monkeypatch):
    """A working directory holding the fingerprint's input files."""
    fingerprint.prepare(tmp_path)
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("argv, code, line", fingerprint.ERROR_RUNS,
                         ids=[argv or "no-command" for argv, _, _ in fingerprint.ERROR_RUNS])
def test_error_run(prepared, capsys, argv, code, line):
    # exit 1 writes exactly its one stderr line, with no warning before it; a
    # usage error ends in its line where the table gives one; neither writes output
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = main(argv.split() + ["--outdir", "out"] if argv else [])
        except SystemExit as exc:
            result = exc.code
    out, err = capsys.readouterr()
    assert result == code
    assert out == ""
    assert not (prepared / "out").exists()
    if code == 1:
        assert err.splitlines() == [line]
        assert caught == []
    elif line is not None:
        assert err.splitlines()[-1] == line


class TestOneLineErrors:
    """Failing input ends the run with exit 1 and one stderr line, with no
    warning before it and no output directory."""

    @pytest.mark.parametrize("command", QUICK_RUNS)
    def test_unwritable_outdir(self, tmp_path, capsys, command):
        # the manifest is the first write, so its path is the one named
        argv = QUICK_RUNS[command][0]
        blocker = tmp_path / "file"
        blocker.write_bytes(b"")
        outdir = blocker / "out"
        assert main(argv + ["--outdir", str(outdir)]) == 1
        out, err = capsys.readouterr()
        assert err.splitlines() == [
            f"{argv[0]}: [Errno 20] Not a directory: '{outdir / 'manifest.json'}'"]
        assert out == ""
        assert blocker.read_bytes() == b""

    def test_empty_costs_path_is_read(self, prepared, capsys):
        # ERROR_RUNS splits each argv on spaces, so it cannot hold an empty argument
        assert main(["cost", "--arch", "sample.arch", "--costs", "", "--outdir", "out"]) == 1
        assert capsys.readouterr() == ("", "cost: [Errno 2] No such file or directory: ''\n")
        assert not (prepared / "out").exists()


class TestUsage:
    def test_parser_built_once_and_reusable(self, tmp_path):
        # the cached parser must carry no state from one call into the next
        assert build_parser() is build_parser()
        first, last = tmp_path / "first", tmp_path / "last"
        assert main(["gradcheck", "--outdir", str(first)]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--d", "0", "--outdir", str(tmp_path / "bad")])
        assert exc.value.code == 2
        assert main(["ratio", "--n", "1000", "--seed", "5",
                     "--outdir", str(tmp_path / "ratio")]) == 0
        assert main(["gradcheck", "--outdir", str(last)]) == 0
        assert (first / "reports.json").read_bytes() == (last / "reports.json").read_bytes()
        manifests = [read_json(d / "manifest.json") for d in (first, last)]
        for manifest in manifests:
            manifest["options"].pop("outdir")
        assert manifests[0] == manifests[1]


# (command, option) pairs with no OPTION_CASES entry, and why
UNCASED_OPTIONS = {
    ("train", "--seed"): "renames the CSVs, so no output file pairs with the default run's",
    ("train", "--runs"): "adds or drops CSVs, so no output file pairs with the default run's",
    ("train", "--modes"): "renames the CSVs, so no output file pairs with the default run's",
}

# each OPTION_CASES entry under the (command, option) pairs its added arguments set
CASES_BY_OPTION = {}
for _base, _added in fingerprint.OPTION_CASES:
    for _arg in _added.split():
        if _arg.startswith("--"):
            CASES_BY_OPTION.setdefault((_base.split()[0], _arg.split("=")[0]), []).append(
                f"{_base} {_added}")

_COMMANDS = next(a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)).choices
DEFINED_OPTIONS = [(command, option) for command, p in _COMMANDS.items()
                   for action in p._actions for option in action.option_strings
                   if option not in ("-h", "--help", "--outdir")]


class TestEveryInputIsRead:
    """Each option changes an output byte of its default run, the manifest
    aside; ``ERROR_RUNS`` holds the runs that reject one."""

    @pytest.mark.parametrize("command, option", DEFINED_OPTIONS,
                             ids=[" ".join(pair) for pair in DEFINED_OPTIONS])
    def test_every_option_has_a_case(self, command, option):
        # a hashed case, or a reason in UNCASED_OPTIONS, but not both
        cases = CASES_BY_OPTION.get((command, option), [])
        assert bool(cases) != ((command, option) in UNCASED_OPTIONS)
        hashed = {" ".join(argv) for argv in fingerprint.cli_invocations()}
        assert set(cases) <= hashed

    def test_cases_and_reasons_name_only_defined_options(self):
        assert set(CASES_BY_OPTION) | set(UNCASED_OPTIONS) <= set(DEFINED_OPTIONS)

    @pytest.mark.parametrize("base, added", fingerprint.OPTION_CASES,
                             ids=[f"{base} {added}" for base, added in fingerprint.OPTION_CASES])
    def test_option_changes_output(self, prepared, capsys, base, added):
        outputs = []
        for argv, outdir in ((base, "default"), (f"{base} {added}", "changed")):
            assert main(argv.split() + ["--outdir", outdir]) == 0
            assert capsys.readouterr().err == ""
            outputs.append(snapshot(prepared / outdir))
            del outputs[-1]["manifest.json"]
        assert outputs[0].keys() == outputs[1].keys()
        assert outputs[0] != outputs[1]
