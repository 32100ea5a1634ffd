import csv
import json
import math
import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from l1bn import cli
from l1bn.cli import build_parser, main


def read_json(path):
    return json.loads(path.read_text())


def run_twice_compare(argv_factory, tmp_path, files):
    """Run a subcommand into two directories; outputs must be byte-identical
    and the manifests identical apart from the recorded output path."""
    dirs = []
    for tag in ("a", "b"):
        outdir = tmp_path / tag
        assert main(argv_factory(str(outdir))) == 0
        dirs.append(outdir)
    for name in files:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    manifests = []
    for d in dirs:
        manifest = read_json(d / "manifest.json")
        manifest["options"].pop("outdir")
        manifests.append(manifest)
    assert manifests[0] == manifests[1]


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

    def test_impossible_threshold_fails(self, tmp_path):
        assert main(["gradcheck", "--threshold", "1e-12",
                     "--outdir", str(tmp_path / "gc")]) == 1

    def test_both_layouts(self, tmp_path):
        outdir = tmp_path / "gc"
        assert main(["gradcheck", "--layouts", "2d,4d", "--modes", "l1",
                     "--outdir", str(outdir)]) == 0
        payload = read_json(outdir / "reports.json")
        shapes = [tuple(r["shape"]) for r in payload["reports"]]
        assert (7, 3) in shapes and (7, 3, 3, 2) in shapes

    def test_bad_flag_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--bogus"])
        assert exc.value.code == 2

    def test_manifest_reproduces_seed_and_options(self, tmp_path):
        outdir = tmp_path / "gc"
        main(["gradcheck", "--seed", "77", "--outdir", str(outdir)])
        manifest = read_json(outdir / "manifest.json")
        assert manifest["seed"] == 77
        assert manifest["options"]["modes"] == "l2,l1,l1c"
        assert manifest["command"] == "gradcheck"
        assert manifest["version"]

    def test_outputs_bit_identical_across_runs(self, tmp_path):
        run_twice_compare(
            lambda d: ["gradcheck", "--outdir", d], tmp_path,
            ["reports.json"],
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_probe_names_slot_and_index(self, tmp_path, capsys):
        # a step of 1e308 overflows the first γ probe; the message names γ's own
        # index, not the flat coordinate of the one pass over (x, γ, β)
        assert main(["gradcheck", "--step", "1e308", "--outdir", str(tmp_path / "gc")]) == 1
        err = capsys.readouterr().err
        assert "gamma" in err and "(0,)" in err
        assert err.strip() == "gradcheck: non-finite probe value near gamma (0,)"


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

    def test_uniform_control_flagged(self, tmp_path):
        outdir = tmp_path / "ratio"
        assert main(["ratio", "--dist", "uniform", "--n", "50000",
                     "--outdir", str(outdir)]) == 0
        summary = read_json(outdir / "summary.json")
        assert summary["in_gaussian_band"] is False

    def test_channel_map(self, tmp_path):
        outdir = tmp_path / "ratio"
        assert main(["ratio", "--channel-map", "--channels", "6",
                     "--outdir", str(outdir)]) == 0
        summary = read_json(outdir / "summary.json")
        assert summary["num_features"] == 6
        csv_lines = (outdir / "ratios.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 7

    def test_outputs_bit_identical_across_runs(self, tmp_path):
        run_twice_compare(
            lambda d: ["ratio", "--n", "5000", "--outdir", d], tmp_path,
            ["ratios.csv", "summary.json"],
        )


class TestTrainCommand:
    def test_sanity_preset(self, tmp_path, capsys):
        outdir = tmp_path / "train"
        assert main(["train", "--preset", "sanity", "--outdir", str(outdir)]) == 0
        summary = read_json(outdir / "summary.json")
        assert summary["final_test_acc"]["l2"] >= 0.99
        assert summary["final_test_acc"]["l1"] >= 0.99
        csv_lines = (outdir / "l2_seed1234.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "epoch,train_loss,train_acc,test_acc"
        assert len(csv_lines) == 16  # header + 15 epochs

    def test_parity_preset_small(self, tmp_path):
        outdir = tmp_path / "train"
        code = main(["train", "--preset", "parity", "--runs", "2", "--epochs", "8",
                     "--outdir", str(outdir)])
        assert code == 0
        summary = read_json(outdir / "summary.json")
        assert summary["gap_pp"] <= 2.0
        assert (outdir / "l1_seed1234.csv").exists()
        assert (outdir / "l2_seed1235.csv").exists()

    def test_parity_csvs_come_from_parity_gap_records(self, tmp_path, monkeypatch):
        captured, parity_gap = {}, cli.parity_gap

        def recording_parity_gap(*args, **kwargs):
            summary = parity_gap(*args, **kwargs)
            captured.update(summary["records"])
            return summary

        monkeypatch.setattr(cli, "parity_gap", recording_parity_gap)
        outdir = tmp_path / "train"
        main(["train", "--preset", "parity", "--runs", "2", "--epochs", "1",
              "--outdir", str(outdir)])
        assert set(captured) == {"l2", "l1"}
        for mode, records in captured.items():
            assert [r.seed for r in records] == [1234, 1235]
            for rec in records:
                with open(outdir / f"{mode}_seed{rec.seed}.csv", newline="") as fh:
                    rows = list(csv.reader(fh))
                assert rows[0] == ["epoch", "train_loss", "train_acc", "test_acc"]
                assert rows[1:] == [[str(v) for v in row] for row in rec.rows()]
        summary = read_json(outdir / "summary.json")
        assert "records" not in summary
        assert summary["acc_l2"] == [r.final_test_acc for r in captured["l2"]]

    def test_no_bn_mode_available(self, tmp_path):
        outdir = tmp_path / "train"
        assert main(["train", "--preset", "sanity", "--modes", "none,l1c",
                     "--outdir", str(outdir)]) == 0
        summary = read_json(outdir / "summary.json")
        assert set(summary["final_test_acc"]) == {"none", "l1c"}


class TestCostCommand:
    ARCH = "fc1 256 1 1 100 l2\nconv1 32 8 8 16 l1\n"

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
        csv_lines = (outdir / "layers.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 3

    def test_include_root_changes_totals(self, tmp_path):
        arch = tmp_path / "net.arch"
        arch.write_text(self.ARCH)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["cost", "--arch", str(arch), "--outdir", str(out_a)])
        main(["cost", "--arch", str(arch), "--include-root", "--outdir", str(out_b)])
        assert (read_json(out_b / "totals.json")["time_ratio_l2_over_l1"]
                > read_json(out_a / "totals.json")["time_ratio_l2_over_l1"])

    def test_parse_error_exit_one(self, tmp_path, capsys):
        arch = tmp_path / "bad.arch"
        arch.write_text("fc1 256 1 1\n")
        assert main(["cost", "--arch", str(arch), "--outdir", str(tmp_path / "c")]) == 1
        assert ":1:" in capsys.readouterr().err

    def test_missing_file_exit_one(self, tmp_path):
        assert main(["cost", "--arch", str(tmp_path / "nope.arch"),
                     "--outdir", str(tmp_path / "c")]) == 1

    def test_custom_costs_override(self, tmp_path):
        arch = tmp_path / "net.arch"
        arch.write_text("fc1 16 1 1 4 l2\n")
        costs = tmp_path / "costs.json"
        costs.write_text(json.dumps({"square": {"time_ns": 6.0}}))
        outdir = tmp_path / "cost"
        assert main(["cost", "--arch", str(arch), "--costs", str(costs),
                     "--outdir", str(outdir)]) == 0
        totals = read_json(outdir / "totals.json")
        assert totals["time_ratio_l2_over_l1"] == 3.0

    @pytest.mark.parametrize("payload, named", [
        ('{"sqaure": {"time_ns": 6}}', "'sqaure'"),
        ('[{"square": {"time_ns": 6}}]', "list"),
        ('{"sign": {"bogus": 1}}', "'bogus'"),
        ('{"sign": {"time_ns": "x"}}', "'x'"),
        ('{"sign": {"time_ns": true}}', "True"),
        ('{"sign": {"time_ns": NaN}}', "nan"),
        ('{"sign": {"time_ns": -1}}', "sign.time_ns"),
        ('{"sign": 3}', "3"),
    ])
    def test_malformed_costs_exit_one(self, tmp_path, capsys, payload, named):
        arch = tmp_path / "net.arch"
        arch.write_text("fc1 16 1 1 4 l2\n")
        costs = tmp_path / "costs.json"
        costs.write_text(payload)
        outdir = tmp_path / "cost"
        assert main(["cost", "--arch", str(arch), "--costs", str(costs),
                     "--outdir", str(outdir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cost: ") and named in err
        assert not outdir.exists()


SRC = str(Path(__file__).resolve().parent.parent / "src")
SAMPLE_ARCH = str(Path(__file__).resolve().parent.parent / "scripts" / "sample.arch")


def snapshot(outdir):
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


def write_arch(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    return str(path)


def shrinking_runs(tmp_path):
    """(first, second) argv pairs whose second run writes shorter files."""
    long_arch = write_arch(tmp_path, "three_layers.arch", [
        "conv1 32 16 16 64 l1", "conv2 32 8 8 128 l1c", "fc1 256 1 1 1000 l2"])
    short_arch = write_arch(tmp_path, "one.arch", ["fc1 16 1 1 4 l2"])
    return {
        "gradcheck": (["gradcheck", "--modes", "l2,l1,l1c"], ["gradcheck", "--modes", "l2"]),
        "ratio": (["ratio", "--channel-map", "--channels", "16"],
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
            ["train", "--preset", "parity", "--runs", "1", "--epochs", "1",
             "--parity-tolerance-pp", "100"],
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
        arch = write_arch(tmp_path, "net.arch", ["conv_\u03b1 32 8 8 16 l1"])
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


class TestOneLineErrors:
    """Failing input ends the process with exit 1 and one stderr line, with no
    numpy warning before it."""

    @pytest.mark.parametrize("argv, line", [
        (["gradcheck", "--step", "1e308"],
         "gradcheck: non-finite probe value near gamma (0,)"),
        (["ratio", "--channel-map", "--sigma", "0"],
         "ratio: channel 0 has zero deviation; its ratio is undefined"),
        (["cost", "--arch", "{empty}"], "cost: {empty}: no layers"),
    ], ids=["gradcheck-overflow", "ratio-constant-channel", "cost-no-layers"])
    def test_exit_one_with_one_stderr_line(self, tmp_path, argv, line):
        empty = write_arch(tmp_path, "empty.arch", ["# no layers here"])
        proc = subprocess.run(
            [sys.executable, "-m", "l1bn.cli", *(a.format(empty=empty) for a in argv),
             "--outdir", str(tmp_path / "out")],
            env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True,
            timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [line.format(empty=empty)]
        assert proc.stdout == ""


class TestUsage:
    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["gradcheck", "--modes", "l3"],
        ["gradcheck", "--modes", "l1,,l2"],
        ["train", "--modes", "l3"],
        ["train", "--preset", "parity", "--runs", "0"],
        ["train", "--preset", "parity", "--runs", "-1"],
        ["train", "--epochs", "0"],
        ["train", "--epochs", "-1"],
        ["gradcheck", "--layouts", "3d"],
        ["gradcheck", "--layouts", "2d,3d"],
        ["gradcheck", "--m", "0"],
        ["gradcheck", "--d", "0"],
        ["gradcheck", "--layouts", "4d", "--height", "0"],
        ["gradcheck", "--layouts", "4d", "--width", "-1"],
        ["gradcheck", "--layouts", "4d", "--channels", "0"],
        ["ratio", "--n", "0"],
        ["ratio", "--channel-map", "--m", "0"],
        ["ratio", "--channel-map", "--height", "0"],
        ["ratio", "--channel-map", "--width", "0"],
        ["ratio", "--channel-map", "--channels", "0"],
    ])
    def test_bad_option_value_is_usage_error(self, argv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--outdir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

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
