"""Smoke tests: the stand-alone scripts and the architecture files run."""

import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from l1bn.cli import main
from l1bn.costmodel import parse_architecture

ROOT = Path(__file__).resolve().parent.parent


def decoy_env(tmp_path):
    """An environment whose PYTHONPATH names an ``l1bn`` that raises on import."""
    package = tmp_path / "decoy" / "l1bn"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text('raise ImportError("decoy l1bn")\n', encoding="utf-8")
    return {**os.environ, "PYTHONPATH": str(package.parent)}


def test_ratio_experiment_writes_its_files(tmp_path):
    outdir = tmp_path / "ratio"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ratio_experiment.py"), "--outdir", str(outdir)],
        cwd=tmp_path, env=decoy_env(tmp_path), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in outdir.iterdir()) == [f"mlp_layer{i}.csv" for i in range(3)]
    for i in range(3):
        # the net's 48 hidden features per layer; the ratios are observational,
        # so only that they are defined is checked
        with open(outdir / f"mlp_layer{i}.csv", newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["channel", "sigma_l2", "sigma_l1", "ratio"]
        assert [int(row[0]) for row in rows] == list(range(48))
        ratios = [float(row[3]) for row in rows]
        assert all(math.isfinite(r) and r > 0 for r in ratios)


@pytest.mark.parametrize("arch", sorted((ROOT / "scripts").glob("*.arch")), ids=lambda p: p.stem)
def test_every_arch_file_costs_the_paper_headline(arch, tmp_path):
    # with the root omitted only per-element terms remain, whatever the layer
    # shapes: 3 ns/15 uW per square against 2 ns/8 uW per sign+abs give 1.5x
    # and a (15 - 8)/15 = 46.67% power saving
    assert main(["cost", "--arch", str(arch), "--outdir", str(tmp_path)]) == 0
    totals = json.loads((tmp_path / "totals.json").read_text(encoding="utf-8"))
    assert totals["time_ratio_l2_over_l1"] == 1.5
    assert abs(totals["power_saving_pct"] - 700 / 15) <= 1e-9


@pytest.mark.parametrize("arch", sorted((ROOT / "scripts").glob("*.arch")), ids=lambda p: p.stem)
def test_every_arch_file_parses_and_costs(arch, tmp_path):
    layers = parse_architecture(arch)
    assert main(["cost", "--arch", str(arch), "--outdir", str(tmp_path)]) == 0
    with open(tmp_path / "layers.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header[:6] == ["name", "m", "h", "w", "c", "sign_l1"]
    assert [row[:5] for row in rows] == [
        [layer.name, str(layer.m), str(layer.h), str(layer.w), str(layer.c)] for layer in layers]


def load_fingerprint():
    spec = importlib.util.spec_from_file_location("fingerprint",
                                                  ROOT / "scripts" / "fingerprint.py")
    fingerprint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fingerprint)
    return fingerprint


fingerprint = load_fingerprint()


def test_fingerprint_imports_the_checkout_it_sits_in(tmp_path):
    # run as a script it puts its own src ahead of another checkout's or an
    # installed copy; loaded as a module it leaves sys.path as it found it
    (tmp_path / "a.json").write_text('{"invocations": {}, "invocations_without_manifest": {}}')
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "fingerprint.py"), "--compare", "a.json",
         "a.json"], cwd=tmp_path, env=decoy_env(tmp_path), capture_output=True, text=True,
        timeout=120)
    assert (proc.returncode, proc.stdout) == (0, ""), proc.stderr
    path = list(sys.path)
    load_fingerprint()
    assert sys.path == path


def test_fingerprint_invocations_are_distinct_and_read_every_input_file():
    # digests are keyed by the joined argv, so a repeated argv would drop a run
    invocations = fingerprint.cli_invocations() + fingerprint.TRAIN_INVOCATIONS
    names = [" ".join(argv) for argv in invocations]
    assert len(set(names)) == len(names)
    assert set(fingerprint.INPUT_FILES) <= {arg for argv in invocations for arg in argv}


@pytest.fixture(scope="module")
def fingerprinted(tmp_path_factory):
    """A work directory and the fingerprint of a first run in it."""
    workdir = tmp_path_factory.mktemp("fingerprint") / "work"
    return workdir, fingerprint.fingerprint(workdir)


def test_fingerprint_same_digests_in_a_fresh_and_a_reused_directory(fingerprinted):
    # every hashed run, each option case among them, gives the same bytes twice
    workdir, fresh = fingerprinted
    reused = fingerprint.fingerprint(workdir)  # every output is already there
    assert reused == fresh
    invocations = fresh["invocations"]
    assert set(fresh) == {"cli", "train", "kernel", "overall", "blas_core", "invocations",
                          "invocations_without_manifest"}
    assert fresh["blas_core"] == fingerprint.blas_core() != ""
    # a digest that hashed nothing would repeat across cases with different outputs
    for group in ("train", "kernel"):
        digests = list(invocations[group].values())
        assert len(set(digests)) == len(digests) > 0, group
    assert len(set(invocations["cli"].values())) > 1
    # leaving the manifest out changes the digest exactly when a run wrote one
    for group, without in fresh["invocations_without_manifest"].items():
        assert without.keys() == invocations[group].keys()
        for i, (name, digest) in enumerate(without.items()):
            wrote = (workdir / "out" / f"{group}{i:03d}" / "manifest.json").exists()
            assert (digest != invocations[group][name]) == wrote, name


@pytest.mark.parametrize("dist", ["", " --dist uniform"], ids=["gaussian", "uniform"])
def test_fingerprint_stream_is_the_one_channel_map(fingerprinted, dist):
    # the manifest aside, a default stream writes and prints what its
    # one-channel map does
    without = fingerprinted[1]["invocations_without_manifest"]["cli"]
    assert (without[f"ratio{dist}"]
            == without[f"ratio --channel-map{dist} --m 100000 --channels 1"])


def test_fingerprint_compare_names_each_changed_and_removed_invocation(tmp_path, capsys):
    # the shape of a saved output, with one digest per invocation
    base = {"invocations": {"cli": {"": "a0", "cost --arch sample.arch": "a1",
                                    "ratio --n 5000": "a2"},
                            "train": {"train --epochs 2": "b0"}, "kernel": {"l2 (16, 8)": "c0"}},
            "invocations_without_manifest": {"cli": {"": "a0", "cost --arch sample.arch": "d1",
                                                     "ratio --n 5000": "d2"},
                                             "train": {"train --epochs 2": "e0"}}}
    saved = tmp_path / "base.json"
    saved.write_text(json.dumps(base, indent=2), encoding="utf-8")
    assert fingerprint.main(["--compare", str(saved), str(saved)]) == 0
    assert capsys.readouterr() == ("", "")

    head = json.loads(saved.read_text(encoding="utf-8"))
    head["invocations"]["cli"]["cost --arch sample.arch"] = "f1"
    for group in ("invocations", "invocations_without_manifest"):
        del head[group]["cli"]["ratio --n 5000"]
    changed = tmp_path / "head.json"
    changed.write_text(json.dumps(head), encoding="utf-8")
    assert fingerprint.main(["--compare", str(saved), str(changed)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        'cli: removed: "ratio --n 5000"', 'cli: differs: "cost --arch sample.arch"']
    # swapped, the removed invocation reads as added; a digest without the manifest
    # is compared on its own
    head["invocations_without_manifest"]["train"]["train --epochs 2"] = "f2"
    changed.write_text(json.dumps(head), encoding="utf-8")
    assert fingerprint.main(["--compare", str(changed), str(saved)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        'cli: added: "ratio --n 5000"', 'cli: differs: "cost --arch sample.arch"',
        'train without manifest: differs: "train --epochs 2"']


def test_fingerprint_compare_names_differing_blas_cores(tmp_path, capsys):
    # the BLAS core is a note: equal digests still exit 0; an output that names
    # no core (an older one) is not compared on it
    digests = {"invocations": {"train": {"train": "b0"}},
               "invocations_without_manifest": {"train": {"train": "e0"}}}
    paths = {}
    for name, core in (("a", {"blas_core": "SkylakeX"}), ("b", {"blas_core": "Prescott"}),
                       ("c", {})):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({**core, **digests}), encoding="utf-8")
    assert fingerprint.main(["--compare", str(paths["a"]), str(paths["b"])]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "blas core: SkylakeX -> Prescott; matmul bits may differ"]
    for other in ("a", "c"):
        assert fingerprint.main(["--compare", str(paths["a"]), str(paths[other])]) == 0
        assert capsys.readouterr() == ("", "")


def test_train_bytes_equal_under_one_and_two_blas_threads(tmp_path):
    # the determinism contract covers the BLAS thread count: only the kernel
    # OpenBLAS picks for the CPU moves matmul bits
    outputs = {}
    for threads in ("1", "2"):
        cwd = tmp_path / threads
        cwd.mkdir()
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from l1bn.cli import main; sys.exit(main())",
             "train", "--preset", "parity", "--runs", "1", "--epochs", "2", "--outdir", "out"],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs[threads] = (proc.stdout, {p.name: p.read_bytes()
                                          for p in sorted((cwd / "out").iterdir())})
    assert outputs["1"] == outputs["2"]
    assert {"manifest.json", "summary.json", "l2_seed1234.csv"} <= set(outputs["1"][1])
