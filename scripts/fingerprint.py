"""Hash what the library and its CLI produce, to show that a change moves no byte.

Three groups of work run in-process, from a fresh temporary directory unless
``--workdir`` names one (a directory used before is rewritten in place):

- ``cli``: every subcommand's valid runs and error cases, usage errors
  included, on copies of ``scripts/*.arch`` and on small files written here;
- ``train``: both presets at ``--runs 1 --epochs 2``, one run over every mode
  and one run that fails its parity gate;
- ``kernel``: forward, both backwards, running statistics and inference for
  each mode x affine on/off x 2-D/4-D shape, with one channel held at 0.1 and
  one at 3.0, then again with a NaN in a third channel.

An invocation's digest covers its exit code, stdout, stderr and every file it
wrote, with ``outdir`` dropped from ``manifest.json``.  The script prints one
JSON object: a SHA-256 per invocation, per group and overall, and under
``invocations_without_manifest`` a second digest of each ``cli`` and ``train``
invocation that leaves ``manifest.json`` out, for comparing runs whose
options differ but whose results should not.  No golden digest
is kept, since matmul bits depend on the BLAS build and on the BLAS kernel it
picks for the CPU: compare two checkouts on one machine instead.  The output
names that kernel under ``blas_core`` (OpenBLAS's core name, e.g.
``SkylakeX``, or ``unknown``); it enters no digest.  ``--compare`` reads two
saved outputs, runs nothing, prints a line first if they name different BLAS
cores, then one line per invocation removed, added or whose digest differs
(with the manifest, then without it), and exits 1 when it printed any
invocation line.

    PYTHONPATH=src python3 scripts/fingerprint.py [--workdir DIR] > head.json
    PYTHONPATH=src python3 scripts/fingerprint.py --compare base.json head.json
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import importlib
import io
import itertools
import json
import os
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from l1bn.batchnorm import (
    BnMode,
    BnParams,
    BnState,
    bn_backward,
    bn_backward_l1_naive,
    bn_forward_infer,
    bn_forward_train,
    update_running_stats,
)
from l1bn import cli
from l1bn.tensor import Rng

SCRIPTS = Path(__file__).resolve().parent
ARCH_FILES = ("sample.arch", "deep_cnn.arch", "mlp.arch")


def _perfbench_workloads():
    """``perfbench/workloads.py``, imported read-only; sys.path is left as found."""
    perfbench = str(SCRIPTS.parent / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(perfbench)
        sys.modules.pop("workloads", None)


# the (shape, seed) gradcheck cases and (mu, sigma) ratio pairs of a `perfbench`
# validate round, and its argv for a gradcheck shape
_workloads = _perfbench_workloads()
GRAD_CASES, GAUSSIAN_PAIRS = _workloads.GRAD_CASES, _workloads.GAUSSIAN_PAIRS
_shape_args = _workloads._shape_args

# Input files the error cases read, written into the work directory.
INPUT_FILES = {
    "empty.arch": b"# no layers here\n",
    "short.arch": b"fc1 256 1 1\n",
    "nonint.arch": b"fc1 x 1 1 100\n",
    "zero.arch": b"fc1 0 1 1 2\n",
    "moded.arch": b"fc1 16 1 1 4 l2\n",
    "latin1.arch": "conv_\u00e9 32 8 8 16\n".encode("latin-1"),
    "costs.json": b'{"square": {"time_ns": 6.0}, "sign": {"power_uw": 3.0}}',
    "root_costs.json": b'{"root": {"time_ns": 14.0, "power_uw": 20.0}}',
    "typo_op.json": b'{"sqaure": {"time_ns": 6}}',
    "list.json": b'[{"square": {"time_ns": 6}}]',
    "bogus_field.json": b'{"sign": {"bogus": 1}}',
    "old_field.json": b'{"sign": {"registers": 1}}',
    "string.json": b'{"sign": {"time_ns": "x"}}',
    "bool.json": b'{"sign": {"time_ns": true}}',
    "nan.json": b'{"sign": {"time_ns": NaN}}',
    "negative.json": b'{"sign": {"time_ns": -1}}',
    "not_object.json": b'{"sign": 3}',
    "not_json.json": b'{"sign": {"time_ns": 1}\n"abs": 2}',
    "not_utf8.json": b'{"sign": \xff}',
    "zero_time.json": b'{"sign": {"time_ns": 0}, "abs": {"time_ns": 0}}',
    "zero_power.json": b'{"square": {"power_uw": 0}}',
    "repeated_op.json": b'{"square": {"time_ns": 6.0}, "square": {"time_ns": 9.0}}',
    "repeated_field.json": b'{"square": {"time_ns": 6.0, "time_ns": 9.0}}',
    # integer dimensions whose weighted totals pass float64's 1.8e308
    "inf_power.arch": f"fc {2 * 10**307} 1 1 1\n".encode(),
    "inf_time.arch": f"fc {10**154} 1 1 {10**154}\n".encode(),
    "huge_count.arch": f"fc {10**400} 1 1 1\n".encode(),
    "huge_weight.json": f'{{"sign": {{"time_ns": {10**400}}}}}'.encode(),
}


def cli_invocations() -> list[list[str]]:
    """Every argv of the ``cli`` group, valid runs first, then the failing ones."""
    runs = [["gradcheck", "--modes", "l2,l1,l1c", *_shape_args(shape), "--seed", str(seed)]
            for shape, seed in GRAD_CASES]
    runs += [["ratio", f"--mu={mu}", f"--sigma={sigma}", "--seed", str(i)]
             for i, (mu, sigma) in enumerate(GAUSSIAN_PAIRS)]
    runs += [
        ["ratio", "--dist", "uniform", "--seed", "5"],
        ["ratio", "--channel-map", "--seed", "6"],
        ["ratio", "--channel-map", "--dist", "uniform", "--channels", "4"],
        ["ratio", "--n", "5000"],
        # the stream is the one-channel map: the same bytes as the default stream
        ["ratio", "--channel-map", "--m", "100000", "--channels", "1"],
        ["ratio", "--channel-map", "--dist", "uniform", "--m", "100000", "--channels", "1"],
        ["gradcheck"],
        ["gradcheck", "--layouts", "2d,4d"],
        # pooled count 128: the L1 modes land just above 1e-5, so this exits 1
        ["gradcheck", "--layouts", "2d,4d", "--m", "16", "--d", "16", "--height", "4",
         "--width", "4", "--channels", "8"],
    ]
    for arch in ARCH_FILES:
        runs += [["cost", "--arch", arch], ["cost", "--arch", arch, "--include-root"]]
    runs += [
        ["cost", "--arch", "sample.arch", "--costs", "costs.json"],
        ["cost", "--arch", "sample.arch", "--costs", "costs.json", "--include-root"],
        ["cost", "--arch", "sample.arch", "--costs", "root_costs.json", "--include-root"],
    ]
    # exit 1: one line on stderr, no output directory
    runs += [
        ["gradcheck", "--m", "1"],
        ["ratio", "--channel-map", "--sigma", "0"],
        ["ratio", "--mu", "inf"],
        ["ratio", "--mu", "nan"],
        ["ratio", "--sigma", "inf"],
        ["ratio", "--channel-map", "--mu", "nan"],
        ["ratio", "--n", "50"],
        ["ratio", "--sigma", "0"],
        # 711 PiB: beyond any 64-bit user address space, so the allocation fails at once
        ["ratio", "--n", "100000000000000000"],
        ["cost", "--arch", "missing.arch"],
        ["cost", "--arch", "sample.arch", "--costs", "missing.json"],
        ["cost", "--arch", "sample.arch", "--costs", "root_costs.json"],
    ]
    runs += [["cost", "--arch", name] for name in INPUT_FILES if name.endswith(".arch")]
    runs += [["cost", "--arch", "sample.arch", "--costs", name]
             for name in INPUT_FILES if name.endswith(".json")
             and name not in ("costs.json", "root_costs.json")]
    # exit 2: usage errors
    runs += [
        [],
        ["frobnicate"],
        ["gradcheck", "--bogus"],
        ["gradcheck", "--modes", "l3"],
        ["gradcheck", "--modes", "l1,,l2"],
        ["gradcheck", "--modes", "l2,l2"],
        ["gradcheck", "--layouts", "2d,3d"],
        ["gradcheck", "--m", "0"],
        ["gradcheck", "--layouts", "4d", "--d", "4"],
        ["gradcheck", "--height", "4"],
        ["ratio", "--n", "0"],
        ["ratio", "--dist", "uniform", "--mu", "1"],
        ["ratio", "--dist", "uniform", "--sigma", "2"],
        ["ratio", "--channel-map", "--n", "1000"],
        ["ratio", "--channels", "4"],
        ["train", "--modes", "l3"],
        ["train", "--modes", "l2,l1,l2"],
        ["train", "--runs", "0"],
        ["train", "--epochs", "0"],
        ["train", "--seed", "-1", "--runs", "1", "--epochs", "1"],
        ["ratio", "--seed", "-1"],
        ["gradcheck", "--seed", "-1"],
        # the pass/fail bounds and the finite-difference step are constants, not options
        ["gradcheck", "--threshold", "1e-5"],
        ["gradcheck", "--step", "1e-6"],
        ["ratio", "--band", "0.01"],
        ["train", "--parity-tolerance-pp", "2"],
        ["cost"],
    ]
    return runs


TRAIN_INVOCATIONS = [
    ["train", "--preset", "sanity", "--runs", "1", "--epochs", "2"],
    ["train", "--preset", "parity", "--runs", "1", "--epochs", "2"],
    ["train", "--preset", "sanity", "--modes", "l2,l1,l1c,none", "--runs", "1", "--epochs", "2"],
    # gap 2.80 pp > 2.0 with OpenBLAS 0.3.31 on x86-64, so this exits 1
    ["train", "--preset", "parity", "--runs", "1", "--epochs", "1", "--seed", "113"],
]


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _outputs(outdir: Path) -> list[tuple[str, bytes]]:
    """Name and bytes of every file under ``outdir``, the manifest without ``outdir``."""
    files = []
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest["options"].pop("outdir", None)
            data = json.dumps(manifest, indent=2, sort_keys=True).encode()
        files.append((path.relative_to(outdir).as_posix(), data))
    return files


def run_cli(argv: list[str], outdir: str) -> tuple[str, str]:
    """Digests of one in-process CLI call: exit code, stdout, stderr and outputs,
    then the same without ``manifest.json``.  A call with no subcommand gets no
    ``--outdir`` either: argparse would quote it as the missing subcommand."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv + ["--outdir", outdir] if argv else [])
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        except Exception as exc:  # a traceback: digest it, so two checkouts still compare
            code = f"uncaught {type(exc).__name__}: {exc}"
    files = _outputs(Path(outdir)) if Path(outdir).is_dir() else []
    streams = (str(code).encode(), out.getvalue().encode(), err.getvalue().encode())

    def digest(kept):
        return _digest(*streams, *(part for name, data in kept for part in (name.encode(), data)))

    return digest(files), digest([f for f in files if f[0] != "manifest.json"])


# One block, one row per block (c > BLOCK_ELEMS), one block and two blocks.
KERNEL_SHAPES = ((16, 8), (3, 33000), (4, 3, 3, 8), (16, 8, 8, 64))


def kernel_arrays(shape, mode: BnMode, affine: bool, nan: bool) -> list[np.ndarray]:
    """Every array one training step and one inference call give for this case."""
    rng = Rng(sum(shape) + 7 * list(BnMode).index(mode))
    c = shape[-1]
    x = rng.normal(shape, 0.5, 2.0)
    x[..., 1], x[..., 2] = 0.1, 3.0  # constant channels; a mean of 0.1s may round off 0.1
    if nan:
        x.reshape(-1, c)[1, 3] = np.nan
    gamma, beta = rng.uniform((c,), 0.5, 1.5), rng.uniform((c,), -0.5, 0.5)
    if not affine:  # drawn all the same, so d_y keeps its draw
        gamma, beta = np.ones(c), np.zeros(c)
    params = BnParams(gamma, beta, mode=mode, use_affine=affine)
    d_y = rng.normal(shape)
    y, cache = bn_forward_train(x, params)
    grads = bn_backward(d_y, cache, params)
    arrays = [y, cache.mu_b, cache.sigma_b, cache.x_hat, cache.denom,
              grads.d_input, grads.d_gamma, grads.d_beta]
    if mode is not BnMode.L2:
        naive = bn_backward_l1_naive(d_y, cache, params)
        arrays += [naive.d_input, naive.d_gamma, naive.d_beta]
    state = update_running_stats(BnState.init(c), cache.mu_b, cache.sigma_b)
    return arrays + [state.running_mu, state.running_sigma, bn_forward_infer(x, params, state)]


def blas_core() -> str:
    """The core name of the OpenBLAS that numpy loaded, read from its
    ``scipy_openblas_get_corename64_``; ``unknown`` when no mapped library has it."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            # address, perms, offset, device, inode, then the mapped file's path
            paths = sorted({line.split(maxsplit=5)[-1].strip()
                            for line in fh if "openblas" in line})
    except OSError:
        return "unknown"
    for path in paths:
        try:
            corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        except OSError:
            continue
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return "unknown"


def fingerprint(workdir: Path) -> dict:
    """Run every group in ``workdir`` and return the digests."""
    workdir.mkdir(parents=True, exist_ok=True)
    for name in ARCH_FILES:
        shutil.copyfile(SCRIPTS / name, workdir / name)
    for name, data in INPUT_FILES.items():
        (workdir / name).write_bytes(data)
    groups: dict[str, dict[str, str]] = {"cli": {}, "train": {}, "kernel": {}}
    without_manifest: dict[str, dict[str, str]] = {"cli": {}, "train": {}}
    cwd = os.getcwd()
    os.chdir(workdir)  # relative paths keep the work directory out of every message
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")  # the same warning lines on every run
            for group, invocations in (("cli", cli_invocations()), ("train", TRAIN_INVOCATIONS)):
                for i, argv in enumerate(invocations):
                    name = " ".join(argv)
                    groups[group][name], without_manifest[group][name] = run_cli(
                        argv, f"out/{group}{i:03d}")
            for shape, mode, affine, nan in itertools.product(
                    KERNEL_SHAPES, BnMode, (True, False), (False, True)):
                name = f"{mode.value} {shape} affine={affine} nan={nan}"
                groups["kernel"][name] = _digest(*(
                    part for a in kernel_arrays(shape, mode, affine, nan)
                    for part in (repr(a.shape).encode(), a.dtype.str.encode(), a.tobytes())))
    finally:
        os.chdir(cwd)
    result = {group: _digest(*(s.encode() for item in digests.items() for s in item))
              for group, digests in groups.items()}
    result["overall"] = _digest(*(result[g].encode() for g in groups))
    result["blas_core"] = blas_core()
    result["invocations"] = groups
    result["invocations_without_manifest"] = without_manifest
    return result


def compare(base: dict, head: dict) -> list[str]:
    """One line per invocation that two outputs of this script disagree on: each
    one removed or added, then each digest that differs, with the manifest and
    then without it."""
    lines = []
    for key, label in (("invocations", ""), ("invocations_without_manifest", " without manifest")):
        for group in dict.fromkeys([*base[key], *head[key]]):
            old, new = base[key].get(group, {}), head[key].get(group, {})
            if key == "invocations":
                lines += [f"{group}: removed: {json.dumps(n)}" for n in old if n not in new]
                lines += [f"{group}: added: {json.dumps(n)}" for n in new if n not in old]
            lines += [f"{group}{label}: differs: {json.dumps(n)}"
                      for n in old if n in new and old[n] != new[n]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    runs = parser.add_mutually_exclusive_group()
    runs.add_argument("--workdir", type=Path, default=None,
                      help="run here, reusing what is there (default: a fresh temporary "
                           "directory, removed afterwards)")
    runs.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "HEAD"),
                      help="run nothing: name each invocation that two saved outputs "
                           "disagree on, and exit 1 if there is one")
    args = parser.parse_args(argv)
    if args.compare is not None:
        base, head = (json.loads(path.read_text(encoding="utf-8")) for path in args.compare)
        cores = base.get("blas_core"), head.get("blas_core")
        if None not in cores and cores[0] != cores[1]:
            print(f"blas core: {cores[0]} -> {cores[1]}; matmul bits may differ")
        lines = compare(base, head)
        for line in lines:
            print(line)
        return int(bool(lines))
    if args.workdir is not None:
        result = fingerprint(args.workdir)
    else:
        with tempfile.TemporaryDirectory(prefix="fingerprint-") as tmp:
            result = fingerprint(Path(tmp))
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
