"""Hash what the library and its CLI produce, to show that a change moves no byte.

Three groups of work run in-process, from a fresh temporary directory unless
``--workdir`` names one (a directory used before is rewritten in place):

- ``cli``: every subcommand's valid runs, every option case of
  ``OPTION_CASES`` with its default run (both default ``ratio`` streams among
  them), then each failing run of ``ERROR_RUNS``, in a directory that
  ``prepare`` fills with input files;
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
invocation line.  Run as a script, it imports the ``l1bn`` of the checkout it
sits in, whatever ``PYTHONPATH`` names.

    python3 scripts/fingerprint.py [--workdir DIR] > head.json
    python3 scripts/fingerprint.py --compare base.json head.json
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

SCRIPTS = Path(__file__).resolve().parent
if __name__ == "__main__":  # hash this checkout's library, not one found earlier on the path
    sys.path.insert(0, str(SCRIPTS.parent / "src"))

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

# Input files the option cases and failing runs read, written into the work
# directory by prepare().
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
    # json.load alone would keep only the last value of a repeated key
    "repeated_op.json": b'{"square": {"time_ns": 6.0}, "square": {"time_ns": 9.0}}',
    "repeated_field.json": b'{"square": {"time_ns": 6.0, "time_ns": 9.0}}',
    "square_registers.json": b'{"square": {"registers": 1}}',
    "root_dsp_blocks.json": b'{"root": {"dsp_blocks": 1}}',
    # one weight of one op moved from its default
    **{f"{op}_{field}.json": json.dumps({op: {field: 0.5}}).encode()
       for op in ("sign", "abs", "square", "root") for field in ("time_ns", "power_uw")},
    # integer dimensions whose weighted totals pass float64's 1.8e308
    "inf_power.arch": f"fc {2 * 10**307} 1 1 1\n".encode(),
    "inf_time.arch": f"fc {10**154} 1 1 {10**154}\n".encode(),
    "huge_count.arch": f"fc {10**400} 1 1 1\n".encode(),
    # an integer weight is finite whatever its size; its totals overflow instead
    "huge_weight.json": f'{{"sign": {{"time_ns": {10**400}}}}}'.encode(),
}

RATIO, UNIFORM = "ratio --n 1000", "ratio --dist uniform --n 1000"
MAP = "ratio --channel-map --m 128 --channels 3"
GC_2D, GC_4D = "gradcheck --modes l1", "gradcheck --modes l1 --layouts 4d"
COST, COST_ROOT = "cost --arch sample.arch", "cost --arch sample.arch --include-root"
TRAIN_L1C = "train --modes l1c --runs 1 --epochs 1"

# Every option's case, as (default argv, added arguments), each joined by
# spaces.  The default run exits 0 with an empty stderr; with the arguments
# added it writes the same file names and changes a byte other than the
# manifest's, which echoes every option.
OPTION_CASES = [
    ("ratio", "--channel-map"),
    ("ratio", "--dist uniform"),
    (RATIO, "--n 2000"),
    (RATIO, "--mu 100"),  # a shift moves only rounding bits
    (RATIO, "--sigma 2"),
    (RATIO, "--seed 5"),
    (RATIO, "--dist uniform"),
    (UNIFORM, "--n 2000"),
    (UNIFORM, "--seed 5"),
    (MAP, "--m 144"),
    (MAP, "--channels 2"),
    (MAP, "--mu 100"),
    (MAP, "--sigma 2"),
    (MAP, "--seed 5"),
    (MAP, "--dist uniform"),
    (f"{MAP} --dist uniform", "--m 144"),
    (GC_2D, "--m 5"),
    (GC_2D, "--d 2"),
    (GC_2D, "--modes l2"),
    (GC_2D, "--layouts 4d"),
    (GC_2D, "--seed 5"),
    (GC_4D, "--m 5"),
    (GC_4D, "--height 2"),
    (GC_4D, "--width 2"),
    (GC_4D, "--channels 3"),
    (f"{GC_2D} --layouts 2d,4d", "--d 2"),
    (f"{GC_2D} --layouts 2d,4d", "--height 2"),
    (COST, "--arch mlp.arch"),
    (COST, "--include-root"),
    *[(COST, f"--costs {op}_{field}.json")
      for op in ("sign", "abs", "square") for field in ("time_ns", "power_uw")],
    *[(COST_ROOT, f"--costs root_{field}.json") for field in ("time_ns", "power_uw")],
    (TRAIN_L1C, "--epochs 2"),
    (TRAIN_L1C, "--preset parity"),
]

NON_FINITE = "ratio: channel 0 has a non-finite deviation; its ratio is undefined"

# Every failing CLI run, as (argv joined by spaces, exit code, last stderr line),
# the line None where argparse words the message itself.  Exit 1 writes that
# one line and nothing else; neither code leaves an output directory.
ERROR_RUNS = [
    ("gradcheck --m 1", 1, "gradcheck: pooled count must be at least 4 for a meaningful check"),
    ("ratio --channel-map --sigma 0", 1,
     "ratio: channel 0 has zero deviation; its ratio is undefined"),
    ("ratio --mu inf", 1, NON_FINITE),
    ("ratio --mu nan", 1, NON_FINITE),
    ("ratio --sigma inf", 1, NON_FINITE),
    ("ratio --channel-map --mu nan", 1, NON_FINITE),
    ("ratio --n 50", 1, "ratio: pooled count 50 < 100; ratios would be noise"),
    ("ratio --sigma 0", 1, "ratio: channel 0 has zero deviation; its ratio is undefined"),
    # 711 PiB is beyond any 64-bit user address space, so the allocation fails
    # at once; a size that could be allocated must never be tried here
    ("ratio --n 100000000000000000", 1,
     "ratio: Unable to allocate 711. PiB for an array with shape (100000000000000000, 1) "
     "and data type float64"),
    ("cost --arch missing.arch", 1, "cost: [Errno 2] No such file or directory: 'missing.arch'"),
    ("cost --arch sample.arch --costs missing.json", 1,
     "cost: [Errno 2] No such file or directory: 'missing.json'"),
    ("cost --arch sample.arch --costs root_costs.json", 1,
     "cost: root_costs.json: root weights are read only with --include-root"),
    ("cost --arch empty.arch", 1, "cost: empty.arch: no layers"),
    ("cost --arch short.arch", 1, "cost: short.arch:1: expected `name m h w c`, got 4 fields"),
    ("cost --arch nonint.arch", 1,
     "cost: nonint.arch:1: non-integer dimension: invalid literal for int() with base 10: 'x'"),
    ("cost --arch zero.arch", 1,
     "cost: zero.arch:1: layer 'fc1': all dimensions must be positive"),
    ("cost --arch moded.arch", 1, "cost: moded.arch:1: expected `name m h w c`, got 6 fields"),
    ("cost --arch latin1.arch", 1,
     "cost: latin1.arch: 'utf-8' codec can't decode byte 0xe9 in position 5: "
     "invalid continuation byte"),
    ("cost --arch inf_power.arch", 1, "cost: L2 total power_uw overflows float64"),
    ("cost --arch inf_time.arch", 1, "cost: L2 total time_ns overflows float64"),
    ("cost --arch huge_count.arch", 1, "cost: L2 total time_ns overflows float64"),
    ("cost --arch sample.arch --costs typo_op.json", 1,
     "cost: typo_op.json: unknown op 'sqaure' (expected sign, abs, square, root)"),
    ("cost --arch sample.arch --costs list.json", 1,
     "cost: list.json: expected a JSON object of per-op overrides, got a list"),
    ("cost --arch sample.arch --costs bogus_field.json", 1,
     "cost: bogus_field.json: sign: unknown field 'bogus' (expected time_ns, power_uw)"),
    ("cost --arch sample.arch --costs old_field.json", 1,
     "cost: old_field.json: sign: unknown field 'registers' (expected time_ns, power_uw)"),
    ("cost --arch sample.arch --costs string.json", 1,
     "cost: string.json: sign.time_ns: expected a finite nonnegative number, got 'x'"),
    ("cost --arch sample.arch --costs bool.json", 1,
     "cost: bool.json: sign.time_ns: expected a finite nonnegative number, got True"),
    ("cost --arch sample.arch --costs nan.json", 1,
     "cost: nan.json: sign.time_ns: expected a finite nonnegative number, got nan"),
    ("cost --arch sample.arch --costs negative.json", 1,
     "cost: negative.json: sign.time_ns: expected a finite nonnegative number, got -1"),
    ("cost --arch sample.arch --costs not_object.json", 1,
     "cost: not_object.json: sign: expected an object of fields, got 3"),
    ("cost --arch sample.arch --costs not_json.json", 1,
     "cost: not_json.json: Expecting ',' delimiter: line 2 column 1 (char 24)"),
    ("cost --arch sample.arch --costs not_utf8.json", 1,
     "cost: not_utf8.json: 'utf-8' codec can't decode byte 0xff in position 9: "
     "invalid start byte"),
    ("cost --arch sample.arch --costs zero_time.json", 1,
     "cost: L1 total time_ns is 0, so the L2/L1 time ratio is undefined"),
    ("cost --arch sample.arch --costs zero_power.json", 1,
     "cost: L2 total power_uw is 0, so the power saving is undefined"),
    ("cost --arch sample.arch --costs repeated_op.json", 1,
     "cost: repeated_op.json: repeated key 'square'"),
    ("cost --arch sample.arch --costs repeated_field.json", 1,
     "cost: repeated_field.json: repeated key 'time_ns'"),
    ("cost --arch sample.arch --costs huge_weight.json", 1,
     "cost: L1 total time_ns overflows float64"),
    ("cost --arch sample.arch --costs square_registers.json", 1,
     "cost: square_registers.json: square: unknown field 'registers' "
     "(expected time_ns, power_uw)"),
    ("cost --arch sample.arch --costs root_dsp_blocks.json", 1,
     "cost: root_dsp_blocks.json: root: unknown field 'dsp_blocks' (expected time_ns, power_uw)"),
    ("", 2, None),
    ("frobnicate", 2, None),
    ("gradcheck --bogus", 2, None),
    ("gradcheck --modes l3", 2,
     "l1bn gradcheck: error: argument --modes: unknown value 'l3' (choose from l2,l1,l1c)"),
    ("gradcheck --modes l1,,l2", 2,
     "l1bn gradcheck: error: argument --modes: unknown value '' (choose from l2,l1,l1c)"),
    ("gradcheck --modes l2,l2", 2,
     "l1bn gradcheck: error: argument --modes: repeated value in 'l2,l2'"),
    ("gradcheck --layouts 3d", 2,
     "l1bn gradcheck: error: argument --layouts: unknown value '3d' (choose from 2d,4d)"),
    ("gradcheck --layouts 2d,3d", 2,
     "l1bn gradcheck: error: argument --layouts: unknown value '3d' (choose from 2d,4d)"),
    ("gradcheck --layouts 2d,4d,2d", 2,
     "l1bn gradcheck: error: argument --layouts: repeated value in '2d,4d,2d'"),
    ("gradcheck --m 0", 2, "l1bn gradcheck: error: argument --m: must be at least 1, got 0"),
    ("gradcheck --d 0", 2, "l1bn gradcheck: error: argument --d: must be at least 1, got 0"),
    ("gradcheck --layouts 4d --height 0", 2,
     "l1bn gradcheck: error: argument --height: must be at least 1, got 0"),
    ("gradcheck --layouts 4d --width -1", 2,
     "l1bn gradcheck: error: argument --width: must be at least 1, got -1"),
    ("gradcheck --layouts 4d --channels 0", 2,
     "l1bn gradcheck: error: argument --channels: must be at least 1, got 0"),
    ("gradcheck --layouts 4d --d 4", 2,
     "l1bn gradcheck: error: argument --d: read only by --layouts 2d"),
    ("gradcheck --height 4", 2,
     "l1bn gradcheck: error: argument --height: read only by --layouts 4d"),
    ("gradcheck --modes l1 --width 2", 2,
     "l1bn gradcheck: error: argument --width: read only by --layouts 4d"),
    ("gradcheck --modes l1 --channels 3", 2,
     "l1bn gradcheck: error: argument --channels: read only by --layouts 4d"),
    ("ratio --n 0", 2, "l1bn ratio: error: argument --n: must be at least 1, got 0"),
    ("ratio --channel-map --m 0", 2, "l1bn ratio: error: argument --m: must be at least 1, got 0"),
    ("ratio --channel-map --channels 0", 2,
     "l1bn ratio: error: argument --channels: must be at least 1, got 0"),
    ("ratio --dist uniform --mu 1", 2,
     "l1bn ratio: error: argument --mu: not read by --dist uniform"),
    ("ratio --dist uniform --sigma 2", 2,
     "l1bn ratio: error: argument --sigma: not read by --dist uniform"),
    ("ratio --channel-map --n 1000", 2,
     "l1bn ratio: error: argument --n: not read by --channel-map"),
    ("ratio --channels 4", 2,
     "l1bn ratio: error: argument --channels: read only by --channel-map"),
    ("ratio --n 1000 --m 4", 2, "l1bn ratio: error: argument --m: read only by --channel-map"),
    ("train --modes l3", 2,
     "l1bn train: error: argument --modes: unknown value 'l3' (choose from l2,l1,l1c,none)"),
    ("train --modes l2,l1,l2", 2,
     "l1bn train: error: argument --modes: repeated value in 'l2,l1,l2'"),
    ("train --runs 0", 2, "l1bn train: error: argument --runs: must be at least 1, got 0"),
    ("train --preset parity --runs 0", 2,
     "l1bn train: error: argument --runs: must be at least 1, got 0"),
    ("train --preset parity --runs -1", 2,
     "l1bn train: error: argument --runs: must be at least 1, got -1"),
    ("train --epochs 0", 2, "l1bn train: error: argument --epochs: must be at least 1, got 0"),
    ("train --epochs -1", 2, "l1bn train: error: argument --epochs: must be at least 1, got -1"),
    ("train --seed -1 --runs 1 --epochs 1", 2,
     "l1bn train: error: argument --seed: must be at least 0, got -1"),
    ("ratio --seed -1", 2, "l1bn ratio: error: argument --seed: must be at least 0, got -1"),
    ("gradcheck --seed -1", 2,
     "l1bn gradcheck: error: argument --seed: must be at least 0, got -1"),
    # the pass/fail bounds and the finite-difference step are constants, not options
    ("gradcheck --threshold 1e-5", 2, None),
    ("gradcheck --step 1e-6", 2, None),
    ("ratio --band 0.01", 2, None),
    ("train --parity-tolerance-pp 2", 2, None),
    ("cost", 2, None),
]


def cli_invocations() -> list[list[str]]:
    """Every argv of the ``cli`` group once: the valid runs, each default run and
    each case of ``OPTION_CASES``, then those of ``ERROR_RUNS``."""
    runs = [["gradcheck", "--modes", "l2,l1,l1c", *_shape_args(shape), "--seed", str(seed)]
            for shape, seed in GRAD_CASES]
    runs += [["ratio", f"--mu={mu}", f"--sigma={sigma}", "--seed", str(i)]
             for i, (mu, sigma) in enumerate(GAUSSIAN_PAIRS)]
    runs += [
        ["ratio", "--dist", "uniform", "--seed", "5"],
        ["ratio", "--channel-map", "--seed", "6"],
        ["ratio", "--channel-map", "--dist", "uniform", "--channels", "4"],
        ["ratio", "--n", "5000"],
        # the stream is the one-channel map: apart from the manifest, the same
        # bytes as the default streams `ratio` and `ratio --dist uniform`
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
    argvs = [" ".join(argv) for argv in runs]
    argvs += [argv for base, added in OPTION_CASES for argv in (base, f"{base} {added}")]
    argvs += [argv for argv, _, _ in ERROR_RUNS]
    return [argv.split() for argv in dict.fromkeys(argvs)]


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


def prepare(workdir: Path) -> None:
    """Copy ``ARCH_FILES`` into ``workdir`` and write ``INPUT_FILES`` there."""
    workdir.mkdir(parents=True, exist_ok=True)
    for name in ARCH_FILES:
        shutil.copyfile(SCRIPTS / name, workdir / name)
    for name, data in INPUT_FILES.items():
        (workdir / name).write_bytes(data)


def fingerprint(workdir: Path) -> dict:
    """Run every group in ``workdir`` and return the digests."""
    prepare(workdir)
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
