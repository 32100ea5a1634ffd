"""Command-line entry point: every experiment behind one binary.

Subcommands: ``gradcheck``, ``ratio``, ``train``, ``cost``.  Each writes its
outputs plus a ``manifest.json`` (seed, resolved options, library version)
under the run directory; given the same options the files are byte-identical
across runs.  Exit codes: 0 success, 1 experiment/assertion failure, 2 usage
error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import os
import sys
from pathlib import Path

from . import __version__
from .batchnorm import BnMode
from .costmodel import OpCosts, model_report, parse_architecture
from .gradcheck import DEFAULT_STEP, check_layer
from .ratio import (
    DEFAULT_BAND_HALF_WIDTH,
    channelwise_ratio_map,
    gaussian_ratio_trial,
    uniform_ratio_trial,
)
from .tensor import Rng
from .trainer import MlpSpec, SgdConfig, SyntheticTask, parity_gap, run_experiment

SCHEMA_VERSION = 1
DEFAULT_SEED = 1234  # bare invocations are reproducible


def _comma_list(choices: tuple[str, ...]):
    """argparse type for a comma list drawn from ``choices``; keeps the text as given."""
    def parse(text: str) -> str:
        unknown = [m for m in text.split(",") if m not in choices]
        if unknown:
            raise argparse.ArgumentTypeError(
                f"unknown value {','.join(unknown)!r} (choose from {','.join(choices)})")
        return text
    return parse


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _write_output(path: Path, text: str) -> None:
    """Write ``text`` as UTF-8 over ``path`` in place, then cut the file to its length.

    The file is opened without ``O_TRUNC``, unlike ``open(path, "w")``: on ext4
    with ``auto_da_alloc``, closing a file that was truncated to zero starts its
    writeback, and rewriting a 2 kB output that way took 105-140 us against
    17-25 us in place.  No ``fsync`` either way.  The bytes left equal a fresh
    write's, and a new file gets the mode ``open(path, "w")`` would give it.
    """
    data = memoryview(text.encode("utf-8"))
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    except FileNotFoundError:  # the run directory is made by its first output
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _write_json(path: Path, payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    _write_output(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    _write_output(path, buf.getvalue())


def _write_manifest(args: argparse.Namespace) -> None:
    _write_json(Path(args.outdir) / "manifest.json", {
        "command": args.command,
        "seed": vars(args).get("seed"),
        "options": {k: v for k, v in vars(args).items() if k not in ("func", "command")},
        "version": __version__,
    })


def cmd_gradcheck(args) -> int:
    outdir = Path(args.outdir)
    modes = [BnMode(m) for m in args.modes.split(",")]
    layouts = args.layouts.split(",")
    reports = []
    shapes = {"2d": (args.m, args.d), "4d": (args.m, args.height, args.width, args.channels)}
    for mode in modes:
        for layout in layouts:
            shape = shapes[layout]
            reports.append(check_layer(mode, shape, seed=args.seed, step=args.step))
    worst = max(r.max_rel_err for r in reports)
    passed = worst <= args.threshold
    _write_manifest(args)
    _write_json(outdir / "reports.json", {
        "threshold": args.threshold,
        "passed": passed,
        "max_rel_err": worst,
        "reports": [r.to_dict() for r in reports],
    })
    for r in reports:
        status = "ok" if r.max_rel_err <= args.threshold else "FAIL"
        print(f"gradcheck {r.mode:>3} shape={r.shape} max_rel_err={r.max_rel_err:.3e} [{status}]")
    if not passed:
        print(f"gradcheck failed: max_rel_err {worst:.3e} > threshold {args.threshold:.1e}")
        return 1
    return 0


def cmd_ratio(args) -> int:
    outdir = Path(args.outdir)
    if args.channel_map:
        x = Rng(args.seed).normal((args.m, args.height, args.width, args.channels),
                                  args.mu, args.sigma)
        report = channelwise_ratio_map(x, band_half_width=args.band)
    elif args.dist == "gaussian":
        report = gaussian_ratio_trial(args.n, args.mu, args.sigma, seed=args.seed,
                                      band_half_width=args.band)
    else:
        report = uniform_ratio_trial(args.n, seed=args.seed, band_half_width=args.band)
    _write_manifest(args)
    _write_csv(outdir / "ratios.csv", ["channel", "sigma_l2", "sigma_l1", "ratio"],
               report.rows())
    _write_json(outdir / "summary.json", report.to_dict())
    print(f"mean ratio sigma_l2/sigma_l1 = {report.mean_ratio:.4f} "
          f"(gaussian constant {report.mean_ratio - report.gaussian_gap:.4f}, "
          f"in band: {report.in_gaussian_band})")
    return 0


_PRESETS = {
    # (task, hidden widths, config)
    "sanity": (
        SyntheticTask(classes=2, dim=5, train_per_class=400, test_per_class=200,
                      center_scale=3.0, spread=0.5),
        (16,),
        SgdConfig(learning_rate=0.1, epochs=15, batch_size=64),
    ),
    "parity": (
        SyntheticTask(classes=10, dim=20, train_per_class=300, test_per_class=100,
                      center_scale=1.0, spread=1.3),
        (64, 64, 64, 64, 64),
        SgdConfig(learning_rate=0.1, epochs=18, batch_size=128,
                  lr_decay_epochs=(12, 16)),
    ),
}


def cmd_train(args) -> int:
    outdir = Path(args.outdir)
    task, hidden, config = _PRESETS[args.preset]
    if args.epochs is not None:
        config = dataclasses.replace(config, epochs=args.epochs)
    _write_manifest(args)
    curve_header = ["epoch", "train_loss", "train_acc", "test_acc"]
    if args.preset == "parity":
        template = MlpSpec(in_dim=task.dim, hidden=hidden, classes=task.classes)
        summary = parity_gap(task, template, config,
                             seeds=tuple(args.seed + k for k in range(args.runs)))
        for mode, records in summary.pop("records").items():
            for rec in records:
                _write_csv(outdir / f"{mode}_seed{rec.seed}.csv", curve_header, rec.rows())
        _write_json(outdir / "summary.json", summary)
        print(f"parity: mean acc L2={summary['mean_acc_l2']:.4f} "
              f"L1={summary['mean_acc_l1']:.4f} gap={summary['gap_pp']:.2f}pp")
        return 0 if summary["gap_pp"] <= args.parity_tolerance_pp else 1
    # sanity: one run per requested mode
    records = {}
    for name in args.modes.split(","):
        mode = None if name == "none" else BnMode(name)
        spec = MlpSpec(in_dim=task.dim, hidden=hidden, classes=task.classes,
                       bn_mode=mode, seed=args.seed)
        rec = run_experiment(dataclasses.replace(task, seed=args.seed), spec, config)
        records[name] = rec
        _write_csv(outdir / f"{name}_seed{args.seed}.csv", curve_header, rec.rows())
        print(f"train {name:>4}: final test acc {rec.final_test_acc:.4f} "
              f"({'diverged' if rec.diverged else 'ok'})")
    _write_json(outdir / "summary.json", {
        "preset": args.preset,
        "final_test_acc": {k: r.final_test_acc for k, r in records.items()},
        "diverged": {k: r.diverged for k, r in records.items()},
    })
    return 0


def cmd_cost(args) -> int:
    outdir = Path(args.outdir)
    layers = parse_architecture(args.arch)
    costs = OpCosts.from_json(args.costs) if args.costs else OpCosts()
    profile = model_report(layers, costs, include_root=args.include_root)
    _write_manifest(args)
    _write_csv(
        outdir / "layers.csv",
        ["name", "m", "h", "w", "c", "mode",
         "sign_l1", "abs_l1", "square_l2", "root_l2",
         "time_l2_ns", "time_l1_ns", "power_l2_uw", "power_l1_uw"],
        [
            (lc.shape.name, lc.shape.m, lc.shape.h, lc.shape.w, lc.shape.c,
             lc.shape.mode.value,
             lc.counts_l1["sign"], lc.counts_l1["abs"],
             lc.counts_l2["square"], lc.counts_l2["root"],
             lc.weighted_l2["time_ns"], lc.weighted_l1["time_ns"],
             lc.weighted_l2["power_uw"], lc.weighted_l1["power_uw"])
            for lc in profile.layers
        ],
    )
    _write_json(outdir / "totals.json", profile.to_dict())
    print(f"time ratio (L2/L1): {profile.time_ratio_l2_over_l1:.2f}x, "
          f"power saving: {profile.power_saving_pct:.1f}% "
          f"(~{profile.power_saving_pct_round10:.0f}%)")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l1bn",
        description="L1/L2 batch normalization experiments with reproducible seeds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gradcheck", help="certify analytic gradients against finite differences")
    p.add_argument("--modes", type=_comma_list(tuple(m.value for m in BnMode)),
                   default="l2,l1,l1c",
                   help="comma list of l2,l1,l1c")
    p.add_argument("--layouts", type=_comma_list(("2d", "4d")), default="2d",
                   help="comma list of 2d,4d")
    p.add_argument("--m", type=_positive_int, default=7, help="batch size")
    p.add_argument("--d", type=_positive_int, default=3, help="features (2d layout)")
    p.add_argument("--height", type=_positive_int, default=3, help="spatial height (4d layout)")
    p.add_argument("--width", type=_positive_int, default=3, help="spatial width (4d layout)")
    p.add_argument("--channels", type=_positive_int, default=2, help="channels (4d layout)")
    p.add_argument("--step", type=float, default=DEFAULT_STEP, help="finite-difference step")
    p.add_argument("--threshold", type=float, default=1e-5, help="max allowed relative error")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--outdir", default="runs/gradcheck")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ratio", help="Monte Carlo std/mean-absolute-deviation ratio")
    p.add_argument("--n", type=_positive_int, default=100000, help="sample count per trial")
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--dist", choices=("gaussian", "uniform"), default="gaussian")
    p.add_argument("--band", type=float, default=DEFAULT_BAND_HALF_WIDTH,
                   help="half-width of the Gaussian band")
    p.add_argument("--channel-map", action="store_true",
                   help="per-channel map over a synthetic 4-D tensor instead of one stream")
    p.add_argument("--m", type=_positive_int, default=64)
    p.add_argument("--height", type=_positive_int, default=8)
    p.add_argument("--width", type=_positive_int, default=8)
    p.add_argument("--channels", type=_positive_int, default=16)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--outdir", default="runs/ratio")
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("train", help="train synthetic classifiers with either norm")
    p.add_argument("--preset", choices=tuple(_PRESETS), default="sanity")
    p.add_argument("--modes", type=_comma_list((*(m.value for m in BnMode), "none")),
                   default="l2,l1",
                   help="comma list of l2,l1,l1c,none (sanity preset)")
    p.add_argument("--runs", type=_positive_int, default=5,
                   help="seeds per mode (parity preset)")
    p.add_argument("--epochs", type=_positive_int, default=None,
                   help="override preset epochs")
    p.add_argument("--parity-tolerance-pp", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--outdir", default="runs/train")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("cost", help="weighted op-cost comparison for an architecture file")
    p.add_argument("--arch", required=True, help="file with lines `name m h w c mode`")
    p.add_argument("--costs", default=None, help="JSON file overriding per-op costs")
    p.add_argument("--include-root", action="store_true",
                   help="keep per-feature root ops in the weighted totals")
    p.add_argument("--outdir", default="runs/cost")
    p.set_defaults(func=cmd_cost)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # library errors surface as exit 1
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
