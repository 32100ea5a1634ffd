"""Command-line entry point: every experiment behind one binary.

Subcommands: ``gradcheck``, ``ratio``, ``train``, ``cost``.  Each returns its
outputs as text and ``main`` alone writes them, ``manifest.json`` (seed, resolved
options, library version) first, and none when the command raised.  Equal
options give byte-identical files.  Exit codes: 0 success, 1 experiment/assertion
failure, 2 usage error, which includes setting an option that the run does not
read.  The pass/fail bounds and the finite-difference step are constants.
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
from .batchnorm import GAUSSIAN_STD_OVER_MAD, BnMode
from .costmodel import OpCosts, model_report, parse_architecture
from .gradcheck import GRADCHECK_THRESHOLD, check_layer
from .ratio import channelwise_ratio_map
from .tensor import Rng
from .trainer import PARITY_TOLERANCE_PP, MlpSpec, SgdConfig, SyntheticTask, parity_gap

SCHEMA_VERSION = 1
DEFAULT_SEED = 1234  # bare invocations are reproducible

# a command's output files in write order (name -> text), stdout lines and exit code
Outputs = tuple[dict[str, str], list[str], int]

# Defaults of the options that only some runs read.  These parse to None, so
# ``main`` can reject one the run does not read before it fills them in.
GRADCHECK_DEFAULTS = {"d": 3, "height": 3, "width": 3, "channels": 2}
RATIO_DEFAULTS = {"n": 100000, "mu": 0.0, "sigma": 1.0, "m": 4096, "channels": 16}


def _comma_list(choices: tuple[str, ...]):
    """argparse type for a comma list of distinct values from ``choices``; keeps the text."""
    def parse(text: str) -> str:
        values = text.split(",")
        unknown = [m for m in values if m not in choices]
        if unknown:
            raise argparse.ArgumentTypeError(
                f"unknown value {','.join(unknown)!r} (choose from {','.join(choices)})")
        if len(set(values)) < len(values):  # a repeat would run the same work twice
            raise argparse.ArgumentTypeError(f"repeated value in {text!r}")
        return text
    return parse


def _int_at_least(low: int):
    """argparse type for an integer >= ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value: 'x'", as for type=int
    return parse


_positive_int = _int_at_least(1)
_seed = _int_at_least(0)  # numpy's generators take no negative seed


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


def _json(payload: dict) -> str:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv(header: list[str], rows) -> str:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _manifest(args: argparse.Namespace) -> str:
    return _json({
        "command": args.command,
        "seed": vars(args).get("seed"),
        "options": {k: v for k, v in vars(args).items() if k not in ("func", "command")},
        "version": __version__,
    })


def _unread(args) -> dict[str, str]:
    """Each option that the run ``args`` asks for does not read, with the reason."""
    if args.command == "gradcheck":
        layouts = args.layouts.split(",")
        unread = {} if "2d" in layouts else {"d": "read only by --layouts 2d"}
        if "4d" not in layouts:
            unread.update(dict.fromkeys(("height", "width", "channels"),
                                        "read only by --layouts 4d"))
        return unread
    if args.command == "ratio":
        unread = ({"n": "not read by --channel-map"} if args.channel_map else
                  dict.fromkeys(("m", "channels"), "read only by --channel-map"))
        if args.dist == "uniform":
            unread.update(dict.fromkeys(("mu", "sigma"), "not read by --dist uniform"))
        return unread
    return {}


def cmd_gradcheck(args) -> Outputs:
    modes = [BnMode(m) for m in args.modes.split(",")]
    layouts = args.layouts.split(",")
    shapes = {"2d": (args.m, args.d), "4d": (args.m, args.height, args.width, args.channels)}
    reports = [check_layer(mode, shapes[layout], seed=args.seed)
               for mode in modes for layout in layouts]
    worst = max(r.max_rel_err for r in reports)
    passed = worst <= GRADCHECK_THRESHOLD
    files = {"reports.json": _json({
        "threshold": GRADCHECK_THRESHOLD,
        "passed": passed,
        "max_rel_err": worst,
        "reports": [r.to_dict() for r in reports],
    })}
    lines = [f"gradcheck {r.mode:>3} shape={r.shape} max_rel_err={r.max_rel_err:.3e} "
             f"[{'ok' if r.max_rel_err <= GRADCHECK_THRESHOLD else 'FAIL'}]" for r in reports]
    if not passed:
        lines.append(
            f"gradcheck failed: max_rel_err {worst:.3e} > threshold {GRADCHECK_THRESHOLD:.1e}")
    return files, lines, int(not passed)


def cmd_ratio(args) -> Outputs:
    shape = (args.m, args.channels) if args.channel_map else (args.n, 1)  # a stream: 1 channel
    rng = Rng(args.seed)
    x = (rng.normal(shape, args.mu, args.sigma) if args.dist == "gaussian"
         else rng.uniform(shape, -1.0, 1.0))
    report = channelwise_ratio_map(x)
    files = {"ratios.csv": _csv(["channel", "sigma_l2", "sigma_l1", "ratio"], report.rows()),
             "summary.json": _json(report.to_dict())}
    return files, [f"mean ratio sigma_l2/sigma_l1 = {report.mean_ratio:.4f} "
                   f"(gaussian constant {GAUSSIAN_STD_OVER_MAD:.4f}, "
                   f"in band: {report.in_gaussian_band})"], 0


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


def cmd_train(args) -> Outputs:
    task, hidden, config = _PRESETS[args.preset]
    if args.epochs is not None:
        config = dataclasses.replace(config, epochs=args.epochs)
    names = args.modes.split(",")
    summary = parity_gap(task, MlpSpec(in_dim=task.dim, hidden=hidden, classes=task.classes),
                         config, seeds=tuple(args.seed + k for k in range(args.runs)),
                         modes=tuple(None if m == "none" else BnMode(m) for m in names))
    files = {f"{mode}_seed{rec.seed}.csv":
             _csv(["epoch", "train_loss", "train_acc", "test_acc"], rec.rows())
             for mode, records in summary.pop("records").items() for rec in records}
    files["summary.json"] = _json(summary)
    means = " ".join(f"{m.upper()}={summary[f'mean_acc_{m}']:.4f}" for m in names)
    gap = f" gap={summary['gap_pp']:.2f}pp" if "gap_pp" in summary else ""
    lines = [f"{args.preset}: mean acc {means}{gap}"]
    failed = summary.get("gap_pp", 0.0) > PARITY_TOLERANCE_PP
    if failed:
        lines.append(
            f"train failed: gap {summary['gap_pp']:.2f}pp > tolerance {PARITY_TOLERANCE_PP}pp")
    return files, lines, int(failed)


def cmd_cost(args) -> Outputs:
    layers = parse_architecture(args.arch)
    costs = (OpCosts.from_json(args.costs, include_root=args.include_root)
             if args.costs is not None else OpCosts())
    profile = model_report(layers, costs, include_root=args.include_root)
    files = {"layers.csv": _csv(
        ["name", "m", "h", "w", "c",
         "sign_l1", "abs_l1", "square_l2", "root_l2",
         "time_l2_ns", "time_l1_ns", "power_l2_uw", "power_l1_uw"],
        [
            (lc.shape.name, lc.shape.m, lc.shape.h, lc.shape.w, lc.shape.c,
             lc.counts_l1["sign"], lc.counts_l1["abs"],
             lc.counts_l2["square"], lc.counts_l2["root"],
             lc.weighted_l2["time_ns"], lc.weighted_l1["time_ns"],
             lc.weighted_l2["power_uw"], lc.weighted_l1["power_uw"])
            for lc in profile.layers
        ],
    ), "totals.json": _json(profile.to_dict())}
    return files, [f"time ratio (L2/L1): {profile.time_ratio_l2_over_l1:.2f}x, "
                   f"power saving: {profile.power_saving_pct:.1f}% "
                   f"(~{profile.power_saving_pct_round10:.0f}%)"], 0


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
    p.add_argument("--d", type=_positive_int, help="features (2d layout only)")
    p.add_argument("--height", type=_positive_int, help="spatial height (4d layout only)")
    p.add_argument("--width", type=_positive_int, help="spatial width (4d layout only)")
    p.add_argument("--channels", type=_positive_int, help="channels (4d layout only)")
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--outdir", default="runs/gradcheck")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ratio", help="Monte Carlo std/mean-absolute-deviation ratio")
    p.add_argument("--n", type=_positive_int,
                   help="sample count of the one stream (not with --channel-map)")
    p.add_argument("--mu", type=float, help="Gaussian mean (not with --dist uniform)")
    p.add_argument("--sigma", type=float, help="Gaussian std (not with --dist uniform)")
    p.add_argument("--dist", choices=("gaussian", "uniform"), default="gaussian")
    p.add_argument("--channel-map", action="store_true",
                   help="per-channel map over synthetic (rows, channels) data instead of "
                        "one stream")
    p.add_argument("--m", type=_positive_int, help="map rows per channel (--channel-map only)")
    p.add_argument("--channels", type=_positive_int, help="map channels (--channel-map only)")
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--outdir", default="runs/ratio")
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("train", help="train synthetic classifiers with either norm")
    p.add_argument("--preset", choices=tuple(_PRESETS), default="sanity")
    p.add_argument("--modes", type=_comma_list((*(m.value for m in BnMode), "none")),
                   default="l2,l1",
                   help="comma list of l2,l1,l1c,none")
    p.add_argument("--runs", type=_positive_int, default=5,
                   help="seeds per mode, from --seed up")
    p.add_argument("--epochs", type=_positive_int, default=None,
                   help="override preset epochs")
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--outdir", default="runs/train")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("cost", help="weighted op-cost comparison for an architecture file")
    p.add_argument("--arch", required=True, help="file with one `name m h w c` line per layer")
    p.add_argument("--costs", default=None, help="JSON file overriding per-op costs")
    p.add_argument("--include-root", action="store_true",
                   help="keep per-feature root ops in the weighted totals")
    p.add_argument("--outdir", default="runs/cost")
    p.set_defaults(func=cmd_cost)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, reason in _unread(args).items():
        if getattr(args, name) is not None:
            print(f"{parser.prog} {args.command}: error: argument "
                  f"--{name.replace('_', '-')}: {reason}", file=sys.stderr)
            raise SystemExit(2)
    defaults = {"gradcheck": GRADCHECK_DEFAULTS, "ratio": RATIO_DEFAULTS}.get(args.command, {})
    for name, value in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, value)
    try:
        files, lines, code = args.func(args)
        # nothing is written when the command raised; the manifest goes first
        for name, text in {"manifest.json": _manifest(args), **files}.items():
            _write_output(Path(args.outdir) / name, text)
        for line in lines:
            print(line)
    except (ValueError, OSError, MemoryError) as exc:  # library errors surface as exit 1
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
