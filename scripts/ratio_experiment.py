#!/usr/bin/env python3
"""Deviation-ratio study: how far is std/MAD from the Gaussian sqrt(pi/2)?

Three parts, echoing a layerwise/channelwise comparison:
  1. Monte Carlo trials over several (mu, sigma) pairs plus a uniform control.
  2. A per-channel ratio map over a synthetic 4-D activation tensor.
  3. Ratios of the hidden pre-activations of a small trained MLP (observational:
     nothing forces trained activations to stay Gaussian).

Writes CSVs under runs/ratio_experiment/.

Usage: python3 scripts/ratio_experiment.py [--n N] [--outdir DIR]
"""

import argparse
import csv
import json
from pathlib import Path

from l1bn.batchnorm import GAUSSIAN_STD_OVER_MAD, BnMode
from l1bn.ratio import channelwise_ratio_map, gaussian_ratio_trial, uniform_ratio_trial
from l1bn.tensor import Rng
from l1bn.trainer import Mlp, MlpSpec, SgdConfig, SyntheticTask, train


def write_rows(path: Path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["channel", "sigma_l2", "sigma_l1", "ratio"])
        writer.writerows(rows)


def trained_mlp():
    task = SyntheticTask(classes=4, dim=12, train_per_class=400, test_per_class=100,
                         spread=1.0, seed=0)
    spec = MlpSpec(in_dim=12, hidden=(48, 48, 48), classes=4, bn_mode=BnMode.L1, seed=0)
    model = Mlp(spec)
    train(model, task, SgdConfig(learning_rate=0.1, epochs=8, batch_size=64))
    return model, task.make()[0]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, default=100_000)
    parser.add_argument("--outdir", default="runs/ratio_experiment")
    args = parser.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    print(f"Gaussian constant sqrt(pi/2) = {GAUSSIAN_STD_OVER_MAD:.4f}\n")
    summary = {"gaussian_constant": GAUSSIAN_STD_OVER_MAD, "trials": []}
    for i, (mu, sigma) in enumerate([(0, 1), (5, 3), (-2, 0.5), (10, 0.1), (3, 7)]):
        rep = gaussian_ratio_trial(args.n, mu, sigma, seed=100 + i)
        print(f"normal(mu={mu:>4}, sigma={sigma:>3}): ratio={rep.mean_ratio:.4f}  "
              f"in band: {rep.in_gaussian_band}")
        summary["trials"].append({"dist": "gaussian", "mu": mu, "sigma": sigma,
                                  "ratio": rep.mean_ratio})
    control = uniform_ratio_trial(args.n, seed=0)
    print(f"uniform[-1, 1) control:      ratio={control.mean_ratio:.4f}  "
          f"in band: {control.in_gaussian_band} (population 2/sqrt(3) = 1.1547)")
    summary["trials"].append({"dist": "uniform", "ratio": control.mean_ratio})

    x = Rng(3).normal((64, 8, 8, 16))
    channel_map = channelwise_ratio_map(x)
    write_rows(outdir / "synthetic_channels.csv", channel_map.rows())
    print(f"\nsynthetic 4-D map over {channel_map.ratios.shape[0]} channels: "
          f"mean ratio {channel_map.mean_ratio:.4f}")

    model, x_train = trained_mlp()
    for i, act in enumerate(model.hidden_preactivations(x_train[:1024])):
        rep = channelwise_ratio_map(act)
        write_rows(outdir / f"mlp_layer{i}.csv", rep.rows())
        print(f"trained MLP layer {i}: mean ratio {rep.mean_ratio:.4f} "
              f"(observational, {rep.ratios.shape[0]} features)")

    (outdir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
