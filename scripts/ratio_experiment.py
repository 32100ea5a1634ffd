#!/usr/bin/env python3
"""Deviation ratios std/MAD of the hidden pre-activations of a small trained MLP.

Observational: nothing forces trained activations to stay Gaussian, so the
per-feature ratios are reported, not checked against sqrt(pi/2).  The
Monte Carlo trials and the synthetic channel map are ``l1bn ratio`` runs
(see the README).  Writes mlp_layer0..2.csv under runs/ratio_experiment/.

Usage: python3 scripts/ratio_experiment.py [--outdir DIR]
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # this checkout's library, not one found earlier on the path
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from l1bn.batchnorm import BnMode, bn_forward_infer
from l1bn.ratio import channelwise_ratio_map
from l1bn.trainer import BnLayer, DenseLayer, Mlp, MlpSpec, SgdConfig, SyntheticTask, train


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--outdir", default="runs/ratio_experiment")
    args = parser.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    task = SyntheticTask(classes=4, dim=12, train_per_class=400, test_per_class=100,
                         spread=1.0, seed=0)
    model = Mlp(MlpSpec(in_dim=12, hidden=(48, 48, 48), classes=4, bn_mode=BnMode.L1, seed=0))
    train(model, task, SgdConfig(learning_rate=0.1, epochs=8, batch_size=64))
    # each hidden dense layer's output on the inference path, layer by layer:
    # x @ W, since the dense layers of a BN net have no bias, then BN with the
    # running statistics and the ReLU; the head's logits are left out
    acts, out = [], task.make()[0][:1024]
    for layer in model.layers[:-1]:
        if isinstance(layer, DenseLayer):
            out = out @ layer.w
            acts.append(out)
        elif isinstance(layer, BnLayer):
            out = bn_forward_infer(out, layer.params, layer.state)
        else:
            out = np.fmax(out, 0.0)
    for i, act in enumerate(acts):
        rep = channelwise_ratio_map(act)
        with open(outdir / f"mlp_layer{i}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["channel", "sigma_l2", "sigma_l1", "ratio"])
            writer.writerows(rep.rows())
        print(f"trained MLP layer {i}: mean ratio {rep.mean_ratio:.4f} "
              f"(observational, {rep.ratios.shape[0]} features)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
