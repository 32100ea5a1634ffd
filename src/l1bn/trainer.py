"""Desk-scale MLP training harness for comparing the two normalizations.

Dense -> BN -> ReLU blocks, softmax cross-entropy, SGD with momentum.  A dense
layer that feeds a BN layer has no bias: BN's mean subtraction cancels it and
β takes its place (Ioffe & Szegedy 2015, §3.2).  The classification task is
synthetic (Gaussian clusters), which keeps a full run under a minute while
exercising every forward/backward/statistics code path.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .batchnorm import (
    BnMode,
    BnParams,
    BnState,
    bn_backward,
    bn_forward_infer,
    bn_forward_train,
    update_running_stats,
)
from .tensor import Rng

LR_DECAY_FACTOR = 0.1  # learning-rate multiplier at each of SgdConfig.lr_decay_epochs
MOMENTUM = 0.9


class DivergenceError(RuntimeError):
    """Loss became non-finite; the run is aborted and reported as diverged."""


@dataclass
class SgdConfig:
    learning_rate: float = 0.1
    batch_size: int = 128
    epochs: int = 20
    lr_decay_epochs: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 2:  # a batch of 1 has no batch statistics: train skips it
            raise ValueError(f"batch_size must be at least 2, got {self.batch_size}")

    def lr_at(self, epoch: int) -> float:
        decays = sum(1 for e in self.lr_decay_epochs if epoch >= e)
        return self.learning_rate * LR_DECAY_FACTOR ** decays


@dataclass
class MlpSpec:
    """Network description: layer widths, one BN mode for every hidden block
    (None disables BN), and the init seed."""

    in_dim: int
    hidden: tuple[int, ...]
    classes: int
    bn_mode: BnMode | None = BnMode.L2
    seed: int = 0

    def __post_init__(self):
        self.hidden = tuple(int(w) for w in self.hidden)
        if len(self.hidden) < 1:
            raise ValueError("need at least one hidden layer")
        if min((self.in_dim, self.classes) + self.hidden) <= 0:
            raise ValueError("widths must be positive")


@dataclass
class SyntheticTask:
    """Balanced Gaussian-cluster classification, deterministic given the seed."""

    classes: int = 10
    dim: int = 20
    train_per_class: int = 300
    test_per_class: int = 100
    center_scale: float = 1.0
    spread: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("classes", "dim", "train_per_class", "test_per_class"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.classes * self.train_per_class < 2:  # no batch could hold two rows
            raise ValueError("the training set needs at least 2 rows, got "
                             f"classes * train_per_class = {self.classes * self.train_per_class}")

    def make(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        rng = Rng(self.seed)
        centers = rng.normal((self.classes, self.dim), 0.0, self.center_scale)

        def draw(per_class):
            xs, ys = [], []
            for k in range(self.classes):
                xs.append(centers[k] + rng.normal((per_class, self.dim), 0.0, self.spread))
                ys.append(np.full(per_class, k, dtype=np.int64))
            return np.concatenate(xs), np.concatenate(ys)

        x_train, y_train = draw(self.train_per_class)
        x_test, y_test = draw(self.test_per_class)
        return x_train, y_train, x_test, y_test


class DenseLayer:
    """Fully connected layer with He-style init.

    ``take(*shape)`` hands out a parameter array and its gradient array; the
    layer takes ``w`` then ``b`` and trains them in place.  With
    ``bias=False`` it takes only ``w``, and ``b`` and ``db`` are None.  With
    ``input_grad=False`` the backward skips ``d_out @ w.T`` and returns None:
    the network's first layer has no layer below it to read that gradient.
    """

    def __init__(self, take, rng: Rng, fan_in: int, fan_out: int, input_grad: bool = True,
                 bias: bool = True):
        self.w, self.dw = take(fan_in, fan_out)
        self.w[...] = rng.normal((fan_in, fan_out), 0.0, math.sqrt(2.0 / fan_in))
        self.b, self.db = take(fan_out) if bias else (None, None)
        self.input_grad = input_grad
        self._x = None

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        if training:
            self._x = x
        out = x @ self.w
        if self.b is not None:
            out += self.b  # same sum as `x @ w + b`, without a second fresh array
        return out

    def backward(self, d_out: np.ndarray) -> np.ndarray | None:
        np.matmul(self._x.T, d_out, out=self.dw)
        if self.db is not None:
            d_out.sum(axis=0, out=self.db)
        return d_out @ self.w.T if self.input_grad else None


class ReluLayer:
    def __init__(self):
        self._mask = None

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        if training:
            self._mask = x > 0
        # fmax, unlike maximum, maps NaN to 0.0, so it matches
        # np.where(x > 0, x, 0.0) bit for bit
        return np.fmax(x, 0.0)

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        return d_out * self._mask


class BnLayer:
    """Batch normalization wrapper owning its running state and cache; γ and β,
    and their gradients, are the arrays ``take`` hands it."""

    def __init__(self, take, num_features: int, mode: BnMode):
        gamma, self.d_gamma = take(num_features)
        beta, self.d_beta = take(num_features)
        # plain L1 deviations run ~1.25x small on Gaussian activations; a slightly
        # smaller gamma start keeps early training on the same footing
        gamma[...] = 0.8 if mode is BnMode.L1 else 1.0
        self.params = BnParams(gamma=gamma, beta=beta, mode=mode)
        self.state = BnState.init(num_features)
        self._cache = None

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        if training:
            y, cache = bn_forward_train(x, self.params)
            self._cache = cache
            update_running_stats(self.state, cache.mu_b, cache.sigma_b)
            return y
        return bn_forward_infer(x, self.params, self.state)

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        bundle = bn_backward(d_out, self._cache, self.params)
        self.d_gamma[...] = bundle.d_gamma
        self.d_beta[...] = bundle.d_beta
        return bundle.d_input


class Mlp:
    """Stack of Dense(-BN)-ReLU blocks plus a linear classifier head.

    Every trainable array is a view into one flat vector ``theta``, and every
    gradient a view into ``grad``, both in layer order, so one SGD step is four
    array calls however many layers there are.  Each layer takes its views when
    it is built.  The gradient views are live: the next backward overwrites them.
    With BN, each hidden dense layer has no bias (BN's β replaces it), so
    ``theta`` holds Σ fan_in·fan_out weights, the head's bias and γ, β per
    hidden feature; without BN, every dense layer has a bias.
    """

    def __init__(self, spec: MlpSpec):
        self.spec = spec
        widths = (spec.in_dim, *spec.hidden, spec.classes)
        size = sum(fan_in * fan_out for fan_in, fan_out in zip(widths, widths[1:]))
        size += spec.classes + (1 if spec.bn_mode is None else 2) * sum(spec.hidden)
        self.theta = np.zeros(size)
        self.grad = np.zeros(size)
        offset = 0

        def take(*shape):
            nonlocal offset
            span = slice(offset, offset + math.prod(shape))
            offset = span.stop
            return self.theta[span].reshape(shape), self.grad[span].reshape(shape)

        rng = Rng(spec.seed)
        self.layers = []
        for fan_in, width in zip(widths, spec.hidden):
            self.layers.append(DenseLayer(take, rng, fan_in, width, input_grad=bool(self.layers),
                                          bias=spec.bn_mode is None))
            if spec.bn_mode is not None:
                self.layers.append(BnLayer(take, width, spec.bn_mode))
            self.layers.append(ReluLayer())
        self.layers.append(DenseLayer(take, rng, widths[-2], spec.classes))

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        out = x
        for layer in self.layers:
            out = layer.forward(out, training)
        return out

    def backward(self, d_logits: np.ndarray) -> None:
        d = d_logits
        for layer in reversed(self.layers):
            d = layer.backward(d)

    def hidden_preactivations(self, x: np.ndarray) -> list[np.ndarray]:
        """Per-block dense outputs before normalization (inference path):
        ``x @ W`` in a BN net, whose hidden dense layers have no bias."""
        acts = []
        out = x
        for layer in self.layers[:-1]:
            out = layer.forward(out, training=False)
            if isinstance(layer, DenseLayer):
                acts.append(out)
        return acts


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient w.r.t. the logits."""
    z = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(z)
    probs = exp / exp.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    picked = probs[np.arange(n), labels]
    loss = float(-np.mean(np.log(np.maximum(picked, 1e-300))))
    # probs becomes the gradient in place; the loss above is already read
    probs[np.arange(n), labels] -= 1.0
    probs /= n
    return loss, probs


def forward_backward_step(model: Mlp, batch: np.ndarray,
                          labels: np.ndarray) -> tuple[float, np.ndarray]:
    """One training forward/backward; returns the loss and ``model.grad``.
    Raises DivergenceError on non-finite loss."""
    logits = model.forward(batch, training=True)
    loss, d_logits = softmax_cross_entropy(logits, labels)
    if not np.isfinite(loss):
        raise DivergenceError(f"non-finite loss {loss}")
    model.backward(d_logits)
    return loss, model.grad


def sgd_update(theta: np.ndarray, grad: np.ndarray, velocity: np.ndarray,
               lr: float) -> np.ndarray:
    """v ← MOMENTUM·v + g; θ ← θ - lr·v.  Updates in place and returns theta."""
    if not theta.shape == grad.shape == velocity.shape:
        raise ValueError(f"theta/grad/velocity shape mismatch: "
                         f"{theta.shape}, {grad.shape}, {velocity.shape}")
    velocity *= MOMENTUM
    velocity += grad
    theta -= lr * velocity
    return theta


@dataclass
class TrainingRecord:
    """Per-epoch curves plus the final outcome of one run."""

    mode: str
    seed: int
    train_loss: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    test_acc: list[float] = field(default_factory=list)
    final_test_acc: float = 0.0
    wall_time_s: float = 0.0
    diverged: bool = False

    def rows(self) -> list[tuple[int, float, float, float]]:
        return [
            (e, self.train_loss[e], self.train_acc[e], self.test_acc[e])
            for e in range(len(self.train_loss))
        ]


def accuracy(model: Mlp, x: np.ndarray, y: np.ndarray) -> float:
    logits = model.forward(x, training=False)
    return float(np.mean(np.argmax(logits, axis=1) == y))


def train(model: Mlp, task: SyntheticTask, config: SgdConfig) -> TrainingRecord:
    """Train ``model`` in place on ``task``; the shuffle stream is seeded from
    the model's spec, so the run is deterministic given both seeds."""
    x_train, y_train, x_test, y_test = task.make()
    spec = model.spec
    mode = spec.bn_mode.value if spec.bn_mode is not None else "none"
    record = TrainingRecord(mode=mode, seed=spec.seed)
    velocity = np.zeros_like(model.theta)
    shuffle_rng = Rng(spec.seed + 1)
    n = x_train.shape[0]
    started = time.perf_counter()
    try:
        # divergence is detected via explicit finiteness checks; silence the
        # overflow warnings numpy emits on the step that blows up
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(config.epochs):
                lr = config.lr_at(epoch)
                order = shuffle_rng.permutation(n)
                losses, trained = [], 0
                for lo in range(0, n, config.batch_size):
                    idx = order[lo:lo + config.batch_size]
                    if idx.size < 2:  # batch statistics need at least two samples
                        continue
                    loss, grad = forward_backward_step(model, x_train[idx], y_train[idx])
                    sgd_update(model.theta, grad, velocity, lr)
                    losses.append(loss * idx.size)
                    trained += idx.size
                # epoch metrics from full passes: for the parity preset about
                # 0.22 s of a 1.4 s two-run round (perfbench trainer.eval.self_s,
                # 2-vCPU Xeon VM, one BLAS thread); inference keeps no layer cache
                record.train_loss.append(float(np.sum(losses) / trained))
                record.train_acc.append(accuracy(model, x_train, y_train))
                record.test_acc.append(accuracy(model, x_test, y_test))
    except DivergenceError:
        record.diverged = True
    record.wall_time_s = time.perf_counter() - started
    record.final_test_acc = record.test_acc[-1] if record.test_acc else 0.0
    return record


def run_experiment(task: SyntheticTask, spec: MlpSpec,
                   config: SgdConfig) -> TrainingRecord:
    """Train a fresh model; deterministic given (task, spec, config) seeds."""
    return train(Mlp(spec), task, config)


def parity_gap(task: SyntheticTask, spec_template: MlpSpec, config: SgdConfig,
               seeds: tuple[int, ...] = (0, 1, 2, 3, 4)) -> dict:
    """Mean final test accuracy of L1 vs L2 over matched seeds.

    Everything except the norm is held fixed, so the gap isolates the effect
    of the deviation metric.  Each run's record is returned by mode under
    ``records``, in seed order.
    """
    records = {}
    for mode in (BnMode.L2, BnMode.L1):
        records[mode.value] = [
            run_experiment(dataclasses.replace(task, seed=seed),
                           dataclasses.replace(spec_template, bn_mode=mode, seed=seed),
                           config)
            for seed in seeds
        ]
    accs = {mode: [rec.final_test_acc for rec in recs] for mode, recs in records.items()}
    # sequential sum, not np.mean: the two round differently from eight seeds on
    mean_l2 = sum(accs["l2"]) / len(accs["l2"])
    mean_l1 = sum(accs["l1"]) / len(accs["l1"])
    return {
        "seeds": list(seeds),
        "acc_l2": accs["l2"],
        "acc_l1": accs["l1"],
        "mean_acc_l2": mean_l2,
        "mean_acc_l1": mean_l1,
        "gap_pp": abs(mean_l2 - mean_l1) * 100.0,
        "records": records,
    }
