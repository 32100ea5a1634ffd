"""Desk-scale MLP training harness for comparing the two normalizations.

Dense -> BN -> ReLU blocks, softmax cross-entropy, SGD with momentum.  A dense
layer that feeds a BN layer has no bias: BN's mean subtraction cancels it and
β takes its place (Ioffe & Szegedy 2015, §3.2).  The layer objects run the
training forward only; the per-epoch evaluation folds each BN layer's frozen
statistics into the dense layer before it (Jacob et al. 2018, arXiv:1712.05877,
§3.2) and makes no layer call.  The classification task is
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
    BLOCK_ELEMS,
    BnMode,
    BnParams,
    BnState,
    bn_backward,
    bn_forward_train,
    inference_scale_shift,
    update_running_stats,
)
from .tensor import Rng

LR_DECAY_FACTOR = 0.1  # learning-rate multiplier at each of SgdConfig.lr_decay_epochs
MOMENTUM = 0.9
PARITY_TOLERANCE_PP = 2.0  # largest gap_pp that `l1bn train` passes


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
        if self.epochs < 1:  # nothing would train, and the 0.0 pp gap would pass the gate
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")

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

    def forward(self, x: np.ndarray) -> np.ndarray:
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

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        # fmax, unlike maximum, maps NaN to 0.0, so it matches
        # np.where(x > 0, x, 0.0) bit for bit
        return np.fmax(x, 0.0)

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        return d_out * self._mask


class BnLayer:
    """Batch normalization wrapper owning its running state and cache; γ and β,
    and their gradients, are the arrays ``take`` hands it.  γ starts at 1 and β
    at 0 in every mode."""

    def __init__(self, take, num_features: int, mode: BnMode):
        gamma, self.d_gamma = take(num_features)
        beta, self.d_beta = take(num_features)
        gamma[...] = 1.0
        self.params = BnParams(gamma=gamma, beta=beta, mode=mode)
        self.state = BnState.init(num_features)
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        y, self._cache = bn_forward_train(x, self.params)
        update_running_stats(self.state, self._cache.mu_b, self._cache.sigma_b)
        return y

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

    def forward(self, x: np.ndarray) -> np.ndarray:
        """The training forward: each layer keeps what its backward reads, and each
        BN layer normalizes with the batch's statistics and updates its running ones."""
        out = x
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def backward(self, d_logits: np.ndarray) -> None:
        d = d_logits
        for layer in reversed(self.layers):
            d = layer.backward(d)


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
    logits = model.forward(batch)
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


def inference_stages(model: Mlp) -> list[tuple[np.ndarray, np.ndarray]]:
    """The net's inference forward as one ``(w, b)`` per dense layer, in order; a
    ReLU follows every stage but the last, the head.  Each BN layer's frozen
    statistics fold into the bias-free dense layer before it, as ``(w·scale,
    shift)`` from ``inference_scale_shift``; every other dense layer passes
    through as its own ``(w, b)``.  The folded arrays are fresh and hold for one
    evaluation only, since SGD updates θ and the running statistics in place."""
    stages = []
    for layer in model.layers:
        if isinstance(layer, DenseLayer):
            stages.append((layer.w, layer.b))
        elif isinstance(layer, BnLayer):
            scale, shift = inference_scale_shift(layer.params, layer.state)
            stages[-1] = (stages[-1][0] * scale, shift)
    return stages


def inference_logits(stages: list[tuple[np.ndarray, np.ndarray]],
                     x: np.ndarray) -> np.ndarray:
    """Logits of the rows ``x`` through ``inference_stages(model)``: ``x @ w``, then
    ``+= b`` and an in-place ReLU, per stage; the head gets no ReLU."""
    *hidden, (w_head, b_head) = stages
    for w, b in hidden:
        out = x @ w
        out += b
        x = np.fmax(out, 0.0, out=out)  # fmax, as ReluLayer: NaN maps to 0.0
    logits = x @ w_head
    logits += b_head
    return logits


def accuracy(model: Mlp, x: np.ndarray, y: np.ndarray) -> float:
    """Fraction of rows whose largest logit is the label: ``np.mean(argmax == y)``
    bit for bit, from hit counts summed over row blocks.

    The net's stages are built once per call by ``inference_stages``, each BN
    layer folded into the dense layer before it, so a block costs one matmul,
    one add and one ReLU per hidden layer.  A block holds about ``BLOCK_ELEMS //
    widest layer`` rows (512 for the parity net), so each layer's activation is
    a cache-sized block rather than a fresh full-set array.  The rows split into
    ⌈N/step⌉ blocks of near-equal size, none of one row: a one-row matmul takes
    another BLAS path.  The logits can differ in the last bits from a per-layer,
    whole-set inference forward's; on the presets no accuracy moves.
    """
    spec = model.spec
    step = max(1, BLOCK_ELEMS // max(spec.in_dim, *spec.hidden, spec.classes))
    n = len(x)
    blocks = max(1, min(-(-n // step), n // 2))
    stages = inference_stages(model)
    hits = 0
    for x_block, y_block in zip(np.array_split(x, blocks), np.array_split(y, blocks)):
        logits = inference_logits(stages, x_block)
        hits += int(np.count_nonzero(np.argmax(logits, axis=1) == y_block))
    return hits / n


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
                # epoch metrics over the whole sets, in row blocks of the folded
                # net; no layer object runs, so no backward cache changes
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
               seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
               modes: tuple[BnMode | None, ...] = (BnMode.L2, BnMode.L1)) -> dict:
    """Final test accuracy of each mode over matched seeds, and the L1 vs L2 gap.

    Everything except the norm is held fixed, so the gap isolates the effect
    of the deviation metric.  A mode of None trains without BN and is keyed
    ``"none"``.  For each mode ``m`` the result holds ``acc_m``, ``mean_acc_m``
    and ``diverged_m`` in seed order, and each run's record under
    ``records[m]``; ``gap_pp`` is there only when both L2 and L1 ran.
    """
    if not seeds:
        raise ValueError("seeds must not be empty")
    summary, records = {"seeds": list(seeds)}, {}
    for mode in modes:
        name = mode.value if mode is not None else "none"
        records[name] = [
            run_experiment(dataclasses.replace(task, seed=seed),
                           dataclasses.replace(spec_template, bn_mode=mode, seed=seed),
                           config)
            for seed in seeds
        ]
        summary[f"acc_{name}"] = [rec.final_test_acc for rec in records[name]]
        # sequential sum, not np.mean: the two round differently from eight seeds on
        summary[f"mean_acc_{name}"] = sum(summary[f"acc_{name}"]) / len(seeds)
        summary[f"diverged_{name}"] = [rec.diverged for rec in records[name]]
    if "l2" in records and "l1" in records:
        summary["gap_pp"] = abs(summary["mean_acc_l2"] - summary["mean_acc_l1"]) * 100.0
    summary["records"] = records
    return summary
