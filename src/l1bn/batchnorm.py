"""Batch normalization with either variance (L2) or mean-absolute-deviation (L1) scaling.

Training forward, per feature (statistics pooled over the batch axes):

    μ_B = (1/m) Σ_i x_i
    L2:  σ_B = sqrt((1/m) Σ_i (x_i - μ_B)²),   x̂ = (x - μ_B) / sqrt(σ_B² + ε)
    L1:  σ_B = (1/m) Σ_i |x_i - μ_B|,          x̂ = (x - μ_B) / (σ_B + ε)
    y   = γ·x̂ + β            (when the affine stage is enabled)

The L1 deviation of a Gaussian is smaller than its standard deviation by the
constant sqrt(π/2) ≈ 1.2533; ``L1_COMPENSATED`` folds that factor into σ_B so
the normalized output matches the L2 scale without touching γ.  One kernel
serves every mode on the (N, c) view ``rows(x)``; with g = γ·∂ℓ/∂y, μ(·) the
pooled mean and k the compensation constant, its one backward, ``bn_backward``, is

    ∂ℓ/∂x = (g - μ(g) - μ(g·x̂)·v) / denom,   v = x̂ (L2),  v = k·(sgn x̂ - μ(sgn x̂)) (L1)

The L1 form needs signum and absolute values where L2 needs squares and roots,
which is the whole point: those are the cheap operations in ``l1bn.costmodel``.
``l1bn.gradcheck`` certifies it, and the term-by-term L1 chain rule kept as its
oracle, against finite differences.

Supported layouts (statistics always pool everything except the last axis):

    2-D (m, d)       -> per-feature stats over axis 0,      |B| = m
    4-D (m, h, w, c) -> per-channel stats over axes 0,1,2,  |B| = m·h·w

Each chain of elementwise passes runs over row blocks of the (N, c) view,
``BLOCK_ELEMS`` float64s (256 KB) per operand, so the chain's later passes read
a block from L2 rather than the whole array from L3 or memory: the forward's
normalize/affine tail, and the backward's assembly of ∂ℓ/∂x, whose d_y·γ/denom
term is a one-block temporary.  The reductions (the column sums, both einsums,
the mean of sgn x̂) stay one numpy call over the whole view, since their
summation order sets their bits; ufuncs round each element alone, so the block
size moves no output bit.  An array that fits one block is its own block, for
one extra function call.  Three passes stay whole, since blocking them measured
slower on a 2-vCPU VM: centring, which the reductions need complete (L1's
|x - μ_B| with it in row blocks slowed the backward that follows), and
inference's multiply and add, whose gain at 2.1M elements was lost at 192k.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .tensor import ShapeError, reduce_mean, reduce_sum, sign

# std/MAD ratio of a Gaussian: sqrt(pi/2).
GAUSSIAN_STD_OVER_MAD = math.sqrt(math.pi / 2.0)

# float64s per operand in one row block (256 KB), so a block's chain of
# elementwise passes runs in L2.
BLOCK_ELEMS = 1 << 15


class LayoutError(ValueError):
    """Tensor rank is not one of the supported layouts."""


class ModeError(ValueError):
    """An L2 cache was fed to the term-by-term L1 backward."""


class BatchSizeError(ValueError):
    """Pooled sample count too small to form statistics."""


class StateError(ValueError):
    """Running statistics requested before any update."""


class BnMode(Enum):
    """Which deviation scales the normalization.

    ``L1_COMPENSATED`` multiplies the batch L1 deviation by sqrt(π/2) inside
    the forward statistic; plain ``L1`` leaves compensation to a trainable γ.
    """

    L2 = "l2"
    L1 = "l1"
    L1_COMPENSATED = "l1c"


def rows(x: np.ndarray) -> np.ndarray:
    """The (N, c) view of a supported layout: one row per pooled sample, so N = |B|."""
    if x.ndim not in (2, 4):
        raise LayoutError(f"expected rank 2 (m, d) or rank 4 (m, h, w, c), got rank {x.ndim}")
    return x.reshape(math.prod(x.shape[:-1]), x.shape[-1])


@dataclass
class BnParams:
    """Trainable scale/shift plus the normalization configuration."""

    gamma: np.ndarray
    beta: np.ndarray
    epsilon: float = 1e-5
    mode: BnMode = BnMode.L2
    use_affine: bool = True

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=np.float64)
        self.beta = np.asarray(self.beta, dtype=np.float64)
        if self.gamma.ndim != 1 or self.beta.ndim != 1:
            raise ShapeError("gamma and beta must be 1-D per-feature vectors")
        if self.gamma.shape != self.beta.shape:
            raise ShapeError(
                f"gamma/beta length mismatch: {self.gamma.shape} vs {self.beta.shape}"
            )
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")

    @classmethod
    def init(cls, num_features: int, mode: BnMode = BnMode.L2, epsilon: float = 1e-5,
             use_affine: bool = True) -> "BnParams":
        return cls(
            gamma=np.ones(num_features, dtype=np.float64),
            beta=np.zeros(num_features, dtype=np.float64),
            epsilon=epsilon,
            mode=mode,
            use_affine=use_affine,
        )

    @property
    def num_features(self) -> int:
        return self.gamma.shape[0]


@dataclass
class BnState:
    """Exponential moving averages of the batch statistics.

    ``running_sigma`` is stored in the same metric as the mode (standard
    deviation for L2, possibly-compensated mean absolute deviation for L1),
    so inference needs a single formula per mode.
    """

    running_mu: np.ndarray
    running_sigma: np.ndarray
    momentum: float = 0.9
    updates: int = 0

    def __post_init__(self):
        self.running_mu = np.asarray(self.running_mu, dtype=np.float64)
        self.running_sigma = np.asarray(self.running_sigma, dtype=np.float64)
        if self.running_mu.shape != self.running_sigma.shape:
            raise ShapeError("running_mu/running_sigma length mismatch")
        if not 0.0 <= self.momentum <= 1.0:
            raise ValueError(f"momentum must lie in [0, 1], got {self.momentum}")

    @classmethod
    def init(cls, num_features: int, momentum: float = 0.9) -> "BnState":
        return cls(
            running_mu=np.zeros(num_features, dtype=np.float64),
            running_sigma=np.ones(num_features, dtype=np.float64),
            momentum=momentum,
        )


@dataclass
class BnCache:
    """Per-batch intermediates the backward pass reuses."""

    mu_b: np.ndarray
    sigma_b: np.ndarray
    x_hat: np.ndarray
    mode: BnMode
    denom: np.ndarray  # per-feature sqrt(σ_B²+ε) (L2) or σ_B+ε (L1): no root in backward


@dataclass
class GradBundle:
    """Gradients from one backward call."""

    d_input: np.ndarray
    d_gamma: np.ndarray
    d_beta: np.ndarray


def _mean_rows(x_rows: np.ndarray) -> np.ndarray:
    """Column means of an (N, c) array: the bits of ``x_rows.mean(axis=0)``, which
    is this sum and in-place division, without np.mean's Python wrapper."""
    mean = x_rows.sum(axis=0)
    mean /= len(x_rows)
    return mean


def _row_blocks(*arrays: np.ndarray) -> Sequence[tuple[np.ndarray, ...]]:
    """Matching row blocks of equal-shape (N, c) ``arrays``, ``BLOCK_ELEMS`` elements
    each; ``(arrays,)`` itself when one block covers them."""
    if arrays[0].size <= BLOCK_ELEMS:
        return (arrays,)
    n, c = arrays[0].shape
    step = max(1, BLOCK_ELEMS // c)
    return [tuple(a[i:i + step] for a in arrays) for i in range(0, n, step)]


def _centre(x_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pooled mean and a fresh (N, c) array of x - μ_B, from the rows view."""
    if len(x_rows) < 2:
        raise BatchSizeError(f"need at least 2 pooled samples, got {len(x_rows)}")
    mu = _mean_rows(x_rows)
    return mu, x_rows - mu


def l2_batch_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pooled mean and biased variance (divisor |B|)."""
    mu, centred = _centre(rows(np.asarray(x, dtype=np.float64)))
    return mu, np.einsum("ij,ij->j", centred, centred) / len(centred)


def l1_batch_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pooled mean and mean absolute deviation."""
    mu, centred = _centre(rows(np.asarray(x, dtype=np.float64)))
    return mu, _mean_rows(np.abs(centred, out=centred))


def _compensation(mode: BnMode) -> float:
    return GAUSSIAN_STD_OVER_MAD if mode is BnMode.L1_COMPENSATED else 1.0


def batch_deviation(x: np.ndarray, mode: BnMode) -> np.ndarray:
    """Per-feature deviation of ``x`` in the metric the mode normalizes to 1."""
    if mode is BnMode.L2:
        return np.sqrt(l2_batch_stats(x)[1])
    return l1_batch_stats(x)[1] * _compensation(mode)


def _checked_rows(x: np.ndarray, params: BnParams) -> np.ndarray:
    """``rows(x)``, once its feature count is checked against the params."""
    x_rows = rows(x)
    if x_rows.shape[1] != params.num_features:
        raise ShapeError(
            f"input has {x.shape[-1]} features but params carry {params.num_features}"
        )
    return x_rows


def _check_upstream(d_y: np.ndarray, cache: BnCache) -> np.ndarray:
    d_y = np.asarray(d_y, dtype=np.float64)
    if d_y.shape != cache.x_hat.shape:
        raise ShapeError(f"d_y shape {d_y.shape} != forward shape {cache.x_hat.shape}")
    return d_y


def bn_forward_train(x: np.ndarray, params: BnParams) -> tuple[np.ndarray, BnCache]:
    """Normalize with fresh batch statistics; returns output and backward cache."""
    x = np.asarray(x, dtype=np.float64)
    mu, x_hat = _centre(_checked_rows(x, params))  # x - μ_B, normalized in place below
    if params.mode is BnMode.L2:
        var = np.einsum("ij,ij->j", x_hat, x_hat) / len(x_hat)  # no x² temporary
        sigma = np.sqrt(var)
        denom = np.sqrt(var + params.epsilon)
        y = np.empty_like(x_hat)
    else:
        y = np.abs(x_hat)  # |x - μ_B|; the buffer then takes the output
        sigma = _mean_rows(y) * _compensation(params.mode)
        denom = sigma + params.epsilon
    # without the affine stage y = 1·x̂ + 0 is still its own array, not the cache's x̂
    gamma, beta = (params.gamma, params.beta) if params.use_affine else (1.0, 0.0)
    for hb, yb in _row_blocks(x_hat, y):
        hb /= denom
        np.multiply(hb, gamma, out=yb)
        yb += beta
    cache = BnCache(mu_b=mu, sigma_b=sigma, x_hat=x_hat.reshape(x.shape), mode=params.mode,
                    denom=denom)
    return y.reshape(x.shape), cache


def bn_backward(d_y: np.ndarray, cache: BnCache, params: BnParams) -> GradBundle:
    """The one backward of the module docstring, for every mode: the cache carries
    the mode.  Σ d_y and Σ d_y·x̂ are taken once each: they give μ(g) and μ(g·x̂),
    and are d_beta and d_gamma.  For L1 it is algebraically identical to
    ``bn_backward_l1_naive``, in the signum form that makes the op count explicit.

    A constant channel of value v has d = v - μ_B on every row, and with k the
    compensation constant x̂ = d/(k|d| + ε) for L1 and L1c, d/sqrt(d² + ε) for
    L2.  Only when the pooled mean rounds to v itself is d = 0, and so x̂ = 0,
    σ_B = 0, y = β and d_gamma = 0; eight rows of 0.1 leave d = 1.4e-17 and
    x̂ = 1.4e-12 (L1) or 4.4e-15 (L2).  With ḡ the pooled mean of the upstream
    g, the input gradient is γ(g - ḡ)/(k|d| + ε) for L1 and L1c but
    γ(g - ḡ)/sqrt(d² + ε) for L2, a gain of 1e5 against 316 at ε = 1e-5.  ε
    enters L1's denominator linearly and L2's under the root, so the sqrt(π/2)
    equivalence of the modes needs σ ≫ sqrt(ε).  A pooled batch of 2 sits ±h
    from its mean, h = |x1 - x2|/2: x̂ = ±h/(kh + ε) or ±h/sqrt(h² + ε), and
    the input gradient is ±γ(g1 - g2)(ε/2)/(kh + ε)² or
    ±γ(g1 - g2)(ε/2)/(h² + ε)^(3/2), + on the first row: the deviation term
    cancels all but an ε/(kh + ε) or ε/(h² + ε) share of γ(g1 - g2)/2.  A tie,
    x̂ = 0 on some rows only, takes sgn(0) = 0."""
    d_y = _check_upstream(d_y, cache)
    dy, x_hat = rows(d_y), rows(cache.x_hat)
    sum_dy, sum_dy_xhat = dy.sum(axis=0), np.einsum("ij,ij->j", dy, x_hat)
    gamma = params.gamma if params.use_affine else 1.0
    mean_g, mean_gx = gamma * sum_dy / len(dy), gamma * sum_dy_xhat / len(dy)
    if cache.mode is BnMode.L2:
        v, d_input, v_scale = x_hat, np.empty_like(dy), -mean_gx / cache.denom
    else:
        k = _compensation(cache.mode)
        v = d_input = sign(x_hat)  # sgn(x̂) == sgn(x - μ) since denom > 0
        mean_g = mean_g - k * mean_gx * _mean_rows(v)  # the per-feature part of μ(g·x̂)·v
        v_scale = -k * mean_gx / cache.denom
    g_scale, shift = gamma / cache.denom, mean_g / cache.denom
    for vb, dyb, db in _row_blocks(v, dy, d_input):
        np.multiply(vb, v_scale, out=db)
        db += dyb * g_scale  # the one temporary: a block of d_y·γ/denom
        db -= shift
    if not params.use_affine:  # γ/β do not influence the output
        sum_dy_xhat, sum_dy = np.zeros_like(sum_dy), np.zeros_like(sum_dy)
    return GradBundle(d_input=d_input.reshape(d_y.shape), d_gamma=sum_dy_xhat, d_beta=sum_dy)


# perfbench/ names both, in its tracer and its bn_conv4d workload.  Aliases, not
# wrappers: the tracer wraps every name holding the same function, so calls
# through bn_backward are traced too.
bn_backward_l2 = bn_backward_l1_simplified = bn_backward


def bn_backward_l1_naive(d_y: np.ndarray, cache: BnCache, params: BnParams) -> GradBundle:
    """Term-by-term chain rule through the deviation-scaled normalization.

    With g = ∂ℓ/∂x̂, s_i = sgn(x_i-μ) and k the compensation constant folded
    into σ (1 for plain L1):

        ∂ℓ/∂σ   = Σ g·(x-μ) · (-1)/(σ+ε)²
        ∂ℓ/∂μ   = Σ g · (-1)/(σ+ε) + ∂ℓ/∂σ · (-k/m) Σ s_i
        ∂ℓ/∂x_i = ∂ℓ/∂σ · (k/m)·s_i + g_i/(σ+ε) + ∂ℓ/∂μ · 1/m

    The σ-path term in ∂ℓ/∂x_i uses the partial ∂σ/∂x_i at fixed μ; the
    dependence of σ on μ is routed once, through ∂ℓ/∂μ.  This grouping is the
    one that matches the finite-difference oracle (and ``bn_backward``) exactly.
    """
    if cache.mode is BnMode.L2:
        raise ModeError("L1 backward got an l2 cache")
    d_y = _check_upstream(d_y, cache)
    dy, x_hat = rows(d_y), rows(cache.x_hat)
    g = dy * params.gamma if params.use_affine else dy
    m = len(g)
    comp = _compensation(cache.mode)
    denom = cache.denom  # σ+ε, as the forward stored it
    s = sign(x_hat)  # sgn(x̂) == sgn(x - μ) since σ+ε > 0
    # (x - μ)/(σ+ε)² = x̂/(σ+ε).
    d_sigma = -reduce_sum(g * x_hat) / denom
    mean_s = reduce_mean(s)
    d_mu = -reduce_sum(g) / denom - d_sigma * comp * mean_s
    d_input = (d_sigma * (comp / m) * s + g / denom + d_mu / m).reshape(d_y.shape)
    if not params.use_affine:
        return GradBundle(d_input, np.zeros(params.num_features), np.zeros(params.num_features))
    return GradBundle(d_input, reduce_sum(dy * x_hat), reduce_sum(dy))


def update_running_stats(state: BnState, mu_b: np.ndarray,
                         sigma_b: np.ndarray) -> BnState:
    """μ ← αμ + (1-α)μ_B and σ ← ασ + (1-α)σ_B, in place; returns ``state`` itself.

    The shapes are checked before anything is written, so a mismatch leaves
    the state as it was.  A NaN batch statistic stays in its feature's running
    state for good; the trainer's non-finite-loss check is what stops a run.
    """
    mu_b = np.asarray(mu_b, dtype=np.float64)
    sigma_b = np.asarray(sigma_b, dtype=np.float64)
    if mu_b.shape != state.running_mu.shape or sigma_b.shape != state.running_sigma.shape:
        raise ShapeError("batch statistics length does not match running state")
    a = state.momentum
    for running, batch in ((state.running_mu, mu_b), (state.running_sigma, sigma_b)):
        running *= a
        running += (1.0 - a) * batch
    state.updates += 1
    return state


def bn_forward_infer(x: np.ndarray, params: BnParams, state: BnState) -> np.ndarray:
    """Single fused multiply-add using running statistics: the frozen statistics
    and the affine stage fold into one (scale, shift) pair per feature.

    Identical per-sample results whether ``x`` is one sample or a batch.
    """
    x = np.asarray(x, dtype=np.float64)
    _checked_rows(x, params)
    if state.updates == 0:
        raise StateError("running statistics were never updated")
    if state.running_mu.shape[0] != params.num_features:
        raise ShapeError("state feature count does not match params")
    if params.mode is BnMode.L2:
        denom = np.sqrt(state.running_sigma * state.running_sigma + params.epsilon)
    else:
        denom = state.running_sigma + params.epsilon
    gamma = params.gamma if params.use_affine else np.ones(params.num_features)
    beta = params.beta if params.use_affine else np.zeros(params.num_features)
    scale = gamma / denom
    shift = beta - scale * state.running_mu
    y = np.multiply(x, scale)
    return np.add(y, shift, out=y)
