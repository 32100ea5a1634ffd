"""Finite-difference certification of the analytic batch-norm backward passes.

The probe loss is linear, loss(y) = Σ p∘y with fixed random coefficients p,
so ∂ℓ/∂y = p exactly and any disagreement is attributable to the backward
pass under test.  Central differences with a small step on double precision
give numeric gradients good to ~1e-9 relative, comfortably below the 1e-5
acceptance threshold.

The oracle is stacked: ``finite_diff`` hands its probe points to the loss in
batches, and ``check_layer`` evaluates a batch of k points with one training
forward, placing the k copies of the (…, c) layer side by side as one
(…, k·c) layer.  Batch statistics are per feature, so no copy sees another
copy's values and each is normalized exactly as it would be alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batchnorm import (
    BnMode,
    BnParams,
    bn_backward,
    bn_backward_l1_naive,
    bn_forward_train,
    rows,
)
from .tensor import Rng

REL_ERR_FLOOR = 1e-8  # denominator floor: avoids blowup where both gradients ~ 0
_CHUNK_VALUES = 1 << 18  # probe values per call of the loss: 2 MB of float64


class EvaluationError(ValueError):
    """Probe function returned a non-finite value."""


class DegenerateInputError(ValueError):
    """Could not draw a batch clear of the |x - μ| kink within the retry cap."""


@dataclass
class ProbeLoss:
    """Linear scalar loss with an exact, input-independent gradient."""

    projection: np.ndarray

    def __call__(self, y: np.ndarray) -> float:
        return float(np.sum(self.projection * y))

    def grad(self) -> np.ndarray:
        return self.projection


def finite_diff(f, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of ``f`` at ``x``.

    ``f`` maps a stack of points of shape (k, *x.shape) to their k losses.
    The probes x ± step·e_i reach it in chunks of at most ``_CHUNK_VALUES``
    values (one coordinate's pair when a single pair is larger), so the result
    equals the coordinate-at-a-time loop whenever ``f`` treats the points of a
    stack independently.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad = np.empty_like(flat)
    per_chunk = max(1, _CHUNK_VALUES // (2 * max(flat.size, 1)))  # coordinates a call
    for start in range(0, flat.size, per_chunk):
        coords = np.arange(start, min(start + per_chunk, flat.size))
        k = len(coords)
        probes = np.tile(flat, (2 * k, 1))
        probes[np.arange(k), coords] += step
        probes[np.arange(k, 2 * k), coords] -= step
        losses = np.asarray(f(probes.reshape((2 * k,) + x.shape)), dtype=np.float64)
        f_hi, f_lo = losses[:k], losses[k:]
        bad = ~(np.isfinite(f_hi) & np.isfinite(f_lo))
        if bad.any():
            idx = np.unravel_index(int(coords[np.argmax(bad)]), x.shape)
            raise EvaluationError(
                f"non-finite probe value near coordinate {tuple(int(i) for i in idx)}")
        grad[coords] = (f_hi - f_lo) / (2.0 * step)
    return grad.reshape(x.shape)


def relative_errors(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), REL_ERR_FLOOR)
    return np.abs(analytic - numeric) / denom


@dataclass
class ParamCheck:
    """Error summary for one gradient slot (input, gamma, or beta)."""

    max_rel_err: float
    max_abs_err: float
    worst_index: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "max_rel_err": self.max_rel_err,
            "max_abs_err": self.max_abs_err,
            "worst_index": list(self.worst_index),
        }


@dataclass
class GradReport:
    """Analytic-vs-numeric comparison for one layer configuration."""

    mode: str
    shape: tuple[int, ...]
    seed: int
    step: float
    input: ParamCheck
    gamma: ParamCheck
    beta: ParamCheck
    max_rel_err: float
    max_abs_err: float
    worst_param: str
    # max relative gap between the two L1 backward forms; None for L2
    backward_agreement: float | None = None

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "shape": list(self.shape),
            "seed": self.seed,
            "step": self.step,
            "input": self.input.to_dict(),
            "gamma": self.gamma.to_dict(),
            "beta": self.beta.to_dict(),
            "max_rel_err": self.max_rel_err,
            "max_abs_err": self.max_abs_err,
            "worst_param": self.worst_param,
            "backward_agreement": self.backward_agreement,
        }


def _param_check(analytic: np.ndarray, numeric: np.ndarray) -> ParamCheck:
    rel = relative_errors(analytic, numeric)
    worst = np.unravel_index(int(np.argmax(rel)), rel.shape) if rel.size else ()
    return ParamCheck(
        max_rel_err=float(rel.max()) if rel.size else 0.0,
        max_abs_err=float(np.abs(analytic - numeric).max()) if rel.size else 0.0,
        worst_index=tuple(int(i) for i in worst),
    )


def draw_inputs(mode: BnMode, shape, rng: Rng, tie_margin: float = 1e-3,
                max_resamples: int = 100) -> np.ndarray:
    """Sample a standard-normal batch; for L1 modes resample until every element
    sits at least ``tie_margin`` away from its pooled mean (|x-μ| is not
    differentiable at the tie)."""
    for _ in range(max_resamples):
        x = rng.normal(shape)
        x_rows = rows(x)
        if mode is BnMode.L2 or np.min(np.abs(x_rows - x_rows.mean(axis=0))) > tie_margin:
            return x
    raise DegenerateInputError(
        f"no tie-free batch of shape {tuple(shape)} in {max_resamples} draws"
    )


def check_layer(mode: BnMode, shape, seed: int = 0, step: float = 1e-6) -> GradReport:
    """Run one forward/backward pair against the finite-difference oracle."""
    shape = tuple(shape)
    if len(rows(np.empty(shape))) < 4:
        raise ValueError("pooled count must be at least 4 for a meaningful check")
    rng = Rng(seed)
    x = draw_inputs(mode, shape, rng)
    c = shape[-1]
    gamma = rng.uniform((c,), 0.5, 1.5)
    beta = rng.uniform((c,), -0.5, 0.5)
    params = BnParams(gamma=gamma, beta=beta, mode=mode)
    probe = ProbeLoss(projection=rng.normal(shape))

    _, cache = bn_forward_train(x, params)
    fused = bn_backward(probe.grad(), cache, params)
    bundles, agreement = [fused], None
    if mode is not BnMode.L2:
        naive = bn_backward_l1_naive(probe.grad(), cache, params)
        agreement = float(relative_errors(naive.d_input, fused.d_input).max())
        bundles = [naive, fused]

    def side_by_side(xs, gammas, betas):
        """Probe losses of k layers run as one: copy j sees xs[j], gammas[j], betas[j]."""
        k = len(xs)
        p = BnParams(gamma=gammas.reshape(-1), beta=betas.reshape(-1), mode=mode)
        ys = bn_forward_train(np.moveaxis(xs, 0, -2).reshape(shape[:-1] + (k * c,)), p)[0]
        ys = np.moveaxis(ys.reshape(shape[:-1] + (k, c)), -2, 0)
        # C order: each copy's products form one contiguous row, which sums as probe(y) does
        return np.multiply(probe.projection, ys, order="C").reshape(k, -1).sum(axis=1)

    def copies(v, k):
        # contiguous, not a stride-0 view: with c = 1 the wide input then keeps each
        # copy's column contiguous, as a lone (…, 1) layer is, and sums in the same order
        return np.repeat(v[np.newaxis], k, axis=0)

    def loss_of_x(xs):
        return side_by_side(xs, copies(gamma, len(xs)), copies(beta, len(xs)))

    def loss_of_gamma(gs):
        return side_by_side(copies(x, len(gs)), gs, copies(beta, len(gs)))

    def loss_of_beta(bs):
        return side_by_side(copies(x, len(bs)), copies(gamma, len(bs)), bs)

    num_input = finite_diff(loss_of_x, x, step)
    num_gamma = finite_diff(loss_of_gamma, gamma, step)
    num_beta = finite_diff(loss_of_beta, beta, step)

    # report the worse of the two L1 forms so both are certified at once
    checks = {
        "input": max((_param_check(b.d_input, num_input) for b in bundles),
                     key=lambda ch: ch.max_rel_err),
        "gamma": max((_param_check(b.d_gamma, num_gamma) for b in bundles),
                     key=lambda ch: ch.max_rel_err),
        "beta": max((_param_check(b.d_beta, num_beta) for b in bundles),
                    key=lambda ch: ch.max_rel_err),
    }
    worst_param = max(checks, key=lambda k: checks[k].max_rel_err)
    return GradReport(
        mode=mode.value,
        shape=shape,
        seed=seed,
        step=step,
        input=checks["input"],
        gamma=checks["gamma"],
        beta=checks["beta"],
        max_rel_err=checks[worst_param].max_rel_err,
        max_abs_err=max(ch.max_abs_err for ch in checks.values()),
        worst_param=worst_param,
        backward_agreement=agreement,
    )
