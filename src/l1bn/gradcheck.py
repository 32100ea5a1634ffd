"""Finite-difference certification of the analytic batch-norm backward passes.

The probe loss is linear, loss(y) = Σ p∘y with fixed random coefficients p,
so ∂ℓ/∂y = p exactly and any disagreement is attributable to the backward
pass under test.  Central differences with a small step on double precision
give numeric gradients good to ~1e-9 relative, comfortably below the 1e-5
acceptance threshold.

The oracle is one stacked pass: ``check_layer`` makes one ``finite_diff`` call
over θ = (x.ravel(), γ, β), so x, γ and β probes run side by side.
``finite_diff`` hands its probe points to the loss in batches, and a batch of k
points costs one training forward, the k copies of the (…, c) layer placed
side by side as one (…, k·c) layer.  Batch statistics are per feature, so no
copy sees another copy's values and each is normalized exactly as it would be
alone.  Every slot of both L1 backward forms is then compared in one pass.
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
TIE_MARGIN = 1e-3
MAX_RESAMPLES = 100
DEFAULT_STEP = 1e-6  # central-difference step; also `l1bn gradcheck --step`'s default


class EvaluationError(ValueError):
    """Probe function returned a non-finite value; ``index`` names its coordinate."""

    def __init__(self, message: str, index: tuple[int, ...] = ()):
        super().__init__(message)
        self.index = index


class DegenerateInputError(ValueError):
    """Could not draw a batch clear of the |x - μ| kink within the retry cap."""


def finite_diff(f, x: np.ndarray, step: float = DEFAULT_STEP) -> np.ndarray:
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
            idx = tuple(int(i) for i in np.unravel_index(int(coords[np.argmax(bad)]), x.shape))
            raise EvaluationError(f"non-finite probe value near coordinate {idx}", idx)
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


def draw_inputs(mode: BnMode, shape, rng: Rng) -> np.ndarray:
    """Sample a standard-normal batch; for L1 modes resample, up to
    ``MAX_RESAMPLES`` draws, until every element sits more than ``TIE_MARGIN``
    away from its pooled mean (|x-μ| is not differentiable at the tie)."""
    for _ in range(MAX_RESAMPLES):
        x = rng.normal(shape)
        x_rows = rows(x)
        if mode is BnMode.L2 or np.min(np.abs(x_rows - x_rows.mean(axis=0))) > TIE_MARGIN:
            return x
    raise DegenerateInputError(
        f"no tie-free batch of shape {tuple(shape)} in {MAX_RESAMPLES} draws"
    )


def check_layer(mode: BnMode, shape, seed: int = 0, step: float = DEFAULT_STEP) -> GradReport:
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
    projection = rng.normal(shape)  # the probe loss Σ p∘y has gradient p

    _, cache = bn_forward_train(x, params)
    fused = bn_backward(projection, cache, params)
    bundles, agreement = [fused], None
    if mode is not BnMode.L2:
        naive = bn_backward_l1_naive(projection, cache, params)
        agreement = float(relative_errors(naive.d_input, fused.d_input).max())
        bundles = [naive, fused]

    n = x.size
    slots = (("input", slice(0, n), shape), ("gamma", slice(n, n + c), (c,)),
             ("beta", slice(n + c, n + 2 * c), (c,)))

    def side_by_side(thetas):
        """Probe losses of k layers run as one: copy j reads its x, γ and β from thetas[j]."""
        k = len(thetas)
        p = BnParams(gamma=thetas[:, n:n + c].reshape(-1), beta=thetas[:, n + c:].reshape(-1),
                     mode=mode)
        # with c = 1 the wide input stays a view in which each copy's column is
        # contiguous, as a lone (…, 1) layer is, so its sums run in the same order
        xs = np.moveaxis(thetas[:, :n].reshape((k,) + shape), 0, -2)
        ys = bn_forward_train(xs.reshape(shape[:-1] + (k * c,)), p)[0]
        ys = np.moveaxis(ys.reshape(shape[:-1] + (k, c)), -2, 0)
        # C order: each copy's products form one contiguous row, which sums as
        # np.sum(p * y) does for a lone layer
        return np.multiply(projection, ys, order="C").reshape(k, -1).sum(axis=1)

    try:
        # a probe that overflows is reported below, by slot, instead of warned about
        with np.errstate(over="ignore", invalid="ignore"):
            numeric = finite_diff(side_by_side, np.concatenate([x.reshape(-1), gamma, beta]),
                                  step)
    except EvaluationError as exc:
        (i,) = exc.index
        name, span, slot_shape = next(slot for slot in slots if i < slot[1].stop)
        idx = tuple(int(j) for j in np.unravel_index(i - span.start, slot_shape))
        raise EvaluationError(f"non-finite probe value near {name} {idx}", idx) from exc

    # each bundle's gradients as one row laid out as θ; every slot reports the worse
    # of the two L1 forms, so both are certified at once, and a tie keeps the first
    analytic = np.stack([np.concatenate([b.d_input.reshape(-1), b.d_gamma, b.d_beta])
                         for b in bundles])
    rel = relative_errors(analytic, numeric)
    abs_err = np.abs(analytic - numeric)
    checks = {}
    for name, span, slot_shape in slots:
        b = int(np.argmax(rel[:, span].max(axis=1)))
        worst = int(np.argmax(rel[b, span]))
        checks[name] = ParamCheck(
            max_rel_err=float(rel[b, span][worst]),
            max_abs_err=float(abs_err[b, span].max()),
            worst_index=tuple(int(j) for j in np.unravel_index(worst, slot_shape)),
        )
    worst_param = max(checks, key=lambda k: checks[k].max_rel_err)
    return GradReport(
        mode=mode.value,
        shape=shape,
        seed=seed,
        step=step,
        **checks,
        max_rel_err=checks[worst_param].max_rel_err,
        max_abs_err=max(ch.max_abs_err for ch in checks.values()),
        worst_param=worst_param,
        backward_agreement=agreement,
    )
