import copy
import dataclasses
import json

import numpy as np
import pytest

from l1bn import gradcheck
from l1bn.batchnorm import BnMode, BnParams, LayoutError, bn_forward_train
from l1bn.gradcheck import (
    DegenerateInputError,
    EvaluationError,
    ProbeLoss,
    check_layer,
    draw_inputs,
    finite_diff,
    relative_errors,
)
from l1bn.tensor import Rng


def each(g):
    """Stacked loss for ``finite_diff`` from a scalar loss ``g``."""
    return lambda vs: np.array([g(v) for v in vs])


def finite_diff_loop(f, x, step=1e-6):
    """The coordinate-at-a-time oracle ``finite_diff`` replaced, for scalar ``f``."""
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    for idx in np.ndindex(x.shape):
        hi = x.copy()
        hi[idx] += step
        lo = x.copy()
        lo[idx] -= step
        f_hi, f_lo = f(hi), f(lo)
        if not (np.isfinite(f_hi) and np.isfinite(f_lo)):
            raise EvaluationError(f"non-finite probe value near coordinate {idx}")
        grad[idx] = (f_hi - f_lo) / (2.0 * step)
    return grad


class TestFiniteDiff:
    def test_linear_function_exact(self):
        x = Rng(0).normal((3, 4))
        grad = finite_diff(each(lambda v: float(np.sum(v))), x, step=1e-6)
        assert np.allclose(grad, 1.0, atol=1e-9)

    def test_quadratic_example(self):
        grad = finite_diff(each(lambda v: float(np.sum(v ** 2))), np.array([1.0, 2.0]),
                           step=1e-6)
        assert np.allclose(grad, [2.0, 4.0], atol=1e-8)

    @pytest.mark.parametrize("step", [1e-2, 1e-3, 1e-4])
    def test_self_test_within_truncation_bound(self, step):
        # closed-form oracle vs central differences on analytic toys:
        # linear is exact, quadratic has zero h^2 truncation term, so both
        # sit within 10*h^2 at steps where rounding is negligible
        x = Rng(1).normal((10,))
        lin = finite_diff(each(lambda v: float(np.sum(3.0 * v))), x, step=step)
        assert np.abs(lin - 3.0).max() <= 10 * step ** 2
        quad = finite_diff(each(lambda v: float(np.sum(v ** 2))), x, step=step)
        assert np.abs(quad - 2.0 * x).max() <= 10 * step ** 2

    def test_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff(each(lambda v: 0.0), np.zeros(2), step=0.0)

    def test_non_finite_probe_rejected(self):
        with pytest.raises(EvaluationError):
            finite_diff(each(lambda v: float("nan")), np.zeros(2))


class TestProbeLoss:
    def test_gradient_is_projection_exactly(self):
        rng = Rng(2)
        proj = rng.normal((5, 3))
        probe = ProbeLoss(projection=proj)
        numeric = finite_diff(each(probe), rng.normal((5, 3)), step=1e-5)
        assert np.allclose(numeric, probe.grad(), atol=1e-9)


class TestRelativeErrors:
    def test_floor_prevents_blowup(self):
        rel = relative_errors(np.array([0.0]), np.array([1e-12]))
        assert rel[0] == pytest.approx(1e-12 / 1e-8)

    def test_nonnegative(self):
        rng = Rng(3)
        rel = relative_errors(rng.normal((20,)), rng.normal((20,)))
        assert np.all(rel >= 0)


class TestCheckLayer:
    @pytest.mark.parametrize("mode,shape,seed", [
        (BnMode.L2, (7, 3), 1),
        (BnMode.L1, (7, 3), 1),
        (BnMode.L1_COMPENSATED, (4, 3, 3, 2), 1),
    ])
    def test_analytic_matches_oracle(self, mode, shape, seed):
        report = check_layer(mode, shape, seed=seed)
        assert report.max_rel_err <= 1e-5
        for slot in (report.input, report.gamma, report.beta):
            assert slot.max_rel_err >= 0 and slot.max_abs_err >= 0

    def test_l1_reports_backward_agreement(self):
        report = check_layer(BnMode.L1, (8, 4), seed=5)
        assert report.backward_agreement is not None
        assert report.backward_agreement <= 1e-10
        assert check_layer(BnMode.L2, (8, 4), seed=5).backward_agreement is None

    def test_step_halving_not_truncation_dominated(self):
        # a truncation-dominated discrepancy would shrink ~4x when the step
        # halves; the reported noise-floor discrepancy must not do that
        for mode in (BnMode.L2, BnMode.L1):
            e_full = check_layer(mode, (7, 3), seed=0, step=1e-5).max_rel_err
            e_half = check_layer(mode, (7, 3), seed=0, step=5e-6).max_rel_err
            assert e_half >= 0.5 * e_full
            assert max(e_full, e_half) <= 1e-5

    def test_tie_avoidance_resampling(self):
        x = draw_inputs(BnMode.L1, (8, 3), Rng(0), tie_margin=1e-3)
        mu = x.mean(axis=0)
        assert np.abs(x - mu).min() > 1e-3

    def test_degenerate_input_error(self):
        # an impossible margin exhausts the retry cap
        with pytest.raises(DegenerateInputError):
            draw_inputs(BnMode.L1, (8, 3), Rng(0), tie_margin=10.0, max_resamples=5)

    def test_pooled_count_too_small(self):
        with pytest.raises(ValueError):
            check_layer(BnMode.L2, (2, 3))

    # (2, 1, 3) would also fail the pooled-count check: the layout check comes first
    @pytest.mark.parametrize("shape", [(4, 3, 2), (2, 1, 3)])
    @pytest.mark.parametrize("mode", [BnMode.L2, BnMode.L1])
    def test_unsupported_rank(self, mode, shape):
        with pytest.raises(LayoutError):
            check_layer(mode, shape)

    def test_report_serializes(self):
        report = check_layer(BnMode.L1, (6, 2), seed=7)
        payload = json.dumps(report.to_dict())
        assert "max_rel_err" in payload

    def test_affine_gradients_certified(self):
        # gamma/beta enter linearly, so the oracle check on them is sharp
        report = check_layer(BnMode.L1_COMPENSATED, (10, 4), seed=2)
        assert report.gamma.max_rel_err <= 1e-7
        assert report.beta.max_rel_err <= 1e-7


def asdict_report(report):
    """The ``dataclasses.asdict`` form that ``GradReport.to_dict`` replaced."""
    d = dataclasses.asdict(report)
    d["shape"] = list(report.shape)
    for slot in ("input", "gamma", "beta"):
        d[slot]["worst_index"] = list(d[slot]["worst_index"])
    return d


class TestReportDict:
    @pytest.mark.parametrize("shape", [(7, 3), (7, 3, 3, 2), (8, 1)])
    @pytest.mark.parametrize("mode", [BnMode.L2, BnMode.L1])
    def test_equals_asdict_form(self, mode, shape):
        report = check_layer(mode, shape, seed=3)
        d, reference = report.to_dict(), asdict_report(report)
        assert (d["backward_agreement"] is None) == (mode is BnMode.L2)
        assert d == reference
        assert json.dumps(d, sort_keys=True) == json.dumps(reference, sort_keys=True)

    def test_returned_lists_are_copies(self):
        report = check_layer(BnMode.L1, (7, 3, 3, 2), seed=3)
        before = copy.deepcopy(report)
        d = report.to_dict()
        d["shape"].append(99)
        for slot in ("input", "gamma", "beta"):
            d[slot]["worst_index"][0] = 99
            d[slot]["max_rel_err"] = -1.0
        assert report == before and report.to_dict() == asdict_report(before)


class TestOracleAgainstForward:
    def test_l2_full_layer_probe(self):
        # the oracle itself: probe-loss composed with the training forward
        rng = Rng(4)
        shape = (7, 3)
        x = rng.normal(shape)
        params = BnParams(gamma=rng.uniform((3,), 0.5, 1.5),
                          beta=rng.uniform((3,), -0.5, 0.5),
                          epsilon=1e-5, mode=BnMode.L2)
        probe = ProbeLoss(projection=rng.normal(shape))

        def f(v):
            y, _ = bn_forward_train(v, params)
            return probe(y)

        from l1bn.batchnorm import bn_backward

        _, cache = bn_forward_train(x, params)
        analytic = bn_backward(probe.grad(), cache, params).d_input
        numeric = finite_diff(each(f), x, step=1e-6)
        assert relative_errors(analytic, numeric).max() <= 1e-5


def record_slots(monkeypatch):
    """Patch ``gradcheck.finite_diff`` to keep each slot's numeric gradient and the
    stack size of every call it makes to the loss."""
    grads, stacks = [], []
    real = gradcheck.finite_diff

    def recording(f, x, step=1e-6):
        sizes = []
        stacks.append(sizes)

        def counted(xs):
            sizes.append(len(xs))
            return f(xs)

        grads.append(real(counted, x, step))
        return grads[-1]

    monkeypatch.setattr(gradcheck, "finite_diff", recording)
    return grads, stacks


def loop_slots(mode, shape, seed, step=1e-6, epsilon=1e-5):
    """Input, γ and β gradients as ``check_layer`` drew and probed them one forward
    per probe, before its probes were stacked."""
    rng = Rng(seed)
    x = draw_inputs(mode, shape, rng)
    c = shape[-1]
    gamma = rng.uniform((c,), 0.5, 1.5)
    beta = rng.uniform((c,), -0.5, 0.5)
    probe = ProbeLoss(projection=rng.normal(shape))

    def loss(xv, gv, bv):
        y, _ = bn_forward_train(xv, BnParams(gamma=gv, beta=bv, epsilon=epsilon, mode=mode))
        return probe(y)

    return [finite_diff_loop(lambda v: loss(v, gamma, beta), x, step),
            finite_diff_loop(lambda v: loss(x, v, beta), gamma, step),
            finite_diff_loop(lambda v: loss(x, gamma, v), beta, step)]


class TestStackedOracle:
    @pytest.mark.parametrize("mode", list(BnMode))
    @pytest.mark.parametrize("shape", [(7, 3), (4, 3, 3, 2), (9, 1)])
    def test_bit_identical_to_coordinate_loop(self, monkeypatch, mode, shape):
        grads, stacks = record_slots(monkeypatch)
        check_layer(mode, shape, seed=3)
        assert [len(s) for s in stacks] == [1, 1, 1]  # one forward per slot
        for stacked, looped in zip(grads, loop_slots(mode, shape, seed=3), strict=True):
            assert np.array_equal(stacked, looped)

    @pytest.mark.parametrize("mode", list(BnMode))
    @pytest.mark.parametrize("per_chunk", [1, 5])
    def test_bit_identical_across_chunks(self, monkeypatch, mode, per_chunk):
        shape = (4, 3, 3, 2)  # 72 input coordinates: 72 or 15 chunks, the last ragged
        monkeypatch.setattr(gradcheck, "_CHUNK_VALUES", 2 * 72 * per_chunk)
        grads, stacks = record_slots(monkeypatch)
        check_layer(mode, shape, seed=3)
        assert len(stacks[0]) >= 3
        assert max(stacks[0]) == 2 * per_chunk and sum(stacks[0]) == 2 * 72
        for stacked, looped in zip(grads, loop_slots(mode, shape, seed=3), strict=True):
            assert np.array_equal(stacked, looped)

    def test_chunks_bounded(self):
        x = np.zeros((16, 4, 4, 8))
        sizes = []

        def f(xs):
            sizes.append(len(xs))
            return np.zeros(len(xs))

        finite_diff(f, x)
        assert sum(sizes) == 2 * x.size
        assert max(sizes) * x.size <= gradcheck._CHUNK_VALUES

    def test_error_names_coordinate_in_later_chunk(self, monkeypatch):
        monkeypatch.setattr(gradcheck, "_CHUNK_VALUES", 2 * 12 * 4)  # 4 coordinates a chunk
        x = np.zeros((3, 4))
        flat_index = np.ravel_multi_index((1, 2), x.shape)  # 6: third of the second chunk

        def f(xs):
            return np.where(xs.reshape(len(xs), -1)[:, flat_index] != 0.0, np.nan, 0.0)

        with pytest.raises(EvaluationError, match=r"coordinate \(1, 2\)$"):
            finite_diff(f, x)
