import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1bn import batchnorm
from l1bn.batchnorm import (
    BLOCK_ELEMS,
    GAUSSIAN_STD_OVER_MAD,
    BnMode,
    BnParams,
    BnState,
    batch_deviation,
    bn_backward,
    bn_backward_l1_naive,
    bn_backward_l1_simplified,
    bn_backward_l2,
    bn_forward_infer,
    bn_forward_train,
    inference_scale_shift,
    l1_batch_stats,
    l2_batch_stats,
    rows,
    update_running_stats,
)
from l1bn.tensor import Rng

ALL_MODES = (BnMode.L2, BnMode.L1, BnMode.L1_COMPENSATED)


def each(g):
    """Stacked loss for ``finite_diff`` from a scalar loss ``g``."""
    return lambda vs: np.array([g(v) for v in vs])


def two_point(v0=1.0, v1=3.0):
    return np.reshape([v0, v1], (2, 1))


def l2_backward_reference(d_y, cache, params):
    """Term-by-term L2 chain rule, the reference for the shared backward.

    With g = ∂ℓ/∂x̂ and pooled sums:

        ∂ℓ/∂σ²  = Σ g·(x-μ) · (-1/2)(σ²+ε)^(-3/2)
        ∂ℓ/∂μ   = Σ g · (-1)/sqrt(σ²+ε)
        ∂ℓ/∂x_i = g_i/sqrt(σ²+ε) + ∂ℓ/∂σ² · 2(x_i-μ)/m + ∂ℓ/∂μ · 1/m

    Returns (d_input, d_gamma, d_beta); the last two as if γ were trainable.
    """
    g = d_y * params.gamma
    axes = tuple(range(g.ndim - 1))  # every axis but the last
    m = math.prod(g.shape[:-1])
    var_eps = cache.sigma_b * cache.sigma_b + params.epsilon
    denom = np.sqrt(var_eps)
    # (x - μ) = x̂·denom, so g·(x-μ)·(σ²+ε)^(-3/2) = g·x̂/(σ²+ε).
    d_var = -0.5 * np.sum(g * cache.x_hat, axis=axes) / var_eps
    d_mu = -np.sum(g, axis=axes) / denom
    d_input = g / denom + d_var * (2.0 / m) * (cache.x_hat * denom) + d_mu / m
    return d_input, np.sum(d_y * cache.x_hat, axis=axes), np.sum(d_y, axis=axes)


def normwise_gap(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


class TestBatchAxes:
    """Every axis but the last is a batch axis: ``rows`` gives the (N, c) view."""

    def test_2d(self):
        x = np.arange(40.0).reshape(8, 5)
        assert rows(x).shape == (8, 5) and np.shares_memory(rows(x), x)
        assert rows(np.empty((8, 0))).shape == (8, 0)

    def test_4d(self):
        x = np.arange(144.0).reshape(4, 3, 2, 6)
        assert rows(x).shape == (24, 6) and np.shares_memory(rows(x), x)
        assert np.array_equal(rows(x)[7], x[1, 0, 1])  # C order over (m, h, w)
        assert rows(np.empty((4, 3, 2, 0))).shape == (24, 0)

    def test_degenerate_spatial_matches_2d(self):
        x = Rng(0).normal((6, 5))
        mu2, var2 = l2_batch_stats(x)
        mu4, var4 = l2_batch_stats(x.reshape(6, 1, 1, 5))
        assert np.array_equal(mu2, mu4) and np.array_equal(var2, var4)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_4d_bit_identical_to_flattened_2d(self, mode):
        # Both layouts run the same kernel on the same (N, c) view.
        rng = Rng(6)
        shape = (3, 4, 5, 6)
        x = rng.normal(shape, mu=0.5, sigma=2.0)
        d_y = rng.normal(shape)
        params = BnParams(gamma=rng.uniform((6,), 0.5, 1.5),
                          beta=rng.uniform((6,), -0.5, 0.5), mode=mode)
        y4, cache4 = bn_forward_train(x, params)
        y2, cache2 = bn_forward_train(x.reshape(-1, 6), params)
        assert np.array_equal(y4.reshape(-1, 6), y2)
        assert np.array_equal(cache4.mu_b, cache2.mu_b)
        assert np.array_equal(cache4.sigma_b, cache2.sigma_b)
        g4 = bn_backward(d_y, cache4, params)
        g2 = bn_backward(d_y.reshape(-1, 6), cache2, params)
        assert g4.d_input.shape == shape
        assert np.array_equal(g4.d_input.reshape(-1, 6), g2.d_input)
        assert np.array_equal(g4.d_gamma, g2.d_gamma)
        assert np.array_equal(g4.d_beta, g2.d_beta)

    def test_unsupported_rank(self):
        for shape in ((), (5,), (2, 3, 4), (2, 3, 4, 5, 6)):
            with pytest.raises(ValueError, match="expected rank"):
                rows(np.ones(shape))

    @pytest.mark.parametrize("shape", [(), (5,), (2, 3, 4), (2, 3, 4, 5, 6)])
    def test_forward_rejects_rank_before_feature_check(self, shape):
        # params carry 7 features, matching no input's last axis, and the
        # state was never updated: only the layout check may fire.
        x = np.ones(shape)
        params = BnParams.init(7)
        with pytest.raises(ValueError, match="expected rank"):
            bn_forward_train(x, params)
        with pytest.raises(ValueError, match="expected rank"):
            bn_forward_infer(x, params, BnState.init(7))


class TestBatchStats:
    def test_l2_symmetric_two_point(self):
        mu, var = l2_batch_stats(two_point())
        assert mu[0] == 2.0 and var[0] == 1.0

    def test_l2_constant_batch(self):
        mu, var = l2_batch_stats(np.full((5, 2), 3.0))
        assert np.all(mu == 3.0) and np.all(var == 0.0)

    def test_l2_direct_evaluation_oracle(self):
        values = [1.0, 2.0, 3.0, 6.0]
        m = sum(values) / 4.0
        expected_var = sum((v - m) ** 2 for v in values) / 4.0  # biased: 3.5
        mu, var = l2_batch_stats(np.reshape(values, (4, 1)))
        assert mu[0] == m == 3.0
        assert var[0] == expected_var == 3.5

    def test_l1_symmetric_two_point(self):
        mu, sigma = l1_batch_stats(two_point())
        assert mu[0] == 2.0 and sigma[0] == 1.0

    def test_l1_direct_evaluation_oracle(self):
        values = [1.0, 2.0, 3.0, 6.0]
        m = sum(values) / 4.0
        expected = sum(abs(v - m) for v in values) / 4.0  # = 1.5
        _, sigma = l1_batch_stats(np.reshape(values, (4, 1)))
        assert sigma[0] == expected == 1.5

    def test_l1_compensated_two_point(self):
        sigma = batch_deviation(two_point(), BnMode.L1_COMPENSATED)
        assert sigma[0] == pytest.approx(math.sqrt(math.pi / 2), abs=1e-12)

    def test_batch_too_small(self):
        with pytest.raises(ValueError, match="at least 2 pooled samples"):
            l2_batch_stats(np.ones((1, 3)))
        with pytest.raises(ValueError, match="at least 2 pooled samples"):
            l1_batch_stats(np.ones((1, 1, 1, 3)))


class TestForwardTrain:
    def test_two_point_l2_unit_output(self):
        params = BnParams.init(1, mode=BnMode.L2, epsilon=1e-12)
        y, cache = bn_forward_train(two_point(), params)
        assert np.allclose(y.ravel(), [-1.0, 1.0], atol=1e-6)
        assert cache.mu_b[0] == 2.0

    def test_two_point_l1_matches_l2(self):
        # two symmetric points: MAD equals std, so both norms agree
        p1 = BnParams.init(1, mode=BnMode.L1, epsilon=1e-12)
        y, _ = bn_forward_train(two_point(), p1)
        assert np.allclose(y.ravel(), [-1.0, 1.0], atol=1e-6)

    def test_affine_applied(self):
        params = BnParams(gamma=np.array([2.0]), beta=np.array([5.0]),
                          epsilon=1e-12, mode=BnMode.L2)
        y, _ = bn_forward_train(two_point(), params)
        assert np.allclose(y.ravel(), [3.0, 7.0], atol=1e-5)

    @pytest.mark.parametrize("shape", [(8, 3), (2, 3, 3, 4), (600, 64)])  # (600, 64): 2 blocks
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_non_affine_output_is_its_own_array(self, mode, shape):
        rng = Rng(4)
        x, d_y = rng.normal(shape, mu=1.0, sigma=2.0), rng.normal(shape)
        params = BnParams.init(shape[-1], mode=mode, use_affine=False)
        y, cache = bn_forward_train(x, params)
        assert not np.shares_memory(y, cache.x_hat)
        assert np.array_equal(y, cache.x_hat)
        y *= 2.0  # the caller owns y: its backward cache must not see this
        expected = bn_backward(d_y, bn_forward_train(x, params)[1], params)
        got = bn_backward(d_y, cache, params)
        for a, b in zip((got.d_input, got.d_gamma, got.d_beta),
                        (expected.d_input, expected.d_gamma, expected.d_beta)):
            assert a.tobytes() == b.tobytes()

    def test_compensated_tracks_l2_on_gaussian(self):
        # Monte Carlo: per-feature output std agrees within 3% at |B|=1e4
        x = Rng(11).normal((10_000, 8))
        y_c, _ = bn_forward_train(x, BnParams.init(8, mode=BnMode.L1_COMPENSATED,
                                                   epsilon=1e-5, use_affine=False))
        y_2, _ = bn_forward_train(x, BnParams.init(8, mode=BnMode.L2,
                                                   epsilon=1e-5, use_affine=False))
        ratio = y_c.std(axis=0) / y_2.std(axis=0)
        assert np.all(np.abs(ratio - 1.0) < 0.03)

    def test_gamma_transfer_between_norms(self):
        # setting gamma_l2 = sqrt(pi/2) * gamma_l1 matches output stds on
        # Gaussian batches (the plain-L1 x_hat is sqrt(pi/2) larger)
        rng = Rng(5)
        x = rng.normal((10_000, 4))
        gamma_l1 = rng.uniform((4,), 0.5, 1.5)
        gamma_l2 = GAUSSIAN_STD_OVER_MAD * gamma_l1
        beta = np.zeros(4)
        y1, _ = bn_forward_train(x, BnParams(gamma_l1, beta, 1e-5, BnMode.L1))
        y2, _ = bn_forward_train(x, BnParams(gamma_l2, beta, 1e-5, BnMode.L2))
        assert np.all(np.abs(y1.std(axis=0) / y2.std(axis=0) - 1.0) < 0.03)

    def test_feature_mismatch(self):
        with pytest.raises(ValueError, match="input has 3 features but params carry 2"):
            bn_forward_train(Rng(0).normal((4, 3)), BnParams.init(2))

    def test_degenerate_constant_batch_yields_zero(self):
        for mode in ALL_MODES:
            y, _ = bn_forward_train(np.full((6, 2), 4.0), BnParams.init(2, mode=mode))
            assert np.all(y == 0.0)

    @given(st.integers(0, 10_000), st.floats(1e-2, 1e3))
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance(self, seed, c):
        # deviations are 1-homogeneous, so x_hat (and y, gamma unchanged) is
        # scale-free up to epsilon effects; epsilon kept tiny so those stay
        # below the tolerance even at the smallest c
        rng = Rng(seed)
        x = rng.normal((16, 3))
        gamma = rng.uniform((3,), 0.5, 1.5)
        beta = rng.uniform((3,), -0.5, 0.5)
        for mode in ALL_MODES:
            params = BnParams(gamma, beta, 1e-15, mode)
            y_base, _ = bn_forward_train(x, params)
            y_scaled, _ = bn_forward_train(c * x, params)
            assert np.allclose(y_base, y_scaled, atol=1e-7, rtol=1e-7)

    @pytest.mark.parametrize("shape", [(5, 2), (128, 64), (3000, 7), (16, 4, 4, 8)])
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_shift_invariance_and_zero_column_gradient(self, mode, shape):
        # a per-feature shift moves μ_B with it, so y ignores it and ∂ℓ/∂x sums
        # to zero over each feature's pooled rows: a bias feeding BN is inert,
        # which is why trainer.Mlp builds those dense layers without one
        rng = Rng(sum(shape))
        c = shape[-1]
        x = rng.normal(shape)
        params = BnParams(rng.uniform((c,), 0.5, 1.5), rng.uniform((c,), -0.5, 0.5), 1e-5, mode)
        y, cache = bn_forward_train(x, params)
        y_shifted, _ = bn_forward_train(x + rng.uniform((c,), -5.0, 5.0), params)
        assert np.abs(y_shifted - y).max() <= 1e-12 * np.abs(y).max()
        d_input = rows(bn_backward(rng.normal(shape), cache, params).d_input)
        assert np.all(np.abs(d_input.sum(axis=0)) <= 1e-12 * np.abs(d_input).sum(axis=0))

    @given(st.integers(0, 10_000), st.floats(1e-3, 1e3))
    @settings(max_examples=60, deadline=None)
    def test_deviations_one_homogeneous(self, seed, c):
        x = Rng(seed).normal((16, 3))
        for mode in ALL_MODES:
            dev_scaled = batch_deviation(c * x, mode)
            assert np.allclose(dev_scaled, c * batch_deviation(x, mode),
                               rtol=1e-12, atol=0)

    @pytest.mark.parametrize("pooled", [16, 256, 4096])
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_normalization_invariant(self, pooled, mode):
        x = Rng(pooled + 17).normal((pooled, 4), mu=1.5, sigma=2.0)
        params = BnParams.init(4, mode=mode, epsilon=1e-8, use_affine=False)
        x_hat, _ = bn_forward_train(x, params)
        assert np.abs(x_hat.mean(axis=0)).max() <= 1e-9
        assert np.abs(batch_deviation(x_hat, mode) - 1.0).max() <= 1e-6


class TestBackwardL2:
    def test_zero_upstream_gives_zero_gradients(self):
        params = BnParams.init(3)
        x = Rng(0).normal((8, 3))
        _, cache = bn_forward_train(x, params)
        g = bn_backward(np.zeros_like(x), cache, params)
        assert np.all(g.d_input == 0) and np.all(g.d_gamma == 0) and np.all(g.d_beta == 0)

    def test_d_beta_is_pooled_sum(self):
        params = BnParams.init(3)
        rng = Rng(1)
        x = rng.normal((8, 3))
        d_y = rng.normal((8, 3))
        _, cache = bn_forward_train(x, params)
        g = bn_backward(d_y, cache, params)
        assert np.allclose(g.d_beta, d_y.sum(axis=0), rtol=1e-14)
        assert np.allclose(g.d_gamma, (d_y * cache.x_hat).sum(axis=0), rtol=1e-13)

    def test_4d_pooling(self):
        params = BnParams.init(2)
        rng = Rng(2)
        x = rng.normal((4, 3, 3, 2))
        d_y = rng.normal((4, 3, 3, 2))
        _, cache = bn_forward_train(x, params)
        g = bn_backward(d_y, cache, params)
        assert g.d_input.shape == x.shape
        assert np.allclose(g.d_beta, d_y.sum(axis=(0, 1, 2)))

    def test_d_y_shape_check(self):
        params = BnParams.init(3)
        _, cache = bn_forward_train(Rng(0).normal((8, 3)), params)
        with pytest.raises(ValueError, match=r"d_y shape \(4, 3\) != forward shape \(8, 3\)"):
            bn_backward(np.zeros((4, 3)), cache, params)


class TestBackwardL1:
    def _setup(self, mode=BnMode.L1, shape=(16, 8), seed=3):
        rng = Rng(seed)
        x = rng.normal(shape)
        params = BnParams(gamma=rng.uniform((shape[-1],), 0.5, 1.5),
                          beta=rng.uniform((shape[-1],), -0.5, 0.5),
                          epsilon=1e-5, mode=mode)
        _, cache = bn_forward_train(x, params)
        d_y = rng.normal(shape)
        return x, params, cache, d_y

    def test_zero_upstream(self):
        x, params, cache, _ = self._setup()
        for backward in (bn_backward_l1_naive, bn_backward):
            g = backward(np.zeros_like(x), cache, params)
            assert np.all(g.d_input == 0) and np.all(g.d_gamma == 0)

    @pytest.mark.parametrize("mode", [BnMode.L1, BnMode.L1_COMPENSATED])
    @pytest.mark.parametrize("shape", [(16, 8), (4, 3, 3, 2)])
    def test_naive_matches_simplified(self, mode, shape):
        x, params, cache, d_y = self._setup(mode=mode, shape=shape)
        g_n = bn_backward_l1_naive(d_y, cache, params)
        g_s = bn_backward(d_y, cache, params)
        denom = np.maximum(np.abs(g_n.d_input), 1e-8)
        assert np.max(np.abs(g_n.d_input - g_s.d_input) / denom) <= 1e-10
        assert np.allclose(g_n.d_gamma, g_s.d_gamma, rtol=1e-12)
        assert np.allclose(g_n.d_beta, g_s.d_beta, rtol=1e-12)

    def test_constant_upstream_annihilated(self):
        # per-feature constant d_y: g - mean(g) = 0 and mean(g·x_hat) ≈ g·mean(x_hat) ≈ 0
        x, params, cache, _ = self._setup()
        d_y = np.broadcast_to(np.array([1.0, -2.0, 0.5, 3.0, 0.0, 1.5, -1.0, 2.0]),
                              x.shape).copy()
        g = bn_backward(d_y, cache, params)
        assert np.abs(g.d_input).max() <= 1e-12

    def test_sign_identity(self):
        x, _, cache, _ = self._setup(seed=9)
        mu = x.mean(axis=0)
        assert np.array_equal(np.sign(cache.x_hat), np.sign(x - mu))

    def test_two_point_naive_matches_finite_differences(self):
        # smallest interesting batch, clear of the |x - mu| kink
        from l1bn.gradcheck import finite_diff, relative_errors

        x = np.reshape([1.0, 3.0], (2, 1))
        params = BnParams.init(1, mode=BnMode.L1)
        p = np.reshape([0.7, -1.3], (2, 1))
        _, cache = bn_forward_train(x, params)
        analytic = bn_backward_l1_naive(p, cache, params).d_input

        def f(v):
            y, _ = bn_forward_train(v, params)
            return float(np.sum(p * y))

        numeric = finite_diff(each(f), x, step=1e-6)
        assert relative_errors(analytic, numeric).max() <= 1e-5

    def test_d_gamma_same_form_as_l2(self):
        x, params, cache, d_y = self._setup()
        g = bn_backward_l1_naive(d_y, cache, params)
        assert np.allclose(g.d_gamma, (d_y * cache.x_hat).sum(axis=0), rtol=1e-13)

    def test_l2_cache_rejected(self):
        params = BnParams.init(3, mode=BnMode.L2)
        x = Rng(0).normal((8, 3))
        _, cache = bn_forward_train(x, params)
        with pytest.raises(ValueError, match="L1 backward got an l2 cache"):
            bn_backward_l1_naive(np.zeros_like(x), cache, params)

    def test_affine_disabled_zero_param_grads(self):
        rng = Rng(4)
        x = rng.normal((12, 3))
        params = BnParams.init(3, mode=BnMode.L1, use_affine=False)
        _, cache = bn_forward_train(x, params)
        g = bn_backward(rng.normal((12, 3)), cache, params)
        assert np.all(g.d_gamma == 0) and np.all(g.d_beta == 0)


class TestSharedBackward:
    """The one backward of every mode against the term-by-term chain rules."""

    def test_bench_names_are_aliases(self):
        # one function object: perfbench's tracer wraps every name that holds it,
        # so calls through bn_backward are traced under the names it looks up
        assert bn_backward_l2 is bn_backward and bn_backward_l1_simplified is bn_backward

    @pytest.mark.parametrize("use_affine", [True, False])
    @pytest.mark.parametrize("shape", [(16, 8), (4, 3, 3, 2)])
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_matches_reference(self, mode, shape, use_affine):
        rng = Rng(21)
        x = rng.normal(shape, mu=-1.0, sigma=3.0)
        d_y = rng.normal(shape)
        gamma, beta = rng.uniform((shape[-1],), 0.5, 1.5), rng.uniform((shape[-1],), -0.5, 0.5)
        if not use_affine:  # drawn all the same, so every other value stays as it was
            gamma, beta = np.ones_like(gamma), np.zeros_like(beta)
        params = BnParams(gamma=gamma, beta=beta, mode=mode, use_affine=use_affine)
        _, cache = bn_forward_train(x, params)
        got = bn_backward(d_y, cache, params)
        if mode is BnMode.L2:
            d_input, d_gamma, d_beta = l2_backward_reference(d_y, cache, params)
        else:
            ref = bn_backward_l1_naive(d_y, cache, params)
            d_input, d_gamma, d_beta = ref.d_input, ref.d_gamma, ref.d_beta
        assert normwise_gap(got.d_input, d_input) <= 1e-12
        if use_affine:
            assert normwise_gap(got.d_gamma, d_gamma) <= 1e-12
            assert normwise_gap(got.d_beta, d_beta) <= 1e-12
        else:
            assert np.all(got.d_gamma == 0) and np.all(got.d_beta == 0)


class TestBackwardEquivalence:
    """The √(π/2) equivalence holds for the forward, not for the backward.  Both
    backwards subtract μ(g) and a σ-path term ∝ μ(g·x̂), which L2 takes along x̂
    and L1c along k·sgn x̂ (k = √(π/2)).  For Gaussian x, ‖x̂ − k·sgn x̂‖²/n →
    π/2 − 1, so with ρ the correlation of d_y with x̂ the input gradients differ
    by ρ·√(π/2 − 1)/√(1 − ρ²) relative, whatever the batch size.  Plain L1 is
    left out: its x̂ is k times L1c's by design."""

    @staticmethod
    def gradient_gap(rho, seed):
        rng = Rng(seed)
        x, z = rng.normal((4096, 64)), rng.normal((4096, 64))
        l2, l1c = BnParams.init(64, BnMode.L2), BnParams.init(64, BnMode.L1_COMPENSATED)
        (_, cache_l2), (_, cache_l1c) = bn_forward_train(x, l2), bn_forward_train(x, l1c)
        d_y = rho * cache_l2.x_hat + math.sqrt(1.0 - rho * rho) * z
        d_l2 = bn_backward(d_y, cache_l2, l2).d_input
        d_l1c = bn_backward(d_y, cache_l1c, l1c).d_input
        return np.linalg.norm(d_l1c - d_l2) / np.linalg.norm(d_l2)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("rho", [0.5, 0.9])
    def test_gap_follows_the_correlation(self, rho, seed):
        # seeds 0-2 read 0.435-0.439 (predicted 0.436) and 1.556-1.567 (1.560)
        predicted = rho * math.sqrt(math.pi / 2.0 - 1.0) / math.sqrt(1.0 - rho * rho)
        assert abs(self.gradient_gap(rho, seed) / predicted - 1.0) <= 0.02

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_uncorrelated_gap_is_the_mads_noise(self, seed):
        # 0.011-0.012 on seeds 0-2: the sampling noise of the MAD against the std
        assert self.gradient_gap(0.0, seed) < 0.03


class TestDegenerateInputs:
    """The constant-channel and tie policies of ``bn_backward``'s docstring and the
    NaN policy of ``update_running_stats``'s."""

    @pytest.mark.parametrize("shape", [(8, 3), (2, 2, 2, 3)])
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_constant_channel(self, mode, shape):
        # Channel 1 holds one value v.  The pooled mean of eight 3.0s is exact, so
        # d = v - μ_B = 0 and x̂ = 0, y = β, d_gamma = 0 exactly; that of eight 0.1s
        # is 1 ulp off, and x̂ takes the closed form in d.
        k = GAUSSIAN_STD_OVER_MAD if mode is BnMode.L1_COMPENSATED else 1.0
        for value, exact in ((3.0, True), (0.1, False)):
            rng = Rng(0)
            x = rng.normal(shape)
            x[..., 1] = value
            params = BnParams(gamma=np.array([1.0, 1.5, 2.0]),
                              beta=np.array([0.1, 0.2, 0.3]), mode=mode)
            y, cache = bn_forward_train(x, params)
            d_y = rng.normal(shape)
            grads = bn_backward(d_y, cache, params)
            d = value - cache.mu_b[1]
            assert (d == 0.0) == exact
            if mode is BnMode.L2:
                sigma, denom = abs(d), math.sqrt(d * d + params.epsilon)
            else:
                sigma, denom = k * abs(d), k * abs(d) + params.epsilon
            x_hat = d / denom
            ulps = 4 * np.spacing(abs(x_hat)) if d else 0.0
            tol_y = 4 * np.spacing(0.2) if d else 0.0
            assert np.all(np.abs(rows(cache.x_hat)[:, 1] - x_hat) <= ulps)
            assert cache.sigma_b[1] == pytest.approx(sigma, rel=4e-16, abs=0.0)
            assert np.all(np.abs(rows(y)[:, 1] - (0.2 + 1.5 * x_hat)) <= tol_y)
            g = rows(d_y)[:, 1]
            assert abs(grads.d_gamma[1] - x_hat * g.sum()) <= 1e-15 * abs(x_hat) * np.abs(g).sum()
            centred = 1.5 * (g - g.mean())
            got = rows(grads.d_input)[:, 1]
            gain = 316.2278 if mode is BnMode.L2 else 100000.0  # 1/sqrt(ε) against 1/ε
            assert np.linalg.norm(got) / np.linalg.norm(centred) == pytest.approx(gain, rel=1e-6)
            assert normwise_gap(got, centred / denom) <= 1e-15

    @pytest.mark.parametrize("shape", [(2, 3), (1, 2, 1, 3)])
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_pooled_batch_of_two(self, mode, shape):
        # With h = |x1 - x2|/2 every row sits ±h from the mean, so x̂ = ±h/(kh + ε)
        # (L1, L1c) or ±h/sqrt(h² + ε) (L2), and the input gradient is what the
        # mean and deviation terms leave of γ(g1 - g2)/2: ±γ(g1 - g2)(ε/2)/(kh + ε)²
        # or ±γ(g1 - g2)(ε/2)/(h² + ε)^(3/2), the + on the first row.
        rng = Rng(4)
        x, d_y = rng.normal(shape), rng.normal(shape)
        rows(x)[:, 0], rows(d_y)[:, 0] = (0.0, 1.0), (1.0, -0.5)
        gamma = np.array([1.0, 0.7, 2.0])
        params = BnParams(gamma=gamma, beta=np.zeros(3), mode=mode)
        _, cache = bn_forward_train(x, params)
        d_input = rows(bn_backward(d_y, cache, params).d_input)
        xr, g, eps = rows(x), rows(d_y), params.epsilon
        h = np.abs(xr[0] - xr[1]) / 2
        if mode is BnMode.L2:
            denom = np.sqrt(h * h + eps)
            grad = gamma * (g[0] - g[1]) * (eps / 2) / (h * h + eps) ** 1.5
        else:
            k = GAUSSIAN_STD_OVER_MAD if mode is BnMode.L1_COMPENSATED else 1.0
            denom = k * h + eps
            grad = gamma * (g[0] - g[1]) * (eps / 2) / (k * h + eps) ** 2
        x_hat = np.sign(xr[0] - xr[1]) * h / denom
        ulps = 4 * np.spacing(np.abs(x_hat))
        assert np.all(np.abs(rows(cache.x_hat) - [x_hat, -x_hat]) <= ulps)
        # the gradient is a difference of terms of size γ|g|/denom; it is exact to
        # their rounding, not to its own
        tol = 4 * np.finfo(float).eps * gamma * np.abs(g).max(axis=0) / denom
        assert np.all(np.abs(d_input - [grad, -grad]) <= tol)
        assert np.all(np.abs(d_input[0] + d_input[1]) <= tol)
        pinned = {BnMode.L2: 5.99964e-5, BnMode.L1: 2.99988e-5, BnMode.L1_COMPENSATED: 1.90980e-5}
        assert d_input[0, 0] == pytest.approx(pinned[mode], rel=1e-5)

    @pytest.mark.parametrize("mode", [BnMode.L1, BnMode.L1_COMPENSATED])
    def test_tie_at_the_mean(self, mode):
        # column 0 has μ = 2 exactly, so row 1 sits on the |x - μ| kink, where sgn = 0
        rng = Rng(3)
        x = np.column_stack([[1.0, 2.0, 3.0, 6.0, -2.0], rng.normal((5,))])
        params = BnParams(gamma=np.array([1.2, 0.8]), beta=np.zeros(2), mode=mode)
        _, cache = bn_forward_train(x, params)
        d_y = rng.normal((5, 2))
        fused = bn_backward(d_y, cache, params)
        naive = bn_backward_l1_naive(d_y, cache, params)
        assert cache.x_hat[1, 0] == 0.0
        scale = np.abs(fused.d_input[:, 0]).max()
        assert np.abs(fused.d_input - naive.d_input).max() <= 4e-16 * scale
        for grads in (fused, naive):
            assert abs(grads.d_input[:, 0].sum()) <= 4e-16 * scale
        assert np.array_equal(fused.d_gamma, naive.d_gamma)
        assert np.array_equal(fused.d_beta, naive.d_beta)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_nan_stays_in_its_channel(self, mode):
        x = Rng(5).normal((8, 3))
        x[3, 2] = np.nan
        params = BnParams.init(3, mode=mode)
        state = BnState.init(3)
        y, cache = bn_forward_train(x, params)
        update_running_stats(state, cache.mu_b, cache.sigma_b)
        assert np.all(np.isfinite(y[:, :2])) and np.all(np.isnan(y[:, 2]))
        clean = Rng(6).normal((8, 3))
        for _ in range(3):  # the moving average keeps the NaN
            _, cache = bn_forward_train(clean, params)
            update_running_stats(state, cache.mu_b, cache.sigma_b)
        for running in (state.running_mu, state.running_sigma):
            assert np.all(np.isfinite(running[:2])) and np.isnan(running[2])
        for batch in (x, clean):
            out = bn_forward_infer(batch, params, state)
            assert np.all(np.isfinite(out[:, :2])) and np.all(np.isnan(out[:, 2]))


class TestRunningStats:
    def test_single_update(self):
        state = BnState.init(1, momentum=0.9)
        new = update_running_stats(state, np.array([1.0]), np.array([1.0]))
        assert new.running_mu[0] == pytest.approx(0.1, abs=1e-15)
        assert new.updates == 1

    def test_frozen_at_momentum_one(self):
        state = BnState.init(2, momentum=1.0)
        new = update_running_stats(state, np.array([5.0, 5.0]), np.array([2.0, 2.0]))
        assert np.array_equal(new.running_mu, state.running_mu)
        assert np.array_equal(new.running_sigma, state.running_sigma)

    def test_geometric_convergence(self):
        # gap after k constant updates scales exactly like momentum^k
        alpha = 0.9
        state = BnState.init(1, momentum=alpha)
        mu_b, sigma_b = np.array([1.0]), np.array([2.0])
        gap0 = abs(state.running_mu[0] - 1.0)
        for k in range(1, 21):
            state = update_running_stats(state, mu_b, sigma_b)
            expected = gap0 * alpha ** k
            assert abs(state.running_mu[0] - 1.0) == pytest.approx(expected, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="batch statistics length does not match"):
            update_running_stats(BnState.init(2), np.array([1.0]), np.array([1.0]))

    def test_momentum_validation(self):
        with pytest.raises(ValueError):
            BnState.init(1, momentum=1.5)

    def test_running_length_mismatch(self):
        with pytest.raises(ValueError, match="running_mu/running_sigma length mismatch"):
            BnState(running_mu=np.zeros(3), running_sigma=np.ones(2))


class TestRunningStatsInPlace:
    """``update_running_stats`` writes into the state it is given."""

    @staticmethod
    def seeded_state():
        state = BnState.init(3, momentum=0.8)
        state.running_mu[:] = [0.5, -1.0, 2.0]
        state.running_sigma[:] = [1.5, 0.25, 3.0]
        return state

    def test_returns_the_same_state(self):
        state = self.seeded_state()
        mu, sigma = state.running_mu, state.running_sigma
        out = update_running_stats(state, np.ones(3), np.ones(3))
        assert out is state
        assert out.running_mu is mu and out.running_sigma is sigma

    def test_second_reference_sees_update(self):
        state = self.seeded_state()
        alias = state
        update_running_stats(state, np.full(3, 4.0), np.full(3, 2.0))
        assert alias.updates == 1
        assert np.all(alias.running_mu == 0.8 * np.array([0.5, -1.0, 2.0]) + (1.0 - 0.8) * 4.0)

    def test_updates_counts_each_call(self):
        state = self.seeded_state()
        for k in range(1, 4):
            update_running_stats(state, np.zeros(3), np.ones(3))
            assert state.updates == k

    def test_same_bits_as_fresh_arrays(self):
        rng = Rng(11)
        state = self.seeded_state()
        mu, sigma = state.running_mu.copy(), state.running_sigma.copy()
        for _ in range(20):
            mu_b, sigma_b = rng.normal((3,)), rng.uniform((3,), 0.1, 2.0)
            update_running_stats(state, mu_b, sigma_b)
            mu = 0.8 * mu + (1.0 - 0.8) * mu_b
            sigma = 0.8 * sigma + (1.0 - 0.8) * sigma_b
            assert np.array_equal(state.running_mu.view(np.int64), mu.view(np.int64))
            assert np.array_equal(state.running_sigma.view(np.int64), sigma.view(np.int64))

    @pytest.mark.parametrize("bad", ["mu", "sigma"])
    def test_length_mismatch_changes_nothing(self, bad):
        state = self.seeded_state()
        update_running_stats(state, np.ones(3), np.ones(3))
        before = (state.running_mu.copy(), state.running_sigma.copy(), state.updates)
        mu_b = np.ones(2 if bad == "mu" else 3)
        sigma_b = np.ones(2 if bad == "sigma" else 3)
        with pytest.raises(ValueError, match="batch statistics length does not match"):
            update_running_stats(state, mu_b, sigma_b)
        assert np.array_equal(state.running_mu, before[0])
        assert np.array_equal(state.running_sigma, before[1])
        assert state.updates == before[2]


class TestInference:
    def _trained_state(self, params, feats=3, steps=50, seed=0, batch=64):
        rng = Rng(seed)
        state = BnState.init(feats, momentum=0.8)
        for _ in range(steps):
            x = rng.normal((batch, feats), mu=1.0, sigma=2.0)
            _, cache = bn_forward_train(x, params)
            state = update_running_stats(state, cache.mu_b, cache.sigma_b)
        return state

    def test_identity_map(self):
        params = BnParams.init(2, mode=BnMode.L1, epsilon=1e-13)
        state = BnState(running_mu=np.zeros(2), running_sigma=np.ones(2),
                        momentum=0.9, updates=1)
        x = Rng(0).normal((5, 2))
        assert np.allclose(bn_forward_infer(x, params, state), x, atol=1e-10)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_fused_equals_unfused(self, mode):
        rng = Rng(8)
        params = BnParams(gamma=rng.uniform((3,), 0.5, 1.5),
                          beta=rng.uniform((3,), -0.5, 0.5),
                          epsilon=1e-5, mode=mode)
        state = self._trained_state(params)
        x = rng.normal((32, 3))
        fused = bn_forward_infer(x, params, state)
        if mode is BnMode.L2:
            denom = np.sqrt(state.running_sigma ** 2 + params.epsilon)
        else:
            denom = state.running_sigma + params.epsilon
        unfused = (x - state.running_mu) / denom * params.gamma + params.beta
        scale = max(np.abs(unfused).max(), 1e-12)
        assert np.abs(fused - unfused).max() / scale <= 1e-12

    def test_batch_of_one_matches_batched(self):
        params = BnParams.init(3, mode=BnMode.L1)
        state = self._trained_state(params)
        x = Rng(1).normal((10, 3))
        batched = bn_forward_infer(x, params, state)
        singles = np.vstack([bn_forward_infer(x[i:i + 1], params, state)
                             for i in range(10)])
        assert np.array_equal(batched, singles)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_infer_is_the_folded_pair(self, mode):
        # the trainer's evaluation folds this pair into the dense weights
        rng = Rng(9)
        params = BnParams(gamma=rng.uniform((3,), 0.5, 1.5),
                          beta=rng.uniform((3,), -0.5, 0.5), mode=mode)
        state = self._trained_state(params)
        x = rng.normal((32, 3))
        scale, shift = inference_scale_shift(params, state)
        assert np.array_equal(bn_forward_infer(x, params, state), x * scale + shift)

    def test_uninitialized_state_rejected(self):
        params = BnParams.init(3)
        with pytest.raises(ValueError, match="never updated"):
            bn_forward_infer(Rng(0).normal((4, 3)), params, BnState.init(3))

    def test_state_feature_count_mismatch(self):
        state = BnState(running_mu=np.zeros(2), running_sigma=np.ones(2), updates=1)
        with pytest.raises(ValueError, match="state feature count"):
            bn_forward_infer(Rng(0).normal((4, 3)), BnParams.init(3), state)

    def test_fold_checks_the_state(self):
        # the checks bn_forward_infer makes after its input check are the fold's
        with pytest.raises(ValueError, match="^running statistics were never updated$"):
            inference_scale_shift(BnParams.init(3), BnState.init(3))
        state = BnState(running_mu=np.zeros(2), running_sigma=np.ones(2), updates=1)
        with pytest.raises(ValueError, match="^state feature count does not match params$"):
            inference_scale_shift(BnParams.init(3), state)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_infer_close_to_train_mode_on_stationary_stream(self, mode):
        rng = Rng(42)
        params = BnParams.init(6, mode=mode)
        state = BnState.init(6, momentum=0.9)
        mu_true = rng.normal((6,), 0.0, 2.0)
        sigma_true = np.abs(rng.normal((6,), 1.5, 0.3))
        for _ in range(300):
            xb = mu_true + sigma_true * rng.normal((256, 6))
            _, cache = bn_forward_train(xb, params)
            state = update_running_stats(state, cache.mu_b, cache.sigma_b)
        x = mu_true + sigma_true * rng.normal((4096, 6))
        y_train, _ = bn_forward_train(x, params)
        y_infer = bn_forward_infer(x, params, state)
        assert np.std(y_infer - y_train) <= 0.05 * np.std(y_train)


class TestPeakMemory:
    """Each kernel call's traced peak, in multiples of the input's bytes.

    numpy reports its array buffers to tracemalloc.  The forward keeps y and
    x̂ (2×), the backward holds d_input (1×) plus one row block of d_y·γ/denom
    (``BLOCK_ELEMS`` elements, half of x at this shape), inference returns y
    (1×); the allowance covers the per-feature vectors and Python objects
    (~68 KB at this shape), not one more full-size array.
    """

    SHAPE = (16, 8, 8, 64)
    ALLOWANCE = 128 * 1024

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_peak_within_full_size_budget(self, mode):
        rng = Rng(5)
        x = rng.normal(self.SHAPE, mu=1.0, sigma=2.0)
        d_y = rng.normal(self.SHAPE)
        params = BnParams.init(self.SHAPE[-1], mode=mode)
        _, cache = bn_forward_train(x, params)
        state = update_running_stats(BnState.init(self.SHAPE[-1]), cache.mu_b, cache.sigma_b)
        block = BLOCK_ELEMS * x.itemsize
        calls = {
            "bn_forward_train": (2 * x.nbytes, lambda: bn_forward_train(x, params)),
            "bn_backward": (x.nbytes + block, lambda: bn_backward(d_y, cache, params)),
            "bn_forward_infer": (x.nbytes, lambda: bn_forward_infer(x, params, state)),
        }
        tracemalloc.start()
        try:
            peaks = {}
            for name, (_, call) in calls.items():
                call()  # warm-up: lazily built objects are not the call's cost
                before, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                out = call()
                peaks[name] = tracemalloc.get_traced_memory()[1] - before
                del out
        finally:
            tracemalloc.stop()
        assert x.size > BLOCK_ELEMS  # so the backward runs in more than one block
        for name, (budget, _) in calls.items():
            assert peaks[name] <= budget + self.ALLOWANCE, (
                f"{name}: peak {peaks[name] / x.nbytes:.2f} × x.nbytes")


class TestRowBlocks:
    """The elementwise passes run in row blocks; the reductions see whole arrays,
    so the block size moves no bit of any output."""

    # (N, c) = (23, 5) and (24, 5): 7-row blocks leave a ragged last block
    SHAPES = ((23, 5), (3, 2, 4, 5), (2, 5), (1, 2, 1, 5))

    @staticmethod
    def outputs(x, d_y, params):
        y, cache = bn_forward_train(x, params)
        grads = bn_backward(d_y, cache, params)
        state = update_running_stats(BnState.init(x.shape[-1]), cache.mu_b, cache.sigma_b)
        return [a.tobytes() for a in (
            y, cache.x_hat, cache.mu_b, cache.sigma_b, cache.denom, grads.d_input,
            grads.d_gamma, grads.d_beta, bn_forward_infer(x, params, state))]

    @pytest.mark.parametrize("use_affine", (True, False))
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_block_size_moves_no_bit(self, monkeypatch, mode, shape, use_affine):
        rng = Rng(11)
        x = rng.normal(shape, mu=0.5, sigma=2.0)
        x[..., 1] = 0.1  # constant channel, pooled mean 1 ulp off
        x[..., 2] = 3.0  # constant channel, exact pooled mean
        x.reshape(-1, shape[-1])[0, 3] = np.nan
        d_y = rng.normal(shape)
        c = shape[-1]
        gamma, beta = ((np.linspace(0.5, 1.5, c), np.linspace(-0.5, 0.5, c)) if use_affine
                       else (np.ones(c), np.zeros(c)))
        params = BnParams(gamma=gamma, beta=beta, mode=mode, use_affine=use_affine)
        monkeypatch.setattr(batchnorm, "BLOCK_ELEMS", x.size)  # one block
        expected = self.outputs(x, d_y, params)
        for block_rows in (1, 7):
            monkeypatch.setattr(batchnorm, "BLOCK_ELEMS", block_rows * c)
            assert self.outputs(x, d_y, params) == expected, block_rows

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_default_blocks_match_one_block(self, monkeypatch, mode):
        # (600, 64) is two default blocks, the second ragged
        rng = Rng(12)
        x = rng.normal((600, 64), mu=-1.0, sigma=3.0)
        d_y = rng.normal(x.shape)
        params = BnParams(gamma=np.linspace(0.5, 1.5, 64), beta=np.linspace(-1, 1, 64),
                          mode=mode)
        assert len(batchnorm._row_blocks(x)) == 2
        default = self.outputs(x, d_y, params)
        monkeypatch.setattr(batchnorm, "BLOCK_ELEMS", x.size)
        assert self.outputs(x, d_y, params) == default

    def test_one_block_is_the_arrays_themselves(self):
        a, b = np.zeros((128, 64)), np.ones((128, 64))
        ((a_block, b_block),) = batchnorm._row_blocks(a, b)
        assert a_block is a and b_block is b

    def test_blocks_tile_the_rows(self, monkeypatch):
        a, b = np.arange(46.0).reshape(23, 2), np.zeros((23, 2))
        monkeypatch.setattr(batchnorm, "BLOCK_ELEMS", 14)
        blocks = batchnorm._row_blocks(a, b)
        assert [len(ab) for ab, _ in blocks] == [7, 7, 7, 2]
        assert all(np.shares_memory(bb, b) for _, bb in blocks)
        np.testing.assert_array_equal(np.concatenate([ab for ab, _ in blocks]), a)


class TestParams:
    def test_epsilon_positive(self):
        with pytest.raises(ValueError):
            BnParams.init(2, epsilon=0.0)

    def test_gamma_beta_length(self):
        with pytest.raises(ValueError, match="gamma/beta length mismatch"):
            BnParams(gamma=np.ones(3), beta=np.zeros(2))

    def test_gamma_beta_must_be_1d(self):
        with pytest.raises(ValueError, match="1-D"):
            BnParams(gamma=np.ones((3, 1)), beta=np.zeros((3, 1)))

    @pytest.mark.parametrize("gamma, beta", [
        ([1.0, 2.0, 1.0], [0.0, 0.0, 0.0]),
        ([1.0, 1.0, 1.0], [0.0, 0.5, 0.0]),
        ([1.0, 1.0, 1.0], [0.0, -0.0, 0.0]),  # x̂ + (-0.0) would keep an x̂ of -0.0
        ([1.0, np.nan, 1.0], [0.0, 0.0, 0.0]),
        ([1.0, 1.0, 1.0], [0.0, np.nan, 0.0]),
    ], ids=["gamma-2", "beta-0.5", "beta-minus-zero", "gamma-nan", "beta-nan"])
    def test_non_affine_holds_identity(self, gamma, beta):
        with pytest.raises(ValueError, match="^without the affine stage gamma must be 1.0 "
                                             r"and beta \+0.0$"):
            BnParams(gamma=gamma, beta=beta, use_affine=False)
        BnParams(gamma=gamma, beta=beta)  # the affine stage takes any values
