import copy
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1bn.batchnorm import GAUSSIAN_STD_OVER_MAD, BnMode, batch_deviation
from l1bn.ratio import (
    StatisticsError,
    channelwise_ratio_map,
    gaussian_ratio_trial,
    uniform_ratio_trial,
)
from l1bn.tensor import DomainError, Rng


def uniform_population_ratio(a: float, b: float) -> float:
    # closed-form oracle for U[a,b]: var = (b-a)^2/12, MAD about the mean = (b-a)/4
    std = (b - a) / math.sqrt(12.0)
    mad = (b - a) / 4.0
    return std / mad  # = 2/sqrt(3) ≈ 1.1547, independent of a, b


class TestGaussianTrial:
    def test_standard_normal_in_band(self):
        report = gaussian_ratio_trial(100_000, 0.0, 1.0, seed=0)
        assert abs(report.mean_ratio - GAUSSIAN_STD_OVER_MAD) <= 0.01
        assert report.in_gaussian_band

    def test_location_scale_invariance_of_band(self):
        # the ratio is measured about the sample mean, so (mu, sigma) drop out
        for seed, (mu, sigma) in enumerate([(5.0, 3.0), (-2.0, 0.5), (10.0, 0.1)]):
            report = gaussian_ratio_trial(100_000, mu, sigma, seed=50 + seed)
            assert report.in_gaussian_band

    def test_sample_count_recorded(self):
        report = gaussian_ratio_trial(1000, seed=1)
        assert report.sample_count == 1000
        assert report.ratios.shape == (1,)
        assert np.all(report.ratios > 0)

    def test_small_n_rejected(self):
        with pytest.raises(StatisticsError):
            gaussian_ratio_trial(99)

    def test_bad_sigma_rejected(self):
        with pytest.raises(DomainError):
            gaussian_ratio_trial(1000, sigma=0.0)

    @pytest.mark.parametrize("mu, sigma", [(np.inf, 1.0), (np.nan, 1.0), (0.0, np.inf)])
    def test_non_finite_parameters_rejected(self, mu, sigma):
        with pytest.raises(StatisticsError, match="non-finite deviation"):
            gaussian_ratio_trial(1000, mu, sigma)


class TestBand:
    TRIALS = {
        "gaussian": lambda band: gaussian_ratio_trial(1000, band_half_width=band),
        "uniform": lambda band: uniform_ratio_trial(1000, band_half_width=band),
        "channel-map": lambda band: channelwise_ratio_map(Rng(0).normal((200, 2)),
                                                          band_half_width=band),
    }

    @pytest.mark.parametrize("trial", TRIALS)
    @pytest.mark.parametrize("band", [-1.0, -1e-300, np.nan, np.inf])
    def test_negative_or_non_finite_band_rejected(self, trial, band):
        with pytest.raises(DomainError, match="band half-width"):
            self.TRIALS[trial](band)

    @pytest.mark.parametrize("trial", TRIALS)
    def test_zero_band_accepted(self, trial):
        report = self.TRIALS[trial](0.0)
        assert report.band_half_width == 0.0
        assert report.in_gaussian_band == (report.gaussian_gap == 0.0)


class TestUniformControl:
    def test_lands_on_closed_form_and_outside_band(self):
        oracle = uniform_population_ratio(-1.0, 1.0)
        assert oracle == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-15)
        report = uniform_ratio_trial(100_000, seed=0)
        assert abs(report.mean_ratio - oracle) <= 0.01
        assert not report.in_gaussian_band

    def test_small_n_rejected(self):
        with pytest.raises(StatisticsError, match="at least 100"):
            uniform_ratio_trial(50)


class TestChannelwiseMap:
    def test_iid_channels_all_in_wide_band(self):
        x = Rng(3).normal((64, 8, 8, 16))
        report = channelwise_ratio_map(x)
        assert report.ratios.shape == (16,)
        assert np.all(np.abs(report.ratios - GAUSSIAN_STD_OVER_MAD) <= 0.05)

    def test_heterogeneous_scales_leave_ratios_move_histograms(self):
        rng = Rng(4)
        x = rng.normal((64, 8, 8, 6))
        scales = np.array([0.01, 0.1, 1.0, 10.0, 100.0, 1000.0])
        r_base = channelwise_ratio_map(x)
        r_scaled = channelwise_ratio_map(x * scales)
        assert np.allclose(r_base.ratios, r_scaled.ratios, rtol=1e-12)
        assert r_base.hist_l2.bin_edges_log10 != r_scaled.hist_l2.bin_edges_log10

    def test_pooled_count_floor(self):
        with pytest.raises(StatisticsError):
            channelwise_ratio_map(Rng(0).normal((4, 4, 4, 2)))

    @pytest.mark.parametrize("shape", [(200, 0), (64, 8, 8, 0)])
    def test_no_features_rejected(self, shape):
        with pytest.raises(StatisticsError, match="no features"):
            channelwise_ratio_map(np.zeros(shape))

    def test_constant_channel_rejected_before_any_division(self):
        x = Rng(0).normal((200, 4))
        x[:, 2] = 7.0
        x[:, 3] = 0.0
        # a 0/0 or log10(0) would raise FloatingPointError here, not StatisticsError
        with np.errstate(all="raise"), pytest.raises(StatisticsError, match="^channel 2 "):
            channelwise_ratio_map(x)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_channel_rejected_before_any_division(self, value):
        x = Rng(0).normal((200, 4))
        x[5, 1] = value
        x[7, 3] = value
        # a division by the deviation or log10 of it would raise FloatingPointError here
        with np.errstate(all="raise"), pytest.raises(
                StatisticsError, match="^channel 1 has a non-finite deviation; "):
            channelwise_ratio_map(x)

    def test_overflowing_variance_is_a_non_finite_deviation(self):
        # the squares overflow while the mean absolute deviation stays finite
        x = Rng(0).normal((200, 2)) * 1e200
        assert np.isfinite(batch_deviation(x, BnMode.L1)).all()
        with np.errstate(all="raise"), pytest.raises(StatisticsError, match="^channel 0 "):
            channelwise_ratio_map(x)

    def test_lowest_undefined_channel_named(self):
        x = Rng(0).normal((200, 4))
        x[:, 1] = 7.0
        x[0, 0] = np.nan
        with pytest.raises(StatisticsError, match="^channel 0 has a non-finite deviation"):
            channelwise_ratio_map(x)
        x[0, 0] = 0.0
        with pytest.raises(StatisticsError, match="^channel 1 has zero deviation"):
            channelwise_ratio_map(x)

    def test_mlp_activation_ratios_observational(self):
        # activations of a trained net: report only, no band assertion
        # (nothing guarantees they stay Gaussian)
        from l1bn.trainer import Mlp, MlpSpec, SgdConfig, SyntheticTask, train

        task = SyntheticTask(classes=4, dim=12, train_per_class=200,
                             test_per_class=50, spread=1.0, seed=0)
        model = Mlp(MlpSpec(in_dim=12, hidden=(32, 32), classes=4,
                            bn_mode=BnMode.L1, seed=0))
        train(model, task, SgdConfig(learning_rate=0.1, epochs=5, batch_size=64))
        x_train = task.make()[0]
        for act in model.hidden_preactivations(x_train[:512]):
            report = channelwise_ratio_map(act)
            assert np.all(np.isfinite(report.ratios))
            assert np.all(report.ratios > 0)

    @given(st.floats(-5.0, 5.0), st.floats(-10.0, 10.0), st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_affine_invariance(self, a, b, seed):
        # x -> a*x + b with a != 0 leaves every ratio unchanged
        if abs(a) < 1e-3:
            a = 1e-3
        x = Rng(seed).normal((128, 4))
        base = channelwise_ratio_map(x)
        moved = channelwise_ratio_map(a * x + b)
        assert np.allclose(base.ratios, moved.ratios, rtol=1e-12, atol=0)


class TestMonteCarloRate:
    def test_band_shrinks_like_inverse_sqrt_n(self):
        # quadrupling n should halve the seed-to-seed std of the ratio,
        # allow 30% slack on the estimate
        k, n = 64, 1000
        s_n = np.std([gaussian_ratio_trial(n, seed=s).mean_ratio for s in range(k)])
        s_4n = np.std([gaussian_ratio_trial(4 * n, seed=1000 + s).mean_ratio
                       for s in range(k)])
        assert 0.5 / 1.3 <= s_4n / s_n <= 0.5 * 1.3


class TestDeviationPair:
    def test_matches_direct_formulas(self):
        x = Rng(5).normal((256, 3))
        sigma_l2 = batch_deviation(x, BnMode.L2)
        sigma_l1 = batch_deviation(x, BnMode.L1)
        mu = x.mean(axis=0)
        assert np.allclose(sigma_l2, np.sqrt(np.mean((x - mu) ** 2, axis=0)), rtol=1e-14)
        assert np.allclose(sigma_l1, np.mean(np.abs(x - mu), axis=0), rtol=1e-14)

    @pytest.mark.parametrize("make", [
        lambda: gaussian_ratio_trial(1000, seed=2),                  # c = 1
        lambda: channelwise_ratio_map(Rng(3).normal((256, 3))),      # 2-D
        lambda: channelwise_ratio_map(Rng(4).normal((8, 4, 4, 3))),  # 4-D
    ])
    def test_histograms_equal_asdict_form(self, make):
        report = make()
        d = report.to_dict()
        reference = {**d, "hist_l2": dataclasses.asdict(report.hist_l2),
                     "hist_l1": dataclasses.asdict(report.hist_l1)}
        assert d == reference
        assert json.dumps(d, sort_keys=True) == json.dumps(reference, sort_keys=True)

    def test_returned_lists_are_copies(self):
        report = channelwise_ratio_map(Rng(3).normal((256, 3)))
        hists = copy.deepcopy((report.hist_l2, report.hist_l1))
        d = report.to_dict()
        for key in ("hist_l2", "hist_l1"):
            d[key]["counts"][0] += 1
            d[key]["bin_edges_log10"].append(0.0)
        assert (report.hist_l2, report.hist_l1) == hists
        assert report.to_dict()["hist_l2"] == dataclasses.asdict(hists[0])

    def test_report_round_trips_to_dict(self):
        report = gaussian_ratio_trial(1000, seed=2)
        payload = report.to_dict()
        assert payload["sample_count"] == 1000
        assert len(payload["hist_l2"]["counts"]) == 50
        rows = report.rows()
        assert rows[0][0] == 0 and len(rows) == 1
