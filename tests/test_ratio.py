import copy
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from l1bn import ratio
from l1bn.batchnorm import GAUSSIAN_STD_OVER_MAD, BnMode, batch_deviation
from l1bn.cli import main
from l1bn.ratio import (
    BAND_HALF_WIDTH,
    channelwise_ratio_map,
    gaussian_ratio_trial,
    uniform_ratio_trial,
)
from l1bn.tensor import Rng


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
        # a stream is the (n, 1) map, so the map's pooled-count floor applies
        with pytest.raises(ValueError, match="^pooled count 99 < 100; ratios would be noise$"):
            gaussian_ratio_trial(99)

    def test_zero_sigma_is_a_constant_channel(self):
        with pytest.raises(ValueError, match="^channel 0 has zero deviation; "):
            gaussian_ratio_trial(1000, sigma=0.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="^sigma must be nonnegative, got -1.0$"):
            gaussian_ratio_trial(1000, sigma=-1.0)

    @pytest.mark.parametrize("mu, sigma", [(np.inf, 1.0), (np.nan, 1.0), (0.0, np.inf)])
    def test_non_finite_parameters_rejected(self, mu, sigma):
        with pytest.raises(ValueError, match="non-finite deviation"):
            gaussian_ratio_trial(1000, mu, sigma)


class TestBand:
    TRIALS = {
        "gaussian": lambda: gaussian_ratio_trial(1000),
        "uniform": lambda: uniform_ratio_trial(1000),
        "channel-map": lambda: channelwise_ratio_map(Rng(0).normal((200, 2))),
    }
    # (band half-width as a function of the trial's |gaussian_gap|, whether that gap is inside)
    BANDS = {
        "zero": (lambda gap: 0.0, False),
        "below-gap": (lambda gap: math.nextafter(gap, 0.0), False),
        "at-gap": (lambda gap: gap, True),
        "above-gap": (lambda gap: math.nextafter(gap, math.inf), True),
        "unbounded": (lambda gap: math.inf, True),
    }

    @pytest.mark.parametrize("band", BANDS)
    @pytest.mark.parametrize("trial", TRIALS)
    def test_band_edge_is_inclusive(self, monkeypatch, trial, band):
        gap = abs(self.TRIALS[trial]().gaussian_gap)
        assert gap > 0.0
        half_width, inside = self.BANDS[band]
        monkeypatch.setattr(ratio, "BAND_HALF_WIDTH", half_width(gap))
        report = self.TRIALS[trial]()
        assert abs(report.gaussian_gap) == gap  # the band moves only the flag
        assert report.in_gaussian_band is inside
        assert report.to_dict()["band_half_width"] == half_width(gap)

    @pytest.mark.parametrize("dist, in_band", [("gaussian", True), ("uniform", False)])
    def test_summary_band_is_the_fixed_acceptance_band(self, tmp_path, dist, in_band):
        assert main(["ratio", "--dist", dist, "--outdir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["band_half_width"] == BAND_HALF_WIDTH == 0.01
        assert summary["in_gaussian_band"] == (abs(summary["gaussian_gap"]) <= 0.01) == in_band


class TestUniformControl:
    def test_lands_on_closed_form_and_outside_band(self):
        oracle = uniform_population_ratio(-1.0, 1.0)
        assert oracle == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-15)
        report = uniform_ratio_trial(100_000, seed=0)
        assert abs(report.mean_ratio - oracle) <= 0.01
        assert not report.in_gaussian_band

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="^pooled count 50 < 100; "):
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
        with pytest.raises(ValueError, match="pooled count 64 < 100"):
            channelwise_ratio_map(Rng(0).normal((4, 4, 4, 2)))

    def test_map_depends_only_on_its_rows(self):
        # m·h·w pooled rows in C order: any 4-D view of the same draw is the 2-D map
        x = Rng(9).normal((256, 3))
        flat = channelwise_ratio_map(x).to_dict()
        for shape in [(2, 32, 4, 3), (256, 1, 1, 3), (1, 16, 16, 3)]:
            assert channelwise_ratio_map(x.reshape(shape)).to_dict() == flat

    @pytest.mark.parametrize("shape", [(200, 0), (64, 8, 8, 0)])
    def test_no_features_rejected(self, shape):
        with pytest.raises(ValueError, match="no features"):
            channelwise_ratio_map(np.zeros(shape))

    def test_constant_channel_rejected_before_any_division(self):
        x = Rng(0).normal((200, 4))
        x[:, 2] = 7.0
        x[:, 3] = 0.0
        # a 0/0 or log10(0) would raise FloatingPointError here, not ValueError
        with np.errstate(all="raise"), pytest.raises(ValueError, match="^channel 2 "):
            channelwise_ratio_map(x)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_channel_rejected_before_any_division(self, value):
        x = Rng(0).normal((200, 4))
        x[5, 1] = value
        x[7, 3] = value
        # a division by the deviation or log10 of it would raise FloatingPointError here
        with np.errstate(all="raise"), pytest.raises(
                ValueError, match="^channel 1 has a non-finite deviation; "):
            channelwise_ratio_map(x)

    def test_overflowing_variance_is_a_non_finite_deviation(self):
        # the squares overflow while the mean absolute deviation stays finite
        x = Rng(0).normal((200, 2)) * 1e200
        assert np.isfinite(batch_deviation(x, BnMode.L1)).all()
        with np.errstate(all="raise"), pytest.raises(ValueError, match="^channel 0 "):
            channelwise_ratio_map(x)

    def test_lowest_undefined_channel_named(self):
        x = Rng(0).normal((200, 4))
        x[:, 1] = 7.0
        x[0, 0] = np.nan
        with pytest.raises(ValueError, match="^channel 0 has a non-finite deviation"):
            channelwise_ratio_map(x)
        x[0, 0] = 0.0
        with pytest.raises(ValueError, match="^channel 1 has zero deviation"):
            channelwise_ratio_map(x)

    @given(st.floats(-5.0, 5.0), st.floats(-10.0, 10.0), st.integers(0, 1000))
    @example(a=0.0, b=-9.860411409251965, seed=334)  # relative gap 1.39e-12
    @settings(max_examples=50, deadline=None)
    def test_affine_invariance(self, a, b, seed):
        # x -> a*x + b with a != 0 leaves every ratio unchanged, up to the
        # rounding of a*x + b: about eps*|b|/|a| of the unit spread of x, which
        # each of the ratio's two deviations can carry
        if abs(a) < 1e-3:
            a = 1e-3
        x = Rng(seed).normal((128, 4))
        base = channelwise_ratio_map(x)
        moved = channelwise_ratio_map(a * x + b)
        rtol = max(1e-12, 2 * np.finfo(float).eps * abs(b) / abs(a))
        assert np.allclose(base.ratios, moved.ratios, rtol=rtol, atol=0)


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
