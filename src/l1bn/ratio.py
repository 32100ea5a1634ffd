"""Monte Carlo study of the ratio between the two deviation metrics.

For Gaussian data the standard deviation exceeds the mean absolute deviation
by exactly sqrt(π/2) ≈ 1.2533 (the absolute deviation of a centered Gaussian
is half-normal with mean σ·sqrt(2/π)).  ``channelwise_ratio_map`` measures the
empirical ratio per feature/channel of a (rows, channels) map, or of a 4-D
tensor pooled over m·h·w, with both deviations behind each ratio; one stream
of n samples is the (n, 1) map.  The ratio is location- and scale-free,
so any affine transform of the input leaves it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batchnorm import GAUSSIAN_STD_OVER_MAD, BnMode, batch_deviation, rows
from .tensor import Rng

BAND_HALF_WIDTH = 0.01  # |mean ratio - sqrt(π/2)| that counts as Gaussian


@dataclass
class RatioReport:
    """Per-feature deviations, their ratios, and the gap to the Gaussian constant."""

    sigma_l2: np.ndarray
    sigma_l1: np.ndarray
    ratios: np.ndarray
    mean_ratio: float
    gaussian_gap: float          # mean_ratio - sqrt(π/2)
    in_gaussian_band: bool       # |gaussian_gap| <= BAND_HALF_WIDTH
    sample_count: int            # pooled samples behind each deviation

    def rows(self) -> list[tuple[int, float, float, float]]:
        return [
            (k, float(self.sigma_l2[k]), float(self.sigma_l1[k]), float(self.ratios[k]))
            for k in range(self.ratios.shape[0])
        ]

    def to_dict(self) -> dict:
        return {
            "mean_ratio": self.mean_ratio,
            "gaussian_constant": GAUSSIAN_STD_OVER_MAD,
            "gaussian_gap": self.gaussian_gap,
            "in_gaussian_band": self.in_gaussian_band,
            "band_half_width": BAND_HALF_WIDTH,
            "sample_count": self.sample_count,
            "num_features": int(self.ratios.shape[0]),
        }


def gaussian_ratio_trial(n: int, mu: float = 0.0, sigma: float = 1.0, seed: int = 0) -> RatioReport:
    """Draw n Gaussians and measure std / mean-absolute-deviation: the (n, 1) map."""
    return channelwise_ratio_map(Rng(seed).normal((n, 1), mu, sigma))


def uniform_ratio_trial(n: int, seed: int = 0) -> RatioReport:
    """Non-Gaussian control: inputs uniform on [-1, 1) land at ratio 2/sqrt(3) ≈ 1.1547."""
    return channelwise_ratio_map(Rng(seed).uniform((n, 1), -1.0, 1.0))


def channelwise_ratio_map(x: np.ndarray) -> RatioReport:
    """Per-feature/channel ratio map of an activation tensor (2-D or 4-D)."""
    x = np.asarray(x, dtype=np.float64)
    pooled, features = rows(x).shape
    if features == 0:
        raise ValueError(f"tensor of shape {x.shape} has no features")
    if pooled < 100:
        raise ValueError(f"pooled count {pooled} < 100; ratios would be noise")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite deviation raises below
        sigma_l2 = batch_deviation(x, BnMode.L2)
        sigma_l1 = batch_deviation(x, BnMode.L1)
    finite = np.isfinite(sigma_l2) & np.isfinite(sigma_l1)
    undefined = np.flatnonzero(~finite | (sigma_l2 == 0) | (sigma_l1 == 0))
    if undefined.size:
        k = undefined[0]
        what = "zero deviation" if finite[k] else "a non-finite deviation"
        raise ValueError(f"channel {k} has {what}; its ratio is undefined")
    ratios = sigma_l2 / sigma_l1
    mean_ratio = float(np.mean(ratios))
    gap = mean_ratio - GAUSSIAN_STD_OVER_MAD
    return RatioReport(
        sigma_l2=sigma_l2,
        sigma_l1=sigma_l1,
        ratios=ratios,
        mean_ratio=mean_ratio,
        gaussian_gap=gap,
        in_gaussian_band=bool(abs(gap) <= BAND_HALF_WIDTH),
        sample_count=pooled,
    )
