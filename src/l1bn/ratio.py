"""Monte Carlo study of the ratio between the two deviation metrics.

For Gaussian data the standard deviation exceeds the mean absolute deviation
by exactly sqrt(π/2) ≈ 1.2533 (the absolute deviation of a centered Gaussian
is half-normal with mean σ·sqrt(2/π)).  These trials measure the empirical
ratio per feature/channel and report histograms of both deviations; the ratio
is location- and scale-free, so any affine transform of the input leaves it
unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .batchnorm import GAUSSIAN_STD_OVER_MAD, BnMode, batch_deviation, rows
from .tensor import DomainError, Rng

HISTOGRAM_BINS = 50
DEFAULT_BAND_HALF_WIDTH = 0.01


class StatisticsError(ValueError):
    """Too few pooled samples, or a channel whose deviation is zero or not finite: no ratio."""


@dataclass
class Histogram:
    """Counts over log10-spaced bins (equivalently, linear bins in log10 σ)."""

    counts: list[int]
    bin_edges_log10: list[float]

    @classmethod
    def of(cls, values: np.ndarray) -> "Histogram":
        counts, edges = np.histogram(np.log10(values), bins=HISTOGRAM_BINS)
        return cls(counts=[int(c) for c in counts],
                   bin_edges_log10=[float(e) for e in edges])

    def to_dict(self) -> dict:
        return {"counts": list(self.counts), "bin_edges_log10": list(self.bin_edges_log10)}


@dataclass
class RatioReport:
    """Per-feature deviations, their ratios, and the gap to the Gaussian constant."""

    sigma_l2: np.ndarray
    sigma_l1: np.ndarray
    ratios: np.ndarray
    mean_ratio: float
    gaussian_gap: float          # mean_ratio - sqrt(π/2)
    in_gaussian_band: bool
    band_half_width: float
    sample_count: int            # pooled samples behind each deviation
    hist_l2: Histogram
    hist_l1: Histogram

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
            "band_half_width": self.band_half_width,
            "sample_count": self.sample_count,
            "num_features": int(self.ratios.shape[0]),
            "ratios": [float(r) for r in self.ratios],
            "hist_l2": self.hist_l2.to_dict(),
            "hist_l1": self.hist_l1.to_dict(),
        }


def _report(x: np.ndarray, band_half_width: float) -> RatioReport:
    if not 0 <= band_half_width < math.inf:
        raise DomainError(f"band half-width must be finite and >= 0, got {band_half_width}")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite deviation raises below
        sigma_l2 = batch_deviation(x, BnMode.L2)
        sigma_l1 = batch_deviation(x, BnMode.L1)
    finite = np.isfinite(sigma_l2) & np.isfinite(sigma_l1)
    undefined = np.flatnonzero(~finite | (sigma_l2 == 0) | (sigma_l1 == 0))
    if undefined.size:
        k = undefined[0]
        what = "zero deviation" if finite[k] else "a non-finite deviation"
        raise StatisticsError(f"channel {k} has {what}; its ratio is undefined")
    ratios = sigma_l2 / sigma_l1
    mean_ratio = float(np.mean(ratios))
    gap = mean_ratio - GAUSSIAN_STD_OVER_MAD
    return RatioReport(
        sigma_l2=sigma_l2,
        sigma_l1=sigma_l1,
        ratios=ratios,
        mean_ratio=mean_ratio,
        gaussian_gap=gap,
        in_gaussian_band=bool(abs(gap) <= band_half_width),
        band_half_width=band_half_width,
        sample_count=len(rows(x)),
        hist_l2=Histogram.of(sigma_l2),
        hist_l1=Histogram.of(sigma_l1),
    )


def gaussian_ratio_trial(n: int, mu: float = 0.0, sigma: float = 1.0,
                         seed: int = 0,
                         band_half_width: float = DEFAULT_BAND_HALF_WIDTH) -> RatioReport:
    """Draw n Gaussians and measure std / mean-absolute-deviation."""
    if sigma <= 0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    if n < 100:
        raise StatisticsError(f"need at least 100 samples, got {n}")
    x = Rng(seed).normal((n, 1), mu, sigma)
    return _report(x, band_half_width)


def uniform_ratio_trial(n: int, seed: int = 0,
                        band_half_width: float = DEFAULT_BAND_HALF_WIDTH) -> RatioReport:
    """Non-Gaussian control: inputs uniform on [-1, 1) land at ratio 2/sqrt(3) ≈ 1.1547."""
    if n < 100:
        raise StatisticsError(f"need at least 100 samples, got {n}")
    x = Rng(seed).uniform((n, 1), -1.0, 1.0)
    return _report(x, band_half_width)


def channelwise_ratio_map(x: np.ndarray,
                          band_half_width: float = DEFAULT_BAND_HALF_WIDTH) -> RatioReport:
    """Per-feature/channel ratio map of an activation tensor (2-D or 4-D)."""
    x = np.asarray(x, dtype=np.float64)
    pooled, features = rows(x).shape
    if features == 0:
        raise StatisticsError(f"tensor of shape {x.shape} has no features")
    if pooled < 100:
        raise StatisticsError(f"pooled count {pooled} < 100; ratios would be noise")
    return _report(x, band_half_width)
