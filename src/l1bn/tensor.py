"""Float64 tensor helpers: seeded RNG, column reductions and signum.

The reductions serve the term-by-term L1 backward kept as the gradient oracle,
and ``sign`` both L1 backward forms.  They are pure, and numpy's pairwise
summation makes their results bit-deterministic for a given input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Rng:
    """Deterministic random source: equal seeds yield identical sample streams."""

    seed: int

    def __post_init__(self):
        self._gen = np.random.default_rng(self.seed)

    def normal(self, shape, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        """I.i.d. Gaussian samples.  ``sigma=0`` degenerates to a constant tensor."""
        if sigma < 0:
            raise ValueError(f"sigma must be nonnegative, got {sigma}")
        return self._gen.normal(loc=mu, scale=sigma, size=shape)

    def uniform(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        if high < low:
            raise ValueError(f"empty interval [{low}, {high})")
        return self._gen.uniform(low=low, high=high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def reduce_mean(rows: np.ndarray) -> np.ndarray:
    """Column means of an (N, c) rows view."""
    return np.mean(rows, axis=0)


def reduce_sum(rows: np.ndarray) -> np.ndarray:
    """Column sums of an (N, c) rows view."""
    return np.sum(rows, axis=0)


def sign(x: np.ndarray) -> np.ndarray:
    """Signum with sign(0) = 0, the symmetric subgradient choice for |x| at 0."""
    return np.sign(x)
