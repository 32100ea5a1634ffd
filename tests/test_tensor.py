import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import hypothesis.extra.numpy as hnp

from l1bn.tensor import Rng, reduce_mean, reduce_sum, sign


finite_elements = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
small_shapes = hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=6)


class TestRng:
    def test_same_seed_bit_identical(self):
        a = Rng(123).normal((4, 5))
        b = Rng(123).normal((4, 5))
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        assert not np.array_equal(Rng(1).normal((100,)), Rng(2).normal((100,)))

    def test_sigma_zero_degenerates_to_mu(self):
        x = Rng(0).normal((50,), mu=3.25, sigma=0.0)
        assert np.all(x == 3.25)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma must be nonnegative"):
            Rng(0).normal((3,), 0.0, -1.0)

    def test_large_sample_mean_clt_bound(self):
        # CLT oracle: |mean| <= 3/sqrt(n) with high probability; spec bound 0.005
        x = Rng(7).normal((10**6,), 0.0, 1.0)
        assert abs(x.mean()) <= 0.005

    def test_moment_bounds_at_fixed_seeds(self):
        n = 10**5
        for seed, mu, sigma in [(0, 0.0, 1.0), (1, 2.0, 3.0), (2, -1.0, 0.5)]:
            x = Rng(seed).normal((n,), mu, sigma)
            assert abs(x.mean() - mu) <= 4 * sigma / math.sqrt(n)
            assert abs(x.std() - sigma) <= 4 * sigma / math.sqrt(2 * n)

    def test_uniform_interval(self):
        x = Rng(3).uniform((1000,), -1.0, 1.0)
        assert x.min() >= -1.0 and x.max() < 1.0

    def test_uniform_empty_interval_rejected(self):
        with pytest.raises(ValueError, match="empty interval"):
            Rng(0).uniform((3,), 1.0, -1.0)


class TestReduce:
    """Both reductions take an (N, c) rows view and reduce its rows."""

    def test_two_point_mean(self):
        assert np.array_equal(reduce_mean(np.array([[1.0, -4.0], [3.0, 0.0]])), [2.0, -2.0])

    def test_zero_tensor(self):
        for reduce in (reduce_mean, reduce_sum):
            got = reduce(np.zeros((3, 4)))
            assert got.shape == (4,) and np.all(got == 0.0)

    def test_direct_summation_oracle(self):
        values = [1.0, 2.0, 3.0, 6.0]
        column = np.reshape(values, (4, 1))
        assert reduce_sum(column)[0] == sum(values) == 12.0
        assert reduce_mean(column)[0] == sum(values) / len(values) == 3.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_centering_property(self, seed):
        # subtracting the column means leaves columns of zero mean
        x = Rng(seed).normal((5, 7), 0.0, 100.0)
        resid = np.abs(reduce_mean(x - reduce_mean(x))).max()
        assert resid <= 1e-12 * max(1.0, np.abs(x).max())


class TestElementwise:
    def test_sign_definition(self):
        assert np.array_equal(sign(np.array([-2.0, 0.0, 5.0])), [-1.0, 0.0, 1.0])

    @given(hnp.arrays(np.float64, small_shapes, elements=finite_elements))
    @settings(max_examples=60)
    def test_unary_ops_match_scalar_reference(self, a):
        flat = a.ravel()
        s = sign(a).ravel()
        for i in range(flat.size):
            v = float(flat[i])
            assert s[i] == (0.0 if v == 0 else math.copysign(1.0, v))
