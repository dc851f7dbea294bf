"""Counter-based noise stream: determinism, order independence, moments."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ringsum import Distribution, NoiseSource, noise

u64 = st.integers(0, 2**64 - 1)
small = st.integers(0, 2**20)


def unit(seed, node, k, trial, slot):
    """2u - 1 for the raw uniform u at the coordinates: the symmetric uniform
    transform at parameter 1, whose operations are all exact."""
    return noise._draw(seed, node, k, trial, (slot,), Distribution.UNIFORM_SYMMETRIC, 1.0)


# The one 53-bit value for which b + 0.5 rounds up to u = 1.0.
U_ONE = dict(node=1, k=0, trial=np.array([4418893527435787771], np.uint64))
# A coordinate whose 53-bit value is b = 2**52, where u is exactly 1/2.
U_HALF = dict(node=1, k=0, trial=np.array([892875904756025975], np.uint64))


class TestDeterminism:
    @given(seed=u64, node=small, k=small, trial=small, slot=st.integers(0, 3))
    def test_draws_are_a_pure_function_of_coordinates(self, seed, node, k, trial, slot):
        a = unit(seed, node, k, trial, slot)
        assert a.shape == (1,) and a.tolist() == unit(seed, node, k, trial, slot).tolist()
        assert -1.0 < a[0] <= 1.0  # u = 1.0 at one coordinate, see U_ONE

    @given(seed=u64, node=small, k=small, trial=small)
    def test_adjacent_coordinates_decorrelate(self, seed, node, k, trial):
        base = unit(seed, node, k, trial, 0)
        assert base != unit(seed, node + 1, k, trial, 0)
        assert base != unit(seed, node, k + 1, trial, 0)
        assert base != unit(seed, node, k, trial + 1, 0)

    def test_vectorized_matches_scalar_elementwise(self):
        src = NoiseSource(42)
        nodes = np.arange(1, 9, dtype=np.uint64)
        ks = np.arange(5, dtype=np.uint64)
        block = src.sample(
            nodes[None, :], ks[:, None], 3, 1.5, Distribution.LAPLACE
        )
        for i, k in enumerate(ks):
            for j, node in enumerate(nodes):
                scalar = src.sample(int(node), int(k), 3, 1.5, Distribution.LAPLACE)
                assert scalar.shape == (1,) and block[i, j] == scalar[0]

    def test_different_seeds_differ(self):
        a = NoiseSource(1).sample(1, 0, 0, 1.0, Distribution.GAUSSIAN)
        b = NoiseSource(2).sample(1, 0, 0, 1.0, Distribution.GAUSSIAN)
        assert a != b


class TestMoments:
    N = 400_000

    def _draws(self, dist, scale=1.0):
        src = NoiseSource(7)
        trials = np.arange(self.N, dtype=np.uint64)
        return src.sample(1, 0, trials, scale, dist)

    def test_gaussian_scale_is_standard_deviation(self):
        x = self._draws(Distribution.GAUSSIAN, 2.0)
        assert abs(x.mean()) < 0.02
        assert x.std() == pytest.approx(2.0, rel=0.01)

    def test_laplace_scale_parameter_variance(self):
        # Scale b has variance 2 b^2 under the Laplace reading of v(k).
        x = self._draws(Distribution.LAPLACE, 2.0)
        assert abs(x.mean()) < 0.03
        assert x.var() == pytest.approx(8.0, rel=0.03)

    def test_uniform_scale_is_standard_deviation(self):
        x = self._draws(Distribution.UNIFORM_SYMMETRIC, 2.0)
        assert abs(x.mean()) < 0.02
        assert x.std() == pytest.approx(2.0, rel=0.01)
        assert np.abs(x).max() <= 2.0 * np.sqrt(3.0)

    def test_clock_gap_is_exponential_with_rate(self):
        src = NoiseSource(7)
        gaps = src.clock_gap(1, np.arange(self.N, dtype=np.uint64), 0, rate=4.0)
        assert np.all(gaps > 0)
        assert gaps.mean() == pytest.approx(0.25, rel=0.02)

    def test_laplace_symmetric_tails(self):
        x = self._draws(Distribution.LAPLACE)
        assert (x > 0).mean() == pytest.approx(0.5, abs=0.005)


class TestSampleBeta:
    def test_scale_zero_gives_zero_noise(self):
        src = NoiseSource(0)
        assert src.sample(1, 1, 1, 0.0, Distribution.LAPLACE).tolist() == [0.0]

    @given(seed=u64)
    def test_slots_are_independent_streams(self, seed):
        assert unit(seed, 1, 1, 1, 0) != unit(seed, 1, 1, 1, 2)

    def test_a_uniform_of_one_gives_a_finite_laplace_draw(self):
        # u = 1.0 puts the symmetric uniform at the top of its support and the
        # Gaussian's log(u) at 0; log1p(-2|u - 1/2|) would be -inf, so the
        # Laplace draw takes the value of the exact u = 1 - 2**-54 instead.
        src = NoiseSource(0)
        assert unit(0, **U_ONE, slot=0).tolist() == [1.0]
        assert src.sample(**U_ONE, scale=1.0, dist=Distribution.GAUSSIAN).tolist() == [0.0]
        x = src.sample(**U_ONE, scale=2.0, dist=Distribution.LAPLACE)
        assert np.isfinite(x).all()
        assert x[0] == pytest.approx(2.0 * 53 * math.log(2.0), rel=1e-15)

    def test_a_uniform_of_one_half_gives_positive_zeros(self):
        # t = u - 1/2 is +0.0, so sign(t) * -scale is -0.0 and log1p(-2|t|) is
        # -0.0: their product, the Laplace draw, is +0.0 (copysign would give
        # -0.0). The symmetric uniform 2u - 1 is +0.0 too.
        src = NoiseSource(0)
        assert unit(0, **U_HALF, slot=0).tolist() == [0.0]
        for dist in (Distribution.LAPLACE, Distribution.UNIFORM_SYMMETRIC):
            x = src.sample(**U_HALF, scale=2.0, dist=dist)
            assert x.tolist() == [0.0] and not np.signbit(x).any()
