"""Grid rendering and extraction tests against a brute-force oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subpix.errors import ConfigError
from subpix.heatmap import (GaussianSpec, Heatmap, argmax, clamp_cell,
                            render_gaussian, top2)

# Frozen expected values, computed by hand before implementation:
# exp(-1/2) for the 4-neighbor of a sigma=1 gaussian.
NEIGHBOR_SIGMA1 = 0.6065306597126334
# exp(-1/(2*1.5^2)) = exp(-2/9) for sigma = 1.5.
NEIGHBOR_SIGMA15 = 0.8007374029168081


def brute_force_gaussian(center, sigma, shape):
    """Independent windowless double-loop reference of the rendering rule.

    Square truncation: cells farther than floor(3*sigma) on either axis
    are exactly zero. The denominator is 2*(sigma*sigma), squaring first,
    which is the association the library contract fixes.
    """
    w, h = shape
    cx, cy = center
    r = math.floor(3.0 * sigma)
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            if abs(x - cx) <= r and abs(y - cy) <= r:
                d2 = (x - cx) ** 2 + (y - cy) ** 2
                out[y, x] = math.exp(-d2 / (2.0 * (sigma * sigma)))
    return out


class TestGaussianSpec:
    def test_truncation_radius(self):
        assert GaussianSpec(sigma=1.5).truncation_radius == pytest.approx(4.5)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ConfigError):
            GaussianSpec(sigma=0.0)


class TestHeatmapContainer:
    def test_shape_accessors(self):
        g = Heatmap(values=np.zeros((4, 6)))
        assert g.width == 6 and g.height == 4
        assert g.shape == (6, 4)

    def test_nonfinite_rejected(self):
        with pytest.raises(ConfigError):
            Heatmap(values=np.array([[0.0, np.inf]]))

    def test_wrong_ndim_rejected(self):
        with pytest.raises(ConfigError):
            Heatmap(values=np.zeros(5))


class TestRenderGaussian:
    def test_peak_exactly_one(self):
        g = render_gaussian((5, 5), GaussianSpec(1.0), (8, 8))
        assert g.values[5, 5] == 1.0
        assert (g.values == 1.0).sum() == 1

    def test_neighbor_value_sigma1(self):
        g = render_gaussian((5, 5), GaussianSpec(1.0), (8, 8))
        assert g.values[5, 6] == pytest.approx(NEIGHBOR_SIGMA1, abs=1e-15)

    def test_neighbor_value_sigma15(self):
        g = render_gaussian((30, 30), GaussianSpec(1.5), (64, 64))
        assert g.values[30, 31] == pytest.approx(NEIGHBOR_SIGMA15, abs=1e-15)

    def test_outside_truncation_zero(self):
        # 3*sigma = 3 for sigma 1: offset 4 on an axis is outside
        g = render_gaussian((5, 5), GaussianSpec(1.0), (16, 16))
        assert g.values[5, 9] == 0.0
        assert g.values[5, 8] > 0.0  # offset 3 is inside (<= comparison)

    @pytest.mark.parametrize("center", [(30, 30), (0, 0), (63, 63), (2, 60)])
    @pytest.mark.parametrize("sigma", [1.0, 1.5])
    def test_matches_brute_force(self, center, sigma):
        got = render_gaussian(center, GaussianSpec(sigma), (64, 64))
        want = brute_force_gaussian(center, sigma, (64, 64))
        np.testing.assert_array_equal(got.values, want)

    @pytest.mark.parametrize("sigma", [0.7, 2.3, 3.1])
    def test_matches_brute_force_any_sigma_within_ulp(self, sigma):
        # vectorized exp may differ from scalar libm in the last bit
        got = render_gaussian((20, 25), GaussianSpec(sigma), (64, 64))
        want = brute_force_gaussian((20, 25), sigma, (64, 64))
        np.testing.assert_array_max_ulp(got.values, want, maxulp=1)

    def test_matches_brute_force_rect_grid(self):
        got = render_gaussian((3, 9), GaussianSpec(1.5), (8, 12))
        want = brute_force_gaussian((3, 9), 1.5, (8, 12))
        np.testing.assert_array_equal(got.values, want)

    def test_symmetry(self):
        g = render_gaussian((20, 20), GaussianSpec(1.5), (64, 64)).values
        for dx, dy in [(1, 0), (0, 1), (2, 1), (3, 3)]:
            assert g[20 + dy, 20 + dx] == g[20 - dy, 20 - dx]

    def test_offgrid_center_clamped(self):
        g = render_gaussian((-3, 70), GaussianSpec(1.0), (64, 64))
        assert g.values[63, 0] == 1.0

    def test_clamp_cell_flags(self):
        cell, moved = clamp_cell((-3, 70), (64, 64))
        assert cell == (0, 63) and moved
        cell, moved = clamp_cell((5, 5), (64, 64))
        assert cell == (5, 5) and not moved

    def test_values_in_unit_interval(self):
        g = render_gaussian((10, 50), GaussianSpec(2.0), (64, 64)).values
        assert g.min() >= 0.0 and g.max() == 1.0

    def test_zero_grid_rejected(self):
        with pytest.raises(ConfigError):
            render_gaussian((0, 0), GaussianSpec(1.0), (0, 8))


class TestArgmax:
    def test_single_peak(self):
        v = np.zeros((64, 64))
        v[20, 32] = 1.0
        assert argmax(Heatmap(values=v)) == (32, 20)

    def test_all_equal_breaks_to_origin(self):
        assert argmax(Heatmap(values=np.ones((4, 4)))) == (0, 0)

    def test_tie_breaks_row_major(self):
        v = np.zeros((4, 4))
        v[1, 3] = 1.0
        v[2, 0] = 1.0
        # flat index 7 before flat index 8
        assert argmax(Heatmap(values=v)) == (3, 1)

    def test_rendered_center_recovered(self):
        for c in [(0, 0), (63, 63), (17, 44)]:
            g = render_gaussian(c, GaussianSpec(1.5), (64, 64))
            assert argmax(g) == c

    @given(st.integers(1, 20), st.integers(1, 20), st.integers(0, 10 ** 6))
    @settings(max_examples=50, deadline=None)
    def test_matches_numpy_unravel(self, w, h, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        v = rng.random((h, w))
        y, x = np.unravel_index(int(np.argmax(v)), v.shape)
        assert argmax(Heatmap(values=v)) == (int(x), int(y))


class TestTop2:
    def test_interior_gaussian_four_way_tie(self):
        g = render_gaussian((30, 30), GaussianSpec(1.5), (64, 64))
        best, seconds = top2(g)
        assert best == (30, 30)
        assert seconds == [(30, 29), (29, 30), (31, 30), (30, 31)]

    def test_corner_gaussian_two_way_tie(self):
        g = render_gaussian((0, 0), GaussianSpec(1.5), (64, 64))
        best, seconds = top2(g)
        assert best == (0, 0)
        assert seconds == [(1, 0), (0, 1)]

    def test_explicit_values_example(self):
        v = np.array([[1.0, 0.9, 0.9, 0.1]])
        best, seconds = top2(Heatmap(values=v))
        assert best == (0, 0)
        assert seconds == [(1, 0), (2, 0)]

    def test_strict_ramp_single_second(self):
        v = np.arange(12, dtype=np.float64).reshape(3, 4)
        best, seconds = top2(Heatmap(values=v))
        assert best == (3, 2)
        assert seconds == [(2, 2)]

    def test_duplicate_max_counts_as_second(self):
        v = np.zeros((2, 3))
        v[0, 0] = 1.0
        v[1, 2] = 1.0
        best, seconds = top2(Heatmap(values=v))
        assert best == (0, 0)
        assert seconds == [(2, 1)]

    def test_tie_eps_widens_set(self):
        v = np.array([[1.0, 0.9, 0.9 - 1e-12, 0.1]])
        _, seconds_tight = top2(Heatmap(values=v), tie_eps=1e-15)
        _, seconds_loose = top2(Heatmap(values=v), tie_eps=1e-9)
        assert seconds_tight == [(1, 0)]
        assert seconds_loose == [(1, 0), (2, 0)]

    def test_too_small_grid_rejected(self):
        with pytest.raises(ConfigError):
            top2(Heatmap(values=np.ones((1, 1))))
