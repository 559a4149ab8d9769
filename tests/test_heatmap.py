"""Heatmap rendering and peak lookup, through the codec's own kernels.

Maps are the ones ``encode_points`` renders and are checked against a
brute-force oracle; peaks are read by ``direct`` and ``wsm`` decodes of
hand-built maps.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_gaussian, decode_hand_built, hand_built
from subpix.codec import CodecConfig, EncodedSample, Scheme, decode, encode_points
from subpix.errors import ConfigError, SchemaError

GRID = (64, 64)

# Frozen expected values, computed by hand before implementation:
# exp(-1/2) for the 4-neighbor of a sigma=1 gaussian.
NEIGHBOR_SIGMA1 = 0.6065306597126334
# exp(-1/(2*1.5^2)) = exp(-2/9) for sigma = 1.5.
NEIGHBOR_SIGMA15 = 0.8007374029168081


def rendered(center, sigma: float, shape=GRID) -> np.ndarray:
    """The integer map ``direct`` renders for a landmark on cell ``center``."""
    cfg = CodecConfig(scheme=Scheme.DIRECT, heatmap_shape=shape, sigma_integer=sigma)
    return encode_points(np.array([center], dtype=np.float64), cfg).integer_maps[0]


class TestGaussianSpec:
    def test_truncation_radius(self):
        # 3 * 1.5 = 4.5: Chebyshev offset 4 is inside, 5 is outside
        g = rendered((30, 30), 1.5)
        assert g[30, 34] > 0.0 and g[34, 34] > 0.0
        assert g[30, 35] == 0.0 and g[35, 30] == 0.0

    def test_nonpositive_sigma_rejected(self):
        for field in ("sigma_integer", "sigma_decimal"):
            with pytest.raises(ConfigError):
                CodecConfig(scheme=Scheme.HIH, **{field: 0.0})


class TestHeatmapContainer:
    def test_shape_accessors(self):
        # heatmap_shape is (width, height), matching point order; maps are [y, x]
        cfg = CodecConfig(scheme=Scheme.DIRECT, heatmap_shape=(6, 4))
        enc = encode_points(np.array([[5.0, 3.0]]), cfg)
        assert enc.heatmap_shape == (6, 4)
        assert enc.integer_maps.shape == (1, 4, 6)
        assert enc.integer_maps[0, 3, 5] == 1.0

    def test_nonfinite_rejected(self):
        d = encode_points(np.array([[1.5, 2.5]]), CodecConfig(scheme=Scheme.DIRECT)).to_json_dict()
        d["integer_cells"] = ["0,0,0,inf"]
        with pytest.raises(SchemaError) as err:
            EncodedSample.from_json_dict(d)
        assert "integer_cells" in str(err.value)

    def test_wrong_ndim_rejected(self):
        with pytest.raises(ConfigError):
            EncodedSample(scheme=Scheme.DIRECT, heatmap_shape=GRID,
                          integer_maps=np.zeros(5), clamped=[False])


class TestRenderGaussian:
    def test_peak_exactly_one(self):
        g = rendered((5, 5), 1.0, (8, 8))
        assert g[5, 5] == 1.0
        assert (g == 1.0).sum() == 1

    def test_neighbor_value_sigma1(self):
        g = rendered((5, 5), 1.0, (8, 8))
        assert g[5, 6] == pytest.approx(NEIGHBOR_SIGMA1, abs=1e-15)

    def test_neighbor_value_sigma15(self):
        g = rendered((30, 30), 1.5)
        assert g[30, 31] == pytest.approx(NEIGHBOR_SIGMA15, abs=1e-15)

    def test_outside_truncation_zero(self):
        # 3*sigma = 3 for sigma 1: offset 4 on an axis is outside
        g = rendered((5, 5), 1.0, (16, 16))
        assert g[5, 9] == 0.0
        assert g[5, 8] > 0.0  # offset 3 is inside (<= comparison)

    @pytest.mark.parametrize("center", [(30, 30), (0, 0), (63, 63), (2, 60)])
    @pytest.mark.parametrize("sigma", [1.0, 1.5])
    def test_matches_brute_force(self, center, sigma):
        np.testing.assert_array_equal(rendered(center, sigma),
                                      brute_force_gaussian(center, sigma, GRID))

    @pytest.mark.parametrize("sigma", [0.7, 2.3, 3.1])
    def test_matches_brute_force_any_sigma_within_ulp(self, sigma):
        # vectorized exp may differ from scalar libm in the last bit
        np.testing.assert_array_max_ulp(rendered((20, 25), sigma),
                                        brute_force_gaussian((20, 25), sigma, GRID),
                                        maxulp=1)

    def test_matches_brute_force_rect_grid(self):
        np.testing.assert_array_equal(rendered((3, 9), 1.5, (8, 12)),
                                      brute_force_gaussian((3, 9), 1.5, (8, 12)))

    def test_symmetry(self):
        g = rendered((20, 20), 1.5)
        for dx, dy in [(1, 0), (0, 1), (2, 1), (3, 3)]:
            assert g[20 + dy, 20 + dx] == g[20 - dy, 20 - dx]

    def test_offgrid_center_clamped(self):
        g = rendered((-3, 70), 1.0)
        assert g[63, 0] == 1.0

    def test_clamp_cell_flags(self):
        enc = encode_points(np.array([[-3.0, 70.0], [5.0, 5.0]]),
                            CodecConfig(scheme=Scheme.DIRECT))
        assert list(enc.clamped) == [True, False]

    def test_values_in_unit_interval(self):
        g = rendered((10, 50), 2.0)
        assert g.min() >= 0.0 and g.max() == 1.0

    def test_zero_grid_rejected(self):
        with pytest.raises(ConfigError):
            CodecConfig(scheme=Scheme.DIRECT, heatmap_shape=(0, 8))


class TestArgmax:
    """``direct`` decodes the peak cell; ties go to the smallest row-major index."""

    def test_single_peak(self):
        v = np.zeros((64, 64))
        v[20, 32] = 1.0
        xy, tie = decode_hand_built(v, Scheme.DIRECT)
        assert list(xy) == [32.0, 20.0] and not tie

    def test_all_equal_breaks_to_origin(self):
        xy, tie = decode_hand_built(np.ones((4, 4)), Scheme.DIRECT)
        assert list(xy) == [0.0, 0.0] and tie

    def test_tie_breaks_row_major(self):
        v = np.zeros((4, 4))
        v[1, 3] = 1.0
        v[2, 0] = 1.0
        # flat index 7 before flat index 8
        xy, tie = decode_hand_built(v, Scheme.DIRECT)
        assert list(xy) == [3.0, 1.0] and tie

    def test_rendered_center_recovered(self):
        cfg = CodecConfig(scheme=Scheme.DIRECT)
        pts = np.array([[0.0, 0.0], [63.0, 63.0], [17.0, 44.0]])
        dec = decode(encode_points(pts, cfg))
        np.testing.assert_array_equal(dec.points * 64.0, pts)
        assert not dec.tie_encountered.any()

    @given(st.integers(2, 20), st.integers(2, 20), st.integers(0, 10 ** 6))
    @settings(max_examples=50, deadline=None)
    def test_matches_numpy_unravel(self, w, h, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        v = rng.random((h, w))
        y, x = np.unravel_index(int(np.argmax(v)), v.shape)
        dec = decode(hand_built(v, Scheme.DIRECT))
        assert list(dec.points[0]) == [x / w, y / h]


class TestTop2:
    """``wsm`` shifts a quarter cell toward a unique second place, else not at all."""

    def test_interior_gaussian_four_way_tie(self):
        xy, tie = decode_hand_built(rendered((30, 30), 1.5))
        assert list(xy) == [30.0, 30.0] and tie

    def test_corner_gaussian_two_way_tie(self):
        xy, tie = decode_hand_built(rendered((0, 0), 1.5))
        assert list(xy) == [0.0, 0.0] and tie

    def test_explicit_values_example(self):
        xy, tie = decode_hand_built([[1.0, 0.9, 0.9, 0.1], [0.0] * 4])
        assert list(xy) == [0.0, 0.0] and tie

    def test_strict_ramp_single_second(self):
        v = np.arange(8, dtype=np.float64).reshape(2, 4)
        xy, tie = decode_hand_built(v)
        assert list(xy) == [2.75, 1.0] and not tie

    def test_duplicate_max_counts_as_second(self):
        v = np.zeros((2, 4))
        v[0, 0] = 1.0
        v[1, 2] = 1.0
        xy, tie = decode_hand_built(v)
        np.testing.assert_allclose(xy, 0.25 * np.array([2.0, 1.0]) / np.sqrt(5.0),
                                   rtol=0, atol=1e-15)
        assert not tie

    def test_tie_eps_widens_set(self):
        # seconds 1e-12 apart tie; 1e-6 apart the larger one wins alone
        xy, tie = decode_hand_built([[1.0, 0.9, 0.9 - 1e-12, 0.1], [0.0] * 4])
        assert list(xy) == [0.0, 0.0] and tie
        xy, tie = decode_hand_built([[1.0, 0.9, 0.9 - 1e-6, 0.1], [0.0] * 4])
        assert list(xy) == [0.25, 0.0] and not tie

    def test_too_small_grid_rejected(self):
        with pytest.raises(ConfigError):
            CodecConfig(scheme=Scheme.WSM, heatmap_shape=(1, 1))
