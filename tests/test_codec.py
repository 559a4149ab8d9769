"""Codec tests: quantization arithmetic, scheme payloads, serialization.

The frozen constants in this file were computed by hand or by independent
enumeration before the implementation existed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (brute_force_gaussian, decode_hand_built, hand_built, one_face,
                      peak_cell)
from subpix.bench import BenchConfig, build_samples, run_ideal
from subpix.codec import (SCHEME_ORDER, CodecConfig, DecimalOverflow,
                          EncodedSample, OobPolicy, Scheme, decode, encode,
                          encode_points, ideal_roundtrip)
from subpix.datasets import Corpus
from subpix.errors import ConfigError, SchemaError
from subpix.geometry import (FaceBatch, LandmarkSet, Space, apply_transform,
                             crop_from_landmarks, downsample_factor,
                             heatmap_transform)
from subpix.metrics import MetricsConfig

GRID = (64, 64)


def cfg_for(scheme, **kw) -> CodecConfig:
    return CodecConfig(scheme=scheme, **kw)


def _heatmap_points(seed: int, n: int, lo: float = 0.0, hi: float = 64.0) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.uniform(lo, hi, size=(n, 2))


def _wov(point, **kw) -> tuple[tuple[int, int], np.ndarray, bool, bool]:
    """Cell, stored fraction, clamp and valid flags of one ``wov`` encode."""
    enc = encode_points(np.array([point]), cfg_for(Scheme.WOV, **kw))
    return peak_cell(enc.integer_maps[0]), enc.offsets[0], enc.clamped[0], enc.valid[0]


def _hih(point, **kw) -> tuple[tuple[int, int], bool]:
    """Decimal-map peak and clamp flag of one ``hih`` encode."""
    enc = encode_points(np.array([point]), cfg_for(Scheme.HIH, **kw))
    return peak_cell(enc.decimal_maps[0]), enc.clamped[0]


@st.composite
def _roundtrip_cases(draw):
    """A codec config on a small rectangular grid, points around it, and
    optionally a caller valid mask and group labels.

    Coordinates are a cell from just outside the grid plus a fraction that
    is often exact: 0, a half, or just below 1, where rounding carries.
    Rows the caller marks invalid may hold NaN.
    """
    w, h = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    cfg = CodecConfig(scheme=draw(st.sampled_from(SCHEME_ORDER)), heatmap_shape=(w, h),
                      decimal_shape=(draw(st.integers(1, 9)), draw(st.integers(1, 9))),
                      oob_policy=draw(st.sampled_from(list(OobPolicy))),
                      decimal_overflow=draw(st.sampled_from(list(DecimalOverflow))))
    n = draw(st.integers(1, 24))
    fraction = (st.floats(0.0, 1.0, exclude_max=True)
                | st.sampled_from([0.0, 0.5, 1.0 - 2.0 ** -53, 1.0 - 1e-9]))
    pts = np.array([[draw(st.integers(-2, side + 1)) + draw(fraction) for side in (w, h)]
                    for _ in range(n)])
    valid = None
    if draw(st.booleans()):
        valid = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        if draw(st.booleans()):
            pts[~valid] = np.nan
    groups = None
    if draw(st.booleans()):
        groups = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    return cfg, pts, valid, groups


class TestRelativeOffset:
    """The floor/fraction split the offset schemes store, read from ``wov``."""

    def test_fractional_point(self):
        cell, off, clamped, _ = _wov((32.65, 20.30))
        assert cell == (32, 20)
        assert tuple(off) == pytest.approx((0.65, 0.30), abs=1e-12)
        assert not clamped

    def test_integer_point(self):
        cell, off, clamped, _ = _wov((7.0, 3.0))
        assert cell == (7, 3)
        assert tuple(off) == (0.0, 0.0)
        assert not clamped

    def test_negative_point_clamped(self):
        cell, off, clamped, _ = _wov((-0.2, 5.5))
        assert cell == (0, 5)
        assert tuple(off) == pytest.approx((0.0, 0.5), abs=1e-12)
        assert clamped

    def test_drop_policy_rejects_outside(self):
        *_, valid = _wov((-0.2, 5.5), oob_policy=OobPolicy.DROP)
        assert not valid
        cell, _, clamped, valid = _wov((0.2, 5.5), oob_policy=OobPolicy.DROP)
        assert cell == (0, 5) and not clamped and valid

    def test_nonfinite_rejected(self):
        with pytest.raises(ConfigError):
            _wov((np.nan, 1.0))

    @given(st.floats(0.0, 63.999999), st.floats(0.0, 63.999999))
    @settings(max_examples=200, deadline=None)
    def test_decomposition_is_exact(self, x, y):
        # cell + offset reproduces the input bit for bit (Sterbenz)
        cell, off, _, _ = _wov((x, y))
        assert cell[0] + off[0] == x
        assert cell[1] + off[1] == y
        assert 0.0 <= off[0] < 1.0 and 0.0 <= off[1] < 1.0
        coords, _, _ = ideal_roundtrip(np.array([[x, y]]), cfg_for(Scheme.WOV))
        assert list(coords[0]) == [x, y]


class TestDecimalCenter:
    """Nearest decimal-grid step of the fraction, read from ``hih``."""

    def test_interior_rounding(self):
        assert _hih((32.65, 20.30)) == ((5, 2), False)

    def test_zero_offset(self):
        assert _hih((10.0, 20.0)) == ((0, 0), False)

    def test_overflow_clamps_and_flags(self):
        assert _hih((10.97, 20.99), decimal_overflow=DecimalOverflow.CLAMP) == ((7, 7), True)

    def test_half_rounds_up(self):
        q, _ = _hih((10.5, 20.5))
        assert q == (4, 4)

    def test_clamp_frequency_matches_enumeration(self):
        # exactly the fractions >= 15/16 round past the last index
        fr = np.arange(0, 1024) / 1024.0
        pts = np.stack([10.0 + fr, np.full(1024, 20.0)], axis=1)
        cfg = cfg_for(Scheme.HIH, decimal_overflow=DecimalOverflow.CLAMP)
        _, clamped, _ = ideal_roundtrip(pts, cfg)
        assert int(clamped.sum()) == int(np.count_nonzero(fr >= 15.0 / 16.0))

    def test_out_of_range_rejected(self):
        # positions off the grid never reach the quantizer with a fraction
        # outside [0, 1): they are pinned to the border step and flagged
        assert _hih((-0.1, 5.0)) == ((0, 0), True)
        assert _hih((70.0, 5.0)) == ((7, 0), True)


class TestCodecConfig:
    def test_defaults(self):
        c = cfg_for(Scheme.HIH)
        assert c.heatmap_shape == (64, 64)
        assert c.decimal_shape == (8, 8)
        assert c.sigma_integer == 1.5
        assert c.sigma_decimal == 1.0
        assert c.oob_policy is OobPolicy.CLAMP
        assert c.decimal_overflow is DecimalOverflow.CARRY

    def test_for_scheme(self):
        c = cfg_for(Scheme.DIRECT, sigma_integer=1.0)
        d = c.for_scheme(Scheme.HIH)
        assert d.scheme is Scheme.HIH and d.sigma_integer == 1.0

    def test_string_coercion(self):
        assert cfg_for("wov").scheme is Scheme.WOV

    def test_bad_shapes_rejected(self):
        with pytest.raises(ConfigError):
            cfg_for(Scheme.DIRECT, heatmap_shape=(1, 64))
        with pytest.raises(ConfigError):
            cfg_for(Scheme.HIH, decimal_shape=(0, 8))

    @pytest.mark.parametrize("key", ["heatmap_shape", "decimal_shape"])
    def test_grid_capped_at_stack_limit(self, key):
        cfg_for(Scheme.HIH, **{key: (1 << 13, 1 << 13)})
        with pytest.raises(ConfigError, match="exceeds the limit"):
            cfg_for(Scheme.HIH, **{key: ((1 << 13) + 1, 1 << 13)})
        with pytest.raises(ConfigError, match="exceeds the limit"):
            cfg_for(Scheme.DIRECT, **{key: (2 ** 62, 2 ** 62)})

    def test_bad_sigma_rejected(self):
        with pytest.raises(ConfigError):
            cfg_for(Scheme.DIRECT, sigma_integer=-1.0)
        # 2 sigma^2 would underflow to 0 or overflow to inf in the render
        for sigma in (5e-324, 1e-151, 1e151, 1e308):
            for key in ("sigma_integer", "sigma_decimal"):
                with pytest.raises(ConfigError, match=f"{key} must lie in"):
                    cfg_for(Scheme.HIH, **{key: sigma})


class TestCellConventions:
    def test_direct_rounds_to_nearest(self):
        enc = encode_points(np.array([[32.65, 20.30]]), cfg_for(Scheme.DIRECT))
        assert peak_cell(enc.integer_maps[0]) == (33, 20)

    def test_direct_round_half_up(self):
        enc = encode_points(np.array([[10.5, 11.5]]), cfg_for(Scheme.DIRECT))
        assert peak_cell(enc.integer_maps[0]) == (11, 12)

    def test_offset_schemes_floor(self):
        for scheme in (Scheme.WOV, Scheme.WOM, Scheme.HIH):
            enc = encode_points(np.array([[32.65, 20.30]]), cfg_for(scheme))
            assert peak_cell(enc.integer_maps[0]) == (32, 20), scheme

    def test_hih_payload_peaks(self):
        enc = encode_points(np.array([[32.65, 20.30]]), cfg_for(Scheme.HIH))
        assert peak_cell(enc.integer_maps[0]) == (32, 20)
        assert peak_cell(enc.decimal_maps[0]) == (5, 2)

    def test_direct_residual_bound_non_clamped(self):
        pts = _heatmap_points(3, 500, 0.0, 63.49)
        coords, clamped, _ = ideal_roundtrip(pts, cfg_for(Scheme.DIRECT))
        assert not clamped.any()
        assert np.abs(coords - pts).max() <= 0.5


class TestWovExactness:
    def test_roundtrip_bit_exact(self):
        pts = _heatmap_points(7, 300)
        coords, clamped, conflicts = ideal_roundtrip(pts, cfg_for(Scheme.WOV))
        assert conflicts == 0 and not clamped.any()
        np.testing.assert_array_equal(coords, pts)

    def test_offsets_stored_in_unit_interval(self):
        pts = _heatmap_points(8, 100)
        enc = encode_points(pts, cfg_for(Scheme.WOV))
        assert enc.offsets.min() >= 0.0
        assert enc.offsets.max() < 1.0


class TestWsm:
    def _manual(self, values, shape=(8, 8)):
        grid = np.zeros((shape[1], shape[0]))
        for (x, y), v in values.items():
            grid[y, x] = v
        return hand_built(grid)

    def test_unique_second_quarter_shift(self):
        enc = self._manual({(4, 4): 1.0, (5, 4): 0.8, (3, 4): 0.5})
        dec = decode(enc)
        np.testing.assert_allclose(dec.landmarks.points[0],
                                   [(4 + 0.25) / 8, 4 / 8], atol=1e-15)
        assert not dec.tie_encountered[0]

    def test_diagonal_second_normalized_shift(self):
        enc = self._manual({(4, 4): 1.0, (5, 5): 0.8, (3, 4): 0.5})
        dec = decode(enc)
        s = 0.25 / np.sqrt(2.0)
        np.testing.assert_allclose(dec.landmarks.points[0],
                                   [(4 + s) / 8, (4 + s) / 8], atol=1e-15)

    def test_tied_seconds_suppress_shift(self):
        enc = self._manual({(4, 4): 1.0, (5, 4): 0.8, (3, 4): 0.8})
        dec = decode(enc)
        np.testing.assert_allclose(dec.landmarks.points[0], [0.5, 0.5], atol=1e-15)
        assert dec.tie_encountered[0]

    @pytest.mark.parametrize("f", [0.1, 0.3, 0.45])
    def test_off_centre_peak_shifts_toward_second(self, f):
        # a continuous gaussian at (7 + f, 9): cell 8 is strictly closer than
        # cell 6 or the vertical neighbours, so it is the one second place
        xs = np.arange(16, dtype=np.float64)
        d2 = (xs[None, :] - (7.0 + f)) ** 2 + (xs[:, None] - 9.0) ** 2
        xy, tie = decode_hand_built(np.exp(-d2 / (2.0 * 1.5 ** 2)))
        assert list(xy) == [7.25, 9.0]
        assert not tie

    def test_ideal_maps_always_tie(self):
        pts = _heatmap_points(9, 200)
        cfg = cfg_for(Scheme.WSM)
        dec = decode(encode_points(pts, cfg))
        assert dec.tie_encountered.all()

    def test_equals_direct_on_ideal_maps(self):
        pts = _heatmap_points(10, 200)
        a = decode(encode_points(pts, cfg_for(Scheme.WSM)))
        b = decode(encode_points(pts, cfg_for(Scheme.DIRECT)))
        np.testing.assert_array_equal(a.landmarks.points, b.landmarks.points)


class TestWom:
    def test_distinct_cells_roundtrip_exact(self):
        pts = np.array([[10.2, 11.7], [20.9, 5.1], [33.0, 60.5]])
        coords, _, conflicts = ideal_roundtrip(pts, cfg_for(Scheme.WOM))
        assert conflicts == 0
        np.testing.assert_array_equal(coords, pts)

    def test_collision_counts_and_last_writer_wins(self):
        pts = np.array([[10.25, 11.75], [10.75, 11.25]])
        cfg = cfg_for(Scheme.WOM)
        enc = encode_points(pts, cfg)
        assert enc.conflict_count == 1
        assert enc.offset_map_x[11, 10] == pytest.approx(0.75)
        assert enc.offset_map_y[11, 10] == pytest.approx(0.25)
        dec = decode(enc)
        hm = dec.landmarks.points * 64.0
        # both landmarks decode to the second landmark's position
        np.testing.assert_allclose(hm[0], [10.75, 11.25], atol=1e-12)
        np.testing.assert_allclose(hm[1], [10.75, 11.25], atol=1e-12)

    def test_triple_collision_counts_two(self):
        pts = np.array([[5.1, 5.1], [5.2, 5.2], [5.3, 5.3]])
        enc = encode_points(pts, cfg_for(Scheme.WOM))
        assert enc.conflict_count == 2

    def test_offset_maps_zero_off_landmark_cells(self):
        pts = np.array([[10.25, 11.75], [40.5, 50.5]])
        enc = encode_points(pts, cfg_for(Scheme.WOM))
        nonzero = np.count_nonzero(enc.offset_map_x) + np.count_nonzero(enc.offset_map_y)
        assert nonzero == 4  # two cells, two axes

    def test_nonzero_error_implies_conflict(self):
        rng = np.random.Generator(np.random.PCG64(21))
        for trial in range(30):
            pts = rng.uniform(0, 64, size=(12, 2))
            coords, _, conflicts = ideal_roundtrip(pts, cfg_for(Scheme.WOM))
            err = np.abs(coords - pts).max()
            if err > 1e-12:
                assert conflicts > 0

    def test_groups_isolate_samples(self):
        # same cell in two different groups: no conflict
        pts = np.array([[10.25, 11.75], [10.75, 11.25]])
        _, _, conflicts = ideal_roundtrip(pts, cfg_for(Scheme.WOM),
                                          groups=np.array([0, 1]))
        assert conflicts == 0
        _, _, conflicts = ideal_roundtrip(pts, cfg_for(Scheme.WOM),
                                          groups=np.array([0, 0]))
        assert conflicts == 1


class TestHih:
    def test_decode_example(self):
        cfg = cfg_for(Scheme.HIH)
        coords, _, _ = ideal_roundtrip(np.array([[32.65, 20.30]]), cfg)
        np.testing.assert_allclose(coords[0] / 64.0,
                                   [0.509765625, 0.31640625], rtol=0, atol=0)

    def test_residual_example(self):
        cfg = cfg_for(Scheme.HIH)
        pts = np.array([[12.65, 40.30]])
        coords, _, _ = ideal_roundtrip(pts, cfg)
        want = np.hypot(0.65 - 5 / 8, 0.30 - 2 / 8)
        got = float(np.linalg.norm(coords[0] - pts[0]))
        assert got == pytest.approx(want, rel=1e-9)
        assert got == pytest.approx(0.0559016994, abs=1e-9)

    def test_carry_moves_to_next_cell(self):
        cfg = cfg_for(Scheme.HIH)
        coords, clamped, _ = ideal_roundtrip(np.array([[31.97, 20.5]]), cfg)
        assert coords[0, 0] == 32.0   # carried: cell 31 -> 32, q = 0
        assert coords[0, 1] == 20.5
        assert not clamped[0]

    def test_carry_at_grid_edge_clamps_back(self):
        cfg = cfg_for(Scheme.HIH)
        coords, clamped, _ = ideal_roundtrip(np.array([[63.99, 5.0]]), cfg)
        assert coords[0, 0] == 63.875  # pinned to the last decimal step
        assert clamped[0]

    def test_clamp_mode_keeps_cell(self):
        cfg = cfg_for(Scheme.HIH, decimal_overflow=DecimalOverflow.CLAMP)
        coords, clamped, _ = ideal_roundtrip(np.array([[31.97, 20.5]]), cfg)
        assert coords[0, 0] == 31.875
        assert clamped[0]

    def test_residual_bounds_offset_lattice(self):
        # interior cell: every per-axis residual <= half a decimal step
        for wo in (4, 8, 16):
            cfg = cfg_for(Scheme.HIH, decimal_shape=(wo, wo))
            fr = (np.arange(256) + 0.5) / 256.0
            pts = np.stack([10.0 + fr, 20.0 + fr[::-1]], axis=1)
            coords, clamped, _ = ideal_roundtrip(pts, cfg)
            assert not clamped.any()
            assert np.abs(coords - pts).max() <= 0.5 / wo + 1e-12

    def test_residual_bound_edge_cell(self):
        # last cell: the carry clamps back, residual within one decimal step
        cfg = cfg_for(Scheme.HIH)
        fr = (np.arange(256) + 0.5) / 256.0
        pts = np.stack([63.0 + fr, np.full(256, 5.0)], axis=1)
        coords, clamped, _ = ideal_roundtrip(pts, cfg)
        resid = np.abs(coords - pts).max(axis=1)
        assert resid.max() <= 1.0 / 8 + 1e-12
        assert clamped.any()
        assert resid[~clamped].max() <= 0.5 / 8 + 1e-12

    def test_finer_decimal_grid_reduces_error(self):
        pts = _heatmap_points(13, 400)
        errs = []
        for wo in (4, 8, 16):
            cfg = cfg_for(Scheme.HIH, decimal_shape=(wo, wo))
            coords, _, _ = ideal_roundtrip(pts, cfg)
            errs.append(float(np.nanmean(np.linalg.norm(coords - pts, axis=1))))
        assert errs[0] > errs[1] > errs[2]


class TestRenderedMaps:
    # a Gaussian far wider than the grid renders only the grid's cells
    @pytest.mark.parametrize("sigma", [1.0, 1.5, 2.3, 1e6, 1e150])
    def test_integer_maps_match_single_render(self, sigma):
        pts = np.array([[10.0, 20.0], [0.0, 0.0], [63.0, 5.0], [33.4, 21.9]])
        cfg = cfg_for(Scheme.WOV, sigma_integer=sigma)
        enc = encode_points(pts, cfg)
        # vectorized exp may differ from scalar libm in the last bit
        maxulp = 0 if sigma in (1.0, 1.5) else 1
        for k in range(len(pts)):
            cell = tuple(np.floor(pts[k]).astype(int))
            np.testing.assert_array_max_ulp(enc.integer_maps[k],
                                            brute_force_gaussian(cell, sigma, GRID),
                                            maxulp=maxulp)

    def test_decimal_maps_match_single_render(self):
        cfg = cfg_for(Scheme.HIH)
        enc = encode_points(np.array([[32.65, 20.30]]), cfg)
        np.testing.assert_array_equal(enc.decimal_maps[0],
                                      brute_force_gaussian((5, 2), 1.0, (8, 8)))

    def test_invalid_landmark_map_is_zero(self):
        pts = np.array([[np.nan, np.nan], [10.0, 10.0]])
        enc = encode_points(pts, cfg_for(Scheme.DIRECT),
                            valid=np.array([False, True]))
        assert not enc.integer_maps[0].any()
        assert enc.integer_maps[1].max() == 1.0


class TestOobPolicies:
    def test_clamp_flags_outside_points(self):
        pts = np.array([[-5.0, 10.0], [10.0, 10.0]])
        enc = encode_points(pts, cfg_for(Scheme.WOV))
        assert list(enc.clamped) == [True, False]
        assert enc.valid.all()

    def test_drop_invalidates_outside_points(self):
        pts = np.array([[-5.0, 10.0], [10.0, 10.0]])
        cfg = cfg_for(Scheme.WOV, oob_policy=OobPolicy.DROP)
        enc = encode_points(pts, cfg)
        assert list(enc.valid) == [False, True]
        dec = decode(enc)
        assert np.isnan(dec.landmarks.points[0]).all()
        assert np.isfinite(dec.landmarks.points[1]).all()

    def test_domain_boundary(self):
        inside = np.array([[63.999, 63.999]])
        outside = np.array([[64.0, 10.0]])
        assert not encode_points(inside, cfg_for(Scheme.WOV)).clamped[0]
        assert encode_points(outside, cfg_for(Scheme.WOV)).clamped[0]

    def test_direct_flags_rounding_past_last_cell(self):
        # 63.9 is in-domain but rounds to cell 64; the clip must be flagged
        # so the half-cell residual bound stays conditional on not-clamped
        enc = encode_points(np.array([[63.9, 10.0]]), cfg_for(Scheme.DIRECT))
        assert enc.clamped[0]
        assert peak_cell(enc.integer_maps[0]) == (63, 10)
        enc = encode_points(np.array([[63.4, 10.0]]), cfg_for(Scheme.DIRECT))
        assert not enc.clamped[0]

    def test_clamped_wov_decodes_to_border(self):
        pts = np.array([[70.0, 10.5]])
        cfg = cfg_for(Scheme.WOV)
        coords, clamped, _ = ideal_roundtrip(pts, cfg)
        assert clamped[0]
        # stored offset is nextafter(1, 0); 63 + that rounds to 64.0 exactly
        assert coords[0, 0] == pytest.approx(64.0, abs=1e-12)
        assert coords[0, 1] == 10.5


class TestGridMatchesIdealRoundtrip:
    @pytest.mark.parametrize("scheme", SCHEME_ORDER)
    def test_bit_equivalence(self, scheme):
        pts = np.vstack([
            _heatmap_points(17, 400),
            np.array([[0.0, 0.0], [63.999, 63.999], [0.5, 63.5],
                      [31.97, 20.5], [32.65, 20.30], [10.0, 10.0]]),
        ])
        cfg = cfg_for(scheme)
        enc = encode_points(pts, cfg)
        dec = decode(enc)
        grid_coords = dec.landmarks.points * np.array(GRID, dtype=np.float64)
        ideal_coords, clamped, conflicts = ideal_roundtrip(pts, cfg)
        np.testing.assert_array_equal(grid_coords, ideal_coords)
        np.testing.assert_array_equal(dec.clamped, clamped)
        assert conflicts == enc.conflict_count

    @pytest.mark.parametrize("scheme", SCHEME_ORDER)
    def test_bit_equivalence_drop_policy(self, scheme):
        pts = np.vstack([
            _heatmap_points(18, 100, -5.0, 70.0),
        ])
        cfg = cfg_for(scheme, oob_policy=OobPolicy.DROP)
        enc = encode_points(pts, cfg)
        dec = decode(enc)
        grid_coords = dec.landmarks.points * np.array(GRID, dtype=np.float64)
        ideal_coords, _, _ = ideal_roundtrip(pts, cfg)
        np.testing.assert_array_equal(grid_coords, ideal_coords)

    @given(case=_roundtrip_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_grid_path_everywhere(self, case):
        # the grid-free round trip against rendering and decoding, one
        # encode_points per group, on any grid and policy pair
        cfg, pts, valid, groups = case
        coords, clamped, conflicts = ideal_roundtrip(pts, cfg, valid=valid, groups=groups)
        labels = np.zeros(len(pts), dtype=np.int64) if groups is None else groups
        grid = np.full_like(pts, np.nan)
        grid_clamped = np.zeros(len(pts), dtype=bool)
        grid_conflicts = 0
        for g in np.unique(labels):
            rows = labels == g
            enc = encode_points(pts[rows], cfg, valid=None if valid is None else valid[rows])
            dec = decode(enc)
            grid[rows] = dec.landmarks.points
            grid_clamped[rows] = dec.clamped
            grid_conflicts += enc.conflict_count
        # decode divides by the grid size; so does bench-ideal before mapping back
        np.testing.assert_array_equal(coords / np.array(cfg.heatmap_shape, dtype=np.float64),
                                      grid)
        np.testing.assert_array_equal(clamped, grid_clamped)
        assert conflicts == grid_conflicts


class TestEncodedSampleValidation:
    def _direct(self, n=2):
        return encode_points(_heatmap_points(19, n), cfg_for(Scheme.DIRECT))

    def test_payload_scheme_mismatch_rejected(self):
        enc = self._direct()
        with pytest.raises(ConfigError):
            EncodedSample(scheme=Scheme.DIRECT, heatmap_shape=GRID,
                          integer_maps=enc.integer_maps, valid=enc.valid,
                          clamped=enc.clamped, offsets=np.zeros((2, 2)))

    def test_missing_payload_rejected(self):
        enc = self._direct()
        with pytest.raises(ConfigError):
            EncodedSample(scheme=Scheme.WOV, heatmap_shape=GRID,
                          integer_maps=enc.integer_maps, valid=enc.valid,
                          clamped=enc.clamped)

    @pytest.mark.parametrize("shape", [(1, 8), (8, 1), (1, 1)])
    def test_grid_below_two_cells_rejected(self, shape):
        # the payload holds the same 2x2 floor as CodecConfig
        w, h = shape
        maps = np.zeros((1, h, w))
        maps[0, 0, 0] = 1.0
        with pytest.raises(ConfigError, match="at least 2x2"):
            EncodedSample(scheme=Scheme.DIRECT, heatmap_shape=shape, integer_maps=maps,
                          valid=[True], clamped=[False])

    def test_decimal_grid_below_one_cell_rejected(self):
        enc = encode_points(_heatmap_points(19, 1), cfg_for(Scheme.HIH))
        with pytest.raises(ConfigError, match="at least 1x1"):
            EncodedSample(scheme=Scheme.HIH, heatmap_shape=GRID,
                          integer_maps=enc.integer_maps, valid=enc.valid,
                          clamped=enc.clamped, decimal_shape=(0, 8),
                          decimal_maps=np.zeros((1, 8, 0)))

    def test_oversized_encode_refused_before_allocating(self):
        huge = 1 << 62
        with pytest.raises(ConfigError, match="exceeds the limit"):
            encode_points(np.array([[1.5, 2.5]]),
                          cfg_for(Scheme.DIRECT, heatmap_shape=(huge, huge)))
        with pytest.raises(ConfigError, match="exceeds the limit"):
            encode_points(np.array([[1.5, 2.5]]),
                          cfg_for(Scheme.HIH, decimal_shape=(huge, huge)))


class TestJsonRoundTrip:
    @pytest.mark.parametrize("scheme", SCHEME_ORDER)
    def test_lossless(self, scheme):
        pts = np.vstack([_heatmap_points(23, 40),
                         np.array([[10.25, 11.75], [10.75, 11.25]])])
        enc = encode_points(pts, cfg_for(scheme))
        back = EncodedSample.from_json(enc.to_json())
        assert back.scheme is enc.scheme
        np.testing.assert_array_equal(back.integer_maps, enc.integer_maps)
        np.testing.assert_array_equal(back.valid, enc.valid)
        np.testing.assert_array_equal(back.clamped, enc.clamped)
        if scheme is Scheme.WOV:
            np.testing.assert_array_equal(back.offsets, enc.offsets)
        if scheme is Scheme.WOM:
            np.testing.assert_array_equal(back.offset_map_x, enc.offset_map_x)
            np.testing.assert_array_equal(back.offset_map_y, enc.offset_map_y)
            assert back.conflict_count == enc.conflict_count
        if scheme is Scheme.HIH:
            assert back.decimal_shape == enc.decimal_shape
            np.testing.assert_array_equal(back.decimal_maps, enc.decimal_maps)

    def test_serialization_deterministic(self):
        pts = _heatmap_points(29, 10)
        a = encode_points(pts, cfg_for(Scheme.HIH)).to_json()
        b = encode_points(pts, cfg_for(Scheme.HIH)).to_json()
        assert a == b

    def test_bad_json_locates_field(self):
        enc = encode_points(_heatmap_points(31, 3), cfg_for(Scheme.WOV))
        d = enc.to_json_dict()
        del d["offsets"]
        with pytest.raises(SchemaError) as err:
            EncodedSample.from_json_dict(d)
        assert "offsets" in str(err.value)

    def test_invalid_text_rejected(self):
        with pytest.raises(SchemaError):
            EncodedSample.from_json("{not json")
        with pytest.raises(SchemaError):
            EncodedSample.from_json("[1,2,3]")

    def test_bad_sparse_entry_rejected(self):
        enc = encode_points(_heatmap_points(37, 2), cfg_for(Scheme.DIRECT))
        d = enc.to_json_dict()
        d["integer_cells"][0] = "0,0"
        with pytest.raises(SchemaError) as err:
            EncodedSample.from_json_dict(d)
        assert "integer_cells" in str(err.value)


class TestSampleRoundtrip:
    """Raw-space round-trip errors of whole samples, as ``run_ideal`` scores them."""

    def _record(self, seed=41, n=30) -> Corpus:
        rng = np.random.Generator(np.random.PCG64(seed))
        return one_face("s", rng.uniform(100.0, 400.0, size=(n, 2)), image_path="s.png")

    def _errors(self, face, scheme, **bench) -> tuple[np.ndarray, FaceBatch]:
        """Per-landmark raw-space pixel errors, NaN where dropped."""
        cfg = BenchConfig(schemes=(scheme,),
                          metrics=MetricsConfig(norm_indices=(0, 1)), **bench)
        batch, _ = build_samples(face, cfg)
        (row,) = run_ideal(face, cfg).rows
        return row.per_image[0].per_point * batch.norm_distance[0], batch

    def test_wov_error_negligible(self):
        errs, _ = self._errors(self._record(), Scheme.WOV)
        assert np.nanmax(errs) < 1e-9

    def test_direct_error_scale(self):
        errs, batch = self._errors(self._record(), Scheme.DIRECT)
        n = downsample_factor(batch.crop)[0]
        # per-point error is at most half a cell diagonal in raw pixels
        assert np.nanmax(errs) <= n * np.sqrt(0.5) + 1e-9

    def test_landmark_on_grid_point_exact(self):
        # a unit crop of the exclusive box (0, 0, 256, 256) leaves raw points
        # at multiples of 4 on integer heatmap cells
        face = one_face("g", [[40.0, 80.0], [128.0, 52.0]], image_path="g.png",
                        bbox=(0.0, 0.0, 256.0, 256.0))
        for scheme in SCHEME_ORDER:
            errs, _ = self._errors(face, scheme, crop_source="bbox", crop_margin=0.0,
                                   bbox_inclusive=False)
            assert np.nanmax(errs) < 1e-9, scheme

    def test_encode_matches_encode_points(self):
        landmarks = LandmarkSet(self._record(seed=43).points[0], space=Space.RAW)
        crop = crop_from_landmarks(landmarks, 0.25)
        cfg = cfg_for(Scheme.HIH)
        t = heatmap_transform(crop, cfg.heatmap_shape)
        hm = apply_transform(t, landmarks)
        a = encode(landmarks, crop, cfg).to_json()
        b = encode_points(hm.points, cfg, valid=hm.valid).to_json()
        assert a == b


class TestDecodeResultContract:
    @pytest.mark.parametrize("scheme", SCHEME_ORDER)
    def test_normalized_space_and_range(self, scheme):
        pts = _heatmap_points(47, 200)
        cfg = cfg_for(scheme)
        dec = decode(encode_points(pts, cfg))
        assert dec.landmarks.space is Space.NORMALIZED
        coords = dec.landmarks.points
        assert np.nanmin(coords) >= 0.0
        assert np.nanmax(coords) <= 1.0 + 1.0 / 64
