"""Codec tests: quantization arithmetic, scheme payloads, serialization.

The frozen constants in this file were computed by hand or by independent
enumeration before the implementation existed.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (brute_force_gaussian, decode_hand_built, hand_built, one_face,
                      peak_cell)
from subpix.bench import BenchConfig, _face_maps, build_samples, run_ideal
from subpix.codec import (SCHEME_ORDER, CodecConfig, DecimalOverflow,
                          EncodedSample, Scheme, _last_writer_offsets, decode,
                          encode, encode_points, ideal_roundtrip)
from subpix.datasets import Corpus
from subpix.errors import ConfigError, SchemaError
from subpix.geometry import (AffineTransform, apply_transform, crop_from_landmarks,
                             heatmap_transform)
from subpix.metrics import MetricsConfig

GRID = (64, 64)


def cfg_for(scheme, **kw) -> CodecConfig:
    return CodecConfig(scheme=scheme, **kw)


def _heatmap_points(seed: int, n: int, lo: float = 0.0, hi: float = 64.0) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.uniform(lo, hi, size=(n, 2))


def _wov(point, **kw) -> tuple[tuple[int, int], np.ndarray, bool]:
    """Cell, stored fraction and clamp flag of one ``wov`` encode."""
    enc = encode_points(np.array([point]), cfg_for(Scheme.WOV, **kw))
    return peak_cell(enc.integer_maps[0]), enc.offsets[0], enc.clamped[0]


def _hih(point, **kw) -> tuple[tuple[int, int], bool]:
    """Decimal-map peak and clamp flag of one ``hih`` encode."""
    enc = encode_points(np.array([point]), cfg_for(Scheme.HIH, **kw))
    return peak_cell(enc.decimal_maps[0]), enc.clamped[0]


@st.composite
def _roundtrip_cases(draw):
    """A codec config on a small rectangular grid, points around it, and
    optionally a group size.

    Coordinates are a cell from just outside the grid plus a fraction that
    is often exact: 0, a half, or just below 1, where rounding carries.
    """
    w, h = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    cfg = CodecConfig(scheme=draw(st.sampled_from(SCHEME_ORDER)), heatmap_shape=(w, h),
                      decimal_shape=(draw(st.integers(1, 9)), draw(st.integers(1, 9))),
                      decimal_overflow=draw(st.sampled_from(list(DecimalOverflow))))
    n = draw(st.integers(1, 24))
    fraction = (st.floats(0.0, 1.0, exclude_max=True)
                | st.sampled_from([0.0, 0.5, 1.0 - 2.0 ** -53, 1.0 - 1e-9]))
    pts = np.array([[draw(st.integers(-2, side + 1)) + draw(fraction) for side in (w, h)]
                    for _ in range(n)])
    group_size = None
    if draw(st.booleans()):
        # ideal_roundtrip takes a size that divides n only
        group_size = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    return cfg, pts, group_size


class TestRelativeOffset:
    """The floor/fraction split the offset schemes store, read from ``wov``."""

    def test_fractional_point(self):
        cell, off, clamped = _wov((32.65, 20.30))
        assert cell == (32, 20)
        assert tuple(off) == pytest.approx((0.65, 0.30), abs=1e-12)
        assert not clamped

    def test_integer_point(self):
        cell, off, clamped = _wov((7.0, 3.0))
        assert cell == (7, 3)
        assert tuple(off) == (0.0, 0.0)
        assert not clamped

    def test_negative_point_clamped(self):
        cell, off, clamped = _wov((-0.2, 5.5))
        assert cell == (0, 5)
        assert tuple(off) == pytest.approx((0.0, 0.5), abs=1e-12)
        assert clamped

    @pytest.mark.parametrize("points,match", [
        ([[np.nan, 1.0]], "must be finite"),
        ([[1.0, 2.0, 3.0]], r"must have shape \(N, 2\), got \(1, 3\)"),
        ([1.0, 2.0], r"must have shape \(N, 2\), got \(2,\)"),
        (np.zeros((0, 2)), r"must have shape \(N, 2\), got \(0, 2\)"),
    ])
    def test_bad_points_rejected(self, points, match):
        for quantize in (encode_points, ideal_roundtrip):
            with pytest.raises(ConfigError, match=match):
                quantize(np.asarray(points), cfg_for(Scheme.WOV))

    @given(st.floats(0.0, 63.999999), st.floats(0.0, 63.999999))
    @settings(max_examples=200, deadline=None)
    def test_decomposition_is_exact(self, x, y):
        # cell + offset reproduces the input bit for bit (Sterbenz)
        cell, off, _ = _wov((x, y))
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
        assert c.decimal_overflow is DecimalOverflow.CARRY

    def test_no_out_of_grid_policy(self):
        # every landmark is encoded, clamped onto the grid if it lies off it
        assert "oob_policy" not in {f.name for f in fields(CodecConfig)}
        with pytest.raises(TypeError, match="oob_policy"):
            CodecConfig(scheme=Scheme.DIRECT, oob_policy="drop")

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
    @pytest.mark.parametrize("shape", [(64.7, 64.2), (64.0, 64), ("64", "64"), (True, 8)],
                             ids=["fractions", "integral-float", "strings", "bool"])
    def test_grid_sides_are_integers(self, key, shape):
        # refused in the payload reader's words, not truncated to integers
        with pytest.raises(ConfigError, match=f"^field '{key}': must be an integer of "
                                              f"at least [12], got {shape[0]!r}$"):
            cfg_for(Scheme.HIH, **{key: shape})

    def test_numpy_grid_sides_accepted(self):
        c = cfg_for(Scheme.HIH, heatmap_shape=np.array([32, 16]),
                    decimal_shape=(np.int64(4), np.uint16(2)))
        assert c.heatmap_shape == (32, 16) and c.decimal_shape == (4, 2)
        assert all(type(side) is int for side in (*c.heatmap_shape, *c.decimal_shape))

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
        np.testing.assert_allclose(dec.points[0],
                                   [(4 + 0.25) / 8, 4 / 8], atol=1e-15)
        assert not dec.tie_encountered[0]

    def test_diagonal_second_normalized_shift(self):
        enc = self._manual({(4, 4): 1.0, (5, 5): 0.8, (3, 4): 0.5})
        dec = decode(enc)
        s = 0.25 / np.sqrt(2.0)
        np.testing.assert_allclose(dec.points[0],
                                   [(4 + s) / 8, (4 + s) / 8], atol=1e-15)

    def test_tied_seconds_suppress_shift(self):
        enc = self._manual({(4, 4): 1.0, (5, 4): 0.8, (3, 4): 0.8})
        dec = decode(enc)
        np.testing.assert_allclose(dec.points[0], [0.5, 0.5], atol=1e-15)
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
        np.testing.assert_array_equal(a.points, b.points)


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
        hm = dec.points * 64.0
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
        # same cell in two different samples: no conflict
        pts = np.array([[10.25, 11.75], [10.75, 11.25]])
        _, _, conflicts = ideal_roundtrip(pts, cfg_for(Scheme.WOM), group_size=1)
        assert conflicts == 0
        _, _, conflicts = ideal_roundtrip(pts, cfg_for(Scheme.WOM), group_size=2)
        assert conflicts == 1

    @pytest.mark.parametrize("group_size", [0, -1, 3, True, 2.0],
                             ids=["zero", "negative", "not-a-divisor", "bool", "float"])
    def test_group_size_refused_unless_a_divisor_of_n(self, group_size):
        pts = np.array([[10.25, 11.75], [10.75, 11.25], [10.5, 11.5], [30.5, 2.5]])
        with pytest.raises(ConfigError, match=r"group_size must be a positive integer "
                                              r"that divides the 4 points"):
            ideal_roundtrip(pts, cfg_for(Scheme.WOM), group_size=group_size)

    def test_group_size_accepts_a_numpy_integer(self):
        pts = np.array([[10.25, 11.75], [10.75, 11.25], [10.5, 11.5], [30.5, 2.5]])
        _, _, conflicts = ideal_roundtrip(pts, cfg_for(Scheme.WOM), group_size=np.int64(2))
        assert conflicts == 1

    @staticmethod
    def _reference(cells, offsets, group_size):
        """Last writer per (sample, cell) by a dict written in index order."""
        n = cells.shape[1]
        size = group_size or n
        winner = {}
        for i in range(n):
            winner[i // size, cells[0, i], cells[1, i]] = i
        decoded = offsets.copy()
        for i in range(n):
            decoded[:, i] = offsets[:, winner[i // size, cells[0, i], cells[1, i]]]
        return decoded, n - len(winner)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("grouped", [True, False])
    def test_last_writer_matches_reference(self, seed, grouped):
        # a 2x2 grid and a few hundred landmarks: nearly every cell collides
        rng = np.random.Generator(np.random.PCG64(seed))
        n = 40 * int(rng.integers(5, 15))
        cells = rng.integers(0, 2, size=(2, n)).astype(np.float64)
        offsets = rng.random((2, n))
        group_size = int(rng.choice([5, 8, 40])) if grouped else None
        got, conflicts = _last_writer_offsets(cells, offsets, (2, 2), group_size)
        want, want_conflicts = self._reference(cells, offsets, group_size)
        assert conflicts == want_conflicts > 0
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_last_writer_without_conflict_returns_offsets(self):
        # four distinct cells; a fifth landmark on a taken cell overwrites it
        cells = np.array([[0.0, 1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 1.0, 0.0]])
        offsets = np.arange(10.0).reshape(2, 5) / 10.0
        first = offsets[:, :4]
        got, conflicts = _last_writer_offsets(cells[:, :4], first, (2, 2))
        assert conflicts == 0 and got is first
        got, conflicts = _last_writer_offsets(cells, offsets, (2, 2))
        assert conflicts == 1
        np.testing.assert_array_equal(got[:, 0], offsets[:, 4])


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
            errs.append(float(np.mean(np.linalg.norm(coords - pts, axis=1))))
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

    def test_clamped_landmark_map_peaks_on_border(self):
        # a landmark off the grid still renders both maps, at its clamped cell
        pts = np.array([[-0.5, 10.0], [10.0, 10.0]])
        enc = encode_points(pts, cfg_for(Scheme.HIH))
        assert list(enc.clamped) == [True, False]
        assert peak_cell(enc.integer_maps[0]) == (0, 10)
        assert enc.integer_maps[0].max() == 1.0 and enc.decimal_maps[0].max() == 1.0
        np.testing.assert_array_equal(enc.decimal_maps[0],
                                      brute_force_gaussian((0, 0), 1.0, (8, 8)))


class TestOutOfGrid:
    def test_clamp_flags_outside_points(self):
        pts = np.array([[-5.0, 10.0], [10.0, 10.0]])
        enc = encode_points(pts, cfg_for(Scheme.WOV))
        assert list(enc.clamped) == [True, False]
        assert np.isfinite(decode(enc).points).all()

    def test_clamped_point_claims_its_border_cell(self):
        # landmark 1 is clamped into cell (0, 0) with fraction (0, 0.2) and,
        # as the higher index, overwrites the offset landmark 0 wrote there
        pts = np.array([[0.3, 0.3], [-0.5, 0.2]])
        cfg = cfg_for(Scheme.WOM)
        coords, clamped, conflicts = ideal_roundtrip(pts, cfg)
        enc = encode_points(pts, cfg)
        dec = decode(enc)
        np.testing.assert_array_equal(coords, [[0.0, 0.2], [0.0, 0.2]])
        np.testing.assert_array_equal(dec.points, coords / 64)
        assert list(clamped) == list(dec.clamped) == [False, True]
        assert conflicts == enc.conflict_count == 1

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
        grid_coords = dec.points * np.array(GRID, dtype=np.float64)
        ideal_coords, clamped, conflicts = ideal_roundtrip(pts, cfg)
        np.testing.assert_array_equal(grid_coords, ideal_coords)
        np.testing.assert_array_equal(dec.clamped, clamped)
        assert conflicts == enc.conflict_count

    @pytest.mark.parametrize("scheme", SCHEME_ORDER)
    def test_bit_equivalence_outside_points(self, scheme):
        # 30 of the 100 points lie off the grid and are clamped onto it
        pts = _heatmap_points(18, 100, -5.0, 70.0)
        cfg = cfg_for(scheme)
        enc = encode_points(pts, cfg)
        dec = decode(enc)
        grid_coords = dec.points * np.array(GRID, dtype=np.float64)
        ideal_coords, clamped, conflicts = ideal_roundtrip(pts, cfg)
        np.testing.assert_array_equal(grid_coords, ideal_coords)
        np.testing.assert_array_equal(dec.clamped, clamped)
        assert conflicts == enc.conflict_count
        assert clamped.any() and np.isfinite(ideal_coords).all()

    @pytest.mark.parametrize("scheme", SCHEME_ORDER)
    @pytest.mark.parametrize("overflow", list(DecimalOverflow))
    def test_bitwise_at_signed_zero_half_cells_and_edges(self, scheme, overflow):
        # every pair of x and y below, on a 7x5 grid with a 3x4 decimal grid:
        # signed zeros, half cells, half decimal steps (the last ones carry),
        # and the grid edge from both sides
        w, h = 7, 5
        cfg = CodecConfig(scheme=scheme, heatmap_shape=(w, h), decimal_shape=(3, 4),
                          decimal_overflow=overflow)
        xs = [-0.0, 0.0, -1e-300, 0.5, 1.5, 3 + 1 / 6, 3 + 5 / 6, 2 - 2.0 ** -52,
              w - 0.5, w - 1 / 6, np.nextafter(w, 0), w]
        ys = [-0.0, 0.0, -1e-300, 0.5, 2.5, 2 + 1 / 8, 2 + 7 / 8, 1 - 2.0 ** -53,
              h - 0.5, h - 1 / 8, np.nextafter(h, 0), h]
        pts = np.array([[x, y] for x in xs for y in ys])
        enc = encode_points(pts, cfg)
        dec = decode(enc)
        # row-major points, and the (N, 2) view of (2, N) rows that the
        # Monte-Carlo draw passes
        for layout in (pts, pts.T.copy().T):
            coords, clamped, conflicts = ideal_roundtrip(layout, cfg)
            # as bit patterns: assert_array_equal takes -0.0 for 0.0
            normalized = coords / np.array([w, h], dtype=np.float64)
            np.testing.assert_array_equal(normalized.view(np.uint64),
                                          dec.points.view(np.uint64))
            np.testing.assert_array_equal(clamped, dec.clamped)
            assert conflicts == enc.conflict_count
            # the result is the transposed view of _quantize's (2, N) cells
            assert coords.T.flags.c_contiguous and not np.signbit(coords).any()

    @given(case=_roundtrip_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_grid_path_everywhere(self, case):
        # the grid-free round trip against rendering and decoding, one
        # encode_points per sample, on any grid and overflow rule
        cfg, pts, group_size = case
        coords, clamped, conflicts = ideal_roundtrip(pts, cfg, group_size=group_size)
        labels = np.arange(len(pts)) // (group_size or len(pts))
        grid = np.full_like(pts, np.nan)
        grid_clamped = np.zeros(len(pts), dtype=bool)
        grid_conflicts = 0
        for g in np.unique(labels):
            rows = labels == g
            enc = encode_points(pts[rows], cfg)
            dec = decode(enc)
            grid[rows] = dec.points
            grid_clamped[rows] = dec.clamped
            grid_conflicts += enc.conflict_count
        # decode divides by the grid size; so does bench-ideal before mapping back
        normalized = coords / np.array(cfg.heatmap_shape, dtype=np.float64)
        np.testing.assert_array_equal(normalized.view(np.uint64), grid.view(np.uint64))
        np.testing.assert_array_equal(clamped, grid_clamped)
        assert conflicts == grid_conflicts


def _reference_roundtrip(cfg, pts, group_size):
    """``ideal_roundtrip`` landmark by landmark in plain Python: ``math.floor``,
    explicit clamps, the carry or clamp rule, and a dict of last writers per
    sample. It shares no code with ``_quantize``, which the grid path also runs."""
    (w, h), (wo, ho) = cfg.heatmap_shape, cfg.decimal_shape
    n, rounds = len(pts), cfg.scheme in (Scheme.DIRECT, Scheme.WSM)
    size = group_size or n
    cells, kept, clamped = {}, {}, [False] * n
    for i in range(n):
        x, y = float(pts[i, 0]), float(pts[i, 1])
        cell, frac = [], []
        for v, side, d in ((x, w, wo), (y, h, ho)):
            c = math.floor(v + 0.5 if rounds else v)
            if c < 0 or c > side - 1:
                clamped[i] = True
                c = min(max(c, 0), side - 1)
            f = min(max(v - c, 0.0), math.nextafter(1.0, 0.0))
            if cfg.scheme is Scheme.HIH:
                step = math.floor(f * d + 0.5)
                if step >= d and cfg.decimal_overflow is DecimalOverflow.CARRY:
                    step, c = 0, c + 1
                    if c > side - 1:
                        clamped[i] = True
                        step, c = d - 1, side - 1
                elif step >= d:
                    clamped[i] = True
                    step = d - 1
                f = step / d
            cell.append(c)
            frac.append(0.0 if rounds else f)
        cells[i], kept[i] = tuple(cell), frac
    winner = {}
    if cfg.scheme is Scheme.WOM:
        for i in cells:
            winner[i // size, cells[i]] = i
    coords = np.full((n, 2), np.nan)
    for i in cells:
        f = kept[winner.get((i // size, cells[i]), i)]
        coords[i] = [cells[i][0] + f[0], cells[i][1] + f[1]]
    conflicts = len(cells) - len(winner) if cfg.scheme is Scheme.WOM else 0
    return coords, np.array(clamped), conflicts


class TestQuantizeReference:
    @given(case=_roundtrip_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_per_landmark_reference(self, case):
        # an independent oracle: the grid path shares _quantize with the round trip
        cfg, pts, group_size = case
        coords, clamped, conflicts = ideal_roundtrip(pts, cfg, group_size=group_size)
        want, want_clamped, want_conflicts = _reference_roundtrip(cfg, pts, group_size)
        np.testing.assert_array_equal(coords.view(np.uint64), want.view(np.uint64))
        np.testing.assert_array_equal(clamped, want_clamped)
        assert conflicts == want_conflicts

    @pytest.mark.parametrize("scheme", SCHEME_ORDER, ids=lambda s: s.value)
    @pytest.mark.parametrize("overflow", list(DecimalOverflow), ids=lambda o: o.value)
    def test_one_grouped_call_equals_calls_per_sample(self, scheme, overflow):
        # eight samples of twelve points around a 4x3 grid: cells collide
        # within and across samples, and some points leave the grid
        cfg = CodecConfig(scheme=scheme, heatmap_shape=(4, 3), decimal_overflow=overflow)
        rng = np.random.Generator(np.random.PCG64(7))
        pts = rng.uniform(-1.0, [5.0, 4.0], size=(96, 2))
        coords, clamped, conflicts = ideal_roundtrip(pts, cfg, group_size=12)
        parts = [ideal_roundtrip(sample, cfg) for sample in np.split(pts, 8)]
        want = np.concatenate([p[0] for p in parts])
        np.testing.assert_array_equal(coords.view(np.uint64), want.view(np.uint64))
        np.testing.assert_array_equal(clamped, np.concatenate([p[1] for p in parts]))
        assert conflicts == sum(p[2] for p in parts)
        # points off the grid were clamped, and only wom shares maps
        assert clamped.any()
        assert (conflicts > 0) == (scheme is Scheme.WOM)

    @pytest.mark.parametrize("scheme", SCHEME_ORDER, ids=lambda s: s.value)
    @pytest.mark.parametrize("side", ["left", "right", "top", "bottom"])
    @pytest.mark.parametrize("layout", ["rows", "columns"])
    def test_one_point_past_the_border(self, scheme, side, layout):
        # _quantize skips the clamp when no cell is off the grid; one cell
        # just off it, among in-grid ones, must still take the clamp path,
        # from row-major points and from the (N, 2) view of (2, N) rows that
        # the Monte-Carlo draw passes
        w, h = 6, 5
        cfg = CodecConfig(scheme=scheme, heatmap_shape=(w, h))
        rng = np.random.Generator(np.random.PCG64(3))
        pts = rng.uniform(0.0, [w - 1.0, h - 1.0], size=(40, 2))
        # the first coordinate whose cell is off that side: a rounding
        # scheme's cell leaves the grid half a cell before a flooring one's
        lead = 0.5 if scheme in (Scheme.DIRECT, Scheme.WSM) else 0.0
        axis, value = {"left": (0, np.nextafter(-lead, -1.0)), "right": (0, w - lead),
                       "top": (1, np.nextafter(-lead, -1.0)), "bottom": (1, h - lead)}[side]
        pts[17, axis] = value
        if layout == "columns":
            pts = pts.T.copy().T
        coords, clamped, conflicts = ideal_roundtrip(pts, cfg)
        want, want_clamped, want_conflicts = _reference_roundtrip(cfg, pts, None)
        np.testing.assert_array_equal(coords.view(np.uint64), want.view(np.uint64))
        np.testing.assert_array_equal(clamped, want_clamped)
        assert conflicts == want_conflicts
        assert np.flatnonzero(clamped).tolist() == [17]


class TestEncodedSampleValidation:
    def _direct(self, n=2):
        return encode_points(_heatmap_points(19, n), cfg_for(Scheme.DIRECT))

    @pytest.mark.parametrize("scheme,payload,match", [
        (Scheme.DIRECT, {"offsets": np.zeros((2, 2))},
         "^field 'offsets': belongs to scheme 'wov', not 'direct'$"),
        (Scheme.WOV, {"offsets": np.zeros((2, 2)), "offset_map_x": np.zeros((64, 64)),
                      "offset_map_y": np.zeros((64, 64))},
         "^field 'offset_x_cells': belongs to scheme 'wom', not 'wov'$"),
        (Scheme.WOM, {"offset_map_x": np.zeros((64, 64)), "offset_map_y": np.zeros((64, 64)),
                      "decimal_maps": np.zeros((2, 8, 8))},
         "^field 'decimal_cells': belongs to scheme 'hih', not 'wom'$"),
        (Scheme.HIH, {"decimal_shape": (8, 8), "decimal_maps": np.zeros((2, 8, 4))},
         r"^field 'decimal_cells': shape \(2, 8, 4\) does not match \(2, 8, 8\)$"),
    ])
    def test_payload_scheme_mismatch_rejected(self, scheme, payload, match):
        enc = self._direct()
        with pytest.raises(ConfigError, match=match):
            EncodedSample(scheme=scheme, heatmap_shape=GRID,
                          integer_maps=enc.integer_maps,
                          clamped=enc.clamped, **payload)

    @pytest.mark.parametrize("scheme,payload,match", [
        (Scheme.WOV, {}, "^field 'offsets': required by scheme 'wov'$"),
        (Scheme.WOM, {"offset_map_x": np.zeros((64, 64))},
         "^field 'offset_y_cells': required by scheme 'wom'$"),
        (Scheme.HIH, {"decimal_shape": (8, 8)},
         "^field 'decimal_cells': required by scheme 'hih'$"),
    ])
    def test_missing_payload_rejected(self, scheme, payload, match):
        enc = self._direct()
        with pytest.raises(ConfigError, match=match):
            EncodedSample(scheme=scheme, heatmap_shape=GRID,
                          integer_maps=enc.integer_maps,
                          clamped=enc.clamped, **payload)

    @pytest.mark.parametrize("scheme,payload,match", [
        (Scheme.WOM, {"conflict_count": -5}, "'conflict_count': must be .* got -5$"),
        (Scheme.WOM, {"conflict_count": True}, "'conflict_count': must be .* got True$"),
        (Scheme.WOM, {"conflict_count": 2.5}, "'conflict_count': must be .* got 2.5$"),
        # fields to_json would drop, so JSON would not bring them back
        (Scheme.DIRECT, {"conflict_count": 7},
         "^field 'conflict_count': belongs to scheme 'wom', not 'direct'$"),
        (Scheme.DIRECT, {"decimal_shape": (8, 8)},
         "^field 'decimal_shape': belongs to scheme 'hih', not 'direct'$"),
    ])
    def test_scalar_payload_rejected(self, scheme, payload, match):
        enc = encode_points(_heatmap_points(19, 2), cfg_for(scheme))
        with pytest.raises(ConfigError, match=match):
            replace(enc, **payload)

    @pytest.mark.parametrize("shape", [(1, 8), (8, 1), (1, 1)])
    def test_grid_below_two_cells_rejected(self, shape):
        # the payload holds the same 2x2 floor as CodecConfig
        w, h = shape
        maps = np.zeros((1, h, w))
        maps[0, 0, 0] = 1.0
        with pytest.raises(ConfigError, match="^field 'heatmap_shape': must be an integer of "
                                              "at least 2, got 1$"):
            EncodedSample(scheme=Scheme.DIRECT, heatmap_shape=shape, integer_maps=maps,
                          clamped=[False])

    def test_no_landmarks_refused(self):
        # to_json would write "n_landmarks": 0, which no reader takes back
        with pytest.raises(ConfigError, match="^field 'n_landmarks': must be an integer of "
                                              "at least 1, got 0$"):
            EncodedSample(scheme=Scheme.DIRECT, heatmap_shape=GRID,
                          integer_maps=np.zeros((0, 64, 64)), clamped=[])

    @pytest.mark.parametrize("key", ["heatmap_shape", "decimal_shape"])
    @pytest.mark.parametrize("side", [4.9, 8.0, "8", True, None],
                             ids=["fraction", "integral-float", "string", "bool", "none"])
    def test_grid_side_is_an_integer(self, key, side):
        # a side is refused, not truncated, as the payload reader refuses it
        enc = encode_points(_heatmap_points(19, 1), cfg_for(Scheme.HIH, heatmap_shape=(8, 8)))
        with pytest.raises(ConfigError, match=f"^field '{key}': must be an integer of "
                                              f"at least [12], got {side!r}$"):
            replace(enc, **{key: (side, 8)})

    def test_numpy_grid_sides_accepted(self):
        enc = encode_points(_heatmap_points(19, 1), cfg_for(Scheme.HIH))
        back = replace(enc, heatmap_shape=np.array([64, 64]),
                       decimal_shape=(np.uint8(8), np.int32(8)))
        assert back.heatmap_shape == (64, 64) and back.decimal_shape == (8, 8)
        assert back.to_json() == enc.to_json()

    def test_decimal_grid_below_one_cell_rejected(self):
        enc = encode_points(_heatmap_points(19, 1), cfg_for(Scheme.HIH))
        with pytest.raises(ConfigError, match="^field 'decimal_shape': must be an integer of "
                                              "at least 1, got 0$"):
            EncodedSample(scheme=Scheme.HIH, heatmap_shape=GRID,
                          integer_maps=enc.integer_maps,
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


class TestEncodedSampleSizes:
    """Flags, offsets and offset maps of the wrong size are refused naming
    the payload key that holds them; any array of the right size is reshaped
    as before."""

    def _sample(self, scheme):
        return encode_points(_heatmap_points(43, 2), cfg_for(scheme))

    @pytest.mark.parametrize("scheme,field,value,message", [
        (Scheme.DIRECT, "clamped", [True], "field 'clamped': has 1 values, not the 2 of (2,)"),
        (Scheme.WSM, "clamped", np.zeros(3, bool),
         "field 'clamped': has 3 values, not the 2 of (2,)"),
        (Scheme.WOV, "offsets", [0.5, 0.5], "field 'offsets': has 2 values, not the 4 of (2, 2)"),
        (Scheme.WOM, "offset_map_x", np.zeros((8, 8)),
         "field 'offset_x_cells': has 64 values, not the 4096 of (64, 64)"),
        (Scheme.WOM, "offset_map_y", np.zeros((64, 64, 2)),
         "field 'offset_y_cells': has 8192 values, not the 4096 of (64, 64)"),
    ])
    def test_wrong_size_refused(self, scheme, field, value, message):
        with pytest.raises(ConfigError) as err:
            replace(self._sample(scheme), **{field: value})
        assert str(err.value) == message

    @pytest.mark.parametrize("scheme,field,reshape", [
        (Scheme.DIRECT, "clamped", (2, 1)),
        (Scheme.HIH, "clamped", (1, 2)),
        (Scheme.WOV, "offsets", (4,)),
        (Scheme.WOM, "offset_map_x", (4096,)),
        (Scheme.WOM, "offset_map_y", (64, 1, 64)),
    ])
    def test_right_size_reshaped(self, scheme, field, reshape):
        enc = self._sample(scheme)
        want = getattr(enc, field)
        back = replace(enc, **{field: want.reshape(reshape)})
        assert getattr(back, field).shape == want.shape
        np.testing.assert_array_equal(getattr(back, field), want)


class TestJsonRoundTrip:
    @pytest.mark.parametrize("scheme", SCHEME_ORDER)
    def test_lossless(self, scheme):
        # a wom collision, and points clamped from past each border, whose
        # stored fractions the clip keeps in [0, 1)
        pts = np.vstack([_heatmap_points(23, 40),
                         np.array([[10.25, 11.75], [10.75, 11.25], [70.0, 10.5],
                                   [-3.0, 64.0]])])
        enc = encode_points(pts, cfg_for(scheme))
        back = EncodedSample.from_json(enc.to_json())
        assert back.scheme is enc.scheme
        np.testing.assert_array_equal(back.integer_maps, enc.integer_maps)
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


def _built(scheme: Scheme, seed: int = 5) -> EncodedSample:
    """A payload built field by field, not by an encoder: maps of any finite
    values, the extreme finite doubles and fractions on both ends of [0, 1)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n, w, h = 3, 5, 4
    maps = np.where(rng.uniform(size=(n, h, w)) < 0.5, rng.normal(size=(n, h, w)), 0.0)
    maps[0, 0, :4] = [5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1]
    kwargs: dict = {}
    if scheme is Scheme.WOV:
        kwargs["offsets"] = np.vstack([[0.0, np.nextafter(1.0, 0.0)],
                                       rng.uniform(size=(n - 1, 2))])
    if scheme is Scheme.WOM:
        for axis in "xy":
            grid = np.where(rng.uniform(size=(h, w)) < 0.5, rng.uniform(size=(h, w)), 0.0)
            grid[0, 0] = np.nextafter(1.0, 0.0)
            kwargs[f"offset_map_{axis}"] = grid
        kwargs["conflict_count"] = 2
    if scheme is Scheme.HIH:
        kwargs.update(decimal_shape=(3, 2), decimal_maps=rng.normal(size=(n, 2, 3)))
    return EncodedSample(scheme=scheme, heatmap_shape=(w, h), integer_maps=maps,
                         clamped=[False, True, False], **kwargs)


# values no encoder writes, one per (scheme, attribute): the constructor and
# the reader refuse the same ones
_BAD_VALUES = [
    *[(s, "integer_maps", math.nan) for s in SCHEME_ORDER],
    (Scheme.DIRECT, "integer_maps", math.inf),
    (Scheme.WSM, "integer_maps", -math.inf),
    *[(Scheme.WOV, "offsets", v) for v in (1.0, 1.5, -0.2, -1e-300, math.nan, math.inf)],
    *[(Scheme.WOM, key, v) for key in ("offset_map_x", "offset_map_y")
      for v in (1.0, -0.25, math.nan, -math.inf)],
    *[(Scheme.HIH, "decimal_maps", v) for v in (math.nan, math.inf)],
]


# the payload key that holds each attribute _BAD_VALUES spoils
_PAYLOAD_KEY = {"integer_maps": "integer_cells", "offsets": "offsets",
                "offset_map_x": "offset_x_cells", "offset_map_y": "offset_y_cells",
                "decimal_maps": "decimal_cells"}

# finite map values at the ends of the doubles, and fractions at both ends of [0, 1)
_MAP_VALUES = (st.floats(allow_nan=False, allow_infinity=False)
               | st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308,
                                  1.7976931348623157e308, -1.7976931348623157e308, -0.0]))
_FRACTIONS = (st.floats(0.0, 1.0, exclude_max=True)
              | st.sampled_from([0.0, -0.0, 5e-324, 0.5, math.nextafter(1.0, 0.0)]))


@st.composite
def _accepted_samples(draw):
    """Any sample the constructor accepts: every scheme, 1 to 5 landmarks,
    grid sides 2 to 9, decimal sides 1 to 9, and a few nonzero cells per grid."""
    def grid(shape, values):
        out = np.zeros(shape)
        cells = st.tuples(*[st.integers(0, side - 1) for side in shape])
        for index, value in draw(st.dictionaries(cells, values, max_size=6)).items():
            out[index] = value
        return out

    scheme = draw(st.sampled_from(SCHEME_ORDER))
    n, w, h = draw(st.integers(1, 5)), draw(st.integers(2, 9)), draw(st.integers(2, 9))
    kwargs: dict = {}
    if scheme is Scheme.WOV:
        kwargs["offsets"] = np.array(draw(st.lists(st.tuples(_FRACTIONS, _FRACTIONS),
                                                   min_size=n, max_size=n)))
    if scheme is Scheme.WOM:
        kwargs.update(offset_map_x=grid((h, w), _FRACTIONS), offset_map_y=grid((h, w), _FRACTIONS),
                      conflict_count=draw(st.integers(0, 2 ** 64)))
    if scheme is Scheme.HIH:
        wo, ho = draw(st.integers(1, 9)), draw(st.integers(1, 9))
        kwargs.update(decimal_shape=(wo, ho), decimal_maps=grid((n, ho, wo), _MAP_VALUES))
    return EncodedSample(scheme=scheme, heatmap_shape=(w, h),
                         integer_maps=grid((n, h, w), _MAP_VALUES),
                         clamped=draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                         **kwargs)


class TestConstructorMatchesReader:
    """What ``EncodedSample`` accepts is what ``from_json`` accepts: a payload
    the constructor takes comes back through JSON field for field, and a
    value either refuses, the other refuses too."""

    @pytest.mark.parametrize("scheme", SCHEME_ORDER)
    def test_accepted_payload_round_trips(self, scheme):
        enc = _built(scheme)
        back = EncodedSample.from_json(enc.to_json())
        for f in fields(EncodedSample):
            np.testing.assert_array_equal(getattr(back, f.name), getattr(enc, f.name),
                                          err_msg=f.name)
        assert back.to_json() == enc.to_json()

    @pytest.mark.parametrize("scheme,key,value", _BAD_VALUES)
    def test_bad_value_refused_by_both(self, scheme, key, value):
        enc = _built(scheme)
        bad = getattr(enc, key).copy()
        bad.flat[0] = value
        with pytest.raises(ConfigError, match=f"^field '{_PAYLOAD_KEY[key]}': values must "
                                              f"(be finite|lie in \\[0, 1\\)), got ") as made:
            replace(enc, **{key: bad})
        # the payload the constructor would have made, written as to_json does:
        # refused in the same words, but for non-finite offsets, which the
        # reader refuses as it types them as numbers, at the same key
        setattr(enc, key, bad)
        with pytest.raises(SchemaError) as read:
            EncodedSample.from_json(enc.to_json())
        assert read.value.field == made.value.field
        if not (key == "offsets" and not math.isfinite(value)):
            assert str(read.value) == str(made.value)

    @given(enc=_accepted_samples())
    @settings(max_examples=300, deadline=None)
    def test_every_accepted_sample_round_trips(self, enc):
        text = enc.to_json()
        back = EncodedSample.from_json(text)
        for f in fields(EncodedSample):
            want, got = getattr(enc, f.name), getattr(back, f.name)
            np.testing.assert_array_equal(got, want, err_msg=f.name)
            assert type(got) is type(want) and np.asarray(got).dtype == np.asarray(want).dtype
        assert back.to_json() == text

    @pytest.mark.parametrize("value", [-5, True, 2.5], ids=["negative", "bool", "float"])
    def test_bad_conflict_count_refused_by_both(self, value):
        # in the same words, the constructor refusing the value and the
        # reader refusing it as the payload's text would hold it
        enc = _built(Scheme.WOM)
        message = f"field 'conflict_count': must be an integer of at least 0, got {value!r}"
        with pytest.raises(ConfigError) as refused:
            replace(enc, conflict_count=value)
        assert str(refused.value) == message
        doc = {**enc.to_json_dict(), "conflict_count": value}
        with pytest.raises(SchemaError) as refused:
            EncodedSample.from_json(json.dumps(doc))
        assert str(refused.value) == message


class TestSampleRoundtrip:
    """Raw-space round-trip errors of whole samples, as ``run_ideal`` scores them."""

    def _record(self, seed=41, n=30) -> Corpus:
        rng = np.random.Generator(np.random.PCG64(seed))
        return one_face("s", rng.uniform(100.0, 400.0, size=(n, 2)), image_path="s.png")

    def _errors(self, face, scheme, **bench) -> tuple[np.ndarray, AffineTransform]:
        """Per-landmark raw-space pixel errors and the face's crop."""
        cfg = BenchConfig(schemes=(scheme,),
                          metrics=MetricsConfig(norm_indices=(0, 1)), **bench)
        crop, _, d = _face_maps(build_samples(face, cfg)[0], cfg)
        (row,) = run_ideal(face, cfg).rows
        return row.per_image[0].per_point * d[0], crop

    def test_wov_error_negligible(self):
        errs, _ = self._errors(self._record(), Scheme.WOV)
        assert errs.max() < 1e-9

    def test_direct_error_scale(self):
        errs, crop = self._errors(self._record(), Scheme.DIRECT)
        n = 1 / heatmap_transform(crop, GRID).scale[0]  # raw px per heatmap cell
        # per-point error is at most half a cell diagonal in raw pixels
        assert errs.max() <= n * np.sqrt(0.5) + 1e-9

    def test_landmark_on_grid_point_exact(self):
        # a unit crop of the exclusive box (0, 0, 256, 256) leaves raw points
        # at multiples of 4 on integer heatmap cells
        face = one_face("g", [[40.0, 80.0], [128.0, 52.0]], image_path="g.png",
                        bbox=(0.0, 0.0, 256.0, 256.0))
        for scheme in SCHEME_ORDER:
            errs, _ = self._errors(face, scheme, crop_source="bbox", crop_margin=0.0,
                                   bbox_inclusive=False)
            assert errs.max() < 1e-9, scheme

    def test_encode_matches_encode_points(self):
        # a margin of 0 puts the rightmost landmark, 12, on the far border,
        # where it is clamped onto the last cell
        points = self._record(seed=43).points[0]
        crop = crop_from_landmarks(points, 0.0)
        cfg = cfg_for(Scheme.HIH)
        hm = apply_transform(heatmap_transform(crop, cfg.heatmap_shape), points)
        a = encode(points, crop, cfg)
        assert a.to_json() == encode_points(hm, cfg).to_json()
        assert list(np.flatnonzero(a.clamped)) == [12]


class TestDecodeResultContract:
    @pytest.mark.parametrize("scheme", SCHEME_ORDER)
    def test_normalized_space_and_range(self, scheme):
        pts = _heatmap_points(47, 200)
        cfg = cfg_for(scheme)
        dec = decode(encode_points(pts, cfg))
        coords = dec.points
        assert coords.shape == (200, 2) and dec.clamped.shape == (200,)
        assert coords.min() >= 0.0
        assert coords.max() <= 1.0 + 1.0 / 64
