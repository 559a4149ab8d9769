"""Crop kernel, transform and landmark container tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subpix.errors import ConfigError
from subpix.geometry import (AffineTransform, FaceBatch, LandmarkSet, Space,
                             apply_transform, bbox_crops, crop_from_bbox,
                             crop_from_landmarks, downsample_factor,
                             heatmap_transform, landmark_crops)


def _lms(points, space=Space.RAW, valid=None):
    return LandmarkSet(points=np.asarray(points, dtype=np.float64),
                       space=space, valid=valid)


class TestLandmarkSet:
    def test_basic_construction(self):
        s = _lms([[1.0, 2.0], [3.0, 4.0]])
        assert len(s) == 2
        assert s.valid.all()
        assert s.points.dtype == np.float64

    def test_wrong_shape_rejected(self):
        with pytest.raises(ConfigError):
            _lms([1.0, 2.0, 3.0])

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            _lms(np.zeros((0, 2)))

    def test_nonfinite_valid_point_rejected(self):
        with pytest.raises(ConfigError):
            _lms([[np.nan, 0.0], [1.0, 1.0]])

    def test_nonfinite_invalid_point_allowed(self):
        s = _lms([[np.nan, np.nan], [1.0, 1.0]], valid=np.array([False, True]))
        assert not s.valid[0]

    def test_valid_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            _lms([[0.0, 0.0]], valid=np.array([True, False]))


class TestAffineTransform:
    def test_identity(self):
        t = AffineTransform(1.0, (0.0, 0.0))
        p = np.array([[1.5, -2.0], [0.0, 7.0]])
        np.testing.assert_array_equal(t.apply(p), p)

    def test_scale_offset_evaluation(self):
        t = AffineTransform(0.5, (0.0, 0.0))
        np.testing.assert_allclose(t.apply(np.array([130.6, 82.0])),
                                   [65.3, 41.0], rtol=0, atol=1e-12)

    def test_inverse_of_identity(self):
        t = AffineTransform(1.0, (0.0, 0.0)).inverse()
        assert t.scale == 1.0
        np.testing.assert_array_equal(t.offset, np.zeros(2))

    def test_inverse_of_pure_scale(self):
        t = AffineTransform(4.0, (0.0, 0.0)).inverse()
        assert t.scale == 0.25

    def test_roundtrip_many_points(self):
        rng = np.random.Generator(np.random.PCG64(5))
        t = AffineTransform(1.7, (3.0, -11.0))
        pts = rng.uniform(-500, 500, size=(1000, 2))
        back = t.inverse().apply(t.apply(pts))
        assert np.abs(back - pts).max() < 1e-9

    def test_singular_rejected(self):
        with pytest.raises(ConfigError):
            AffineTransform(0.0, np.zeros(2))

    def test_scale_property(self):
        t = AffineTransform(2.56, (10.0, -3.0))
        assert t.scale == pytest.approx(2.56, rel=1e-15)

    @given(st.floats(0.1, 10.0), st.floats(-100, 100), st.floats(-100, 100),
           st.floats(-300, 300), st.floats(-300, 300))
    @settings(max_examples=60, deadline=None)
    def test_inverse_roundtrip_property(self, s, ox, oy, px, py):
        t = AffineTransform(s, (ox, oy))
        p = np.array([px, py])
        np.testing.assert_allclose(t.inverse().apply(t.apply(p)), p, atol=1e-8)

    def test_batch_applies_row_by_row(self):
        rng = np.random.Generator(np.random.PCG64(6))
        scale = rng.uniform(0.5, 3.0, size=4)
        offset = rng.uniform(-50, 50, size=(4, 2))
        pts = rng.uniform(0, 300, size=(4, 7, 2))
        batch = AffineTransform(scale, offset)
        for k in range(4):
            assert np.array_equal(batch.apply(pts)[k], batch[k].apply(pts[k]))
            assert np.array_equal(batch.inverse().apply(pts)[k],
                                  batch[k].inverse().apply(pts[k]))

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ConfigError):
            AffineTransform(np.ones(3), np.zeros((2, 2)))


class TestApplyTransform:
    def test_identity_keeps_points(self):
        s = _lms([[1.0, 2.0], [3.0, 4.0]])
        out = apply_transform(AffineTransform(1.0, (0.0, 0.0)), s)
        np.testing.assert_array_equal(out.points, s.points)
        assert out.space == s.space

    def test_scale_example(self):
        s = _lms([[130.6, 82.0]])
        out = apply_transform(AffineTransform(0.5, (0.0, 0.0)), s)
        np.testing.assert_allclose(out.points, [[65.3, 41.0]], atol=1e-12)

    def test_space_tag_updated(self):
        t = AffineTransform(1.0, (0.0, 0.0), src=Space.RAW, dst=Space.NORMALIZED)
        out = apply_transform(t, _lms([[1.0, 1.0]], space=Space.RAW))
        assert out.space == Space.NORMALIZED

    def test_space_mismatch_rejected(self):
        t = AffineTransform(1.0, (0.0, 0.0), src=Space.NORMALIZED, dst=Space.HEATMAP)
        with pytest.raises(ConfigError):
            apply_transform(t, _lms([[1.0, 1.0]], space=Space.RAW))

    def test_validity_preserved(self):
        s = _lms([[np.nan, np.nan], [2.0, 2.0]], valid=np.array([False, True]))
        out = apply_transform(AffineTransform(2.0, (0.0, 0.0)), s)
        assert list(out.valid) == [False, True]
        assert np.isnan(out.points[0]).all()
        np.testing.assert_allclose(out.points[1], [4.0, 4.0])


class TestDownsampleFactor:
    """Raw pixels per heatmap cell: ``1 / scale`` of a raw -> heatmap map."""

    def test_unit_scale(self):
        assert downsample_factor(AffineTransform(1.0, (0.0, 0.0))) == 1.0

    def test_half_scale(self):
        assert downsample_factor(AffineTransform(0.5, (0.0, 0.0))) == 2.0

    def test_double_scale(self):
        assert downsample_factor(AffineTransform(2.0, (0.0, 0.0))) == 0.5

    def test_multiplicative_in_chained_scales(self):
        # a 512 px crop side onto the unit square, then onto a 128-cell grid
        t = heatmap_transform(AffineTransform(1.0 / 512, (0.0, 0.0)), (128, 128))
        assert downsample_factor(t) == 512 / 128

    def test_batch_gives_one_factor_per_image(self):
        t = AffineTransform(np.array([0.25, 0.125, 0.5]), np.zeros((3, 2)))
        np.testing.assert_array_equal(downsample_factor(t), [4.0, 8.0, 2.0])


class TestCropFromLandmarks:
    def test_tight_box_no_margin(self):
        s = _lms([[0.0, 0.0], [100.0, 100.0]])
        t = crop_from_landmarks(s, margin=0.0)
        assert t.scale == 1 / 100
        assert t.dst == Space.NORMALIZED
        np.testing.assert_allclose(t.apply(np.array([[0.0, 0.0], [100.0, 100.0]])),
                                   [[0.0, 0.0], [1.0, 1.0]], atol=1e-12)

    def test_margin_quarter(self):
        s = _lms([[0.0, 0.0], [100.0, 100.0]])
        t = crop_from_landmarks(s, margin=0.25)
        # side 125 -> scale 1/125
        assert t.scale == 1 / 125

    def test_wide_box_uses_max_extent(self):
        s = _lms([[0.0, 0.0], [100.0, 80.0]])
        t = crop_from_landmarks(s, margin=0.0)
        assert t.scale == 1 / 100

    def test_landmarks_land_inside_target(self, corpus98):
        for points in corpus98.points[:6]:
            t = crop_from_landmarks(_lms(points), 0.25)
            mapped = t.apply(points)
            assert mapped.min() >= -1e-12
            assert mapped.max() <= 1 + 1e-12

    def test_degenerate_rejected(self):
        s = _lms([[5.0, 5.0], [5.0, 5.0]])
        with pytest.raises(ConfigError):
            crop_from_landmarks(s, 0.25)

    def test_single_valid_point_rejected(self):
        s = _lms([[1.0, 1.0], [9.0, 9.0]], valid=np.array([True, False]))
        with pytest.raises(ConfigError):
            crop_from_landmarks(s, 0.25)

    def test_non_square_target_rejected(self):
        # the crop is square, so the grid it is scaled onto must be too
        crop = crop_from_landmarks(_lms([[0.0, 0.0], [10.0, 10.0]]), 0.25)
        with pytest.raises(ConfigError, match="square"):
            heatmap_transform(crop, (256, 128))

    @pytest.mark.parametrize("margin", [-0.1, np.nan, np.inf, -np.inf])
    def test_bad_margin_rejected(self, margin):
        with pytest.raises(ConfigError, match="crop margin must be finite and non-negative"):
            crop_from_landmarks(_lms([[0.0, 0.0], [10.0, 10.0]]), margin)
        with pytest.raises(ConfigError, match="crop margin"):
            bbox_crops([(0, 0, 10, 10)], margin)


    def test_batch_flags_degenerate_rows(self, corpus98):
        points = corpus98.points[:5].copy()
        valid = np.ones(points.shape[:2], dtype=bool)
        valid[1, 2:] = False        # two valid points still span a box
        valid[2, 1:] = False        # one valid point does not
        points[3] = points[3, :1]   # every point at one place: no extent
        crop, ok = landmark_crops(points, valid, 0.25)
        assert list(ok) == [True, True, False, False, True]
        single = crop_from_landmarks(_lms(points[1], valid=valid[1]), 0.25)
        assert crop.scale[1] == single.scale
        assert np.array_equal(crop.offset[1], single.offset)


class TestCropFromBbox:
    def test_inclusive_span(self):
        t = crop_from_bbox((10, 20, 110, 100), margin=0.0)
        assert t.scale == 1 / 101
        np.testing.assert_allclose(t.apply(np.array([60.0, 60.0])),
                                   [0.5, 0.5], atol=1e-12)

    def test_exclusive_span(self):
        t = crop_from_bbox((10, 20, 110, 100), margin=0.0, inclusive=False)
        assert t.scale == 1 / 100

    def test_bad_box_rejected(self):
        with pytest.raises(ConfigError):
            crop_from_bbox((10, 20, 10, 100))

    def test_batch_flags_unusable_boxes(self):
        boxes = [(10, 20, 110, 100), (10, 20, 10, 100), (np.nan, 0, 1, 1),
                 (0, 0, np.inf, 5), (5, 6, 7, 8)]
        crop, ok = bbox_crops(boxes, 0.0)
        assert list(ok) == [True, False, False, False, True]
        assert crop.scale[0] == 1 / 101


class TestFaceSampleAndHeatmapTransform:
    """The batch container :class:`FaceBatch` and the raw -> heatmap map."""

    def _crop(self):
        return crop_from_landmarks(_lms([[10.0, 10.0], [110.0, 90.0]]), 0.25)

    def _batch(self, crop=None, norm_distance=100.0):
        crop = crop or self._crop()
        return FaceBatch(ids=("a",), points=np.array([[[10.0, 10.0], [110.0, 90.0]]]),
                         valid=np.ones((1, 2), dtype=bool),
                         crop=crop[None],
                         norm_distance=np.array([norm_distance]))

    def test_defaults(self):
        b = self._batch()
        assert b.crop.dst == Space.NORMALIZED
        assert len(b) == 1

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ConfigError):
            self._batch(norm_distance=0.0)

    def test_raw_space_required(self):
        crop = self._crop()
        with pytest.raises(ConfigError):
            self._batch(crop=AffineTransform(crop.scale, crop.offset,
                                             src=Space.NORMALIZED))

    def test_heatmap_transform_scale(self):
        crop = self._crop()
        t = heatmap_transform(crop, (64, 64))
        assert t.scale == 64 * crop.scale
        assert np.array_equal(t.offset, 64 * crop.offset)
        assert t.src == Space.RAW and t.dst == Space.HEATMAP

    def test_heatmap_transform_maps_into_grid(self):
        t = heatmap_transform(self._crop(), (64, 64))
        hm = t.apply(np.array([[10.0, 10.0], [110.0, 90.0]]))
        assert hm.min() >= -1e-9
        assert hm.max() <= 64 + 1e-9

    def test_anisotropic_heatmap_rejected(self):
        with pytest.raises(ConfigError):
            heatmap_transform(self._crop(), (64, 32))

    def test_downsample_factor_through_chain(self):
        # raw px per cell is the crop side over the grid side: 125 / 64
        t = heatmap_transform(self._crop(), (64, 64))
        assert downsample_factor(t) == pytest.approx(125 / 64, rel=1e-15)
