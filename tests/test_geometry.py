"""Crop kernel and transform tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subpix.errors import ConfigError
from subpix.geometry import (AffineTransform, _square_crops, apply_transform, bbox_crops,
                             crop_from_landmarks, heatmap_transform, landmark_crops)


def _one(scale, offset) -> AffineTransform:
    """The one-map batch ``p -> scale * p + offset``."""
    return AffineTransform(np.array([scale], dtype=np.float64),
                           np.array([offset], dtype=np.float64))


class TestAffineTransform:
    def test_identity(self):
        t = _one(1.0, (0.0, 0.0))
        p = np.array([[[1.5, -2.0], [0.0, 7.0]]])
        np.testing.assert_array_equal(t.apply(p), p)

    def test_scale_offset_evaluation(self):
        t = _one(0.5, (0.0, 0.0))
        np.testing.assert_allclose(t.apply(np.array([[[130.6, 82.0]]])),
                                   [[[65.3, 41.0]]], rtol=0, atol=1e-12)

    def test_inverse_of_identity(self):
        t = _one(1.0, (0.0, 0.0)).inverse()
        assert t.scale[0] == 1.0
        np.testing.assert_array_equal(t.offset, np.zeros((1, 2)))

    def test_inverse_of_pure_scale(self):
        t = _one(4.0, (0.0, 0.0)).inverse()
        assert t.scale[0] == 0.25

    def test_roundtrip_many_points(self):
        rng = np.random.Generator(np.random.PCG64(5))
        t = _one(1.7, (3.0, -11.0))
        pts = rng.uniform(-500, 500, size=(1, 1000, 2))
        back = t.inverse().apply(t.apply(pts))
        assert np.abs(back - pts).max() < 1e-9

    def test_singular_rejected(self):
        with pytest.raises(ConfigError):
            _one(0.0, (0.0, 0.0))

    def test_scale_property(self):
        t = _one(2.56, (10.0, -3.0))
        assert t.scale[0] == pytest.approx(2.56, rel=1e-15)

    @given(st.floats(0.1, 10.0), st.floats(-100, 100), st.floats(-100, 100),
           st.floats(-300, 300), st.floats(-300, 300))
    @settings(max_examples=60, deadline=None)
    def test_inverse_roundtrip_property(self, s, ox, oy, px, py):
        t = _one(s, (ox, oy))
        p = np.array([[[px, py]]])
        np.testing.assert_allclose(t.inverse().apply(t.apply(p)), p, atol=1e-8)

    def test_batch_applies_row_by_row(self):
        rng = np.random.Generator(np.random.PCG64(6))
        scale = rng.uniform(0.5, 3.0, size=4)
        offset = rng.uniform(-50, 50, size=(4, 2))
        pts = rng.uniform(0, 300, size=(4, 7, 2))
        batch = AffineTransform(scale, offset)
        for k in range(4):
            assert np.array_equal(batch.apply(pts)[k], batch[k:k + 1].apply(pts[k:k + 1])[0])
            assert np.array_equal(batch.inverse().apply(pts)[k],
                                  batch[k:k + 1].inverse().apply(pts[k:k + 1])[0])

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ConfigError):
            AffineTransform(np.ones(3), np.zeros((2, 2)))

    @pytest.mark.parametrize("scale,offset", [
        (1.0, (0.0, 0.0)),                          # the scalar form
        (np.ones((1, 1)), np.zeros((1, 1, 2))),     # a stack of batches
    ])
    def test_non_batch_shapes_rejected(self, scale, offset):
        with pytest.raises(ConfigError, match=r"an \(N,\) scale and an \(N, 2\) offset"):
            AffineTransform(scale, offset)

    @pytest.mark.parametrize("shape", [(2,), (4, 2), (2, 4, 2), (1, 4, 3)])
    def test_point_stack_shape_checked(self, shape):
        with pytest.raises(ConfigError, match="point stack"):
            _one(2.0, (0.0, 0.0)).apply(np.zeros(shape))


class TestApplyTransform:
    def test_identity_keeps_points(self):
        pts = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(apply_transform(_one(1.0, (0.0, 0.0)), pts), pts)

    def test_scale_example(self):
        out = apply_transform(_one(0.5, (0.0, 0.0)), [[130.6, 82.0]])
        np.testing.assert_allclose(out, [[65.3, 41.0]], atol=1e-12)

    def test_invalid_points_carried(self):
        out = apply_transform(_one(2.0, (1.0, 0.0)), [[np.nan, np.nan], [2.0, 2.0]])
        assert np.isnan(out[0]).all()
        np.testing.assert_allclose(out[1], [5.0, 4.0])


class TestCropFromLandmarks:
    def test_tight_box_no_margin(self):
        t = crop_from_landmarks([[0.0, 0.0], [100.0, 100.0]], margin=0.0)
        assert t.scale.shape == (1,) and t.scale[0] == 1 / 100
        np.testing.assert_allclose(t.apply(np.array([[[0.0, 0.0], [100.0, 100.0]]])),
                                   [[[0.0, 0.0], [1.0, 1.0]]], atol=1e-12)

    def test_margin_quarter(self):
        t = crop_from_landmarks([[0.0, 0.0], [100.0, 100.0]], margin=0.25)
        # side 125 -> scale 1/125
        assert t.scale[0] == 1 / 125

    def test_wide_box_uses_max_extent(self):
        t = crop_from_landmarks([[0.0, 0.0], [100.0, 80.0]], margin=0.0)
        assert t.scale[0] == 1 / 100

    def test_landmarks_land_inside_target(self, corpus98):
        for points in corpus98.points[:6]:
            mapped = apply_transform(crop_from_landmarks(points), points)
            assert mapped.min() >= -1e-12
            assert mapped.max() <= 1 + 1e-12

    def test_degenerate_rejected(self):
        with pytest.raises(ConfigError, match="degenerate crop"):
            crop_from_landmarks([[5.0, 5.0], [5.0, 5.0]])

    def test_overflowing_margin_named(self):
        # the box has extent; the margin makes its square's side infinite
        with pytest.raises(ConfigError, match="a margin of 1e\\+308 makes the crop side overflow"):
            crop_from_landmarks([[0.0, 0.0], [10.0, 10.0]], margin=1e308)

    def test_single_point_rejected(self):
        with pytest.raises(ConfigError, match="degenerate crop"):
            crop_from_landmarks([[1.0, 1.0]])

    def test_non_square_target_rejected(self):
        # the crop is square, so the grid it is scaled onto must be too
        crop = crop_from_landmarks([[0.0, 0.0], [10.0, 10.0]])
        with pytest.raises(ConfigError, match="square"):
            heatmap_transform(crop, (256, 128))

    @pytest.mark.parametrize("margin", [-0.1, np.nan, np.inf, -np.inf])
    def test_bad_margin_rejected(self, margin):
        with pytest.raises(ConfigError, match="crop margin must be finite and non-negative"):
            crop_from_landmarks([[0.0, 0.0], [10.0, 10.0]], margin=margin)
        with pytest.raises(ConfigError, match="crop margin"):
            bbox_crops([(0, 0, 10, 10)], margin)

    def test_batch_flags_degenerate_rows(self, corpus98):
        points = corpus98.points[:5].copy()
        points[1, 2:] = points[1, 0]  # two places still span a box
        points[2, 7] = np.nan         # a non-finite point leaves no finite map
        points[3] = points[3, :1]     # every point at one place: no extent
        crop, ok = landmark_crops(points, 0.25)
        assert list(ok) == [True, True, False, False, True]
        single = crop_from_landmarks(points[1])
        assert crop.scale[1] == single.scale[0]
        assert np.array_equal(crop.offset[1], single.offset[0])

    def test_per_axis_reduction_exact(self):
        # the per-axis (N, L) reductions equal the reduction over L of the
        # (N, L, 2) stack, so the crops are the same bit for bit
        rng = np.random.Generator(np.random.PCG64(5))
        points = rng.uniform(-50.0, 500.0, size=(40, 30, 2))
        points[3] = points[3, :1]            # every point at one place
        points[4, 5, 1] = np.nan             # a non-finite point
        lo, hi = points.min(axis=1), points.max(axis=1)
        for margin in (0.0, 0.25):
            want, want_ok = _square_crops(lo, hi, 0.0, True, margin)
            crop, ok = landmark_crops(points, margin)
            assert np.array_equal(ok, want_ok) and not ok[3] and not ok[4] and ok.sum() == 38
            assert np.array_equal(crop.scale, want.scale)
            assert np.array_equal(crop.offset, want.offset)


class TestCropFromBbox:
    """Square crops of annotation boxes, through :func:`bbox_crops`."""

    def test_inclusive_span(self):
        crop, ok = bbox_crops([(10, 20, 110, 100)], margin=0.0)
        assert ok[0] and crop.scale[0] == 1 / 101
        np.testing.assert_allclose(apply_transform(crop, [[60.0, 60.0]]),
                                   [[0.5, 0.5]], atol=1e-12)

    def test_exclusive_span(self):
        crop, ok = bbox_crops([(10, 20, 110, 100)], margin=0.0, inclusive=False)
        assert ok[0] and crop.scale[0] == 1 / 100

    def test_bad_box_rejected(self):
        _, ok = bbox_crops([(10, 20, 10, 100)])
        assert not ok[0]

    def test_batch_flags_unusable_boxes(self):
        boxes = [(10, 20, 110, 100), (10, 20, 10, 100), (np.nan, 0, 1, 1),
                 (0, 0, np.inf, 5), (5, 6, 7, 8)]
        crop, ok = bbox_crops(boxes, 0.0)
        assert list(ok) == [True, False, False, False, True]
        assert crop.scale[0] == 1 / 101


class TestFaceSampleAndHeatmapTransform:
    """The raw -> heatmap map of a face's crop."""

    def _crop(self):
        return crop_from_landmarks([[10.0, 10.0], [110.0, 90.0]])

    def test_heatmap_transform_scale(self):
        crop = self._crop()
        t = heatmap_transform(crop, (64, 64))
        assert np.array_equal(t.scale, 64 * crop.scale)
        assert np.array_equal(t.offset, 64 * crop.offset)

    def test_heatmap_transform_maps_into_grid(self):
        t = heatmap_transform(self._crop(), (64, 64))
        hm = apply_transform(t, [[10.0, 10.0], [110.0, 90.0]])
        assert hm.min() >= -1e-9
        assert hm.max() <= 64 + 1e-9

    def test_anisotropic_heatmap_rejected(self):
        with pytest.raises(ConfigError):
            heatmap_transform(self._crop(), (64, 32))
