"""Metrics tests: per-point errors, NME, exact step-function CED statistics.

The batched NME kernel is checked against the per-image rule it replaced,
``np.mean(err) / d`` on one 1-D row at a time, with exact equality.

Primary oracle for the AUC is the closed form

    auc(errors, t) = 1 - mean(min(e, t)) / t

which follows from integrating the indicator of each error over [0, t].
A rectangle-rule quadrature of the empirical CDF backs it up at coarse
tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subpix.errors import ConfigError
from subpix.metrics import (DEFAULT_NORM_INDICES, MetricsConfig,
                            ced_auc, ced_points, failure_rate,
                            format_ced_csv, image_errors, norm_distances,
                            point_distances, resolve_norm_indices)


def walked_auc(errors, t: float) -> float:
    """The step-curve integral as a running sum over the breakpoints."""
    vals = np.sort(np.asarray(errors, dtype=np.float64))
    bps = np.unique(vals[vals <= t])
    fracs = np.searchsorted(vals, bps, side="right") / vals.size
    integral, prev, frac = 0.0, 0.0, 0.0
    for b, f in zip(bps, fracs):
        integral += frac * (b - prev)
        prev, frac = b, f
    integral += frac * (t - prev)
    return float(integral / t)


def closed_form_auc(errors, t: float) -> float:
    e = np.asarray(errors, dtype=np.float64)
    return 1.0 - float(np.mean(np.minimum(e, t))) / t


def rectangle_auc(errors, t: float, steps: int = 200_000) -> float:
    e = np.sort(np.asarray(errors, dtype=np.float64))
    xs = (np.arange(steps) + 0.5) * (t / steps)
    cdf = np.searchsorted(e, xs, side="right") / e.size
    return float(cdf.mean())


def one_image(gt, pred, d: float) -> tuple[np.ndarray, float]:
    """:func:`image_errors` of a single image: its per-point errors and NME."""
    per_point, nme = image_errors(np.asarray(gt, dtype=np.float64)[None],
                                  np.asarray(pred, dtype=np.float64)[None],
                                  np.array([d]))
    return per_point[0], float(nme[0])


def per_image_nme(gt: np.ndarray, pred: np.ndarray, d: float) -> float:
    """The per-image rule, one 1-D row at a time: the differential oracle."""
    return float(np.mean(np.linalg.norm(gt - pred, axis=1)) / d)


class TestPointErrors:
    def test_euclidean_distances(self):
        per_point, _ = one_image([[0.0, 0.0], [10.0, 10.0]], [[3.0, 4.0], [10.0, 10.0]], 1.0)
        np.testing.assert_allclose(per_point, [5.0, 0.0])

    def test_invalid_on_either_side_is_nan(self):
        gt = [[0.0, 0.0], [np.nan, np.nan], [2.0, 2.0]]
        pred = [[0.0, 0.0], [1.0, 1.0], [np.nan, np.nan]]
        per_point, _ = one_image(gt, pred, 10.0)
        assert per_point[0] == 0.0
        assert np.isnan(per_point[1]) and np.isnan(per_point[2])


#: components at which the kernel's squares and sum are hardest to get equal:
#: NaN of either sign, infinities, signed zeros, subnormals, a square that
#: overflows (1e200) and one that underflows to 0 (1e-200)
_HOSTILE = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -1e-310,
                     2.2250738585072014e-308, 1e200, -1e200, 1e-200, 1.0, -0.5])


def _layout(d: np.ndarray, order: str) -> np.ndarray:
    """``d`` as a C-ordered, F-ordered or strided (every other row and component) array."""
    if order == "C":
        return np.ascontiguousarray(d)
    if order == "F":
        return np.asfortranarray(d)
    wide = np.zeros((2 * len(d), *d.shape[1:-1], 4))
    wide[::2, ..., ::2] = d
    return wide[::2, ..., ::2]


class TestPointDistances:
    @pytest.mark.parametrize("order", ["C", "F", "strided"])
    @pytest.mark.parametrize("shape", [(4000, 2), (200, 98, 2), (196, 1, 2)])
    def test_bitwise_equal_to_norm(self, shape, order):
        rng = np.random.Generator(np.random.PCG64(29))
        d = rng.uniform(-1e3, 1e3, size=shape)
        pick = rng.random(shape) < 0.4
        d[pick] = rng.choice(_HOSTILE, size=np.count_nonzero(pick))
        # and every pair of hostile components once
        d.reshape(-1, 2)[:_HOSTILE.size ** 2] = np.stack(
            np.meshgrid(_HOSTILE, _HOSTILE), axis=-1).reshape(-1, 2)
        d = _layout(d, order)
        with np.errstate(over="ignore", invalid="ignore"):
            got = point_distances(d)
            want = np.linalg.norm(d, axis=-1)
        assert got.shape == shape[:-1]
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.isinf(got).any() and np.isnan(got).any() and (got == 0.0).any()

    def test_input_left_unchanged(self):
        d = np.array([[3.0, -4.0], [-0.0, 1e-200]])
        kept = d.copy()
        assert point_distances(d).tolist() == [5.0, 0.0]
        np.testing.assert_array_equal(d, kept)


class TestNme:
    def test_two_pixel_error_over_fifty(self):
        _, nme = one_image([[100.0, 100.0]], [[102.0, 100.0]], 50.0)
        assert nme == pytest.approx(0.04, abs=1e-15)

    def test_mean_over_points(self):
        _, nme = one_image([[0.0, 0.0], [10.0, 0.0]], [[3.0, 4.0], [10.0, 0.0]], 10.0)
        assert nme == pytest.approx(0.25, abs=1e-15)

    def test_no_valid_points_rejected(self):
        # every point is scored, so a NaN coordinate makes its image's NME NaN
        _, nme = one_image([[np.nan, np.nan]], [[0.0, 0.0]], 10.0)
        assert np.isnan(nme)

    @given(st.sampled_from([1, 2, 68, 98, 129, 200]),
           st.lists(st.sampled_from(["finite", "some", "all"]), min_size=1, max_size=6),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_per_image_rule(self, n_landmarks, rows, seed):
        # rows longer than 128 points cross numpy's pairwise-summation block;
        # a row may hold non-finite points, in some or all of its places
        rng = np.random.Generator(np.random.PCG64(seed))
        gt = rng.uniform(0.0, 500.0, size=(len(rows), n_landmarks, 2))
        pred = gt + rng.normal(0.0, 3.0, size=gt.shape)
        d = rng.uniform(1.0, 300.0, size=len(rows))
        for k, kind in enumerate(rows):
            if kind == "finite":
                continue
            bad = (rng.random(n_landmarks) < 0.3 if kind == "some"
                    else np.ones(n_landmarks, dtype=bool))
            side = rng.random(n_landmarks) < 0.5
            gt[k, bad & side, rng.integers(0, 2)] = np.nan
            pred[k, bad & ~side] = rng.choice([np.nan, np.inf, -np.inf])
        per_point, nme = image_errors(gt, pred, d)
        want = [per_image_nme(gt[k], pred[k], d[k]) for k in range(len(rows))]
        assert np.array_equal(nme, want, equal_nan=True)
        for k in range(len(rows)):
            assert np.array_equal(per_point[k], np.linalg.norm(gt[k] - pred[k], axis=1) / d[k],
                                  equal_nan=True)


class TestNormIndices:
    def test_defaults_by_layout(self):
        cfg = MetricsConfig()
        assert resolve_norm_indices(98, cfg) == (60, 72)
        assert resolve_norm_indices(68, cfg) == (36, 45)
        assert DEFAULT_NORM_INDICES == {98: (60, 72), 68: (36, 45)}

    def test_unknown_layout_needs_explicit_pair(self):
        with pytest.raises(ConfigError):
            resolve_norm_indices(51, MetricsConfig())
        cfg = MetricsConfig(norm_indices=(0, 50))
        assert resolve_norm_indices(51, cfg) == (0, 50)

    def test_explicit_pair_overrides_default(self):
        cfg = MetricsConfig(norm_indices=(1, 2))
        assert resolve_norm_indices(98, cfg) == (1, 2)

    def test_out_of_range_pair_rejected(self):
        with pytest.raises(ConfigError):
            resolve_norm_indices(68, MetricsConfig(norm_indices=(36, 70)))

    def test_norm_distance_and_unusable_pairs(self):
        pts = np.array([[[0.0, 0.0], [3.0, 4.0], [3.0, 4.0], [np.nan, np.nan]]])
        assert norm_distances(pts, (0, 1)).tolist() == [5.0]
        assert np.isnan(norm_distances(pts, (1, 2))).all()   # coincident points
        assert np.isnan(norm_distances(pts, (0, 3))).all()   # non-finite point

    def test_batched_distances_equal_single_vector_norm(self):
        # every NME is divided by this distance, so the batch must keep the
        # last bit of np.linalg.norm taken of one vector at a time
        rng = np.random.Generator(np.random.PCG64(113))
        pts = rng.uniform(0.0, 500.0, size=(1000, 3, 2))
        pts[7, 1] = pts[7, 0]
        pts[9, 0] = np.nan
        got = norm_distances(pts, (0, 1))
        for k in range(len(pts)):
            d = float(np.linalg.norm(pts[k, 0] - pts[k, 1]))
            want = d if np.isfinite(d) and d > 0 else np.nan
            assert np.array_equal(got[k], want, equal_nan=True), k

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            MetricsConfig(norm_indices=(5, 5))
        with pytest.raises(ConfigError):
            MetricsConfig(norm_indices=(-1, 5))
        # indices are integers, refused in the payload reader's words, not truncated
        for pair, bad in [((60.9, 72.2), 60.9), ((True, 3), True), ((60, 72.0), 72.0),
                          (("60", 72), "60")]:
            with pytest.raises(ConfigError) as err:
                MetricsConfig(norm_indices=pair)
            assert str(err.value) == (f"field 'norm_indices': must be an integer of at least 0, "
                                      f"got {bad!r}")
        cfg = MetricsConfig(norm_indices=(np.int64(60), np.uint8(72)))
        assert cfg.norm_indices == (60, 72) and all(type(i) is int for i in cfg.norm_indices)
        with pytest.raises(ConfigError):
            MetricsConfig(threshold=0.0)
        # reports name the threshold in percent: 1e307 is finite, 1e309 % is not
        with pytest.raises(ConfigError, match="finite in percent"):
            MetricsConfig(threshold=1e307)


class TestCedAuc:
    def test_two_image_example(self):
        assert ced_auc([0.05, 0.20], 0.1) == pytest.approx(0.25, abs=1e-15)

    def test_all_zero_errors(self):
        assert ced_auc([0.0, 0.0, 0.0], 0.1) == 1.0

    def test_all_above_threshold(self):
        assert ced_auc([0.2, 0.3], 0.1) == 0.0

    def test_error_at_threshold_contributes_nothing(self):
        assert ced_auc([0.1], 0.1) == 0.0

    def test_matches_closed_form_random_sets(self):
        rng = np.random.Generator(np.random.PCG64(101))
        for _ in range(300):
            m = int(rng.integers(1, 40))
            errs = rng.uniform(0.0, 0.3, size=m)
            t = float(rng.uniform(0.01, 0.2))
            assert abs(ced_auc(errs, t) - closed_form_auc(errs, t)) < 1e-12

    def test_matches_quadrature(self):
        rng = np.random.Generator(np.random.PCG64(103))
        errs = rng.uniform(0.0, 0.2, size=57)
        got = ced_auc(errs, 0.1)
        assert got == pytest.approx(rectangle_auc(errs, 0.1), abs=1e-4)

    def test_duplicate_errors(self):
        errs = [0.05, 0.05, 0.05, 0.2]
        assert ced_auc(errs, 0.1) == pytest.approx(closed_form_auc(errs, 0.1),
                                                   abs=1e-15)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ced_auc([], 0.1)
        with pytest.raises(ConfigError):
            ced_auc([0.1], 0.0)
        with pytest.raises(ConfigError):
            ced_auc([-0.1], 0.1)
        with pytest.raises(ConfigError):
            ced_auc([np.nan], 0.1)
        for t in (np.nan, np.inf):
            for fn in (ced_auc, ced_points, failure_rate):
                with pytest.raises(ConfigError):
                    fn([0.05], t)

    @given(st.lists(st.sampled_from([0.0, 0.01, 0.025, 0.05, 0.1, 0.2])
                    | st.floats(0.0, 0.3), min_size=1, max_size=40),
           st.integers(0, 39), st.floats(0.001, 0.3), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_running_sum(self, errs, k, t, at_error):
        # ties, zeros, and a threshold equal to one of the errors
        if at_error and errs[k % len(errs)] > 0:
            t = errs[k % len(errs)]
        assert ced_auc(errs, t) == walked_auc(errs, t)

    @given(st.lists(st.floats(0.0, 0.5), min_size=1, max_size=30),
           st.floats(0.01, 0.3))
    @settings(max_examples=200, deadline=None)
    def test_closed_form_property(self, errs, t):
        assert abs(ced_auc(errs, t) - closed_form_auc(errs, t)) < 1e-12

    @given(st.lists(st.floats(0.0, 0.5), min_size=1, max_size=30),
           st.integers(0, 29), st.floats(0.001, 0.3))
    @settings(max_examples=200, deadline=None)
    def test_increasing_an_error_never_raises_auc(self, errs, k, bump):
        worse = list(errs)
        worse[k % len(errs)] += bump
        assert ced_auc(worse, 0.1) <= ced_auc(errs, 0.1) + 1e-12

    @given(st.permutations(list(range(8))))
    @settings(max_examples=50, deadline=None)
    def test_order_invariance(self, perm):
        errs = np.array([0.01, 0.02, 0.05, 0.07, 0.11, 0.0, 0.03, 0.09])
        assert ced_auc(errs[list(perm)], 0.1) == ced_auc(errs, 0.1)

    def test_scale_invariance(self):
        rng = np.random.Generator(np.random.PCG64(107))
        errs = rng.uniform(0.0, 0.2, size=33)
        a = ced_auc(errs, 0.1)
        b = ced_auc(errs * 4.0, 0.4)
        assert a == pytest.approx(b, abs=1e-12)


class TestFailureRate:
    def test_strictly_above(self):
        assert failure_rate([0.05, 0.20], 0.1) == 0.5
        assert failure_rate([0.1], 0.1) == 0.0
        assert failure_rate([0.10000001], 0.1) == 1.0

    def test_bounds(self):
        assert failure_rate([0.0, 0.01], 0.1) == 0.0
        assert failure_rate([0.2, 0.3], 0.1) == 1.0

    @given(st.lists(st.floats(0.0, 0.5), min_size=1, max_size=30),
           st.floats(0.01, 0.2), st.floats(0.0, 0.2))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_threshold(self, errs, t, dt):
        assert failure_rate(errs, t + dt) <= failure_rate(errs, t)

    def test_validation(self):
        with pytest.raises(ConfigError):
            failure_rate([], 0.1)
        with pytest.raises(ConfigError):
            failure_rate([0.05], -0.1)


class TestCedPoints:
    def test_small_example_rows(self):
        pts = ced_points([0.02, 0.05, 0.05, 0.2], 0.1)
        assert pts == [(0.0, 0.0), (0.02, 0.25), (0.05, 0.75), (0.1, 0.75)]

    def test_endpoints_always_present(self):
        pts = ced_points([0.5], 0.1)
        assert pts[0] == (0.0, 0.0)
        assert pts[-1] == (0.1, 0.0)

    def test_zero_error_row_merges_with_origin(self):
        pts = ced_points([0.0, 0.05], 0.1)
        assert pts == [(0.0, 0.5), (0.05, 1.0), (0.1, 1.0)]

    def test_fractions_nondecreasing(self):
        rng = np.random.Generator(np.random.PCG64(109))
        errs = rng.uniform(0.0, 0.2, size=40)
        pts = ced_points(errs, 0.1)
        fr = [f for _, f in pts]
        assert fr == sorted(fr)
        assert all(0.0 <= f <= 1.0 for f in fr)

    def test_curve_reproduces_auc(self):
        # trapezoid over the step rows with right-continuous steps
        rng = np.random.Generator(np.random.PCG64(113))
        errs = rng.uniform(0.0, 0.2, size=25)
        pts = ced_points(errs, 0.1)
        area = 0.0
        for (x0, f0), (x1, _) in zip(pts, pts[1:]):
            area += f0 * (x1 - x0)
        assert ced_auc(errs, 0.1) == pytest.approx(area / 0.1, abs=1e-12)


class TestCedCsv:
    def test_golden_output(self):
        got = format_ced_csv(ced_points([0.02, 0.05, 0.05, 0.2], 0.1))
        assert got == ("nme_threshold,fraction\n"
                       "0.0,0.0\n"
                       "0.02,0.25\n"
                       "0.05,0.75\n"
                       "0.1,0.75\n")

    def test_format_round_trips_full_precision(self):
        pts = [(0.1 / 3.0, 1.0 / 7.0), (0.05, 0.3)]
        text = format_ced_csv(pts)
        rows = [tuple(float(v) for v in line.split(","))
                for line in text.strip().splitlines()[1:]]
        assert rows == pts
