"""Benchmark runner tests: analytic oracles, determinism, report formats.

The closed-form constant for nearest-cell rounding error is re-derived
here by numeric double integration before being compared against the
implementation, so the frozen value is independently checked rather than
copied out of the source.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest
from conftest import join, make_records, one_face

import subpix.bench
from subpix.bench import (_MC_BLOCK, BenchConfig, BenchReport, Column, SchemeStats,
                          _face_maps, _mc_blocks, _roundtrip_scores, analytic_direct_error,
                          build_samples, emit_report, format_report, run_ideal,
                          run_montecarlo)
from subpix.codec import (SCHEME_ORDER, CodecConfig, DecimalOverflow, Scheme, decode,
                          encode_points, ideal_roundtrip)
from subpix.datasets import Corpus
from subpix.errors import ConfigError
from subpix.geometry import heatmap_transform
from subpix.metrics import MetricsConfig, point_distances, resolve_norm_indices

# expected 2-D distance to the nearest grid point under uniform offsets
ROUNDING_CONSTANT = 0.38259785823210635


def grid_aligned_records(n_images: int = 3) -> Corpus:
    """Faces whose landmarks sit exactly on heatmap cells after a unit crop.

    The exclusive bounding box (0, 0, 256, 256) maps onto the unit square
    with no shift, so on the 64-cell grid raw coordinates at multiples of 4
    land on integer heatmap cells. All 98 cells are distinct, keeping shared-
    offset-map encoding conflict-free.
    """
    cells = [(k % 64, 5 + 8 * (k // 64)) for k in range(98)]
    pts = np.array(cells, dtype=np.float64) * 4.0
    return Corpus("aligned", [f"aligned_{k}" for k in range(n_images)],
                  [f"{k}.png" for k in range(n_images)], np.tile(pts, (n_images, 1, 1)),
                  bbox=np.tile([0.0, 0.0, 256.0, 256.0], (n_images, 1)))


ALIGNED_CFG = dict(crop_source="bbox", crop_margin=0.0, bbox_inclusive=False)


class TestAnalyticDirectError:
    def test_frozen_values(self):
        assert analytic_direct_error(1.0) == pytest.approx(ROUNDING_CONSTANT, abs=1e-15)
        assert analytic_direct_error(4.0) == pytest.approx(1.5303914329284254, abs=1e-15)
        assert analytic_direct_error(0.0) == 0.0

    def test_matches_quadrature(self):
        from scipy import integrate
        # E||(U, V)|| with U, V uniform on (-1/2, 1/2): fold both axes onto
        # [0, 1/2] (density 4) and integrate the radius
        val, err = integrate.dblquad(lambda y, x: math.hypot(x, y),
                                     0.0, 0.5, 0.0, 0.5)
        assert err < 1e-7
        assert analytic_direct_error(1.0) == pytest.approx(4.0 * val, abs=1e-8)

    def test_closed_form_identity(self):
        want = (math.sqrt(2.0) + math.asinh(1.0)) / 6.0
        assert analytic_direct_error(1.0) == want

    def test_linear_in_n(self):
        assert analytic_direct_error(7.0) == pytest.approx(
            7.0 * analytic_direct_error(1.0), rel=1e-15)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            analytic_direct_error(-1.0)
        with pytest.raises(ConfigError):
            analytic_direct_error(float("nan"))


@pytest.fixture(scope="module")
def mc_report() -> BenchReport:
    return run_montecarlo(BenchConfig(seed=7, mc_samples=50_000))


@pytest.fixture(scope="module")
def ideal_report(corpus98) -> BenchReport:
    return run_ideal(corpus98, BenchConfig(seed=1))


def _row(report: BenchReport, scheme: Scheme) -> SchemeStats:
    return next(r for r in report.rows if r.scheme is scheme)


class TestMonteCarlo:
    @pytest.fixture
    def report(self, mc_report) -> BenchReport:
        return mc_report

    def _row(self, report, scheme) -> SchemeStats:
        return _row(report, scheme)

    def test_direct_within_noise_of_analytic(self, report):
        r = self._row(report, Scheme.DIRECT)
        assert r.analytic_px_error == pytest.approx(1.5303914329284254, abs=1e-12)
        assert abs(r.mean_px_error - r.analytic_px_error) < 4.0 * r.px_error_se

    def test_wsm_identical_to_direct(self, report):
        a = self._row(report, Scheme.DIRECT)
        b = self._row(report, Scheme.WSM)
        assert a.mean_px_error == b.mean_px_error
        assert a.px_error_se == b.px_error_se

    def test_lossless_schemes_exact_zero(self, report):
        assert self._row(report, Scheme.WOV).mean_px_error == 0.0
        assert self._row(report, Scheme.WOM).mean_px_error == 0.0
        assert self._row(report, Scheme.WOM).conflicts == 0

    def test_hih_mean_is_direct_over_decimal_width(self, report):
        # decimal requantization shrinks the rounding distribution by 8:
        # same closed form applies at 1/8 scale away from the grid border
        hih = self._row(report, Scheme.HIH)
        direct = self._row(report, Scheme.DIRECT)
        want = direct.analytic_px_error / 8.0
        assert abs(hih.mean_px_error - want) < 4.0 * hih.px_error_se
        ratio = direct.mean_px_error / hih.mean_px_error
        assert 0.9 * 8 <= ratio <= 1.1 * 8

    def test_scheme_dominance(self, report):
        means = {r.scheme: r.mean_px_error for r in report.rows}
        assert means[Scheme.WOV] <= means[Scheme.HIH] <= means[Scheme.WSM]
        assert means[Scheme.WSM] == means[Scheme.DIRECT]

    def test_deterministic_per_seed(self):
        cfg = BenchConfig(seed=19, mc_samples=2_000)
        a = emit_report(run_montecarlo(cfg), "json")
        b = emit_report(run_montecarlo(cfg), "json")
        assert a == b
        c = emit_report(run_montecarlo(BenchConfig(seed=20, mc_samples=2_000)), "json")
        assert a != c

    def test_crowded_samples_produce_conflicts(self):
        cfg = BenchConfig(seed=3, mc_samples=200, mc_landmarks=64)
        report = run_montecarlo(cfg)
        wom = self._row(report, Scheme.WOM)
        assert wom.conflicts > 0
        assert wom.mean_px_error > 0.0
        # per-landmark offsets are immune to cell sharing
        assert self._row(report, Scheme.WOV).mean_px_error == 0.0

    def test_mc_n_scales_errors(self):
        a = run_montecarlo(BenchConfig(seed=5, mc_samples=2_000, mc_n=1.0))
        b = run_montecarlo(BenchConfig(seed=5, mc_samples=2_000, mc_n=4.0))
        ra = self._row(a, Scheme.DIRECT)
        rb = self._row(b, Scheme.DIRECT)
        assert rb.mean_px_error == pytest.approx(4.0 * ra.mean_px_error, rel=1e-12)

    def test_smallest_scale_factor_keeps_spread(self):
        # squared deviations at 1e-150 are still normal floats, so the SE
        # scales with the errors instead of underflowing to 0
        unit = self._row(run_montecarlo(BenchConfig(seed=5, mc_samples=3, mc_n=1.0)),
                         Scheme.DIRECT)
        tiny = self._row(run_montecarlo(BenchConfig(seed=5, mc_samples=3, mc_n=1e-150)),
                         Scheme.DIRECT)
        assert unit.px_error_se > 0.0
        assert tiny.mean_px_error == pytest.approx(1e-150 * unit.mean_px_error, rel=1e-12)
        assert tiny.px_error_se == pytest.approx(1e-150 * unit.px_error_se, rel=1e-12)

    @pytest.mark.parametrize("mc_n", [1e308, 1e307])
    def test_overflowing_errors_refused(self, mc_n):
        # 1e308 overflows the errors themselves, 1e307 only their spread
        with pytest.raises(ConfigError, match="too large for a float"):
            run_montecarlo(BenchConfig(seed=5, mc_samples=100, mc_n=mc_n))


#: ulps a block-merged Monte-Carlo mean or SE may sit from numpy's one-pass
#: value over the concatenated errors (2 is the most seen, up to 62 blocks)
MERGE_ULPS = 8


def _streamed(cfg: BenchConfig) -> np.ndarray:
    """Every block's points, concatenated."""
    return np.concatenate(list(_mc_blocks(cfg)))


class TestMonteCarloStream:
    @staticmethod
    def _spanning(landmarks: int) -> int:
        """A sample count that fills three blocks and leaves a ragged fourth."""
        return 3 * (_MC_BLOCK // landmarks) + 123

    @pytest.mark.parametrize("landmarks", [1, 4])
    def test_prefix_does_not_depend_on_sample_count(self, landmarks):
        m = self._spanning(landmarks)
        short = BenchConfig(seed=11, mc_samples=m, mc_landmarks=landmarks)
        blocks = list(_mc_blocks(short))
        assert len(blocks) == 4 and len(blocks[-1]) < len(blocks[0])
        longer = _streamed(BenchConfig(seed=11, mc_samples=3 * m + 1,
                                       mc_landmarks=landmarks))
        np.testing.assert_array_equal(np.concatenate(blocks), longer[:m * landmarks])

    @pytest.mark.parametrize("scheme", [Scheme.DIRECT, Scheme.HIH, Scheme.WOM])
    def test_merge_matches_one_pass(self, scheme):
        cfg = BenchConfig(seed=4, mc_samples=self._spanning(4), mc_landmarks=4,
                          schemes=(scheme,))
        row = run_montecarlo(cfg).rows[0]
        points = _streamed(cfg)
        coords = np.concatenate([ideal_roundtrip(p, cfg.codec.for_scheme(scheme),
                                                 group_size=4)[0] for p in _mc_blocks(cfg)])
        err = cfg.mc_n * np.hypot(*(coords - points).T)
        mean = float(np.mean(err))
        se = float(np.std(err, ddof=1) / math.sqrt(err.size))
        assert mean > 0.0 and se > 0.0
        assert abs(row.mean_px_error - mean) <= MERGE_ULPS * np.spacing(mean)
        assert abs(row.px_error_se - se) <= MERGE_ULPS * np.spacing(se)

    @pytest.mark.parametrize("landmarks", [1, 4, 98])
    def test_distances_within_one_ulp_of_hypot(self, landmarks):
        # the errors are scored by point_distances, not np.hypot; on deltas of
        # at most one cell the two may differ in the last bit only
        cfg = BenchConfig(seed=2, mc_samples=self._spanning(landmarks), mc_landmarks=landmarks)
        differ = 0
        for points in _mc_blocks(cfg):
            for scheme in SCHEME_ORDER:
                coords = ideal_roundtrip(points, cfg.codec.for_scheme(scheme),
                                         group_size=landmarks)[0]
                delta = coords - points
                assert np.abs(delta).max() <= 1.0
                got = point_distances(delta)
                want = np.hypot(delta[:, 0], delta[:, 1])
                ulps = np.abs(got.view(np.int64) - want.view(np.int64))
                assert ulps.max() <= 1, scheme
                differ += np.count_nonzero(ulps)
        assert differ > 0

    def test_wom_conflicts_match_one_call(self):
        cfg = BenchConfig(seed=3, mc_samples=3000, mc_landmarks=64, schemes=(Scheme.WOM,))
        _, _, conflicts = ideal_roundtrip(_streamed(cfg), cfg.codec.for_scheme(Scheme.WOM),
                                          group_size=64)
        assert conflicts > 0
        assert run_montecarlo(cfg).rows[0].conflicts == conflicts

    def test_clamped_points_summed_over_blocks(self):
        # under clamp a hih fraction that rounds up to a whole cell is flagged;
        # the draw spans three blocks, and every scheme's flags are counted
        codec = CodecConfig(scheme=Scheme.HIH, decimal_overflow=DecimalOverflow.CLAMP)
        cfg = BenchConfig(seed=8, mc_samples=20000, codec=codec)
        flags = dict.fromkeys(SCHEME_ORDER, 0)
        for points in _mc_blocks(cfg):
            for scheme in SCHEME_ORDER:
                clamped = ideal_roundtrip(points, cfg.codec.for_scheme(scheme),
                                          group_size=cfg.mc_landmarks)[1]
                flags[scheme] += int(np.count_nonzero(clamped))
        assert flags[Scheme.HIH] > 0
        assert {r.scheme: r.clamped_points for r in run_montecarlo(cfg).rows} == flags

    def test_one_roundtrip_per_scheme_per_block(self, monkeypatch):
        calls = []

        def counted(points, cfg, **kwargs):
            calls.append((cfg.scheme, len(points)))
            return ideal_roundtrip(points, cfg, **kwargs)

        monkeypatch.setattr(subpix.bench, "ideal_roundtrip", counted)
        cfg = BenchConfig(seed=1, mc_samples=2 * _MC_BLOCK + 5)
        run_montecarlo(cfg)
        assert len(calls) == 3 * len(SCHEME_ORDER)
        assert sum(n for _, n in calls) == len(SCHEME_ORDER) * cfg.mc_samples


class TestRunIdeal:
    @pytest.fixture
    def report(self, ideal_report) -> BenchReport:
        return ideal_report

    def _row(self, report, scheme) -> SchemeStats:
        return _row(report, scheme)

    def test_wov_error_floor(self, report):
        assert self._row(report, Scheme.WOV).nme < 1e-9

    def test_wsm_equals_direct_exactly(self, report):
        a = self._row(report, Scheme.DIRECT)
        b = self._row(report, Scheme.WSM)
        assert a.nme == b.nme and a.auc == b.auc and a.fr == b.fr
        for pa, pb in zip(a.per_image, b.per_image):
            assert pa.nme == pb.nme

    def test_dominance(self, report):
        nmes = {r.scheme: r.nme for r in report.rows}
        assert nmes[Scheme.WOV] <= nmes[Scheme.HIH] <= nmes[Scheme.DIRECT]

    def test_rows_follow_scheme_order(self, report):
        assert [r.scheme.value for r in report.rows] == \
            ["direct", "wsm", "wov", "wom", "hih"]

    def test_ordering_invariance(self, corpus98):
        cfg = BenchConfig(seed=1)
        base = emit_report(run_ideal(corpus98, cfg), "json")
        shuffled = list(range(len(corpus98)))
        random.Random(99).shuffle(shuffled)
        assert emit_report(run_ideal(corpus98[shuffled], cfg), "json") == base

    def test_grid_aligned_landmarks_score_zero(self):
        report = run_ideal(grid_aligned_records(), BenchConfig(**ALIGNED_CFG))
        for r in report.rows:
            assert r.nme == 0.0, r.scheme
            assert r.auc == 1.0
            assert r.fr == 0.0
            assert r.conflicts == 0

    def test_wom_error_decomposition(self, report):
        # a conflict-free landmark takes exactly the per-landmark-offset
        # code path, so its error must be bit-equal to the WOV one; only
        # overwritten landmarks may differ, one per counted conflict
        wom = self._row(report, Scheme.WOM)
        wov = self._row(report, Scheme.WOV)
        assert wom.conflicts > 0  # the corpus is built to collide sometimes
        mismatches = 0
        for pw, pv in zip(wom.per_image, wov.per_image):
            assert pv.id == pw.id
            mismatches += int(np.count_nonzero(pw.per_point != pv.per_point))
        assert mismatches == wom.conflicts

    def test_wom_in_heatmap_space_exact_outside_conflicts(self, corpus98):
        # the "sum of conflict-free errors is exactly zero" form of the
        # invariant holds in heatmap space where no inverse transform runs
        cfg = BenchConfig(seed=1)
        faces, _ = build_samples(corpus98, cfg)
        wov_cfg = cfg.codec.for_scheme(Scheme.WOV)
        wom_cfg = cfg.codec.for_scheme(Scheme.WOM)
        t = heatmap_transform(_face_maps(faces, cfg)[0], cfg.codec.heatmap_shape)
        for hm in t.apply(faces.points)[:6]:
            wov_coords, _, _ = ideal_roundtrip(hm, wov_cfg)
            wom_coords, _, conflicts = ideal_roundtrip(hm, wom_cfg)
            same = np.all(wom_coords == wov_coords, axis=1)
            err_free = np.linalg.norm((wom_coords - hm)[same], axis=1)
            assert float(err_free.sum()) == 0.0
            assert int(np.count_nonzero(~same)) == conflicts

    def test_skipped_degenerate_records(self, corpus98):
        broken = one_face("dup", np.tile(corpus98.points[0, :1], (98, 1)))
        report = run_ideal(join(corpus98, broken), BenchConfig(seed=1))
        assert report.skipped == 1
        assert report.n_images == len(corpus98)

    def test_all_degenerate_rejected(self, corpus98):
        broken = one_face("dup", np.tile(corpus98.points[0, :1], (98, 1)))
        with pytest.raises(ConfigError):
            run_ideal(broken, BenchConfig(seed=1))
        # the refusal counts each skip reason: every 'dup' point sits at one
        # place, so it has no distance; faces that keep one have a crop far
        # too wide for floats at this margin
        odd = join(broken, corpus98[:5])
        with pytest.raises(ConfigError, match=r"^every record was skipped \(1 with no usable "
                           r"normalization distance, 5 with an unusable crop\); nothing to "
                           r"benchmark$"):
            run_ideal(odd, BenchConfig(seed=1, crop_margin=1e308))

    def test_overflowing_percent_refused(self, corpus98):
        # every point error of face 'a' is finite, but its NME in percent is
        # not: a crop 2^495 (about 1.6e149) wide and a normalization distance
        # of 1e-160. With no margin the crop's scale and offset are powers of
        # two and zero, so the map to the heatmap and back is exact and the
        # face passes the round-trip check.
        side = 2.0 ** 495
        points = side * np.random.Generator(np.random.PCG64(3)).random((98, 2))
        points[0], points[1] = (0.0, 0.0), (side, side)
        points[60], points[72] = (0.0, 0.0), (1e-160, 0.0)
        corpus = join(one_face("a", points), corpus98[1:2])
        with pytest.raises(ConfigError, match="^record 'a': landmark error too large"):
            run_ideal(corpus, BenchConfig(schemes=("direct",), crop_margin=0.0))

    def test_unresolvable_faces_refused_in_id_order(self, corpus98):
        # a point at 1e200 leaves a crop too wide to place the face's other
        # points; the first such face by id is named, whatever the file order
        points = corpus98.points[:4].copy()
        points[[1, 3], 5, 0] = 1e200
        faces = Corpus("d", corpus98.ids[:4], corpus98.image_paths[:4], points)
        for order in ([0, 1, 2, 3], [3, 2, 1, 0]):
            with pytest.raises(ConfigError, match=f"^record '{corpus98.ids[1]}': mapping "
                                                  f"its points to the heatmap and back"):
                run_ideal(faces[order], BenchConfig(schemes=("wov",)))

    def test_68_point_layout(self, corpus68):
        report = run_ideal(corpus68, BenchConfig(seed=1))
        assert self._row(report, Scheme.WOV).nme < 1e-9
        assert self._row(report, Scheme.DIRECT).nme > 0


def grid_oracle(corpus: Corpus, cfg: BenchConfig,
                crop_px: int = 256) -> dict:
    """The per-sample grid path: render, decode and map back one image at a time.

    Each image goes through the two-step maps of :func:`chained_maps`.
    Returns, per scheme, ``(per_image, clamped_points, conflicts)`` with
    ``per_image`` mapping each kept image id to ``(nme, per_point)``.
    """
    _, kept = chained_maps(corpus, cfg, crop_px)
    dims = np.array(cfg.codec.heatmap_shape, dtype=np.float64)
    out = {}
    for scheme in cfg.schemes:
        ccfg = cfg.codec.for_scheme(scheme)
        per_image, clamped, conflicts = {}, 0, 0
        for k, d, hm, inv, inv_off in kept:
            enc = encode_points(hm, ccfg)
            dec = decode(enc)
            back = (dec.points * dims) @ inv.T + inv_off
            err = np.linalg.norm(back - corpus.points[k], axis=1)
            per_image[corpus.ids[k]] = (float(np.mean(err) / d), err / d)
            clamped += int(np.count_nonzero(dec.clamped))
            conflicts += enc.conflict_count
        out[scheme] = (per_image, clamped, conflicts)
    return out


def shrunk_box_records(n_landmarks: int, seed: int) -> Corpus:
    """Faces whose boxes cut off their outer landmarks, plus one box that
    misses its face entirely, so that points really leave the grid and every
    point of one image is clamped onto it."""
    faces = make_records(12, n_landmarks=n_landmarks, seed=seed)
    x0, y0, x1, y1 = faces.bbox.T
    inset = 0.08 * (x1 - x0)
    boxes = np.stack([x0 + inset, y0 + inset, x1 - inset, y1 - inset], axis=1)
    x0, y0, x1, y1 = boxes[0]
    off = one_face("zz_off_face", faces.points[0], image_path="off.png",
                   bbox=(x1 + 50, y1 + 50, 2 * x1 - x0 + 50, 2 * y1 - y0 + 50))
    return join(Corpus(faces.name, faces.ids, faces.image_paths, faces.points, bbox=boxes), off)


# heatmap grid sides, each with the 256-pixel crop of the two-step oracle
GRIDS = [(32, 256), (48, 256), (60, 256), (64, 256), (128, 256)]


class TestRunIdealMatchesGridOracle:
    """Batched grid-free ``run_ideal`` against the per-sample grid path, exactly."""

    @pytest.mark.parametrize("n_landmarks", [98, 68])
    @pytest.mark.parametrize("grid,crop_px", GRIDS)
    @pytest.mark.parametrize("crop", ["landmarks", "bbox"])
    @pytest.mark.parametrize("overflow", list(DecimalOverflow))
    def test_bit_equal(self, n_landmarks, grid, crop_px, crop, overflow):
        codec = CodecConfig(scheme=Scheme.DIRECT, heatmap_shape=(grid, grid),
                            decimal_overflow=overflow)
        if crop == "landmarks":
            records = make_records(12, n_landmarks=n_landmarks, seed=31)
            cfg = BenchConfig(codec=codec)
        else:
            records = shrunk_box_records(n_landmarks, seed=31)
            cfg = BenchConfig(codec=codec, crop_source="bbox", crop_margin=0.0)
        report = run_ideal(records, cfg)
        oracle = grid_oracle(records, cfg, crop_px)
        for row in report.rows:
            want, clamped, conflicts = oracle[row.scheme]
            assert [p.id for p in row.per_image] == sorted(want)
            for p in row.per_image:
                nme, per_point = want[p.id]
                assert p.nme == nme, (row.scheme, p.id)
                np.testing.assert_array_equal(p.per_point, per_point)
            assert row.clamped_points == clamped
            assert row.conflicts == conflicts
        assert sum(r.conflicts for r in report.rows) > 0
        assert all(r.n_images == report.n_images for r in report.rows)
        if crop == "bbox":
            assert all(r.clamped_points > 0 for r in report.rows)


def chained_maps(corpus: Corpus, cfg: BenchConfig,
                 crop_px: int = 256) -> tuple[int, list]:
    """Per-image raw -> heatmap maps by the two-step arithmetic the unit-square
    crop replaced.

    Each image gets its own 2x2 matrices: a crop onto ``crop_px`` pixels
    (scale ``crop_px / side``), the model's downscale by ``w / crop_px``
    composed onto it by matrix products, and the inverse by
    ``np.linalg.inv``; points map as ``p @ A.T + b``. The normalization
    distance is ``np.linalg.norm`` of one vector, and a face is skipped
    wherever one of those steps refuses it.

    Returns ``(skipped, kept)`` with ``kept`` holding ``(face index, norm
    distance, heatmap points, inverse matrix, inverse offset)`` per image.
    """
    pair = resolve_norm_indices(corpus.points.shape[1], cfg.metrics)
    down = np.eye(2) * (1.0 / (crop_px / cfg.codec.heatmap_shape[0]))
    kept, skipped = [], 0
    for k, pts in enumerate(corpus.points):
        d = float(np.linalg.norm(pts[pair[0]] - pts[pair[1]]))
        if not (np.isfinite(d) and d > 0):
            skipped += 1
            continue
        if cfg.crop_source == "bbox":
            if np.isnan(corpus.bbox[k]).any():
                skipped += 1
                continue
            x0, y0, x1, y1 = (float(v) for v in corpus.bbox[k])
            extra = 1.0 if cfg.bbox_inclusive else 0.0
            side = max(x1 - x0 + extra, y1 - y0 + extra) * (1.0 + cfg.crop_margin)
            center = np.array([(x0 + x1) / 2.0, (y0 + y1) / 2.0])
        else:
            lo, hi = pts.min(axis=0), pts.max(axis=0)
            side = float(max(hi[0] - lo[0], hi[1] - lo[1])) * (1.0 + cfg.crop_margin)
            center = (lo + hi) / 2.0
        if not (np.isfinite(side) and side > 0):
            skipped += 1
            continue
        scale = crop_px / side
        lin = down @ (np.eye(2) * scale)
        off = down @ (-scale * (center - side / 2.0)) + np.zeros(2)
        inv = np.linalg.inv(lin)
        kept.append((k, d, pts @ lin.T + off, inv, -inv @ off))
    return skipped, kept


def chained_ideal(corpus: Corpus, cfg: BenchConfig,
                  crop_px: int = 256) -> tuple[int, dict]:
    """:func:`run_ideal` as it ran on the per-image maps of :func:`chained_maps`.

    Returns ``(skipped, out)`` with ``out[scheme][id] = (heatmap points,
    mapped-back raw points, nme, per_point)`` for every kept image.
    """
    skipped, kept = chained_maps(corpus, cfg, crop_px)
    dims = np.array(cfg.codec.heatmap_shape, dtype=np.float64)
    counts = [len(k[2]) for k in kept]
    points = np.concatenate([k[2] for k in kept])
    out = {}
    for scheme in cfg.schemes:
        coords, _, _ = ideal_roundtrip(points, cfg.codec.for_scheme(scheme),
                                       group_size=corpus.points.shape[1])
        out[scheme] = {}
        for (k, d, hm, inv, inv_off), q in zip(kept, np.split(coords / dims,
                                                              np.cumsum(counts)[:-1])):
            back = (q * dims) @ inv.T + inv_off
            err = np.linalg.norm(back - corpus.points[k], axis=1)
            out[scheme][corpus.ids[k]] = (hm, back, float(np.mean(err) / d), err / d)
    return skipped, out


def assert_matches_chain(corpus: Corpus, cfg: BenchConfig,
                         crop_px: int = 256) -> BenchReport:
    """run_ideal and the batched kernel equal :func:`chained_ideal`, exactly."""
    skipped, want = chained_ideal(corpus, cfg, crop_px)
    report = run_ideal(corpus, cfg)
    assert report.skipped == skipped
    faces, _ = build_samples(corpus, cfg)
    dims = np.array(cfg.codec.heatmap_shape, dtype=np.float64)
    t = heatmap_transform(_face_maps(faces, cfg)[0], cfg.codec.heatmap_shape)
    hm = t.apply(faces.points)
    for row in report.rows:
        ref = want[row.scheme]
        assert [p.id for p in row.per_image] == sorted(ref)
        for p in row.per_image:
            assert p.nme == ref[p.id][2], (row.scheme, p.id)
            assert np.array_equal(p.per_point, ref[p.id][3])
        coords, _, _ = ideal_roundtrip(hm.reshape(-1, 2), cfg.codec.for_scheme(row.scheme),
                                       group_size=hm.shape[1])
        back = t.inverse().apply((coords / dims * dims).reshape(hm.shape))
        for k, rid in enumerate(faces.ids):
            assert np.array_equal(hm[k], ref[rid][0])
            assert np.array_equal(back[k], ref[rid][1])
    return report


class TestBatchedGeometryMatchesChain:
    """The batched crop kernel against the per-image matrix chain, with no tolerance."""

    @pytest.mark.parametrize("n_landmarks", [98, 68])
    @pytest.mark.parametrize("grid,crop_px", GRIDS)
    @pytest.mark.parametrize("crop_source", ["landmarks", "bbox"])
    @pytest.mark.parametrize("margin", [0.0, 0.25])
    @pytest.mark.parametrize("overflow", list(DecimalOverflow))
    def test_bit_equal(self, n_landmarks, grid, crop_px, crop_source, margin, overflow):
        codec = CodecConfig(scheme=Scheme.DIRECT, heatmap_shape=(grid, grid),
                            decimal_overflow=overflow)
        cfg = BenchConfig(codec=codec, crop_source=crop_source, crop_margin=margin)
        records = shrunk_box_records(n_landmarks, seed=37)
        report = assert_matches_chain(records, cfg, crop_px)
        # margin 0 puts the extreme landmarks on the far border, so the
        # clamp really acts there
        if margin == 0.0:
            assert all(r.clamped_points > 0 for r in report.rows)

    @pytest.mark.parametrize("crop_source", ["landmarks", "bbox"])
    def test_skip_rules(self, crop_source):
        # faces mixed with each kind of record the batch must skip
        records = make_records(6, seed=41)
        pts = records.points[0]
        odd = [
            one_face("zero_norm", np.where(np.arange(98)[:, None] == 72, pts[60], pts),
                     bbox=records.bbox[0]),
            one_face("no_bbox", records.points[1]),
            one_face("one_point", np.tile(pts[:1], (98, 1)), bbox=records.bbox[2]),
        ]
        mixed = join(*(part for k, face in enumerate(odd) for part in (records[k:k + 1], face)),
                     records[5:])
        cfg = BenchConfig(crop_source=crop_source)
        report = assert_matches_chain(mixed, cfg)
        scored = {p.id for p in report.rows[0].per_image}
        if crop_source == "bbox":
            assert report.skipped == 3 and "no_bbox" not in scored
        else:
            assert report.skipped == 2 and "no_bbox" in scored


class TestRoundtripScores:
    def test_one_load_serves_every_grid(self):
        # one load and one unit-square crop, scored on two grids, equal run_ideal
        # at each grid bit for bit: the crop does not depend on the grid
        records = make_records(24, 98)
        faces, _ = build_samples(records, BenchConfig())
        crop, _, d = _face_maps(faces, BenchConfig())
        for g in (32, 64):
            cfg = BenchConfig(codec=CodecConfig(scheme=Scheme.DIRECT, heatmap_shape=(g, g)))
            scores = _roundtrip_scores(faces, d, heatmap_transform(crop, (g, g)), cfg)
            report = run_ideal(records, cfg)
            assert list(scores) == list(cfg.schemes)
            for row in report.rows:
                per_point, nme, mean, auc, fr, ced, clamped, conflicts = scores[row.scheme]
                assert per_point.shape == clamped.shape == faces.points.shape[:2]
                assert nme.shape == (len(faces),)
                assert (mean, auc, fr, ced) == (row.nme, row.auc, row.fr, row.ced), row.scheme
                assert (conflicts, int(np.count_nonzero(clamped))) == (
                    row.conflicts, row.clamped_points)
                assert list(faces.ids) == [p.id for p in row.per_image]
                assert nme.tolist() == [p.nme for p in row.per_image]
                for k, p in enumerate(row.per_image):
                    assert np.array_equal(per_point[k], p.per_point)
            assert _row(report, Scheme.WOM).conflicts > 0


class TestBuildSamples:
    def test_bbox_source_skips_boxless_records(self, corpus98):
        boxes = corpus98.bbox.copy()
        boxes[1::2] = np.nan
        trimmed = Corpus("d", corpus98.ids, corpus98.image_paths, corpus98.points, bbox=boxes)
        cfg = BenchConfig(crop_source="bbox")
        samples, skipped = build_samples(trimmed, cfg)
        assert skipped == len(corpus98) // 2
        assert len(samples) == len(corpus98) - skipped

    def test_landmark_source_ignores_bbox(self, corpus98):
        bare = Corpus("d", corpus98.ids, corpus98.image_paths, corpus98.points)
        samples, skipped = build_samples(bare, BenchConfig())
        assert skipped == 0 and len(samples) == len(corpus98)

    def test_empty_input_rejected(self, corpus98):
        with pytest.raises(ConfigError):
            build_samples(corpus98[:0], BenchConfig())

    @staticmethod
    def _odd_corpus(crop_source):
        """``make_records(24, 98)`` shuffled: faces 2 and 11 have no flags, face 7
        no normalization distance and, under bbox crops, face 15 no box.

        Returns it and, in id order, the faces that can be benchmarked.
        """
        records = make_records(24, 98)
        points, bbox, flags = records.points.copy(), records.bbox.copy(), records.attributes.copy()
        points[7, 72] = points[7, 60]    # the normalization pair at one place
        flags[[2, 11]] = np.nan
        skip = [7]
        if crop_source == "bbox":
            bbox[15] = np.nan
            skip.append(15)
        odd = Corpus(records.name, records.ids, records.image_paths, points,
                     bbox=bbox, attributes=flags)
        order = np.random.Generator(np.random.PCG64(3)).permutation(24)
        return odd[order], odd[np.setdiff1d(np.arange(24), skip)]

    @pytest.mark.parametrize("crop_source", ["landmarks", "bbox"])
    def test_returns_kept_faces_in_id_order(self, crop_source):
        shuffled, want = self._odd_corpus(crop_source)
        faces, skipped = build_samples(shuffled, BenchConfig(crop_source=crop_source))
        assert isinstance(faces, Corpus) and faces.name == want.name
        assert len(faces) == len(want) == 24 - skipped
        for name in ("ids", "image_paths"):
            assert list(getattr(faces, name)) == list(getattr(want, name)), name
        for name in ("points", "bbox", "attributes"):
            assert np.array_equal(getattr(faces, name), getattr(want, name), equal_nan=True), name
        assert np.isnan(faces.attributes).all(axis=1).sum() == 2

    @pytest.mark.parametrize("crop_source", ["landmarks", "bbox"])
    def test_face_maps_of_kept_faces_are_rows(self, crop_source):
        # _face_maps works row by row, so run_ideal's call on the kept faces
        # returns exactly the rows that build_samples' call chose them from
        shuffled, _ = self._odd_corpus(crop_source)
        cfg = BenchConfig(crop_source=crop_source)
        faces, _ = build_samples(shuffled, cfg)
        crop, usable, d = _face_maps(shuffled, cfg)
        keep = np.flatnonzero(usable)
        keep = keep[np.argsort(shuffled.ids[keep], kind="stable")]
        kept = _face_maps(faces, cfg)
        for rows in (_face_maps(shuffled[keep], cfg), (crop[keep], usable[keep], d[keep])):
            assert np.array_equal(kept[0].scale, rows[0].scale)
            assert np.array_equal(kept[0].offset, rows[0].offset)
            assert np.array_equal(kept[1], rows[1]) and kept[1].all()
            assert np.array_equal(kept[2], rows[2])


class TestBenchConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            BenchConfig(schemes=())
        with pytest.raises(ConfigError):
            BenchConfig(schemes=(Scheme.DIRECT, Scheme.DIRECT))
        with pytest.raises(ConfigError):
            BenchConfig(crop_margin=-0.1)
        for margin in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError) as err:
                BenchConfig(crop_margin=margin)
            assert str(err.value) == (f"field 'crop_margin': must be a finite number of "
                                      f"at least 0, got {margin!r}")
        with pytest.raises(ConfigError):
            BenchConfig(crop_source="detector")
        with pytest.raises(ConfigError):
            BenchConfig(mc_samples=0)
        with pytest.raises(ConfigError, match="^field 'mc_samples': .* exceeds the limit"):
            BenchConfig(mc_samples=10 ** 20)
        with pytest.raises(ConfigError, match="^field 'mc_samples': .* exceeds the limit"):
            BenchConfig(mc_samples=10 ** 10, mc_landmarks=_MC_BLOCK)
        # a sample never spans two blocks, so one may not outgrow a block;
        # that is refused before the draw's size
        for samples, landmarks in ((1, _MC_BLOCK + 1), (1, 10 ** 20), (10 ** 10, 10 ** 10)):
            with pytest.raises(ConfigError, match=f"^field 'mc_landmarks': a Monte-Carlo "
                                                  f"sample may have at most {_MC_BLOCK} "
                                                  f"landmarks$"):
                BenchConfig(mc_samples=samples, mc_landmarks=landmarks)
        assert BenchConfig(mc_samples=1, mc_landmarks=_MC_BLOCK).mc_landmarks == _MC_BLOCK
        # counts and the seed are integers, refused in the payload reader's
        # words rather than truncated or left to fail in the run
        for key, least, value in [("seed", 0, -1), ("seed", 0, 1.5), ("seed", 0, True),
                                  ("mc_samples", 1, 0), ("mc_samples", 1, True),
                                  ("mc_samples", 1, 10.5), ("mc_landmarks", 1, 2.0),
                                  ("mc_landmarks", 1, "4")]:
            with pytest.raises(ConfigError) as err:
                BenchConfig(**{key: value})
            assert str(err.value) == (f"field '{key}': must be an integer of at least "
                                      f"{least}, got {value!r}")
        cfg = BenchConfig(seed=np.uint32(7), mc_samples=np.int64(10), mc_landmarks=np.int8(2))
        assert (cfg.seed, cfg.mc_samples, cfg.mc_landmarks) == (7, 10, 2)
        assert all(type(v) is int for v in (cfg.seed, cfg.mc_samples, cfg.mc_landmarks))
        # below 1e-150 the errors' squared deviations leave the normal floats
        for mc_n in (1e-151, 1e-310, 5e-324):
            with pytest.raises(ConfigError) as err:
                BenchConfig(mc_n=mc_n)
            assert str(err.value) == (f"field 'mc_n': must be a finite number of at least "
                                      f"1e-150, got {mc_n!r}")
        assert BenchConfig(mc_n=1e-150).mc_n == 1e-150
        # a flag is a bool and a number is a number: each of these was stored
        # as given, truthy, or failed as a bare TypeError
        for key, value, rule in [
                ("bbox_inclusive", "no", "must be true or false"),
                ("bbox_inclusive", 1, "must be true or false"),
                ("crop_margin", True, "must be a finite number of at least 0"),
                ("crop_margin", "0.25", "must be a finite number of at least 0"),
                ("mc_n", True, "must be a finite number of at least 1e-150"),
                ("mc_n", 10 ** 400, "must be a finite number of at least 1e-150"),
                ("crop_source", None, "must be 'landmarks' or 'bbox'")]:
            with pytest.raises(ConfigError) as err:
                BenchConfig(**{key: value})
            assert str(err.value) == f"field '{key}': {rule}, got {value!r}"
        # a bare string is a name, not a sequence of one-letter schemes
        for schemes in ("direct", None, 5):
            with pytest.raises(ConfigError) as err:
                BenchConfig(schemes=schemes)
            assert str(err.value) == (f"field 'schemes': expected a tuple or list of "
                                      f"schemes, got {schemes!r}")
        with pytest.raises(ConfigError, match=r"^field 'scheme': unknown Scheme 'd' "):
            BenchConfig(schemes=["d"])
        cfg = BenchConfig(crop_margin=np.float32(0.5), mc_n=2, bbox_inclusive=np.bool_(False))
        assert (cfg.crop_margin, cfg.mc_n, cfg.bbox_inclusive) == (0.5, 2.0, False)
        assert [type(v) for v in (cfg.crop_margin, cfg.mc_n, cfg.bbox_inclusive)] == \
            [float, float, bool]

    def test_scheme_strings_coerced(self):
        cfg = BenchConfig(schemes=("direct", "hih"))
        assert cfg.schemes == (Scheme.DIRECT, Scheme.HIH)


class TestEmitReport:
    @pytest.fixture
    def ideal(self, ideal_report) -> BenchReport:
        return ideal_report

    @pytest.fixture
    def mc(self) -> BenchReport:
        return run_montecarlo(BenchConfig(seed=7, mc_samples=1_000))

    def test_ideal_csv_header_and_shape(self, ideal):
        lines = emit_report(ideal, "csv").strip().splitlines()
        assert lines[0] == ("scheme,nme_percent,auc10,fr10_percent,conflicts,"
                            "clamped_points,n_images")
        assert len(lines) == 6
        assert lines[1].startswith("direct,")

    def test_mc_csv_header(self, mc):
        lines = emit_report(mc, "csv").strip().splitlines()
        assert lines[0] == "scheme,mean_px_error,px_error_se,analytic_px_error,conflicts,n_samples"
        wov = next(l for l in lines if l.startswith("wov,"))
        assert ",0.000000,0.000000,,0," in wov

    def test_json_round_trips_report(self, ideal):
        doc = json.loads(emit_report(ideal, "json"))
        assert doc["mode"] == "ideal"
        assert doc["dataset"] == "synthetic"
        assert doc["n_images"] == ideal.n_images
        assert len(doc["rows"]) == len(ideal.rows)
        for row, r in zip(doc["rows"], ideal.rows):
            assert row["scheme"] == r.scheme.value
            assert row["nme_percent"] == 100 * r.nme
            assert row["auc"] == r.auc
            assert row["failure_rate_percent"] == 100 * r.fr
            assert row["conflicts"] == r.conflicts
            assert row["ced"] == [[x, f] for x, f in r.ced]

    def test_table_layout(self, ideal):
        lines = emit_report(ideal, "table").strip().splitlines()
        assert lines[0].startswith("mode=ideal dataset=synthetic")
        header, rows = lines[1], lines[2:]
        assert header.split() == ["scheme", "nme%", "auc10", "fr%@10",
                                  "conflicts", "clamped", "images"]
        assert len(rows) == 5
        assert len({len(r) for r in rows}) == 1  # fixed width

    def test_zero_error_report_values(self):
        report = run_ideal(grid_aligned_records(), BenchConfig(**ALIGNED_CFG))
        text = emit_report(report, "table")
        for row in text.strip().splitlines()[2:]:
            cols = row.split()
            assert cols[1] == "0.000" and cols[2] == "1.000" and cols[3] == "0.000"

    def test_unknown_format_rejected(self, ideal):
        with pytest.raises(ConfigError):
            emit_report(ideal, "yaml")

    def test_column_entry_reaches_every_format(self):
        # one declaration gives the CSV and table headers, widths and decimals
        cols = (Column("name", "name", "name", 6, align="<"),
                Column("x", "x{tag}", "x@{tag}", 8, 2),
                Column("gap", "gap", "gap", 5, 1),
                Column("n", "n"))
        rows = [{"name": "a", "x": 0.5, "gap": None, "n": 3}]
        assert format_report("table", cols, rows, 0.08, "title", {}) == \
            "title\nname       x@8  gap\na         0.50    -\n"
        assert format_report("csv", cols, rows, 0.08, "title", {}) == \
            "name,x8,gap,n\na,0.50,,3\n"
        assert format_report("json", cols, rows, 0.08, "title", {"rows": rows}) == \
            '{"rows":[{"gap":null,"n":3,"name":"a","x":0.5}]}\n'

    def test_deterministic_bytes(self, ideal, corpus98):
        again = run_ideal(corpus98, BenchConfig(seed=1))
        for fmt in ("table", "csv", "json"):
            assert emit_report(again, fmt) == emit_report(ideal, fmt)
