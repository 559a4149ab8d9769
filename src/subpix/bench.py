"""Quantization-error benchmarks: ideal-condition runs and Monte-Carlo draws.

The ideal-condition benchmark answers "how much error does the coordinate
representation itself cost?": each sample's ground truth is encoded with a
scheme, decoded straight back, mapped to raw space, and scored. No model
is involved, so whatever error remains is the floor the representation
imposes on any model trained against it.

The Monte-Carlo mode is the desk-scale stand-in: landmarks with uniformly
distributed sub-pixel fractions are pushed through the same quantization
arithmetic and the empirical mean pixel error is reported next to the
closed-form expectation for the nearest-cell scheme. It draws and scores
fixed-size blocks of whole samples one at a time, merging each scheme's
mean and spread as it goes, so its memory does not grow with the draw.
A block is small enough for its temporaries to stay in cache and on the
heap, and axis-major from the draw to the score: the points are the
(N, 2) transposed view of a (2, N) array, as are the round trip's
coordinates, so every pass runs over rows of length N.

Both modes score through the grid-free :func:`subpix.codec.ideal_roundtrip`,
which is bit-identical to rendering the maps and decoding them.

The ideal mode runs as whole-array passes over a
:class:`subpix.datasets.Corpus`. ``_face_maps`` crops its (N, L, 2) points,
row by row, with one batched kernel from :mod:`subpix.geometry` onto the
unit square: a per-image scale (N,) and offset (N, 2). :func:`build_samples`
keeps the usable faces as a corpus in id order, and :func:`run_ideal` scales
their crops onto the heatmap grid and hands that one raw -> heatmap map to
``_roundtrip_scores``, which does the rest for any map: it refuses a face
whose points do not survive the map and its inverse, round-trips every scheme,
maps decoded points back with the reciprocal scale, and scores each scheme
with one :func:`score_images` call, the scorer of ``metrics`` too. The crop
does not depend on the grid, so one load and crop serve a map onto any grid.
The results are bit-identical to a per-image transform chain.

Randomness comes from numpy's PCG64 generator. Block k of a Monte-Carlo
draw has its own stream, seeded by the k-th child of
``SeedSequence(cfg.seed)``, so every run with the same config is
byte-identical, and the first m samples of a draw depend on the seed and
the landmarks per sample, not on how many samples are drawn.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .codec import SCHEME_ORDER, CodecConfig, Scheme, ideal_roundtrip
from .datasets import Corpus
from .errors import ConfigError
from .geometry import AffineTransform, bbox_crops, check_margin, heatmap_transform, landmark_crops
# nothing here calls it, so perfbench's geometry.crop span reads 0
from .geometry import crop_from_landmarks  # noqa: F401  patched by perfbench/layers.py
from .metrics import (MetricsConfig, PerImageError, ced_auc, ced_points,
                      failure_rate, image_errors, norm_distances,
                      point_distances, resolve_norm_indices, threshold_tag)

__all__ = [
    "BenchConfig",
    "SchemeStats",
    "BenchReport",
    "analytic_direct_error",
    "build_samples",
    "run_ideal",
    "run_montecarlo",
    "emit_report",
    "Column",
    "SCORE_COLUMNS",
    "score_images",
    "score_values",
    "format_report",
]

# A Monte-Carlo draw runs in constant memory (see _MC_BLOCK) but in time linear
# in its size: 2^24 landmarks take about 4 s over all five schemes on one
# core, so a larger draw is refused before it starts.
_MAX_MC_POINTS = 1 << 24

#: The smallest Monte-Carlo scale factor: below it the squared deviations of
#: the scaled errors underflow past the normal floats, and their spread would
#: read as 0. The render widths have the same floor (``codec._SIGMA_RANGE``).
_MIN_MC_N = 1e-150

#: Landmarks the Monte-Carlo mode draws, round-trips and scores at once, and
#: the most a sample may have: a block holds whole samples, so peak memory is
#: flat in the samples and in the landmarks per sample. At 2^13 a block's
#: 64-128 KB arrays stay in cache. With ``cli._tune_allocator()`` applied, an
#: in-process ``run_montecarlo`` of 250000 x 4 landmarks under all schemes
#: takes a median 154/123/121/121/150 ms at 2^12-2^16 (7 runs each): 2^13-2^15
#: tie, 2^12 loses to per-call overhead, and the peak grows to 44 MB at 2^16
#: (BENCH_16.json, which found 2^13 the fastest before those settings). 2^13
#: stays, since another size changes the draw. A block reuses the pages of
#: the one before only if the allocator keeps them: with glibc's defaults the
#: heap may be trimmed as a block's arrays are freed, and the next block
#: faults the pages back in, as the code before the draw shifts the heap
#: layout. ``cli.entry`` keeps them (see ``cli._MALLOPT``): a fresh CLI run
#: of that draw takes about 5,350 minor faults, 4,800 of them importing the
#: package, against 16,000-18,000 with the defaults, and an in-process call
#: with the same settings about 500 on its first call and under 20 on each
#: repeat (x86-64, glibc 2.36, Python 3.11, numpy 2.4; ru_minflt).
_MC_BLOCK = 1 << 13

#: The most a face's point may move, in normalization distances, when mapped
#: to the heatmap and back. ``wov`` returns each in-grid point by exactly that
#: path, so every face accepted scores a ``wov`` NME below 1e-8 percent.
_MAX_ROUNDTRIP_MOVE = 1e-10


@dataclass(frozen=True)
class BenchConfig:
    """Everything a benchmark run needs besides the data itself."""

    schemes: tuple[Scheme, ...] = SCHEME_ORDER
    codec: CodecConfig = field(default_factory=lambda: CodecConfig(scheme=Scheme.DIRECT))
    metrics: MetricsConfig = field(default_factory=MetricsConfig)
    crop_margin: float = 0.25
    crop_source: str = "landmarks"   # or "bbox": use the annotation box
    bbox_inclusive: bool = True      # box max edge counts as the last pixel
    seed: int = 1
    mc_samples: int = 100_000
    mc_landmarks: int = 1
    mc_n: float = 4.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "schemes", tuple(Scheme(s) for s in self.schemes))
        if not self.schemes:
            raise ConfigError("at least one scheme is required")
        if len(set(self.schemes)) != len(self.schemes):
            raise ConfigError(f"duplicate schemes in '{','.join(s.value for s in self.schemes)}'")
        check_margin(self.crop_margin)
        if self.crop_source not in ("landmarks", "bbox"):
            raise ConfigError(f"crop source must be 'landmarks' or 'bbox', "
                              f"got {self.crop_source!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        if self.mc_samples < 1 or self.mc_landmarks < 1:
            raise ConfigError("Monte-Carlo sample and landmark counts must be positive")
        if self.mc_samples * self.mc_landmarks > _MAX_MC_POINTS:
            raise ConfigError(f"Monte-Carlo draw of {self.mc_samples} samples x "
                              f"{self.mc_landmarks} landmarks exceeds the limit of "
                              f"{_MAX_MC_POINTS} landmarks")
        if self.mc_landmarks > _MC_BLOCK:
            raise ConfigError(f"a Monte-Carlo sample may have at most {_MC_BLOCK} landmarks")
        if not (np.isfinite(self.mc_n) and self.mc_n >= _MIN_MC_N):
            raise ConfigError(f"Monte-Carlo scale factor must be finite and at least "
                              f"{_MIN_MC_N:g}, got {self.mc_n}")


@dataclass(eq=False)
class SchemeStats:
    """Aggregates for one scheme over one run."""

    scheme: Scheme
    n_images: int
    nme: float                     # fraction; multiply by 100 for display
    auc: float
    fr: float                      # fraction of images over the threshold
    conflicts: int
    clamped_points: int
    ced: list[tuple[float, float]]
    per_image: list[PerImageError]
    mean_px_error: float | None = None
    px_error_se: float | None = None
    analytic_px_error: float | None = None


@dataclass(eq=False)
class BenchReport:
    mode: str                      # "ideal" or "montecarlo"
    dataset: str
    n_images: int
    skipped: int
    threshold: float
    config: dict
    rows: list[SchemeStats]


def analytic_direct_error(n: float) -> float:
    """Expected 2-D round-off distance, in raw pixels, at scale factor ``n``.

    With both fractional coordinates uniform on [0, 1), the distance from
    a point to its nearest grid cell has expectation
    ``(sqrt(2) + asinh(1)) / 6`` cells; multiplying by the raw-pixels-per-
    cell factor ``n`` gives the raw-space value. ``n = 0`` is allowed as a
    degenerate limit.
    """
    if not (np.isfinite(n) and n >= 0):
        raise ConfigError(f"scale factor must be non-negative, got {n}")
    return n * (math.sqrt(2.0) + math.asinh(1.0)) / 6.0


def _face_maps(faces: Corpus, cfg: BenchConfig) -> tuple[AffineTransform, np.ndarray, np.ndarray]:
    """Each face's raw -> unit-square crop, whether it can be scored, and its distance.

    A face is unusable when its normalization distance is not positive (NaN
    in the result), when it has no bbox under ``crop_source="bbox"``, or
    when its crop is degenerate. Every kernel works row by row, so the maps of a
    subset of the faces are the same rows of the maps of all of them.
    """
    d = norm_distances(faces.points, resolve_norm_indices(faces.points.shape[1], cfg.metrics))
    if cfg.crop_source == "bbox":
        crop, ok = bbox_crops(faces.bbox, cfg.crop_margin, inclusive=cfg.bbox_inclusive)
    else:
        crop, ok = landmark_crops(faces.points, cfg.crop_margin)
    return crop, ok & ~np.isnan(d), d


def build_samples(corpus: Corpus, cfg: BenchConfig) -> tuple[Corpus, int]:
    """The faces of a corpus that can be benchmarked, sorted by id; the count skipped.

    A face is skipped (not failed) where ``_face_maps`` finds it unusable.
    The kept faces keep every field the loader read. The id order makes
    every aggregate, down to the last ulp of a mean, independent of the
    order of the corpus.
    """
    if not len(corpus):
        raise ConfigError("no records to benchmark")
    keep = np.flatnonzero(_face_maps(corpus, cfg)[1])
    keep = keep[np.argsort(corpus.ids[keep], kind="stable")]
    return corpus[keep], len(corpus) - len(keep)


def _roundtrip_scores(faces: Corpus, norm_distance: np.ndarray, to_heatmap: AffineTransform,
                      cfg: BenchConfig) -> dict[Scheme, tuple]:
    """Encode-decode the faces under every scheme through one raw -> heatmap map; score them.

    ``to_heatmap`` takes each face's (L, 2) raw points onto ``cfg``'s heatmap
    grid; a face that it and its inverse move by more than
    ``_MAX_ROUNDTRIP_MOVE`` normalization distances is refused. Each scheme
    runs one :func:`ideal_roundtrip` call, each face's L points one sample so
    that ``wom`` collisions stay inside one image; its coordinates are mapped
    back with the inverse and scored with one :func:`score_images` call.
    Returns, per scheme in ``cfg.schemes`` order, that call's tuple followed
    by the (N, L) clamp flags and the conflict count.
    """
    dims = np.array(cfg.codec.heatmap_shape, dtype=np.float64)
    to_raw = to_heatmap.inverse()
    n, n_landmarks = faces.points.shape[:2]
    points = to_heatmap.apply(faces.points).reshape(-1, 2)
    # a crop too wide for floats to resolve its points (one point far off, say)
    # would score even a lossless scheme at many percent; refuse the face
    with np.errstate(over="ignore", invalid="ignore"):
        back = to_raw.apply((points / dims * dims).reshape(n, n_landmarks, 2))
        moved = point_distances(back - faces.points) / norm_distance[:, None]
    worst = moved.max(axis=1)
    if not np.all(worst <= _MAX_ROUNDTRIP_MOVE):  # NaN fails too
        k = np.argmin(worst <= _MAX_ROUNDTRIP_MOVE)
        raise ConfigError(f"record '{faces.ids[k]}': mapping its points to the heatmap "
                          f"and back moves one by {worst[k]:.3g} normalization distances "
                          f"(limit {_MAX_ROUNDTRIP_MOVE:g})")

    scores = {}
    for scheme in cfg.schemes:
        coords, clamped, conflicts = ideal_roundtrip(
            points, cfg.codec.for_scheme(scheme), group_size=n_landmarks)
        if np.isnan(coords[:, 0]).all():  # else some point scores or overflows
            raise ConfigError(f"scheme '{scheme.value}' produced no scorable images")
        # decode returns coords / dims; mapping back from that normalized
        # form keeps every error bit-equal to the grid path on any grid size
        back_raw = to_raw.apply((coords / dims * dims).reshape(n, n_landmarks, 2))
        scores[scheme] = (*score_images(faces.ids, faces.points, back_raw, norm_distance,
                                        cfg.metrics.threshold),
                          clamped.reshape(n, n_landmarks), int(conflicts))
    return scores


def run_ideal(corpus: Corpus, cfg: BenchConfig) -> BenchReport:
    """Encode-decode every face under every scheme and aggregate.

    The kept faces of :func:`build_samples` are cropped once, their crops
    scaled onto the heatmap grid, and :func:`_roundtrip_scores` round-trips
    and scores them under every scheme; this function only reports.
    """
    faces, skipped = build_samples(corpus, cfg)
    if not len(faces):
        no_distance = int(np.count_nonzero(np.isnan(_face_maps(corpus, cfg)[2])))
        raise ConfigError(f"every record was skipped ({no_distance} with no usable "
                          f"normalization distance, {skipped - no_distance} with an "
                          f"unusable crop); nothing to benchmark")
    crop, _, norm_distance = _face_maps(faces, cfg)
    scores = _roundtrip_scores(faces, norm_distance,
                               heatmap_transform(crop, cfg.codec.heatmap_shape), cfg)
    rows = []
    for scheme in sorted(scores, key=SCHEME_ORDER.index):
        scored, per_point, nme, mean, auc, fr, ced, clamped, conflicts = scores[scheme]
        rows.append(SchemeStats(
            scheme=scheme, n_images=len(scored), nme=mean, auc=auc, fr=fr,
            clamped_points=int(np.count_nonzero(clamped[scored])),
            # an unscored image has no valid point, hence no conflict
            conflicts=conflicts, ced=ced,
            per_image=[PerImageError(id=faces.ids[k], nme=float(nme[k]),
                                     per_point=per_point[k]) for k in scored],
        ))
    threshold = cfg.metrics.threshold
    config = _config_echo(cfg, oob_policy=cfg.codec.oob_policy.value, threshold=threshold,
                          crop_margin=cfg.crop_margin, crop_source=cfg.crop_source,
                          bbox_inclusive=cfg.bbox_inclusive)
    return BenchReport(mode="ideal", dataset=corpus.name, n_images=len(faces),
                       skipped=skipped, threshold=threshold, config=config, rows=rows)


def _mc_blocks(cfg: BenchConfig):
    """The Monte-Carlo draw, one (N, 2) block of whole samples at a time.

    Block k is drawn from the k-th ``SeedSequence(cfg.seed)`` child, always
    at the full size of ``_MC_BLOCK // mc_landmarks`` samples, and the last
    block keeps only the samples still owed. So the first m samples depend
    on the seed and ``mc_landmarks`` alone, not on ``mc_samples``.
    Positions are ``interior cell + uniform fraction``, so that border
    clamping cannot bias the statistics. A sample is ``mc_landmarks``
    consecutive points, and a block is a transposed view of a (2, N) array.
    """
    w, h = cfg.codec.heatmap_shape
    per_block = _MC_BLOCK // cfg.mc_landmarks
    size = per_block * cfg.mc_landmarks
    seeds = np.random.SeedSequence(cfg.seed)
    for start in range(0, cfg.mc_samples, per_block):
        rng = np.random.Generator(np.random.PCG64(seeds.spawn(1)[0]))
        # cells up to w-2 keep nearest-cell rounding of any fraction in-grid;
        # axis-major, a row of x and a row of y, as the codec's _quantize works
        points = np.empty((2, size))
        points[0] = rng.integers(0, w - 1, size=size)
        points[1] = rng.integers(0, h - 1, size=size)
        np.add(points, rng.random((size, 2)).T, out=points)
        n = min(per_block, cfg.mc_samples - start) * cfg.mc_landmarks
        yield points[:, :n].T


def _merge_moments(n_a: int, mean_a: float, m2_a: float, err: np.ndarray,
                   ) -> tuple[int, float, float]:
    """Count, mean and sum of squared deviations of a set merged with ``err``.

    This is the pairwise update of Chan, Golub and LeVeque (1979), so a
    stream of blocks is summarized without keeping any of them.
    """
    n_b = err.size
    mean_b = float(np.mean(err))
    dev = err - mean_b
    m2_b = float(np.sum(np.square(dev, out=dev)))
    n = n_a + n_b
    delta = mean_b - mean_a
    return n, mean_a + delta * (n_b / n), m2_a + m2_b + delta * delta * (n_a * n_b / n)


def run_montecarlo(cfg: BenchConfig) -> BenchReport:
    """Uniform-fraction draws through the quantization arithmetic.

    Each block of :func:`_mc_blocks` goes through one :func:`ideal_roundtrip`
    call per scheme, with ``wom`` collisions resolved within each sample.
    Pixel errors are heatmap-space distances scaled by ``cfg.mc_n``; their
    mean and standard error are merged block by block, so memory grows with
    neither ``cfg.mc_samples`` nor ``cfg.mc_landmarks``.
    """
    codecs = {scheme: cfg.codec.for_scheme(scheme) for scheme in cfg.schemes}
    moments = {scheme: (0, 0.0, 0.0) for scheme in cfg.schemes}
    conflicts, clamped = dict.fromkeys(cfg.schemes, 0), dict.fromkeys(cfg.schemes, 0)
    # a huge scale factor overflows the errors or their spread; that is
    # refused below, so numpy's warning about it tells the caller nothing
    with np.errstate(over="ignore", invalid="ignore"):
        for points in _mc_blocks(cfg):
            for scheme, ccfg in codecs.items():
                coords, flags, count = ideal_roundtrip(points, ccfg, group_size=cfg.mc_landmarks)
                coords -= points
                err = point_distances(coords)
                err *= cfg.mc_n
                moments[scheme] = _merge_moments(*moments[scheme], err)
                conflicts[scheme] += int(count)
                clamped[scheme] += int(np.count_nonzero(flags))

    rows = []
    for scheme, (n, mean, m2) in moments.items():
        se = math.sqrt(m2 / (n - 1) / n) if n > 1 else 0.0
        if not (math.isfinite(mean) and math.isfinite(se)):
            raise ConfigError(f"scheme '{scheme.value}': pixel error at scale factor "
                              f"{cfg.mc_n} is too large for a float")
        analytic = (analytic_direct_error(cfg.mc_n)
                    if scheme in (Scheme.DIRECT, Scheme.WSM) else None)
        rows.append(SchemeStats(
            scheme=scheme, n_images=cfg.mc_samples, nme=float("nan"), auc=float("nan"),
            fr=float("nan"), conflicts=conflicts[scheme], clamped_points=clamped[scheme],
            ced=[], per_image=[], mean_px_error=mean, px_error_se=se,
            analytic_px_error=analytic,
        ))
    rows.sort(key=lambda r: SCHEME_ORDER.index(r.scheme))
    return BenchReport(mode="montecarlo", dataset="synthetic-uniform",
                       n_images=cfg.mc_samples, skipped=0,
                       threshold=cfg.metrics.threshold,
                       config=_config_echo(cfg, seed=cfg.seed, mc_samples=cfg.mc_samples,
                                           mc_landmarks=cfg.mc_landmarks, mc_n=cfg.mc_n),
                       rows=rows)


def _config_echo(cfg: BenchConfig, **settings) -> dict:
    """The codec settings both modes read, then the mode's own ``settings``."""
    c = cfg.codec
    return {"schemes": [s.value for s in cfg.schemes], "heatmap_shape": list(c.heatmap_shape),
            "decimal_shape": list(c.decimal_shape),
            "decimal_overflow": c.decimal_overflow.value, **settings}


# -- report formatting ----------------------------------------------------------


@dataclass(frozen=True)
class Column:
    """One report column: JSON key, CSV header, table header and width, decimals.

    Headers may hold ``{tag}``, the threshold in percent; a column with no
    table header is CSV and JSON only. ``decimals`` None prints the value as
    is (a count or a name). A None value prints ``-`` in a table, nothing in CSV.
    """

    key: str
    csv: str
    head: str | None = None
    width: int = 0
    decimals: int | None = None
    align: str = ">"

    def cell(self, value, table: bool) -> str:
        if value is None:
            text = "-" if table else ""
        else:
            text = f"{value}" if self.decimals is None else f"{value:.{self.decimals}f}"
        return f"{text:{self.align}{self.width}}" if table else text


#: NME, AUC and failure rate of a set of per-image errors, in every score report
SCORE_COLUMNS = (Column("nme_percent", "nme_percent", "nme%", 10, 3),
                 Column("auc", "auc{tag}", "auc{tag}", 10, 3),
                 Column("failure_rate_percent", "fr{tag}_percent", "fr%@{tag}", 10, 3))
_SCHEME = Column("scheme", "scheme", "scheme", 8, align="<")
_CONFLICTS = Column("conflicts", "conflicts", "conflicts", 11)
_IDEAL_COLUMNS = (_SCHEME, *SCORE_COLUMNS, _CONFLICTS,
                  Column("clamped_points", "clamped_points", "clamped", 9),
                  Column("n_images", "n_images", "images", 8))
_MONTECARLO_COLUMNS = (_SCHEME, Column("mean_px_error", "mean_px_error", "mean_px_err", 13, 6),
                       Column("px_error_se", "px_error_se", "std_err", 11, 6),
                       Column("analytic_px_error", "analytic_px_error", "analytic", 11, 6),
                       _CONFLICTS, Column("n_images", "n_samples", "samples", 10))


def score_images(ids: np.ndarray, gt: np.ndarray, pred: np.ndarray,
                 norm_distance: np.ndarray, threshold: float) -> tuple:
    """Score (N, L, 2) predictions against finite ground truth by one rule.

    Returns the scored images' indices, the (N, L) per-point and (N,)
    per-image errors of :func:`image_errors`, and their mean NME, AUC,
    failure rate and CED points. A NaN prediction is a dropped point. An
    overflow (an infinite error, or a mean infinite in percent) is refused,
    naming its image's id in ``ids`` or, for the mean, the worst image's.
    """
    per_point, nme = image_errors(gt, pred, norm_distance)
    scored = np.flatnonzero(~np.isnan(nme))
    nmes = nme[scored]
    overflowed = np.isinf(per_point).any(axis=1)
    with np.errstate(over="ignore"):
        mean = np.mean(nmes) if len(nmes) else np.nan
        if overflowed.any() or len(nmes) and not np.isfinite(100 * mean):
            k = np.argmax(overflowed) if overflowed.any() else scored[np.argmax(nmes)]
            raise ConfigError(f"record '{ids[k]}': landmark error too large for a float")
    return (scored, per_point, nme, float(mean), ced_auc(nmes, threshold),
            failure_rate(nmes, threshold), ced_points(nmes, threshold))


def score_values(nme: float, auc: float, fr: float) -> dict:
    """The :data:`SCORE_COLUMNS` values of an NME, AUC and failure rate (fractions)."""
    return {"nme_percent": 100 * nme, "auc": auc, "failure_rate_percent": 100 * fr}


def format_report(fmt: str, columns: tuple[Column, ...], rows: list[dict], threshold: float,
                  title: str, doc: dict) -> str:
    """Rows (dicts by column key) as a table under ``title`` or as CSV, or ``doc`` as JSON."""
    tag = threshold_tag(threshold)
    if fmt == "json":
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if fmt == "csv":
        lines = [",".join(c.csv.format(tag=tag) for c in columns)]
        lines += [",".join(c.cell(row[c.key], table=False) for c in columns) for row in rows]
    elif fmt == "table":
        shown = [c for c in columns if c.head]
        lines = [title, "".join(f"{c.head.format(tag=tag):{c.align}{c.width}}" for c in shown)]
        lines += ["".join(c.cell(row[c.key], table=True) for c in shown) for row in rows]
    else:
        raise ConfigError(f"unknown report format {fmt!r} (expected table, csv, or json)")
    return "\n".join(lines) + "\n"


def _report_rows(report: BenchReport) -> tuple[tuple[Column, ...], list[dict]]:
    """The report's columns and each scheme's row: the one place the modes differ."""
    rows = [{"scheme": r.scheme.value, "n_images": r.n_images, "conflicts": r.conflicts,
             "clamped_points": r.clamped_points} for r in report.rows]
    if report.mode == "ideal":
        for row, r in zip(rows, report.rows):
            row |= score_values(r.nme, r.auc, r.fr) | {"ced": [[x, f] for x, f in r.ced]}
        return _IDEAL_COLUMNS, rows
    for row, r in zip(rows, report.rows):
        row |= {"mean_px_error": r.mean_px_error, "px_error_se": r.px_error_se,
                "analytic_px_error": r.analytic_px_error}
    return _MONTECARLO_COLUMNS, rows


def emit_report(report: BenchReport, fmt: str = "table") -> str:
    """Render a report as an aligned table, CSV, or JSON; all deterministic."""
    columns, rows = _report_rows(report)
    doc = {"mode": report.mode, "dataset": report.dataset, "n_images": report.n_images,
           "skipped": report.skipped, "threshold": report.threshold,
           "config": report.config, "rows": rows}
    title = (f"mode={report.mode} dataset={report.dataset} "
             f"images={report.n_images} skipped={report.skipped}")
    return format_report(fmt, columns, rows, report.threshold, title, doc)
