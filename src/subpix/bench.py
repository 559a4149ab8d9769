"""Quantization-error benchmarks: ideal-condition runs and Monte-Carlo draws.

The ideal-condition benchmark answers "how much error does the coordinate
representation itself cost?": each sample's ground truth is encoded with a
scheme, decoded straight back, mapped to raw space, and scored. No model
is involved, so whatever error remains is the floor the representation
imposes on any model trained against it.

The Monte-Carlo mode is the desk-scale stand-in: landmarks with uniformly
distributed sub-pixel fractions are pushed through the same quantization
arithmetic and the empirical mean pixel error is reported next to the
closed-form expectation for the nearest-cell scheme.

Both modes score through the grid-free :func:`subpix.codec.ideal_roundtrip`,
which is bit-identical to rendering the maps and decoding them.

The ideal mode runs as whole-array passes over a
:class:`subpix.datasets.Corpus`. :func:`build_samples` crops its (N, L, 2)
points with one batched kernel from :mod:`subpix.geometry` onto the unit
square: a per-image scale (N,) and offset (N, 2). :func:`run_ideal` scales
both onto the heatmap grid, refuses a face whose points do not survive that
map and its inverse, maps decoded points back with the reciprocal scale,
and scores each scheme with one :func:`subpix.metrics.image_errors` call.
Its results are bit-identical to a per-image transform chain.

Randomness comes from numpy's PCG64 generator seeded from the config, so
every run with the same config is byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .codec import SCHEME_ORDER, CodecConfig, Scheme, ideal_roundtrip
from .datasets import Corpus
from .errors import ConfigError
from .geometry import FaceBatch, bbox_crops, check_margin, heatmap_transform, landmark_crops
from .geometry import crop_from_landmarks  # noqa: F401  timed as geometry.crop by perfbench
from .metrics import (MetricsConfig, PerImageError, ced_auc, ced_points,
                      failure_rate, image_errors, mean_nme, norm_distances,
                      resolve_norm_indices, threshold_tag)

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
    "score_values",
    "format_report",
]

# Monte-Carlo draws are held in memory at about 215 bytes per landmark over
# all schemes, so 2^24 landmarks peak near 3.6 GB; a larger draw is refused
# before anything is allocated.
_MAX_MC_POINTS = 1 << 24

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
            raise ConfigError(f"duplicate schemes in {self.schemes}")
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
        if not (np.isfinite(self.mc_n) and self.mc_n > 0):
            raise ConfigError(f"Monte-Carlo scale factor must be positive, got {self.mc_n}")


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


def build_samples(corpus: Corpus, cfg: BenchConfig) -> tuple[FaceBatch, int]:
    """Crop a corpus into one batch; count the faces skipped.

    A face is skipped (not failed) when its normalization distance is not
    positive, when it has no bbox under ``crop_source="bbox"``, or when its
    crop is degenerate.
    """
    if not len(corpus):
        raise ConfigError("no records to benchmark")
    d = norm_distances(corpus.points, resolve_norm_indices(corpus.points.shape[1], cfg.metrics))
    if cfg.crop_source == "bbox":
        crop, ok = bbox_crops(corpus.bbox, cfg.crop_margin, inclusive=cfg.bbox_inclusive)
    else:
        crop, ok = landmark_crops(corpus.points, corpus.valid, cfg.crop_margin)
    keep = np.flatnonzero(ok & ~np.isnan(d))
    batch = FaceBatch(ids=corpus.ids[keep], points=corpus.points[keep],
                      valid=corpus.valid[keep], crop=crop[keep], norm_distance=d[keep])
    return batch, len(corpus) - len(keep)


def run_ideal(corpus: Corpus, cfg: BenchConfig) -> BenchReport:
    """Encode-decode every face under every scheme and aggregate.

    The batch goes through one :func:`ideal_roundtrip` call per scheme,
    grouped by image so that ``wom`` collisions stay inside one image, and
    is mapped to heatmap space and back and scored as whole arrays.
    """
    batch, skipped = build_samples(corpus, cfg)
    if not len(batch):
        raise ConfigError("every record was skipped; nothing to benchmark")
    shape = cfg.codec.heatmap_shape
    dims = np.array(shape, dtype=np.float64)
    to_heatmap = heatmap_transform(batch.crop, shape)
    to_raw = to_heatmap.inverse()
    n, n_landmarks = batch.valid.shape
    points = to_heatmap.apply(batch.points).reshape(-1, 2)
    valid = batch.valid.reshape(-1)
    image = np.repeat(np.arange(n), n_landmarks)
    # canonical sample order: face order must not affect any aggregate,
    # including the last ulp of the mean
    order = np.array(sorted(range(n), key=batch.ids.__getitem__), dtype=np.intp)
    # a crop too wide for floats to resolve its points (one point far off, say)
    # would score even a lossless scheme at many percent; refuse the face
    with np.errstate(over="ignore", invalid="ignore"):
        back = to_raw.apply((points / dims * dims).reshape(n, n_landmarks, 2))
        moved = np.linalg.norm(back - batch.points, axis=2) / batch.norm_distance[:, None]
    worst = np.where(batch.valid, moved, 0.0).max(axis=1)[order]
    if not np.all(worst <= _MAX_ROUNDTRIP_MOVE):  # NaN fails too
        k = np.argmin(worst <= _MAX_ROUNDTRIP_MOVE)
        raise ConfigError(f"record '{batch.ids[order[k]]}': mapping its points to the heatmap "
                          f"and back moves one by {worst[k]:.3g} normalization distances "
                          f"(limit {_MAX_ROUNDTRIP_MOVE:g})")

    rows = []
    threshold = cfg.metrics.threshold
    for scheme in cfg.schemes:
        coords, clamped, conflicts = ideal_roundtrip(
            points, cfg.codec.for_scheme(scheme), valid=valid, groups=image)
        # decode returns coords / dims; mapping back from that normalized
        # form keeps every error bit-equal to the grid path on any grid size
        back_raw = to_raw.apply((coords / dims * dims).reshape(n, n_landmarks, 2))
        per_point, nme = image_errors(batch.points, back_raw, batch.norm_distance)
        # every point the codec did not drop must score
        encoded = ~np.isnan(coords[:, 0]).reshape(n, n_landmarks)
        overflowed = (encoded & ~np.isfinite(per_point)).any(axis=1)
        mean = mean_nme(batch.ids[order], nme[order], overflowed[order])
        scored = order[~np.isnan(nme[order])]
        if not len(scored):
            raise ConfigError(f"scheme '{scheme.value}' produced no scorable images")
        nmes = nme[scored]
        rows.append(SchemeStats(
            scheme=scheme,
            n_images=len(scored),
            nme=mean,
            auc=ced_auc(nmes, threshold),
            fr=failure_rate(nmes, threshold),
            # an unscored image has no valid point, hence no conflict
            conflicts=int(conflicts),
            clamped_points=int(np.count_nonzero(clamped.reshape(n, n_landmarks)[scored])),
            ced=ced_points(nmes, threshold),
            per_image=[PerImageError(id=batch.ids[k], nme=float(nme[k]),
                                     per_point=per_point[k]) for k in scored],
        ))
    rows.sort(key=lambda r: SCHEME_ORDER.index(r.scheme))
    config = _config_echo(cfg, oob_policy=cfg.codec.oob_policy.value, threshold=threshold,
                          crop_margin=cfg.crop_margin, crop_source=cfg.crop_source,
                          bbox_inclusive=cfg.bbox_inclusive)
    return BenchReport(mode="ideal", dataset=corpus.name, n_images=n,
                       skipped=skipped, threshold=threshold, config=config, rows=rows)


def run_montecarlo(cfg: BenchConfig) -> BenchReport:
    """Uniform-fraction draws through the quantization arithmetic.

    Positions are drawn as ``interior cell + uniform fraction`` so border
    clamping cannot bias the statistics being compared against the
    analytic expectation. Pixel errors are heatmap-space distances scaled
    by ``cfg.mc_n``.
    """
    w, h = cfg.codec.heatmap_shape
    total = cfg.mc_samples * cfg.mc_landmarks
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    # cells up to w-2 keep nearest-cell rounding of any fraction in-grid
    cells = np.stack([rng.integers(0, w - 1, size=total),
                      rng.integers(0, h - 1, size=total)], axis=1).astype(np.float64)
    fracs = rng.random((total, 2))
    points = cells + fracs
    groups = np.repeat(np.arange(cfg.mc_samples), cfg.mc_landmarks)

    rows = []
    for scheme in cfg.schemes:
        ccfg = cfg.codec.for_scheme(scheme)
        coords, _clamped, conflicts = ideal_roundtrip(points, ccfg, groups=groups)
        # a huge scale factor overflows the errors or their spread; that is
        # refused below, so numpy's warning about it tells the caller nothing
        with np.errstate(over="ignore", invalid="ignore"):
            err = cfg.mc_n * np.linalg.norm(coords - points, axis=1)
            mean = float(np.mean(err))
            se = float(np.std(err, ddof=1) / math.sqrt(err.size)) if err.size > 1 else 0.0
        if not (math.isfinite(mean) and math.isfinite(se)):
            raise ConfigError(f"scheme '{scheme.value}': pixel error at scale factor "
                              f"{cfg.mc_n} is too large for a float")
        analytic = (analytic_direct_error(cfg.mc_n)
                    if scheme in (Scheme.DIRECT, Scheme.WSM) else None)
        rows.append(SchemeStats(
            scheme=scheme, n_images=cfg.mc_samples, nme=float("nan"), auc=float("nan"),
            fr=float("nan"), conflicts=int(conflicts), clamped_points=0, ced=[],
            per_image=[], mean_px_error=mean, px_error_se=se,
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
