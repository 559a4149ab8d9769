"""Normalized mean error, cumulative error curves, and derived statistics.

The per-image error is the mean euclidean landmark error divided by a
per-image normalization distance (commonly the outer-eye-corner distance),
kept as a plain fraction internally. Multiplying by 100 is a presentation
concern and happens only at the reporting boundary. One batched kernel
computes it: :func:`norm_distances` gives the (N,) distances of an
(N, L, 2) point stack, and :func:`image_errors` the (N, L) normalized
per-point errors and the (N,) per-image NME of a prediction stack against
it. ``bench-ideal`` and ``metrics`` both score with it and the CED kernels
below through one function, :func:`subpix.bench.score_images`.
Every euclidean landmark error in the package (here, in the Monte-Carlo
scoring and in the ``wsm`` decoder's shift) goes through one kernel,
:func:`point_distances`.

The cumulative error distribution (CED) over a set of images is an exact
right-continuous step function of the per-image errors, and its area
under the curve is integrated exactly from the step representation; no
plotting-grid approximation is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import json_int
from .errors import ConfigError

__all__ = [
    "DEFAULT_THRESHOLD",
    "DEFAULT_NORM_INDICES",
    "MetricsConfig",
    "PerImageError",
    "resolve_norm_indices",
    "point_distances",
    "norm_distances",
    "image_errors",
    "ced_auc",
    "failure_rate",
    "ced_points",
    "format_ced_csv",
    "threshold_tag",
]

DEFAULT_THRESHOLD = 0.10

#: Outer-eye-corner index pairs by landmark count for the common face layouts.
DEFAULT_NORM_INDICES: dict[int, tuple[int, int]] = {
    98: (60, 72),
    68: (36, 45),
}


@dataclass(frozen=True)
class MetricsConfig:
    """How to normalize and threshold errors.

    ``norm_indices`` picks the two landmarks whose distance normalizes the
    per-image error; when None, the defaults for 98- and 68-point layouts
    apply and any other layout must specify the pair explicitly.
    """

    norm_indices: tuple[int, int] | None = None
    threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self) -> None:
        _check_threshold(self.threshold)
        if self.norm_indices is not None:
            i, j = (json_int(v, "norm_indices", 0) for v in self.norm_indices)
            if i == j:
                raise ConfigError(f"norm indices must be two distinct indices, "
                                  f"got {self.norm_indices}")
            object.__setattr__(self, "norm_indices", (i, j))


def _check_threshold(threshold: float) -> None:
    # reports name the threshold in percent, so that must be finite too
    if not (np.isfinite(100 * float(threshold)) and threshold > 0):
        raise ConfigError(f"threshold must be positive and finite in percent, "
                          f"got {threshold}")


def threshold_tag(threshold: float) -> str:
    """The threshold in percent as report column names carry it: 0.1 -> '10'."""
    return f"{threshold * 100:g}"


def resolve_norm_indices(n_landmarks: int, cfg: MetricsConfig) -> tuple[int, int]:
    """The normalization pair for a layout, from config or built-in defaults."""
    pair = cfg.norm_indices or DEFAULT_NORM_INDICES.get(n_landmarks)
    if pair is None:
        raise ConfigError(
            f"no default normalization indices for {n_landmarks}-point layouts; "
            f"set norm_indices explicitly")
    if max(pair) >= n_landmarks:
        raise ConfigError(f"norm indices {pair} out of range for {n_landmarks} landmarks")
    return pair


def point_distances(delta: np.ndarray) -> np.ndarray:
    """Euclidean length of each ``(dx, dy)`` along the last axis of ``delta``.

    ``delta`` is (..., 2) and is left unchanged; the result has its leading
    shape. It indexes the two components instead of calling
    ``np.linalg.norm(delta, axis=-1)``, whose reduction runs numpy's inner
    loop along the axis of length 2 and takes eight to ten times as long.
    The arithmetic is the same, though: that ``norm`` is
    ``sqrt(dx * dx + dy * dy)``, so this is bit-for-bit equal to it, NaN and
    overflow to inf included. ``np.hypot`` guards against the overflow and
    rounds differently; on Monte-Carlo deltas it differs from this in the
    last bit of about one error in ten. The whole of ``delta`` is squared
    in one pass, in its own memory layout, so an (N, 2) transposed view of
    (2, N) rows is squared row by row.
    """
    sq = np.square(delta)
    out = np.add(sq[..., 0], sq[..., 1])
    return np.sqrt(out, out=out)


# a value too large for a float overflows to inf, which both kernels treat as
# unusable, so numpy's warning about it tells the caller nothing
@np.errstate(over="ignore", invalid="ignore")
def norm_distances(points: np.ndarray, pair: tuple[int, int]) -> np.ndarray:
    """Per-image distance between a layout's normalization pair, NaN if unusable.

    ``points`` is (N, L, 2). An image whose distance is not finite and
    positive cannot be scored; callers skip it and count the skip.
    """
    i, j = pair
    diff = points[:, i] - points[:, j]
    # one dot product per row, as np.linalg.norm takes of a single vector: a
    # sum of squares can differ from it in the last bit where BLAS fuses the
    # multiply-add, and every NME is divided by this distance
    d = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])
    return np.where(np.isfinite(d) & (d > 0), d, np.nan)


@dataclass(frozen=True, eq=False)
class PerImageError:
    """One image's normalized error and its per-point breakdown."""

    id: str
    nme: float
    per_point: np.ndarray  # (L,) normalized per-point errors


@np.errstate(over="ignore", invalid="ignore")
def image_errors(gt: np.ndarray, pred: np.ndarray,
                 norm_distance: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized per-point errors and per-image NME of a batch.

    ``gt`` and ``pred`` are (N, L, 2) stacks and ``norm_distance`` is (N,).
    Returns the (N, L) euclidean per-point errors divided by each image's
    distance, and the (N,) per-image NME, both as fractions. Every point is
    scored: an error that overflows is infinite, and so is its image's NME.
    """
    err = point_distances(pred - gt)
    return err / norm_distance[:, None], np.mean(err, axis=1) / norm_distance


def _check_errors(errors, threshold: float) -> np.ndarray:
    """Per-image errors as an array, after checking them and the threshold."""
    _check_threshold(threshold)
    arr = np.asarray(errors, dtype=np.float64)
    if arr.size == 0:
        raise ConfigError("need at least one per-image error")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise ConfigError("per-image errors must be finite and non-negative")
    return arr


def _ced_steps(errors, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """The step curve ``F(e) = fraction(error <= e)`` on [0, threshold].

    Returns its breakpoints (0, every distinct error within the range, and
    the threshold) and the value of ``F`` at each.
    """
    vals = np.sort(_check_errors(errors, threshold))
    xs = np.sort(np.concatenate([[0.0, threshold], vals[vals <= threshold]]))
    # the distinct breakpoints, found as np.unique sorts them out; np.unique
    # itself imports numpy.ma on first use, which costs a CLI run ~25 ms
    xs = xs[np.concatenate([[True], xs[1:] != xs[:-1]])]
    return xs, np.searchsorted(vals, xs, side="right") / vals.size


def ced_auc(errors, threshold: float = DEFAULT_THRESHOLD) -> float:
    """Area under the cumulative error curve on [0, threshold], over threshold.

    The integral sums the exact step function over its breakpoints, so the
    result is exact up to floating point. ``np.add.accumulate`` adds the
    steps left to right, as a running sum does; ``np.sum`` adds pairwise and
    would change the last bits.
    """
    xs, fracs = _ced_steps(errors, threshold)
    return float(np.add.accumulate(fracs[:-1] * np.diff(xs))[-1] / threshold)


def failure_rate(errors, threshold: float = DEFAULT_THRESHOLD) -> float:
    """Fraction of images with error strictly above the threshold."""
    vals = _check_errors(errors, threshold)
    return float(np.count_nonzero(vals > threshold) / vals.size)


def ced_points(errors, threshold: float = DEFAULT_THRESHOLD) -> list[tuple[float, float]]:
    """The step curve as (threshold, cumulative fraction) pairs.

    One row per distinct error value within the range, plus rows at 0 and
    at the threshold so the curve is plottable without extrapolation.
    """
    return [(float(x), float(f)) for x, f in zip(*_ced_steps(errors, threshold))]


def format_ced_csv(points: list[tuple[float, float]]) -> str:
    """Format (threshold, fraction) pairs as CSV with full-precision values."""
    lines = ["nme_threshold,fraction"]
    lines += [f"{x!r},{f!r}" for x, f in points]
    return "\n".join(lines) + "\n"
