"""Coordinate spaces, landmark containers, and the batched crop kernel.

Landmark pipelines juggle two pixel coordinate spaces, the raw space of
the annotated source image and the downsampled heatmap grid, plus the
normalized unit square: a crop maps raw space onto it, and
:func:`heatmap_transform` scales it onto the grid, so raw pixels per heatmap
cell are the crop side over the grid side. Every map is an isotropic scale
plus an offset, ``p -> scale * p + offset``, so one :class:`AffineTransform`
holds either a single map or one map per image of a batch: a ``(N,)``
scale and a ``(N, 2)`` offset act on ``(N, L, 2)`` point stacks in one
array pass. The single-image helpers (:func:`crop_from_landmarks`,
:func:`crop_from_bbox`) are N = 1 calls of the batched kernels.

Convention used everywhere: pixel centers sit on integer coordinates with
(0, 0) at the top-left pixel center, and grid cell (i, j) covers the
half-open square [i - 0.5, i + 0.5) x [j - 0.5, j + 0.5). Points are
(x, y) pairs; arrays of points have shape (..., 2) with x in column 0.

Instances are treated as immutable after construction and are safe to
share across threads; all operations here are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigError

__all__ = [
    "Space",
    "LandmarkSet",
    "AffineTransform",
    "FaceBatch",
    "apply_transform",
    "check_margin",
    "downsample_factor",
    "landmark_crops",
    "bbox_crops",
    "crop_from_landmarks",
    "crop_from_bbox",
    "heatmap_transform",
]


class Space(str, Enum):
    """Which pixel coordinate frame a point set lives in."""

    RAW = "raw"              # source-image pixels as annotated
    HEATMAP = "heatmap"      # low-resolution grid cells (e.g. 64 x 64)
    NORMALIZED = "normalized"  # unit square: crops, and heatmap coordinates / grid size


@dataclass(frozen=True, eq=False)
class LandmarkSet:
    """An ordered set of 2-D points tagged with their coordinate space.

    Attributes:
        points: (N, 2) float64 array of (x, y) coordinates.
        space: coordinate frame the points are expressed in.
        valid: (N,) boolean mask; invalid points are carried along but
            excluded from encoding and error statistics. Coordinates of
            invalid points may be NaN; valid points must be finite.
    """

    points: np.ndarray
    space: Space = Space.RAW
    valid: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
            raise ConfigError(f"landmark array must have shape (N, 2), got {pts.shape}")
        object.__setattr__(self, "points", pts)
        if self.valid is None:
            mask = np.ones(len(pts), dtype=bool)
        else:
            mask = np.asarray(self.valid, dtype=bool)
            if mask.shape != (len(pts),):
                raise ConfigError(
                    f"valid mask shape {mask.shape} does not match {len(pts)} points"
                )
        object.__setattr__(self, "valid", mask)
        object.__setattr__(self, "space", Space(self.space))
        if not np.all(np.isfinite(pts[mask])):
            raise ConfigError("valid landmarks must have finite coordinates")

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True, eq=False)
class AffineTransform:
    """The map ``p -> scale * p + offset``, for one image or a batch.

    A single map has a scalar ``scale`` and a (2,) ``offset`` and applies
    to points of shape (..., 2). A batch of N maps has a (N,) ``scale``
    and a (N, 2) ``offset`` and applies to (N, L, 2) point stacks, row k
    through map k. The optional ``src``/``dst`` tags let
    :func:`apply_transform` update the space of a landmark set and catch
    accidental misuse.
    """

    scale: np.ndarray
    offset: np.ndarray
    src: Space | None = None
    dst: Space | None = None

    def __post_init__(self) -> None:
        scale = np.asarray(self.scale, dtype=np.float64)
        offset = np.asarray(self.offset, dtype=np.float64)
        if scale.ndim > 1 or offset.shape != scale.shape + (2,):
            raise ConfigError(f"transform scale {scale.shape} and offset {offset.shape} "
                              f"shapes do not match")
        if not (np.all(np.isfinite(offset)) and np.all(np.isfinite(scale))
                and np.all(scale > 0)):
            raise ConfigError("transform scale must be finite and positive, "
                              "and its offset finite")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "offset", offset)

    def __getitem__(self, rows) -> AffineTransform:
        """The maps of the selected images of a batch."""
        return AffineTransform(self.scale[rows], self.offset[rows], src=self.src, dst=self.dst)

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        if self.scale.ndim == 0:
            return pts * self.scale + self.offset
        return pts * self.scale[:, None, None] + self.offset[:, None, :]

    def inverse(self) -> AffineTransform:
        inv = 1.0 / self.scale
        return AffineTransform(inv, -(self.offset * inv[..., None]),
                               src=self.dst, dst=self.src)


def apply_transform(t: AffineTransform, landmarks: LandmarkSet) -> LandmarkSet:
    """Map a landmark set through ``t``, updating its space tag.

    Raises ConfigError if both the transform and the landmarks declare a
    source space and they disagree.
    """
    if t.src is not None and landmarks.space != t.src:
        raise ConfigError(
            f"transform expects points in '{t.src.value}' space, got '{landmarks.space.value}'"
        )
    pts = t.apply(landmarks.points)
    return LandmarkSet(pts, space=t.dst or landmarks.space, valid=landmarks.valid.copy())


def downsample_factor(t: AffineTransform) -> float | np.ndarray:
    """Raw pixels per heatmap cell of a raw -> heatmap map ``t``: ``1 / t.scale``.

    A batched transform gives one factor per image.
    """
    return 1.0 / t.scale


def check_margin(margin: float) -> None:
    """The one crop-margin rule: a finite value of at least 0."""
    if not (np.isfinite(margin) and margin >= 0):
        raise ConfigError(f"crop margin must be finite and non-negative, got {margin}")


def _square_crops(lo: np.ndarray, hi: np.ndarray, extra: float, usable: np.ndarray,
                  margin: float) -> tuple[AffineTransform, np.ndarray]:
    """Raw -> unit-square crops of N boxes ``[lo, hi]`` (N, 2), and which are usable.

    Each box, widened by ``extra`` pixels per axis, grows to a square of
    side ``max(width, height) * (1 + margin)`` about its center, mapped onto
    the unit square. Rows outside ``usable``, or whose square has no extent
    or no finite map, get a unit placeholder map and a False flag.
    """
    check_margin(margin)
    with np.errstate(all="ignore"):
        side = np.max(hi - lo + extra, axis=1) * (1.0 + margin)
        scale = 1.0 / side
        offset = -scale[:, None] * ((lo + hi) / 2.0 - side[:, None] / 2.0)
    ok = usable & np.isfinite(scale) & (scale > 0) & np.all(np.isfinite(offset), axis=1)
    return AffineTransform(np.where(ok, scale, 1.0), np.where(ok[:, None], offset, 0.0),
                           src=Space.RAW, dst=Space.NORMALIZED), ok


def landmark_crops(points: np.ndarray, valid: np.ndarray,
                   margin: float = 0.25) -> tuple[AffineTransform, np.ndarray]:
    """Square landmark-driven crops of N images at once.

    ``points`` is (N, L, 2) and ``valid`` (N, L). Each crop box is the tight
    bounding box of the image's valid landmarks (see :func:`_square_crops`).
    Returns the batched raw -> unit-square transform and an (N,) flag that is
    False where the crop is degenerate: fewer than two valid landmarks, or
    a box with no extent.
    """
    inside = valid[..., None]
    lo = np.where(inside, points, np.inf).min(axis=1)
    hi = np.where(inside, points, -np.inf).max(axis=1)
    return _square_crops(lo, hi, 0.0, np.count_nonzero(valid, axis=1) >= 2, margin)


def bbox_crops(boxes: np.ndarray, margin: float = 0.25, *,
               inclusive: bool = True) -> tuple[AffineTransform, np.ndarray]:
    """Square crops of N annotation boxes ``(x0, y0, x1, y1)`` at once.

    ``inclusive`` treats the box max edge as the last covered pixel, adding
    one pixel to each span; exclusive uses the raw coordinate span. The
    (N,) flag is False where a box is not finite and well-ordered.
    """
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    lo, hi = boxes[:, :2], boxes[:, 2:]
    usable = np.all(np.isfinite(boxes), axis=1) & np.all(lo < hi, axis=1)
    return _square_crops(lo, hi, 1.0 if inclusive else 0.0, usable, margin)


def crop_from_landmarks(landmarks: LandmarkSet, margin: float = 0.25) -> AffineTransform:
    """The raw -> unit-square map of one square landmark-driven crop.

    An N = 1 call of :func:`landmark_crops`; raises ConfigError where that
    flags the crop as degenerate. Deterministic: the same landmarks always
    produce the same transform.
    """
    crop, ok = landmark_crops(landmarks.points[None], landmarks.valid[None], margin)
    if not ok[0]:
        raise ConfigError("degenerate crop: needs two or more valid landmarks "
                          "spanning a box with extent")
    return crop[0]


def crop_from_bbox(bbox, margin: float = 0.25, *,
                   inclusive: bool = True) -> AffineTransform:
    """The raw -> unit-square map of one square crop of an annotation box.

    An N = 1 call of :func:`bbox_crops`; raises ConfigError where that
    flags the box as unusable.
    """
    crop, ok = bbox_crops(bbox, margin, inclusive=inclusive)
    if not ok[0]:
        raise ConfigError(f"crop box must be finite and well-ordered, got {bbox}")
    return crop[0]


@dataclass(frozen=True, eq=False)
class FaceBatch:
    """N annotated images of L landmarks each, prepared for encoding.

    Attributes:
        ids: (N,) object array of identifiers, unique within a dataset run.
        points: (N, L, 2) ground-truth points in raw space.
        valid: (N, L) mask of the points to encode and score.
        crop: batched raw -> unit-square transform, one map per image.
        norm_distance: (N,) normalization distances in raw pixels
            (commonly the outer-eye-corner distance); all positive.
    """

    ids: np.ndarray
    points: np.ndarray
    valid: np.ndarray
    crop: AffineTransform
    norm_distance: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.ids)
        if (self.points.shape[:1] != (n,) or self.valid.shape != self.points.shape[:2]
                or self.crop.scale.shape != (n,) or self.norm_distance.shape != (n,)):
            raise ConfigError("face batch arrays must all have one row per image")
        if self.crop.src is not Space.RAW:
            raise ConfigError("face batch crops must map from raw space")
        if not np.all(np.isfinite(self.norm_distance) & (self.norm_distance > 0)):
            raise ConfigError("normalization distances must be positive")

    def __len__(self) -> int:
        return len(self.ids)


def heatmap_transform(crop: AffineTransform,
                      heatmap_shape: tuple[int, int]) -> AffineTransform:
    """The raw -> heatmap map: a raw -> unit-square crop scaled onto the grid.

    The crop is square, so the grid must be square too for the map to stay
    isotropic. A batched crop gives a batched map.
    """
    w, h = int(heatmap_shape[0]), int(heatmap_shape[1])
    if w <= 0 or w != h:
        raise ConfigError(f"heatmap shape must be square and positive, got {heatmap_shape}")
    return AffineTransform(w * crop.scale, w * crop.offset, src=crop.src, dst=Space.HEATMAP)
