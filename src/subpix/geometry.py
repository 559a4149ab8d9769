"""The raw -> heatmap map and the batched crop kernels.

Points start in the raw pixels of the annotated source image. A crop maps
them onto the unit square, and :func:`heatmap_transform` scales that onto
the heatmap grid, so raw pixels per heatmap cell are the crop side over the
grid side (``1 / t.scale`` of the raw -> heatmap map ``t``). Every map is an
isotropic scale plus an offset, ``p -> scale * p + offset``, and one
:class:`AffineTransform` holds one map per image of a batch: a ``(N,)``
scale and a ``(N, 2)`` offset act on ``(N, L, 2)`` point stacks in one
array pass. A single face is a batch of one: :func:`crop_from_landmarks`
and :func:`apply_transform` are N = 1 calls of the batched kernels.

Convention used everywhere: pixel centers sit on integer coordinates with
(0, 0) at the top-left pixel center, and grid cell (i, j) covers the
half-open square [i - 0.5, i + 0.5) x [j - 0.5, j + 0.5). Points are
(x, y) pairs; arrays of points have shape (..., 2) with x in column 0.

Instances are treated as immutable after construction and are safe to
share across threads; all operations here are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "AffineTransform",
    "apply_transform",
    "check_margin",
    "landmark_crops",
    "bbox_crops",
    "crop_from_landmarks",
    "heatmap_transform",
]


@dataclass(frozen=True, eq=False)
class AffineTransform:
    """N maps ``p -> scale * p + offset``, one per image of a batch.

    ``scale`` is (N,) and ``offset`` (N, 2); the maps apply to (N, L, 2)
    point stacks, row k through map k. A single image is a batch of one.
    """

    scale: np.ndarray
    offset: np.ndarray

    def __post_init__(self) -> None:
        scale = np.asarray(self.scale, dtype=np.float64)
        offset = np.asarray(self.offset, dtype=np.float64)
        if scale.ndim != 1 or offset.shape != scale.shape + (2,):
            raise ConfigError(f"transform needs an (N,) scale and an (N, 2) offset, "
                              f"got {scale.shape} and {offset.shape}")
        if not (np.all(np.isfinite(offset)) and np.all(np.isfinite(scale))
                and np.all(scale > 0)):
            raise ConfigError("transform scale must be finite and positive, "
                              "and its offset finite")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "offset", offset)

    def __getitem__(self, rows) -> AffineTransform:
        """The maps of the images of a batch that a slice, mask or index array selects."""
        return AffineTransform(self.scale[rows], self.offset[rows])

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 3 or pts.shape[::2] != (len(self.scale), 2):
            raise ConfigError(f"{len(self.scale)} maps apply to an ({len(self.scale)}, L, 2) "
                              f"point stack, got {pts.shape}")
        # per axis: an offset broadcast over a length-2 last axis is several
        # times slower
        out = pts * self.scale[:, None, None]
        out[..., 0] += self.offset[:, 0, None]
        out[..., 1] += self.offset[:, 1, None]
        return out

    def inverse(self) -> AffineTransform:
        inv = 1.0 / self.scale
        return AffineTransform(inv, -(self.offset * inv[:, None]))


def apply_transform(t: AffineTransform, points: np.ndarray) -> np.ndarray:
    """One face's (L, 2) points through the one-map batch ``t``."""
    return t.apply(np.asarray(points, dtype=np.float64)[None])[0]


def check_margin(margin: float) -> None:
    """The one crop-margin rule: a finite value of at least 0."""
    if not (np.isfinite(margin) and margin >= 0):
        raise ConfigError(f"crop margin must be finite and non-negative, got {margin}")


def _square_crops(lo: np.ndarray, hi: np.ndarray, extra: float, usable: np.ndarray | bool,
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
    return AffineTransform(np.where(ok, scale, 1.0), np.where(ok[:, None], offset, 0.0)), ok


def landmark_crops(points: np.ndarray,
                   margin: float = 0.25) -> tuple[AffineTransform, np.ndarray]:
    """Square landmark-driven crops of N images at once.

    ``points`` is (N, L, 2). Each crop box is the tight bounding box of the
    image's landmarks (see :func:`_square_crops`). Returns the batched raw ->
    unit-square transform and an (N,) flag that is False where the crop is
    degenerate: its box has no extent, as that of coincident landmarks does,
    or no finite map, as that of a non-finite landmark does.
    """
    points = np.asarray(points)
    # per axis, over (N, L) rows: a reduction over L with a length-2 last
    # axis is several times slower
    lo = np.stack([points[..., k].min(axis=1) for k in (0, 1)], 1)
    hi = np.stack([points[..., k].max(axis=1) for k in (0, 1)], 1)
    return _square_crops(lo, hi, 0.0, True, margin)


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


def crop_from_landmarks(points: np.ndarray, margin: float = 0.25) -> AffineTransform:
    """The one-map batch of one face's square landmark-driven crop.

    An N = 1 call of :func:`landmark_crops` on (L, 2) ``points``; raises
    ConfigError where that flags the crop as degenerate, naming the margin
    when the landmarks' own box, with no margin, would be usable.
    """
    points = np.asarray(points, dtype=np.float64)[None]
    crop, ok = landmark_crops(points, margin)
    if ok[0]:
        return crop
    if landmark_crops(points, 0.0)[1][0]:
        raise ConfigError(f"degenerate crop: a margin of {margin} makes the crop side overflow")
    raise ConfigError("degenerate crop: needs landmarks spanning a box with extent")


def heatmap_transform(crop: AffineTransform,
                      heatmap_shape: tuple[int, int]) -> AffineTransform:
    """The raw -> heatmap map: a raw -> unit-square crop scaled onto the grid.

    The crop is square, so the grid must be square too for the map to stay
    isotropic. A batched crop gives a batched map.

    The map sends the crop onto [0, w) per axis, while cell i covers
    [i - 1/2, i + 1/2), so the cells cover [-1/2, w - 1/2). The schemes part
    on the half cell past each end: ``direct`` and ``wsm`` round to the
    nearest cell, so they clamp x < -1/2 and x >= w - 1/2 onto the border
    cells; ``wov`` and ``wom`` floor, so x in [w - 1, w) stays in cell
    w - 1 with its fraction, and x < 0 or x >= w clamps; ``hih`` floors too
    but also clamps where its nearest decimal step carries out of cell
    w - 1 (x >= w - 1/(2 w_o), such as 63.97 at w = 64 and w_o = 8).
    """
    w, h = int(heatmap_shape[0]), int(heatmap_shape[1])
    if w <= 0 or w != h:
        raise ConfigError(f"heatmap shape must be square and positive, got {heatmap_shape}")
    return AffineTransform(w * crop.scale, w * crop.offset)
