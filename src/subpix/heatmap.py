"""Truncated-Gaussian grid rendering and peak lookup.

A rendered map places a Gaussian bump of peak value exactly 1.0 on an
integer grid cell and truncates it to zero outside a Chebyshev radius of
three sigma. No normalization is applied: every map produced here has a
single cell equal to 1.0 at the requested center.

Grid points are (x, y) pairs with x the column index; the backing array is
row-major, ``values[y, x]``. Ties in peak lookup are broken toward the
smallest row-major index, which keeps every downstream consumer
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "GaussianSpec",
    "Heatmap",
    "render_gaussian",
    "clamp_cell",
    "argmax",
    "top2",
]

DEFAULT_TIE_EPS = 1e-9


@dataclass(frozen=True)
class GaussianSpec:
    """Shape of the rendered bump: standard deviation and its cutoff."""

    sigma: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ConfigError(f"sigma must be positive and finite, got {self.sigma}")

    @property
    def truncation_radius(self) -> float:
        # values beyond Chebyshev distance 3*sigma from the center are exactly 0
        return 3.0 * self.sigma


@dataclass(frozen=True, eq=False)
class Heatmap:
    """A dense response grid. ``values[y, x]`` with shape (height, width)."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2 or vals.size == 0:
            raise ConfigError(f"heatmap must be a non-empty 2-D array, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ConfigError("heatmap values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        """(width, height), matching point coordinate order."""
        return (self.width, self.height)


def clamp_cell(cell: tuple[int, int], shape: tuple[int, int]) -> tuple[tuple[int, int], bool]:
    """Clamp an integer grid point into the grid; report whether it moved."""
    w, h = int(shape[0]), int(shape[1])
    x, y = int(cell[0]), int(cell[1])
    cx = min(max(x, 0), w - 1)
    cy = min(max(y, 0), h - 1)
    return (cx, cy), (cx != x or cy != y)


def render_gaussian(center: tuple[int, int], spec: GaussianSpec,
                    shape: tuple[int, int]) -> Heatmap:
    """Render ``exp(-((x-cx)^2 + (y-cy)^2) / (2 sigma^2))`` truncated at 3 sigma.

    Off-grid centers are clamped to the nearest in-grid cell (use
    :func:`clamp_cell` beforehand to detect that). The returned grid always
    has exactly one cell with value 1.0, at the (clamped) center.
    """
    w, h = int(shape[0]), int(shape[1])
    if w <= 0 or h <= 0:
        raise ConfigError(f"grid shape must be positive, got {shape}")
    (cx, cy), _ = clamp_cell(center, (w, h))
    values = np.zeros((h, w), dtype=np.float64)
    r = int(np.floor(spec.truncation_radius))
    x0, x1 = max(cx - r, 0), min(cx + r, w - 1)
    y0, y1 = max(cy - r, 0), min(cy + r, h - 1)
    xs = np.arange(x0, x1 + 1) - cx
    ys = np.arange(y0, y1 + 1) - cy
    dist2 = ys[:, None] ** 2 + xs[None, :] ** 2
    values[y0:y1 + 1, x0:x1 + 1] = np.exp(-dist2 / (2.0 * spec.sigma ** 2))
    return Heatmap(values)


def argmax(grid: Heatmap) -> tuple[int, int]:
    """Grid point of the maximum value; ties go to the smallest row-major index."""
    flat = int(np.argmax(grid.values))
    y, x = divmod(flat, grid.width)
    return (x, y)


def top2(grid: Heatmap, tie_eps: float = DEFAULT_TIE_EPS) -> tuple[tuple[int, int], list[tuple[int, int]]]:
    """The global maximum and every cell tied for second place.

    Returns ``(max_point, seconds)`` where ``seconds`` lists, in row-major
    order, all cells other than the maximum whose value lies within
    ``tie_eps`` of the second-largest response. Cells tied with the maximum
    itself (beyond the row-major winner) land in ``seconds`` too.
    """
    if tie_eps < 0:
        raise ConfigError(f"tie_eps must be non-negative, got {tie_eps}")
    vals = grid.values
    if vals.size < 2:
        raise ConfigError("second-place lookup needs a grid with at least two cells")
    best = argmax(grid)
    flat = vals.ravel()
    best_flat = best[1] * grid.width + best[0]
    rest = np.delete(flat, best_flat)
    second_val = rest.max()
    mask = np.abs(flat - second_val) <= tie_eps
    mask[best_flat] = False
    idx = np.nonzero(mask)[0]
    return best, [(int(i % grid.width), int(i // grid.width)) for i in idx]

