"""Sub-pixel coordinate codecs over low-resolution heatmap grids.

Quantizing a continuous landmark onto a coarse grid loses the fractional
part of its position; the five schemes here differ only in how much of
that fraction they keep and where they stash it:

* ``direct``: the landmark is represented by its nearest grid cell and the
  fraction is discarded entirely. This is the quantization-error floor.
* ``wsm`` (weighted shift toward the second maximum): decoding starts from
  the peak cell and moves a quarter cell toward the unique second-largest
  response. Self-encoded maps are symmetric around the peak, so the
  second place is tied and the shift is suppressed; the scheme then
  degenerates to ``direct`` by construction.
* ``wov`` (offset as value): the exact fractional offset is stored as a
  float alongside each landmark's cell map, so decoding is lossless.
* ``wom`` (offset maps): fractional offsets are written into two shared
  x/y grids at each landmark's cell. Two landmarks that land on the same
  cell collide; the last writer wins and the collision is counted.
* ``hih`` (integer cell map plus a small fractional map): the fraction is
  itself quantized onto a second, tiny grid, cutting the error roughly by
  that grid's resolution.

One rule covers every scheme: a landmark decodes to its cell plus the part
of its fraction the scheme kept. ``direct`` and ``wsm`` keep nothing, so
they encode at the nearest cell (round half up). The others encode at
``floor`` and keep, of the fraction in [0, 1): all of it (``wov``); the
fraction of the cell's last writer (``wom``); or its nearest decimal step
over the decimal grid size (``hih``). ``_quantize`` is the one place this
rule lives: :func:`encode_points` renders its cells and kept fractions into
maps and payloads, and :func:`ideal_roundtrip` returns ``cell + kept``.

``_quantize`` is axis-major: it works on one contiguous (2, N) float64
copy of the points, a row of x and a row of y, with grid sizes as (2, 1)
columns. numpy runs its inner loop over the last axis, so an (N, 2) array
combined with a (2,) grid size or an (N, 1) mask loops over rows of length
2, which costs 7-10x a pass over rows of length N. Cells stay float64,
exact far past the 2^26-cell grid cap; only :func:`encode_points` converts
them to int64, for rendering. Each step of the rule overwrites that copy
rather than allocate, since fresh pages cost as much as the arithmetic at
these sizes, and :func:`ideal_roundtrip` adds the kept fractions into the
cells and returns that array transposed.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .datasets import json_int, json_numbers, json_object
from .errors import ConfigError, SchemaError
from .geometry import AffineTransform, apply_transform, heatmap_transform
from .metrics import point_distances

__all__ = [
    "Scheme",
    "SCHEME_ORDER",
    "OobPolicy",
    "DecimalOverflow",
    "CodecConfig",
    "EncodedSample",
    "DecodeResult",
    "encode_points",
    "encode",
    "decode",
    "ideal_roundtrip",
]

# largest double strictly below 1.0; keeps clamped offsets inside [0, 1)
_ONE_BELOW = float(np.nextafter(1.0, 0.0))

# wsm: responses within this of the second-largest one tie for second place
_TIE_EPS = 1e-9

# smallest grid sides; a heatmap needs a neighbour cell for the wsm shift
_MIN_SIDE = {"heatmap_shape": 2, "decimal_shape": 1}

# Gaussian widths whose 2 sigma^2, the render's denominator, is a normal double
_SIGMA_RANGE = (1e-150, 1e150)

# most cells one grid stack may hold, whether a payload or an encode asks for
# it: about 160x the 98 x 64 x 64 of a WFLW record
_MAX_CELLS = 1 << 26


def _grid_shape(shape, key: str) -> tuple[int, int]:
    """``shape`` as an int (width, height) pair, each side at least its floor."""
    w, h = map(int, shape)
    least = _MIN_SIDE[key]
    if w < least or h < least:
        raise ConfigError(f"{key.replace('_', ' ')} must be at least {least}x{least}, "
                          f"got {shape}")
    return w, h


def _reshaped(value, dtype, shape: tuple[int, ...], field: str) -> np.ndarray:
    """``value`` as an array of ``shape``; one of another size is refused naming ``field``."""
    arr = np.asarray(value, dtype=dtype)
    if arr.size != math.prod(shape):
        raise ConfigError(f"{field} has {arr.size} values, not the {math.prod(shape)} of {shape}")
    return arr.reshape(shape)


def _finite(values) -> bool:
    """Whether every value is finite, as in every map an encoder renders."""
    return bool(np.isfinite(values).all())


def _fractions(values) -> bool:
    """Whether every value is a sub-cell fraction in [0, 1), as encoders keep."""
    return bool(((values >= 0.0) & (values < 1.0)).all())


def _check_cells(shape: tuple[int, ...], what: str = "a grid stack") -> None:
    """Refuse a grid (stack) of ``shape`` before it is allocated if it is too big."""
    if math.prod(shape) > _MAX_CELLS:
        raise ConfigError(f"{what} of shape {shape} exceeds the limit of "
                          f"{_MAX_CELLS} cells")


class Scheme(str, Enum):
    DIRECT = "direct"
    WSM = "wsm"
    WOV = "wov"
    WOM = "wom"
    HIH = "hih"


#: Canonical presentation order for reports.
SCHEME_ORDER: tuple[Scheme, ...] = (
    Scheme.DIRECT, Scheme.WSM, Scheme.WOV, Scheme.WOM, Scheme.HIH,
)


class OobPolicy(str, Enum):
    """What to do with landmarks outside the heatmap domain."""

    CLAMP = "clamp"  # pull onto the nearest representable position, flag it
    DROP = "drop"    # mark invalid; excluded from encoding and metrics


class DecimalOverflow(str, Enum):
    """How the fractional quantizer treats fractions that round to 1."""

    CARRY = "carry"  # carry into the next integer cell (exact rounding)
    CLAMP = "clamp"  # pin to the last fractional step


@dataclass(frozen=True)
class CodecConfig:
    scheme: Scheme
    heatmap_shape: tuple[int, int] = (64, 64)
    decimal_shape: tuple[int, int] = (8, 8)
    sigma_integer: float = 1.5
    sigma_decimal: float = 1.0
    oob_policy: OobPolicy = OobPolicy.CLAMP
    decimal_overflow: DecimalOverflow = DecimalOverflow.CARRY

    def __post_init__(self) -> None:
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        object.__setattr__(self, "oob_policy", OobPolicy(self.oob_policy))
        object.__setattr__(self, "decimal_overflow", DecimalOverflow(self.decimal_overflow))
        # one grid must fit the stack limit, which also leaves a double room
        # for a cell index plus its fraction
        for key in ("heatmap_shape", "decimal_shape"):
            shape = _grid_shape(getattr(self, key), key)
            _check_cells(shape, f"a {key.split('_')[0]} grid")
            object.__setattr__(self, key, shape)
        for key in ("sigma_integer", "sigma_decimal"):
            sigma = getattr(self, key)
            if not (np.isfinite(sigma) and sigma > 0):
                raise ConfigError(f"{key} must be positive, got {sigma}")
            if not _SIGMA_RANGE[0] <= sigma <= _SIGMA_RANGE[1]:
                raise ConfigError(f"{key} must lie in [{_SIGMA_RANGE[0]:g}, "
                                  f"{_SIGMA_RANGE[1]:g}], got {sigma}")

    def for_scheme(self, scheme: Scheme) -> CodecConfig:
        return replace(self, scheme=Scheme(scheme))


@dataclass(eq=False)
class EncodedSample:
    """The grids and side payloads one scheme produces for one sample.

    ``integer_maps`` has shape (N, height, width): one cell-level response
    grid per landmark. The remaining payloads depend on the scheme and are
    validated against it: map values are finite and offsets lie in [0, 1),
    the rules :meth:`from_json_dict` applies to a payload's text.
    ``valid``/``clamped`` are per-landmark flags from the encoding step.
    """

    scheme: Scheme
    heatmap_shape: tuple[int, int]
    integer_maps: np.ndarray
    valid: np.ndarray
    clamped: np.ndarray
    offsets: np.ndarray | None = None            # wov: (N, 2) exact fractions
    offset_map_x: np.ndarray | None = None       # wom: (h, w) shared grid
    offset_map_y: np.ndarray | None = None
    conflict_count: int = 0                      # wom: overwritten landmarks
    decimal_shape: tuple[int, int] | None = None  # hih
    decimal_maps: np.ndarray | None = None       # hih: (N, h_o, w_o)

    def __post_init__(self) -> None:
        self.scheme = Scheme(self.scheme)
        self.heatmap_shape = _grid_shape(self.heatmap_shape, "heatmap_shape")
        maps = np.asarray(self.integer_maps, dtype=np.float64)
        if maps.ndim != 3 or maps.shape[1:] != (self.heatmap_shape[1], self.heatmap_shape[0]):
            raise ConfigError(
                f"integer maps shape {maps.shape} does not match grid {self.heatmap_shape}"
            )
        if not _finite(maps):
            raise ConfigError("integer_maps must be finite")
        self.integer_maps = maps
        n = maps.shape[0]
        self.valid = _reshaped(self.valid, bool, (n,), "valid")
        self.clamped = _reshaped(self.clamped, bool, (n,), "clamped")
        if self.scheme is Scheme.WOV:
            if self.offsets is None:
                raise ConfigError("wov payload requires per-landmark offsets")
            self.offsets = _reshaped(self.offsets, np.float64, (n, 2), "offsets")
            if not _fractions(self.offsets):
                raise ConfigError("offsets must lie in [0, 1)")
        elif self.offsets is not None:
            raise ConfigError(f"offsets payload is not valid for scheme '{self.scheme.value}'")
        if self.scheme is Scheme.WOM:
            if self.offset_map_x is None or self.offset_map_y is None:
                raise ConfigError("wom payload requires offset_map_x and offset_map_y")
            shape_yx = (self.heatmap_shape[1], self.heatmap_shape[0])
            for key in ("offset_map_x", "offset_map_y"):
                grid = _reshaped(getattr(self, key), np.float64, shape_yx, key)
                if not _fractions(grid):
                    raise ConfigError(f"{key} must lie in [0, 1)")
                setattr(self, key, grid)
        elif self.offset_map_x is not None or self.offset_map_y is not None:
            raise ConfigError(f"offset maps are not valid for scheme '{self.scheme.value}'")
        if self.scheme is Scheme.HIH:
            if self.decimal_maps is None or self.decimal_shape is None:
                raise ConfigError("hih payload requires decimal maps and their shape")
            self.decimal_shape = _grid_shape(self.decimal_shape, "decimal_shape")
            dm = np.asarray(self.decimal_maps, dtype=np.float64)
            want = (n, self.decimal_shape[1], self.decimal_shape[0])
            if dm.shape != want:
                raise ConfigError(f"decimal maps shape {dm.shape} does not match {want}")
            if not _finite(dm):
                raise ConfigError("decimal_maps must be finite")
            self.decimal_maps = dm
        elif self.decimal_maps is not None:
            raise ConfigError(f"decimal maps are not valid for scheme '{self.scheme.value}'")

    @property
    def n_landmarks(self) -> int:
        return self.integer_maps.shape[0]

    # -- JSON debug round-trip ------------------------------------------------

    def to_json_dict(self) -> dict:
        """Sparse, full-precision JSON form; see :meth:`from_json_dict`."""
        d: dict = {
            "scheme": self.scheme.value,
            "n_landmarks": self.n_landmarks,
            "heatmap_shape": list(self.heatmap_shape),
            "integer_cells": _sparse(self.integer_maps),
            "valid": [bool(v) for v in self.valid],
            "clamped": [bool(c) for c in self.clamped],
        }
        if self.scheme is Scheme.WOV:
            d["offsets"] = [[float(x), float(y)] for x, y in self.offsets]
        if self.scheme is Scheme.WOM:
            d["offset_x_cells"] = _sparse(self.offset_map_x)
            d["offset_y_cells"] = _sparse(self.offset_map_y)
            d["conflict_count"] = int(self.conflict_count)
        if self.scheme is Scheme.HIH:
            d["decimal_shape"] = list(self.decimal_shape)
            d["decimal_cells"] = _sparse(self.decimal_maps)
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, d: dict) -> EncodedSample:
        try:
            scheme = Scheme(d["scheme"])
        except (KeyError, ValueError) as exc:
            raise SchemaError(f"unknown or missing scheme: {exc}", field="scheme") from exc
        n = json_int(d.get("n_landmarks"), "n_landmarks", 1)
        w, h = _json_shape(d, "heatmap_shape")
        # the flag lists bound n by the payload's own length before any
        # (n, h, w) stack is allocated
        flags = {}
        for key in ("valid", "clamped"):
            entries = d.get(key)
            if not isinstance(entries, list) or len(entries) != n:
                raise SchemaError(f"expected a list of {n} flags, one per landmark",
                                  field=key)
            if not all(isinstance(v, bool) for v in entries):
                raise SchemaError("flags must be true or false", field=key)
            flags[key] = entries
        maps = _unsparse(d.get("integer_cells"), (n, h, w), field="integer_cells")
        kwargs: dict = {}
        if scheme is Scheme.WOV:
            offsets = json_numbers(d.get("offsets"), (n, 2))
            if offsets is None:
                raise SchemaError("wov requires one [x, y] pair of finite numbers per landmark",
                                  field="offsets")
            kwargs["offsets"] = _check_fractions(offsets, field="offsets")
        if scheme is Scheme.WOM:
            for axis in "xy":
                key = f"offset_{axis}_cells"
                kwargs[f"offset_map_{axis}"] = _check_fractions(
                    _unsparse(d.get(key), (h, w), field=key), field=key)
            kwargs["conflict_count"] = json_int(d.get("conflict_count", 0), "conflict_count", 0)
        if scheme is Scheme.HIH:
            wo, ho = _json_shape(d, "decimal_shape")
            kwargs["decimal_shape"] = (wo, ho)
            kwargs["decimal_maps"] = _unsparse(d.get("decimal_cells"), (n, ho, wo),
                                               field="decimal_cells")
        return cls(scheme=scheme, heatmap_shape=(w, h), integer_maps=maps, **flags, **kwargs)

    @classmethod
    def from_json(cls, text: str, source: str | None = None) -> EncodedSample:
        """The payload ``text``, read from ``source`` if given, which errors in the text name."""
        return json_object(text, source, cls.from_json_dict)


def _json_shape(d: dict, key: str) -> tuple[int, int]:
    """A payload's (width, height) pair of integers, each no smaller than its floor."""
    try:
        w, h = d[key]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"expected [width, height]: {exc}", field=key) from exc
    return json_int(w, key, _MIN_SIDE[key]), json_int(h, key, _MIN_SIDE[key])


def _check_fractions(arr: np.ndarray, *, field: str) -> np.ndarray:
    """``arr`` if every value is a sub-cell fraction in [0, 1), as encoders write."""
    if not _fractions(arr):
        raise SchemaError("offsets must lie in [0, 1)", field=field)
    return arr


def _sparse(arr: np.ndarray) -> list[str]:
    """The nonzero cells of a grid or grid stack as 'k,row,col,value' / 'row,col,value'."""
    idx = np.nonzero(arr)
    columns = [i.tolist() for i in idx] + [arr[idx].tolist()]
    return [",".join(map(repr, cell)) for cell in zip(*columns)]


def _unsparse(entries, shape: tuple[int, ...], *, field: str) -> np.ndarray:
    """The inverse of :func:`_sparse` for an array of ``shape`` (rank 2 or 3)."""
    if not isinstance(entries, list):
        raise SchemaError("expected a list of sparse cells", field=field)
    try:
        _check_cells(shape)
    except ConfigError as exc:
        raise SchemaError(str(exc), field=field) from exc
    form = ",".join(["k", "row", "col"][-len(shape):] + ["value"])
    out = np.zeros(shape, dtype=np.float64)
    for i, entry in enumerate(entries):
        parts = str(entry).split(",")
        if len(parts) != len(shape) + 1:
            raise SchemaError(f"entry {i} must be '{form}'", field=field)
        try:
            index = tuple(int(p) for p in parts[:-1])
            v = float(parts[-1])
        except ValueError as exc:
            raise SchemaError(f"entry {i}: {exc}", field=field) from exc
        if not all(0 <= j < size for j, size in zip(index, shape)):
            raise SchemaError(f"entry {i} indices out of range", field=field)
        if not _finite(v):
            raise SchemaError(f"entry {i} value must be finite", field=field)
        out[index] = v
    return out


@dataclass(eq=False)
class DecodeResult:
    """Decoded landmarks in normalized space plus per-point flags.

    ``points`` is (N, 2): heatmap coordinates divided by the grid size, so
    every decodable coordinate lies in [0, 1], and NaN where ``valid`` is
    False (a landmark dropped at encoding). ``tie_encountered`` marks
    points whose peak lookup hit a tie (for ``wsm``: a tied second place,
    which suppresses the shift). ``clamped`` is propagated from the
    encoding step.
    """

    points: np.ndarray
    valid: np.ndarray
    tie_encountered: np.ndarray
    clamped: np.ndarray


# -- quantization -------------------------------------------------------------


def _check_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise ConfigError(f"points must have shape (N, 2), got {pts.shape}")
    if not np.isfinite(pts).all():
        raise ConfigError("landmark coordinates must be finite")
    return pts


@functools.lru_cache(maxsize=None)
def _column(x: int, y: int) -> np.ndarray:
    """``(x, y)`` as a read-only (2, 1) float64 column, built once per pair.

    ``_quantize`` combines grid sizes with (2, N) rows; building the column
    afresh on every call costs more than the arithmetic on a few landmarks.
    """
    col = np.array([[x], [y]], dtype=np.float64)
    col.flags.writeable = False
    return col


def _last_writer_offsets(cells: np.ndarray, offsets: np.ndarray, valid: np.ndarray,
                         shape: tuple[int, int],
                         group_size: int | None = None) -> tuple[np.ndarray, int]:
    """Resolve shared-map collisions: the highest landmark index wins a cell.

    Returns, for every valid landmark, the (2, N) offset that a reader of
    its cell would observe, plus the number of overwritten landmarks.
    Each run of ``group_size`` landmarks, which divides N, is a sample that
    shares no maps with the others. Without a collision ``offsets`` comes
    back as is.
    """
    w, h = shape
    keys = cells[1] * w
    keys += cells[0]
    keys = keys.astype(np.int64)
    if group_size is not None:
        keys += np.repeat(np.arange(len(keys) // group_size) * (w * h), group_size)
    idx = None
    if not valid.all():
        idx = np.flatnonzero(valid)
        keys = keys[idx]
    # a stable sort keeps each cell's writers in index order, so a sorted
    # key equal to the next one lost its cell to the last writer of its run
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    lost = np.flatnonzero(ranked[1:] == ranked[:-1])
    if len(lost) == 0:
        return offsets, 0
    # consecutive losing positions form one run, won by the position after it
    last = np.append(np.flatnonzero(np.diff(lost) != 1), len(lost) - 1)
    won = np.repeat(lost[last] + 1, np.diff(last, prepend=-1))
    losers, winners = order[lost], order[won]
    if idx is not None:
        losers, winners = idx[losers], idx[winners]
    decoded = offsets.copy()
    decoded[:, losers] = offsets[:, winners]
    return decoded, len(lost)


# -- encode / decode ----------------------------------------------------------


def _quantize(pts: np.ndarray, cfg: CodecConfig, group_size: int | None = None):
    """Each landmark's cell and the fraction its scheme's decoder adds back.

    Returns ``(cells, kept, steps, clamped, valid, conflicts)``: the (2, N)
    axis-major cells and kept fractions as float64 (see the module
    docstring; None for ``direct`` and ``wsm``, which keep nothing), the
    hih decimal step indices, also (2, N) float64 (None for the other
    schemes), the clamp flags, the valid mask, False where
    ``OobPolicy.DROP`` dropped a landmark, and the wom conflict count, with
    collisions resolved within each run of ``group_size`` landmarks. Dropped
    landmarks sit at cell 0 and keep nothing.

    Out-of-grid cells are pulled to the border and the fraction is clipped
    so that ``cell + fraction`` stays the nearest representable position;
    fractions always land in [0, 1). For ``hih`` the fraction rounds to the
    nearest step of the decimal grid, and a fraction close to 1 rounds past
    the last step: ``DecimalOverflow.CARRY`` carries it into the next cell
    (exact nearest-step rounding; pinned back to the last step, and flagged,
    on the grid's last cell), while ``DecimalOverflow.CLAMP`` pins the step
    to the grid and flags it, which inflates the error of near-1 fractions
    as typical published fractional-map statistics do.
    """
    w, h = cfg.heatmap_shape
    top = _column(w - 1, h - 1)
    # one axis-major copy, which the rule below overwrites with its results
    xy = pts.T.copy()
    valid = np.ones(len(pts), dtype=bool)
    if cfg.oob_policy is OobPolicy.DROP:
        inside = (xy[0] >= 0) & (xy[0] < w) & (xy[1] >= 0) & (xy[1] < h)
        if not inside.all():
            valid = inside
            xy[:, ~inside] = 0.0
    # direct and wsm keep nothing: the nearest cell (round half up) overwrites
    # xy; the other schemes take the floor and keep the fraction in xy
    rounds = cfg.scheme in (Scheme.DIRECT, Scheme.WSM)
    if rounds:
        xy += 0.5
        cells = np.floor(xy, out=xy)
    else:
        cells = np.floor(xy)
    # a min over both axes and a max per axis tell whether any cell is off the
    # grid; when none is, the clamp and the clip below would change nothing,
    # since x - floor(x) is exact and in [0, 1) for every x >= 0
    off_grid = cells.min() < 0.0 or (cells.max(axis=1, keepdims=True) > top).any()
    if off_grid:
        moved = (cells < 0.0) | (cells > top)
        np.maximum(cells, 0.0, out=cells)
        np.minimum(cells, top, out=cells)
        clamped = moved[0] | moved[1]
    else:
        clamped = np.zeros(len(pts), dtype=bool)
    kept, steps, conflicts = None, None, 0
    if not rounds:
        kept = xy
        kept -= cells
        if off_grid:
            np.maximum(kept, 0.0, out=kept)
            np.minimum(kept, _ONE_BELOW, out=kept)
    if cfg.scheme is Scheme.WOM:
        kept, conflicts = _last_writer_offsets(cells, kept, valid, cfg.heatmap_shape, group_size)
    elif cfg.scheme is Scheme.HIH:
        w_o, h_o = cfg.decimal_shape
        dims_o = _column(w_o, h_o)
        steps = kept
        steps *= dims_o
        steps += 0.5
        np.floor(steps, out=steps)
        over = steps >= dims_o
        if cfg.decimal_overflow is DecimalOverflow.CARRY:
            np.copyto(steps, 0.0, where=over)
            cells += over
            over = cells > top
            np.copyto(cells, top, where=over)
        np.copyto(steps, _column(w_o - 1, h_o - 1), where=over)
        over = over[0] | over[1]
        kept = steps / dims_o
        clamped |= over
    clamped &= valid
    return cells, kept, steps, clamped, valid, conflicts


def _render_batch(cells: np.ndarray, valid: np.ndarray, sigma: float,
                  shape: tuple[int, int]) -> np.ndarray:
    """One truncated-Gaussian grid per landmark, stacked (N, h, w).

    Each valid landmark's grid holds ``exp(-d^2 / (2 sigma^2))`` around its
    cell, with ``d`` the distance in cells, and exactly 0 beyond Chebyshev
    distance ``floor(3 sigma)``; the peak is exactly 1.0 at the cell. Grids
    of invalid landmarks are all zero. The stencil is computed once because
    the exponential is the same for every landmark.
    """
    w, h = shape
    n = len(cells)
    out = np.zeros((n, h, w), dtype=np.float64)
    # no cell lies farther than the grid's longer side from another
    r = int(min(np.floor(3.0 * sigma), max(w, h) - 1))
    d = np.arange(-r, r + 1, dtype=np.float64)
    stencil = np.exp(-(d[:, None] ** 2 + d[None, :] ** 2) / (2.0 * sigma ** 2))
    for k in np.nonzero(valid)[0]:
        cx, cy = int(cells[k, 0]), int(cells[k, 1])
        x0, x1 = max(cx - r, 0), min(cx + r, w - 1)
        y0, y1 = max(cy - r, 0), min(cy + r, h - 1)
        out[k, y0:y1 + 1, x0:x1 + 1] = stencil[y0 - cy + r:y1 - cy + r + 1,
                                               x0 - cx + r:x1 - cx + r + 1]
    return out


def encode_points(points: np.ndarray, cfg: CodecConfig) -> EncodedSample:
    """Encode heatmap-space positions into one scheme's grid representation.

    ``points`` is (N, 2) in heatmap coordinates. Positions outside the
    grid are clamped or dropped per ``cfg.oob_policy``; dropped landmarks
    get all-zero grids and ``valid=False``. Every point must be finite.
    """
    pts = _check_points(points)
    w, h = cfg.heatmap_shape
    _check_cells((len(pts), h, w))
    if cfg.scheme is Scheme.HIH:
        _check_cells((len(pts), cfg.decimal_shape[1], cfg.decimal_shape[0]))
    cells, kept, steps, clamped, mask, conflicts = _quantize(pts, cfg)
    cells = cells.T.astype(np.int64)
    integer_maps = _render_batch(cells, mask, cfg.sigma_integer, cfg.heatmap_shape)
    kwargs: dict = {}
    if cfg.scheme is Scheme.WOV:
        kwargs["offsets"] = np.ascontiguousarray(kept.T)
    elif cfg.scheme is Scheme.WOM:
        # every writer of a cell carries the winner's offset, so order is moot
        idx = np.nonzero(mask)[0]
        maps = np.zeros((2, h, w), dtype=np.float64)
        maps[:, cells[idx, 1], cells[idx, 0]] = kept[:, idx]
        kwargs.update(offset_map_x=maps[0], offset_map_y=maps[1], conflict_count=conflicts)
    elif cfg.scheme is Scheme.HIH:
        kwargs["decimal_shape"] = cfg.decimal_shape
        kwargs["decimal_maps"] = _render_batch(steps.T.astype(np.int64), mask,
                                               cfg.sigma_decimal, cfg.decimal_shape)
    return EncodedSample(scheme=cfg.scheme, heatmap_shape=cfg.heatmap_shape,
                         integer_maps=integer_maps, valid=mask, clamped=clamped, **kwargs)


def encode(points: np.ndarray, crop: AffineTransform, cfg: CodecConfig) -> EncodedSample:
    """Encode one face's raw-space (L, 2) points: the one-map ``crop`` onto
    the unit square, scaled onto the heatmap, then :func:`encode_points`."""
    t = heatmap_transform(crop, cfg.heatmap_shape)
    return encode_points(apply_transform(t, points), cfg)


def _argmax_flat(maps: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-major peak lookup over N grids ``width`` cells wide: the grids flattened
    to (N, cells), each one's first maximum as a flat index (N,), and the (x, y)
    of that cell as (N, 2) floats."""
    flat = maps.reshape(len(maps), -1)
    best = flat.argmax(axis=1)
    return flat, best, np.stack([best % width, best // width], axis=1).astype(np.float64)


def decode(enc: EncodedSample) -> DecodeResult:
    """Decode an encoded sample back to normalized coordinates.

    The payload carries its own scheme and grid shapes. Invalid (dropped)
    landmarks come back as NaN with ``valid=False``.
    """
    w, h = enc.heatmap_shape
    n = enc.n_landmarks
    rows = np.arange(n)
    flat, best, m = _argmax_flat(enc.integer_maps, w)

    if enc.scheme is Scheme.WSM:
        flat2 = flat.copy()
        flat2[rows, best] = -np.inf
        second = flat2.max(axis=1)
        mask = np.abs(flat - second[:, None]) <= _TIE_EPS
        mask[rows, best] = False
        counts = mask.sum(axis=1)
        ties = counts != 1
        coords = m.copy()
        unique = counts == 1
        if np.any(unique):
            s = _argmax_flat(mask[unique], w)[2]
            delta = s - m[unique]
            norm = point_distances(delta)[:, None]
            coords[unique] = m[unique] + 0.25 * delta / norm
    else:
        # a duplicated maximum means the row-major tie break picked the cell
        ties = (flat == flat[rows, best][:, None]).sum(axis=1) > 1
        if enc.scheme is Scheme.DIRECT:
            coords = m
        elif enc.scheme is Scheme.WOV:
            coords = m + enc.offsets
        elif enc.scheme is Scheme.WOM:
            # the shared maps are (h, w) grids too, read at the peak's flat index
            coords = m + np.stack([enc.offset_map_x.reshape(-1)[best],
                                   enc.offset_map_y.reshape(-1)[best]], axis=1)
        else:  # hih
            wo, ho = enc.decimal_shape
            q = _argmax_flat(enc.decimal_maps, wo)[2]
            coords = m + q / np.array([wo, ho], dtype=np.float64)

    normalized = coords / np.array([w, h], dtype=np.float64)
    normalized = np.where(enc.valid[:, None], normalized, np.nan)
    ties = ties & enc.valid
    return DecodeResult(points=normalized, valid=enc.valid.copy(), tie_encountered=ties,
                        clamped=enc.clamped.copy())


def ideal_roundtrip(points: np.ndarray, cfg: CodecConfig,
                    group_size: int | None = None,
                    ) -> tuple[np.ndarray, np.ndarray, int]:
    """Grid-free equivalent of ``decode(encode_points(...))`` on ideal maps.

    Self-encoded grids peak exactly at the encoded cell and a tied second
    place suppresses the wsm shift, so the round trip reduces to each
    landmark's cell plus the fraction its scheme kept. Returns heatmap-space
    coordinates (NaN for dropped landmarks), the per-landmark clamp flags,
    and the wom conflict count. Bit-identical to the full grid path.

    The coordinates are an (N, 2) transposed view of a C-contiguous (2, N)
    array, the axis-major cells that ``_quantize`` wrote: ``coords.T`` is
    contiguous, ``coords`` is not.

    ``group_size`` optionally splits the points into samples of that many
    consecutive points, an integer of at least 1 that divides N: wom
    collisions are then resolved within each sample only, which is how the
    benchmarks batch many faces or draws into one call.
    """
    pts = _check_points(points)
    if group_size is not None:
        try:  # operator.index refuses floats, and a bool is no size
            size = 0 if isinstance(group_size, bool) else operator.index(group_size)
        except TypeError:
            size = 0
        if size < 1 or len(pts) % size:
            raise ConfigError(f"group_size must be a positive integer that divides the "
                              f"{len(pts)} points, got {group_size!r}")
        group_size = size
    cells, kept, _, clamped, mask, conflicts = _quantize(pts, cfg, group_size)
    # the cells are this call's own copy: the kept fractions go straight in
    if kept is not None:
        cells += kept
    if not mask.all():
        cells[:, ~mask] = np.nan
    return cells.T, clamped, conflicts
