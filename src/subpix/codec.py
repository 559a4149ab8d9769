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

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .datasets import Choice, json_float, json_int, json_numbers, json_object, json_pair
from .errors import ConfigError, SchemaError
from .geometry import AffineTransform, apply_transform, heatmap_transform
from .metrics import point_distances

__all__ = [
    "Scheme",
    "SCHEME_ORDER",
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


def _check_cells(shape: tuple[int, ...], what: str = "a grid stack",
                 field: str | None = None) -> None:
    """Refuse a grid (stack) of ``shape``, at ``field``, before allocating it if it is too big."""
    if math.prod(shape) > _MAX_CELLS:
        raise SchemaError(f"{what} of shape {shape} exceeds the limit of "
                          f"{_MAX_CELLS} cells", field=field)


class Scheme(Choice):
    DIRECT = "direct"
    WSM = "wsm"
    WOV = "wov"
    WOM = "wom"
    HIH = "hih"


#: Canonical presentation order for reports.
SCHEME_ORDER: tuple[Scheme, ...] = (
    Scheme.DIRECT, Scheme.WSM, Scheme.WOV, Scheme.WOM, Scheme.HIH,
)


class DecimalOverflow(Choice):
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
    decimal_overflow: DecimalOverflow = DecimalOverflow.CARRY

    def __post_init__(self) -> None:
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        object.__setattr__(self, "decimal_overflow", DecimalOverflow(self.decimal_overflow))
        # one grid must fit the stack limit, which also leaves a double room
        # for a cell index plus its fraction
        for key in ("heatmap_shape", "decimal_shape"):
            shape = json_pair(getattr(self, key), key, _MIN_SIDE[key])
            _check_cells(shape, f"a {key.split('_')[0]} grid", key)
            object.__setattr__(self, key, shape)
        for key in ("sigma_integer", "sigma_decimal"):
            object.__setattr__(self, key, json_float(getattr(self, key), key, *_SIGMA_RANGE))

    def for_scheme(self, scheme: Scheme) -> CodecConfig:
        return replace(self, scheme=Scheme(scheme))


# each payload key and the sample attribute it fills, for every scheme and for
# each scheme alone: a payload's keys, a sample's attributes, a refusal's key
_PAYLOAD_KEYS = {"scheme": "scheme", "n_landmarks": "n_landmarks",
                 "heatmap_shape": "heatmap_shape", "integer_cells": "integer_maps",
                 "clamped": "clamped"}
_SCHEME_KEYS = {
    Scheme.WOV: {"offsets": "offsets"},
    Scheme.WOM: {"offset_x_cells": "offset_map_x", "offset_y_cells": "offset_map_y",
                 "conflict_count": "conflict_count"},
    Scheme.HIH: {"decimal_shape": "decimal_shape", "decimal_cells": "decimal_maps"},
}
_KEY_OF = {attr: key for keys in (_PAYLOAD_KEYS, *_SCHEME_KEYS.values())
           for key, attr in keys.items()}


def _not_of(scheme: Scheme, key: str) -> SchemaError:
    """The refusal of payload ``key`` in a sample of ``scheme``, which has no such key."""
    owner = next((s.value for s, keys in _SCHEME_KEYS.items() if key in keys), None)
    return SchemaError("not a key of the payload format" if owner is None else
                       f"belongs to scheme '{owner}', not '{scheme.value}'", field=key)


def _array(value, attr: str, shape: tuple[int, ...]) -> np.ndarray:
    """``value`` as the array of ``shape`` that encoders write into ``attr``,
    refused at the payload key that holds it: map stacks of exactly ``shape``
    and finite values, or flags, offsets and offset maps of its size, offsets
    in [0, 1)."""
    key = _KEY_OF[attr]
    arr = np.asarray(value, dtype=bool if attr == "clamped" else np.float64)
    if attr.endswith("_maps"):
        if arr.shape != shape:
            raise SchemaError(f"shape {arr.shape} does not match {shape}", field=key)
        bad, rule = ~np.isfinite(arr), "be finite"
    else:
        if arr.size != math.prod(shape):
            raise SchemaError(f"has {arr.size} values, not the {math.prod(shape)} of {shape}",
                              field=key)
        arr = arr.reshape(shape)
        if attr == "clamped":
            return arr
        bad, rule = ~((arr >= 0.0) & (arr < 1.0)), "lie in [0, 1)"
    if bad.any():
        raise SchemaError(f"values must {rule}, got {float(arr[bad][0])!r}", field=key)
    return arr


@dataclass(eq=False)
class EncodedSample:
    """The grids and side payloads one scheme produces for one sample.

    ``integer_maps`` has shape (N, height, width), N >= 1: one cell-level
    response grid per landmark. ``clamped`` flags each landmark the encoding
    step pulled onto the grid. Each remaining attribute belongs to the scheme
    its comment names and is None (a conflict count 0) in every other. Map
    values are finite and offsets lie in [0, 1).
    The constructor is the one place these rules live, and a refusal names
    the payload key: :meth:`from_json_dict` only parses a payload's text.
    """

    scheme: Scheme
    heatmap_shape: tuple[int, int]
    integer_maps: np.ndarray
    clamped: np.ndarray
    offsets: np.ndarray | None = None            # wov: (N, 2) exact fractions
    offset_map_x: np.ndarray | None = None       # wom: (h, w) shared grid
    offset_map_y: np.ndarray | None = None
    conflict_count: int = 0                      # wom: overwritten landmarks
    decimal_shape: tuple[int, int] | None = None  # hih
    decimal_maps: np.ndarray | None = None       # hih: (N, h_o, w_o)

    def __post_init__(self) -> None:
        self.scheme = Scheme(self.scheme)
        self.heatmap_shape = json_pair(self.heatmap_shape, "heatmap_shape",
                                       _MIN_SIDE["heatmap_shape"])
        self.conflict_count = json_int(self.conflict_count, "conflict_count", 0)
        for scheme, keys in _SCHEME_KEYS.items():
            for key, attr in keys.items():
                value = getattr(self, attr)
                if scheme is self.scheme and value is None:
                    raise SchemaError(f"required by scheme '{scheme.value}'", field=key)
                # every sample holds a conflict count, 0 unless it is wom's
                if scheme is not self.scheme and (value if attr == "conflict_count"
                                                  else value is not None):
                    raise _not_of(self.scheme, key)
        w, h = self.heatmap_shape
        maps = np.asarray(self.integer_maps, dtype=np.float64)
        self.integer_maps = _array(maps, "integer_maps", (*maps.shape[:1], h, w))
        n = json_int(len(maps), "n_landmarks", 1)
        self.clamped = _array(self.clamped, "clamped", (n,))
        for attr, shape in (("offsets", (n, 2)), ("offset_map_x", (h, w)),
                            ("offset_map_y", (h, w))):
            if getattr(self, attr) is not None:
                setattr(self, attr, _array(getattr(self, attr), attr, shape))
        if self.scheme is Scheme.HIH:
            self.decimal_shape = json_pair(self.decimal_shape, "decimal_shape",
                                           _MIN_SIDE["decimal_shape"])
            wo, ho = self.decimal_shape
            self.decimal_maps = _array(self.decimal_maps, "decimal_maps", (n, ho, wo))

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
        """The sample a parsed payload holds: this types the JSON and checks
        what allocating the grids needs first; every value rule is the
        constructor's."""
        scheme = Scheme(d.get("scheme"))
        for key in d:
            if key not in _PAYLOAD_KEYS and key not in _SCHEME_KEYS.get(scheme, {}):
                raise _not_of(scheme, key)
        n = json_int(d.get("n_landmarks"), "n_landmarks", 1)
        w, h = json_pair(d.get("heatmap_shape"), "heatmap_shape", _MIN_SIDE["heatmap_shape"])
        # the flag list bounds n by the payload's own length before any
        # (n, h, w) stack is allocated
        clamped = d.get("clamped")
        if not isinstance(clamped, list) or len(clamped) != n:
            raise SchemaError(f"expected a list of {n} flags, one per landmark",
                              field="clamped")
        if not all(isinstance(v, bool) for v in clamped):
            raise SchemaError("flags must be true or false", field="clamped")
        maps = _unsparse(d.get("integer_cells"), (n, h, w), field="integer_cells")
        kwargs: dict = {}
        if scheme is Scheme.WOV:
            kwargs["offsets"] = json_numbers(d.get("offsets"), (n, 2))
            if kwargs["offsets"] is None:
                raise SchemaError("wov requires one [x, y] pair of finite numbers per landmark",
                                  field="offsets")
        if scheme is Scheme.WOM:
            for axis in "xy":
                key = f"offset_{axis}_cells"
                kwargs[f"offset_map_{axis}"] = _unsparse(d.get(key), (h, w), field=key)
            kwargs["conflict_count"] = d.get("conflict_count", 0)
        if scheme is Scheme.HIH:
            wo, ho = kwargs["decimal_shape"] = json_pair(d.get("decimal_shape"), "decimal_shape",
                                                         _MIN_SIDE["decimal_shape"])
            kwargs["decimal_maps"] = _unsparse(d.get("decimal_cells"), (n, ho, wo),
                                               field="decimal_cells")
        return cls(scheme=scheme, heatmap_shape=(w, h), integer_maps=maps, clamped=clamped,
                   **kwargs)

    @classmethod
    def from_json(cls, text: str, source: str | None = None) -> EncodedSample:
        """The payload ``text``, read from ``source`` if given, which errors in the text name."""
        return json_object(text, source, cls.from_json_dict)


def _sparse(arr: np.ndarray) -> list[str]:
    """The nonzero cells of a grid or grid stack as 'k,row,col,value' / 'row,col,value'."""
    idx = np.nonzero(arr)
    columns = [i.tolist() for i in idx] + [arr[idx].tolist()]
    return [",".join(map(repr, cell)) for cell in zip(*columns)]


def _unsparse(entries, shape: tuple[int, ...], *, field: str) -> np.ndarray:
    """The inverse of :func:`_sparse` for an array of ``shape`` (rank 2 or 3)."""
    if not isinstance(entries, list):
        raise SchemaError("expected a list of sparse cells", field=field)
    _check_cells(shape, field=field)
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
        out[index] = v
    return out


@dataclass(eq=False)
class DecodeResult:
    """Decoded landmarks in normalized space plus per-point flags.

    ``points`` is (N, 2), one point per landmark: heatmap coordinates
    divided by the grid size, so every coordinate lies in [0, 1].
    ``tie_encountered`` marks points whose peak lookup hit a tie (for
    ``wsm``: a tied second place, which suppresses the shift). ``clamped``
    is propagated from the encoding step.
    """

    points: np.ndarray
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


def _last_writer_offsets(cells: np.ndarray, offsets: np.ndarray, shape: tuple[int, int],
                         group_size: int | None = None) -> tuple[np.ndarray, int]:
    """Resolve shared-map collisions: the highest landmark index wins a cell.

    Returns, for every landmark, the (2, N) offset that a reader of its
    cell would observe, plus the number of overwritten landmarks.
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
    decoded = offsets.copy()
    decoded[:, losers] = offsets[:, winners]
    return decoded, len(lost)


# -- encode / decode ----------------------------------------------------------


def _quantize(pts: np.ndarray, cfg: CodecConfig, group_size: int | None = None):
    """Each landmark's cell and the fraction its scheme's decoder adds back.

    Returns ``(cells, kept, steps, clamped, conflicts)``: the (2, N)
    axis-major cells and kept fractions as float64 (see the module
    docstring; None for ``direct`` and ``wsm``, which keep nothing), the
    hih decimal step indices, also (2, N) float64 (None for the other
    schemes), the (N,) clamp flags, and the wom conflict count, with
    collisions resolved within each run of ``group_size`` landmarks.

    Every landmark is encoded. Out-of-grid cells are pulled to the border
    and flagged, and the fraction is clipped so that ``cell + fraction``
    stays the nearest representable position; fractions always land in
    [0, 1). For ``hih`` the fraction rounds to the nearest step of the
    decimal grid, and a fraction close to 1 rounds past the last step:
    ``DecimalOverflow.CARRY`` carries it into the next cell (exact
    nearest-step rounding; pinned back to the last step, and flagged, on
    the grid's last cell), while ``DecimalOverflow.CLAMP`` pins the step to
    the grid and flags it, which inflates the error of near-1 fractions as
    typical published fractional-map statistics do.
    """
    w, h = cfg.heatmap_shape
    top = np.array([[w - 1], [h - 1]], dtype=np.float64)
    # one axis-major copy, which the rule below overwrites with its results
    xy = pts.T.copy()
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
        kept, conflicts = _last_writer_offsets(cells, kept, cfg.heatmap_shape, group_size)
    elif cfg.scheme is Scheme.HIH:
        w_o, h_o = cfg.decimal_shape
        dims_o = np.array([[w_o], [h_o]], dtype=np.float64)
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
        np.copyto(steps, dims_o - 1.0, where=over)
        over = over[0] | over[1]
        kept = steps / dims_o
        clamped |= over
    return cells, kept, steps, clamped, conflicts


def _render_batch(cells: np.ndarray, sigma: float, shape: tuple[int, int]) -> np.ndarray:
    """One truncated-Gaussian grid per landmark, stacked (N, h, w).

    Each landmark's grid holds ``exp(-d^2 / (2 sigma^2))`` around its cell,
    with ``d`` the distance in cells, and exactly 0 beyond Chebyshev
    distance ``floor(3 sigma)``; the peak is exactly 1.0 at the cell. The
    stencil is computed once because the exponential is the same for every
    landmark.
    """
    w, h = shape
    n = len(cells)
    out = np.zeros((n, h, w), dtype=np.float64)
    # no cell lies farther than the grid's longer side from another
    r = int(min(np.floor(3.0 * sigma), max(w, h) - 1))
    d = np.arange(-r, r + 1, dtype=np.float64)
    stencil = np.exp(-(d[:, None] ** 2 + d[None, :] ** 2) / (2.0 * sigma ** 2))
    for k, (cx, cy) in enumerate(cells.tolist()):
        x0, x1 = max(cx - r, 0), min(cx + r, w - 1)
        y0, y1 = max(cy - r, 0), min(cy + r, h - 1)
        out[k, y0:y1 + 1, x0:x1 + 1] = stencil[y0 - cy + r:y1 - cy + r + 1,
                                               x0 - cx + r:x1 - cx + r + 1]
    return out


def encode_points(points: np.ndarray, cfg: CodecConfig) -> EncodedSample:
    """Encode heatmap-space positions into one scheme's grid representation.

    ``points`` is (N, 2) in heatmap coordinates, every one finite. A
    position outside the grid is clamped onto it and flagged in
    ``clamped``, as :func:`_quantize` does.
    """
    pts = _check_points(points)
    w, h = cfg.heatmap_shape
    _check_cells((len(pts), h, w))
    if cfg.scheme is Scheme.HIH:
        _check_cells((len(pts), cfg.decimal_shape[1], cfg.decimal_shape[0]))
    cells, kept, steps, clamped, conflicts = _quantize(pts, cfg)
    cells = cells.T.astype(np.int64)
    integer_maps = _render_batch(cells, cfg.sigma_integer, cfg.heatmap_shape)
    kwargs: dict = {}
    if cfg.scheme is Scheme.WOV:
        kwargs["offsets"] = np.ascontiguousarray(kept.T)
    elif cfg.scheme is Scheme.WOM:
        # every writer of a cell carries the winner's offset, so order is moot
        maps = np.zeros((2, h, w), dtype=np.float64)
        maps[:, cells[:, 1], cells[:, 0]] = kept
        kwargs.update(offset_map_x=maps[0], offset_map_y=maps[1], conflict_count=conflicts)
    elif cfg.scheme is Scheme.HIH:
        kwargs["decimal_shape"] = cfg.decimal_shape
        kwargs["decimal_maps"] = _render_batch(steps.T.astype(np.int64), cfg.sigma_decimal,
                                               cfg.decimal_shape)
    return EncodedSample(scheme=cfg.scheme, heatmap_shape=cfg.heatmap_shape,
                         integer_maps=integer_maps, clamped=clamped, **kwargs)


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

    The payload carries its own scheme and grid shapes, and every landmark
    decodes to a point.
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

    return DecodeResult(points=coords / np.array([w, h], dtype=np.float64),
                        tie_encountered=ties, clamped=enc.clamped.copy())


def ideal_roundtrip(points: np.ndarray, cfg: CodecConfig,
                    group_size: int | None = None,
                    ) -> tuple[np.ndarray, np.ndarray, int]:
    """Grid-free equivalent of ``decode(encode_points(...))`` on ideal maps.

    Self-encoded grids peak exactly at the encoded cell and a tied second
    place suppresses the wsm shift, so the round trip reduces to each
    landmark's cell plus the fraction its scheme kept. Returns heatmap-space
    coordinates, finite for every landmark, the per-landmark clamp flags,
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
        group_size = json_int(group_size, "group_size", 1)
        if len(pts) % group_size:
            raise SchemaError(f"must divide the {len(pts)} points, got {group_size}",
                              field="group_size")
    cells, kept, _, clamped, conflicts = _quantize(pts, cfg, group_size)
    # the cells are this call's own copy: the kept fractions go straight in
    if kept is not None:
        cells += kept
    return cells.T, clamped, conflicts
