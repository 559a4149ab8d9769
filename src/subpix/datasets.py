"""Annotation parsers, the columnar corpus they load, and the canonical format.

Three input shapes are supported:

* ``pts`` point files: a ``version:``/``n_points:`` header, a brace-
  delimited block of ``x y`` lines, one file per image. Coordinates in
  these files are 1-based by convention and are shifted by -1.0 on load
  so that everything downstream lives in 0-based pixel coordinates.
* single-file annotation lists with 207 whitespace-separated fields per
  line: 196 landmark coordinates, 4 bounding-box integers, 6 binary
  attribute flags, and the image path as the final field.
* the canonical JSON produced by this package, which round-trips
  losslessly and is what the CLI tools exchange.

Every loader returns ``(name, corpus)``: one :class:`Corpus` holds the N
faces as arrays, and the benchmark and the metrics score its (N, L, 2)
point stack as is. The name is ``corpus.name`` again, kept first so that
callers which take the corpus as item 1 keep working.

Parsers fail with located errors (path and 1-based line number) rather
than exceptions from the bowels of float(); a malformed annotation file
should never produce a traceback without coordinates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError, SchemaError

__all__ = [
    "ATTRIBUTE_NAMES",
    "Corpus",
    "read_text",
    "parse_pts",
    "load_pts_dir",
    "parse_wflw_line",
    "load_wflw",
    "canonical_dict",
    "write_canonical",
    "load_canonical",
    "load_dataset",
    "subset_counts",
]

ATTRIBUTE_NAMES = ("pose", "expression", "illumination", "make_up", "occlusion", "blur")

WFLW_N_LANDMARKS = 98
_WFLW_TOKENS = WFLW_N_LANDMARKS * 2 + 4 + 6 + 1  # 207


@dataclass(frozen=True, eq=False)
class Corpus:
    """N annotated faces of L landmarks each, one array per field.

    Attributes:
        name: the dataset name.
        ids: (N,) object array of identifiers, unique within the corpus.
        image_paths: (N,) object array of image paths as annotated.
        points: (N, L, 2) raw-space points in 0-based pixels.
        valid: (N, L) mask of the points to encode and score; every loader
            marks all points valid, and loaded points are all finite.
        bbox: (N, 4) annotation boxes ``(x0, y0, x1, y1)``; a NaN row where
            a face has none.
        attributes: (N, 6) flags in :data:`ATTRIBUTE_NAMES` order, 0 or 1; a
            NaN row where a face has none (``"attributes": null``).

    ``valid``, ``bbox`` and ``attributes`` default to all valid, no boxes
    and no flags.
    """

    name: str
    ids: np.ndarray
    image_paths: np.ndarray
    points: np.ndarray
    valid: np.ndarray | None = None
    bbox: np.ndarray | None = None
    attributes: np.ndarray | None = None

    def __post_init__(self) -> None:
        n, n_landmarks = np.shape(self.points)[:2]
        for name, dtype, shape, fill in (("points", np.float64, (n, n_landmarks, 2), None),
                                         ("ids", object, (n,), None),
                                         ("image_paths", object, (n,), None),
                                         ("valid", bool, (n, n_landmarks), True),
                                         ("bbox", np.float64, (n, 4), np.nan),
                                         ("attributes", np.float64, (n, 6), np.nan)):
            value = getattr(self, name)
            arr = np.full(shape, fill, dtype) if value is None else np.asarray(value, dtype)
            if arr.shape != shape:
                raise ConfigError(f"corpus {name} of shape {arr.shape} does not match "
                                  f"{n} faces of {n_landmarks} landmarks")
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, rows) -> Corpus:
        """The faces a slice, index array or mask selects, as a corpus of the same name."""
        return Corpus(self.name, *(getattr(self, f.name)[rows] for f in fields(self)[1:]))


def read_text(path: str | Path) -> str:
    """A file's text as UTF-8; unreadable bytes fail at their 1-based line."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc}", path=str(path)) from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # count lines as the parsers do, with str.splitlines
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"not valid UTF-8: {exc.reason}", path=str(path), line=line) from None


# -- pts files ----------------------------------------------------------------


def parse_pts(text: str, *, path: str | None = None) -> np.ndarray:
    """Parse one pts file body into its (n, 2) raw-space points.

    The 1-based coordinate convention of the format is converted to
    0-based here: every coordinate is shifted by -1.0.
    """
    lines = text.splitlines()

    def fail(lineno: int, msg: str) -> ParseError:
        return ParseError(msg, path=path, line=lineno)

    idx = 0

    def next_content() -> tuple[int, str]:
        nonlocal idx
        while idx < len(lines):
            stripped = lines[idx].strip()
            idx += 1
            if stripped:
                return idx, stripped
        raise fail(len(lines) or 1, "unexpected end of file")

    lineno, line = next_content()
    if not line.startswith("version:"):
        raise fail(lineno, f"expected 'version:' header, got {line!r}")
    version = line[len("version:"):].strip()
    if version != "1":
        raise fail(lineno, f"unsupported pts version {version!r} (expected '1')")

    lineno, line = next_content()
    if not line.startswith("n_points:"):
        raise fail(lineno, f"expected 'n_points:' header, got {line!r}")
    try:
        n_points = int(line[len("n_points:"):].strip())
    except ValueError:
        raise fail(lineno, f"n_points is not an integer: {line!r}") from None
    if n_points < 1:
        raise fail(lineno, f"n_points must be at least 1, got {n_points}")

    lineno, line = next_content()
    if line != "{":
        raise fail(lineno, f"expected '{{' after header, got {line!r}")

    # grown point by point: the header alone must not size an allocation
    pts = []
    for k in range(n_points):
        lineno, line = next_content()
        tokens = line.split()
        if len(tokens) != 2:
            raise fail(lineno, f"expected 2 coordinates for point {k}, got {len(tokens)}")
        try:
            x, y = float(tokens[0]), float(tokens[1])
        except ValueError:
            raise fail(lineno, f"non-numeric coordinate in {line!r}") from None
        if not (np.isfinite(x) and np.isfinite(y)):
            raise fail(lineno, f"non-finite coordinate in {line!r}")
        pts.append((x, y))

    lineno, line = next_content()
    if line != "}":
        raise fail(lineno, f"expected '}}' after {n_points} points, got {line!r}")
    while idx < len(lines):
        if lines[idx].strip():
            raise fail(idx + 1, f"unexpected content after '}}': {lines[idx].strip()!r}")
        idx += 1

    # pts files are 1-based; the rest of the pipeline is 0-based
    return np.array(pts, dtype=np.float64) - 1.0


def load_pts_dir(path: str | Path) -> tuple[str, Corpus]:
    """All ``*.pts`` files under a directory, sorted by path for determinism."""
    root = Path(path)
    if not root.is_dir():
        raise ParseError("not a directory", path=str(root))
    files = sorted(root.rglob("*.pts"))
    if not files:
        raise ParseError("no .pts files found", path=str(root))
    points = [parse_pts(read_text(f), path=str(f)) for f in files]
    counts = {len(pts) for pts in points}
    if len(counts) != 1:
        raise ParseError(f"inconsistent landmark counts across files: {sorted(counts)}",
                         path=str(root))
    corpus = Corpus(root.name, [f.relative_to(root).with_suffix("").as_posix() for f in files],
                    [f.name for f in files], np.stack(points))
    return corpus.name, corpus


# -- annotation list files ------------------------------------------------------


def parse_wflw_line(line: str, *, lineno: int | None = None, path: str | None = None,
                    ) -> tuple[str, str, np.ndarray, tuple[int, ...], tuple[bool, ...]]:
    """Parse one 207-token annotation-list line.

    Returns the face's id, image path, (98, 2) points, bounding box and six
    attribute flags. The id is ``<line:06d>_<image stem>``, or the image
    path when no line number is given.
    """
    tokens = line.split()
    if len(tokens) != _WFLW_TOKENS:
        raise ParseError(
            f"expected {_WFLW_TOKENS} whitespace-separated fields, got {len(tokens)}",
            path=path, line=lineno)
    coords = []
    for t in tokens[:196]:
        try:
            coords.append(float(t))
        except ValueError:
            raise ParseError(f"non-numeric landmark coordinate {t!r}",
                             path=path, line=lineno) from None
    coords = np.array(coords)
    if not np.all(np.isfinite(coords)):
        raise ParseError("non-finite landmark coordinate", path=path, line=lineno)
    try:
        bbox = tuple(int(t) for t in tokens[196:200])
        float(max(bbox, key=abs))  # a corpus holds boxes as floats
    except ValueError:
        bad = tokens[196:200]
        raise ParseError(f"bounding box fields must be integers, got {bad}",
                         path=path, line=lineno) from None
    except OverflowError:
        raise ParseError(f"bounding box field too large for a float in {tokens[196:200]}",
                         path=path, line=lineno) from None
    if bbox[0] >= bbox[2] or bbox[1] >= bbox[3]:
        raise ParseError(f"degenerate bounding box {bbox}", path=path, line=lineno)
    for name, t in zip(ATTRIBUTE_NAMES, tokens[200:206]):
        if t not in ("0", "1"):
            raise ParseError(f"attribute flag '{name}' must be 0 or 1, got {t!r}",
                             path=path, line=lineno)
    image_path = tokens[206]
    rec_id = f"{lineno:06d}_{Path(image_path).stem}" if lineno is not None else image_path
    return (rec_id, image_path, coords.reshape(WFLW_N_LANDMARKS, 2), bbox,
            tuple(t == "1" for t in tokens[200:206]))


def load_wflw(path: str | Path) -> tuple[str, Corpus]:
    p = Path(path)
    rows = [parse_wflw_line(line, lineno=lineno, path=str(p))
            for lineno, line in enumerate(read_text(p).splitlines(), start=1) if line.strip()]
    if not rows:
        raise ParseError("no annotation lines found", path=str(p))
    ids, image_paths, points, bbox, flags = zip(*rows)
    corpus = Corpus(p.stem, ids, image_paths, np.array(points), bbox=bbox, attributes=flags)
    return corpus.name, corpus


# -- canonical JSON -------------------------------------------------------------


def _rows_or_none(arr: np.ndarray) -> list:
    """Each row of a 2-D array as a list, or None where the row holds a NaN."""
    return [None if missing else row
            for row, missing in zip(arr.tolist(), np.isnan(arr).any(axis=1).tolist())]


def canonical_dict(corpus: Corpus) -> dict:
    """Round-trip-exact JSON form of a corpus."""
    if not len(corpus):
        raise ConfigError("cannot serialize an empty corpus")
    flags = [None if row is None else dict(zip(ATTRIBUTE_NAMES, map(bool, row)))
             for row in _rows_or_none(corpus.attributes)]
    columns = (corpus.ids.tolist(), corpus.image_paths.tolist(), corpus.points.tolist(),
               _rows_or_none(corpus.bbox), flags)
    keys = ("id", "image_path", "points", "bbox", "attributes")
    return {"dataset": corpus.name, "n_landmarks": corpus.points.shape[1],
            "records": [dict(zip(keys, row)) for row in zip(*columns)]}


def write_canonical(path: str | Path, corpus: Corpus) -> None:
    Path(path).write_text(
        json.dumps(canonical_dict(corpus), sort_keys=True, separators=(",", ":")) + "\n")


def load_canonical(source: str | Path) -> tuple[str, Corpus]:
    """Load and validate canonical JSON, naming the offending field on error."""
    p = Path(source)
    try:
        doc = json.loads(read_text(p))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", path=str(p)) from exc
    if not isinstance(doc, dict):
        raise SchemaError("top-level value must be an object", field="$", path=str(p))
    for key in ("dataset", "n_landmarks", "records"):
        if key not in doc:
            raise SchemaError("missing required key", field=key, path=str(p))
    if not isinstance(doc["dataset"], str):
        raise SchemaError("must be a string", field="dataset", path=str(p))
    n = doc["n_landmarks"]
    if not isinstance(n, int) or n < 1:
        raise SchemaError("must be a positive integer", field="n_landmarks", path=str(p))
    raw_records = doc["records"]
    if not isinstance(raw_records, list) or not raw_records:
        raise SchemaError("must be a non-empty array", field="records", path=str(p))
    rows = []
    seen_ids: set[str] = set()
    for i, entry in enumerate(raw_records):
        where = f"records[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError("must be an object", field=where, path=str(p))
        rec_id = entry.get("id")
        if not isinstance(rec_id, str) or not rec_id:
            raise SchemaError("must be a non-empty string", field=f"{where}.id", path=str(p))
        if rec_id in seen_ids:
            raise SchemaError(f"duplicate id '{rec_id}'", field=f"{where}.id", path=str(p))
        seen_ids.add(rec_id)
        image_path = entry.get("image_path")
        if not isinstance(image_path, str):
            raise SchemaError("must be a string", field=f"{where}.image_path", path=str(p))
        raw_points = entry.get("points")
        if not isinstance(raw_points, list) or len(raw_points) != n:
            raise SchemaError(f"must be an array of {n} [x, y] pairs",
                              field=f"{where}.points", path=str(p))
        try:
            pts = np.array(raw_points, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            raise SchemaError("coordinates must be numbers",
                              field=f"{where}.points", path=str(p)) from None
        if pts.shape != (n, 2):
            raise SchemaError(f"must be an array of {n} [x, y] pairs",
                              field=f"{where}.points", path=str(p))
        if not np.all(np.isfinite(pts)):
            raise SchemaError("coordinates must be finite",
                              field=f"{where}.points", path=str(p))
        bbox = entry.get("bbox")
        if bbox is not None:
            bad_bbox = SchemaError("must be null or [x_min, y_min, x_max, y_max]",
                                   field=f"{where}.bbox", path=str(p))
            if (not isinstance(bbox, list) or len(bbox) != 4
                    or not all(isinstance(v, (int, float)) for v in bbox)):
                raise bad_bbox
            try:
                bbox = [float(v) for v in bbox]
            except OverflowError:  # an integer past the float range
                raise bad_bbox from None
            if not np.all(np.isfinite(bbox)):  # a corpus holds "no bbox" as NaN
                raise bad_bbox
        attrs = entry.get("attributes")
        if attrs is not None:
            if not isinstance(attrs, dict):
                raise SchemaError("must be null or an object of boolean flags",
                                  field=f"{where}.attributes", path=str(p))
            unknown = set(attrs) - set(ATTRIBUTE_NAMES)
            if unknown:
                raise SchemaError(f"unknown attribute flags {sorted(unknown)}",
                                  field=f"{where}.attributes", path=str(p))
            attrs = [bool(attrs.get(name, False)) for name in ATTRIBUTE_NAMES]
        rows.append((rec_id, image_path, pts, (np.nan,) * 4 if bbox is None else bbox,
                     (np.nan,) * 6 if attrs is None else attrs))
    ids, image_paths, points, bbox, flags = zip(*rows)
    corpus = Corpus(doc["dataset"], ids, image_paths, np.stack(points), bbox=bbox,
                    attributes=flags)
    return corpus.name, corpus


# -- entry point used by the CLI -------------------------------------------------


def load_dataset(spec: str) -> tuple[str, Corpus]:
    """Load ``format:path`` where format is ``wflw``, ``pts``, or ``json``."""
    fmt, sep, path = spec.partition(":")
    if not sep or not path:
        raise ConfigError(f"dataset must be given as 'format:path', got {spec!r}")
    fmt = fmt.lower()
    if fmt == "wflw":
        return load_wflw(path)
    if fmt == "pts":
        return load_pts_dir(path)
    if fmt == "json":
        return load_canonical(path)
    raise ConfigError(f"unknown dataset format {fmt!r} (expected wflw, pts, or json)")


def subset_counts(corpus: Corpus) -> dict[str, int]:
    """How many faces carry each attribute flag."""
    return dict(zip(ATTRIBUTE_NAMES, np.count_nonzero(corpus.attributes == 1, axis=0).tolist()))
