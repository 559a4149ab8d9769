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
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError, SchemaError

__all__ = [
    "ATTRIBUTE_NAMES",
    "Corpus",
    "read_text",
    "decode_text",
    "parse_pts",
    "load_pts_dir",
    "parse_wflw_line",
    "load_wflw",
    "json_object",
    "json_int",
    "json_numbers",
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
        points: (N, L, 2) raw-space points in 0-based pixels; a face is all
            of its points, and loaded points are all finite.
        bbox: (N, 4) annotation boxes ``(x0, y0, x1, y1)``; a NaN row where
            a face has none.
        attributes: (N, 6) flags in :data:`ATTRIBUTE_NAMES` order, 0 or 1; a
            NaN row where a face has none (``"attributes": null``).

    ``bbox`` and ``attributes`` default to no boxes and no flags.
    """

    name: str
    ids: np.ndarray
    image_paths: np.ndarray
    points: np.ndarray
    bbox: np.ndarray | None = None
    attributes: np.ndarray | None = None

    def __post_init__(self) -> None:
        n, n_landmarks = np.shape(self.points)[:2]
        for name, dtype, shape, fill in (("points", np.float64, (n, n_landmarks, 2), None),
                                         ("ids", object, (n,), None),
                                         ("image_paths", object, (n,), None),
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
    return decode_text(data, str(path))


def decode_text(data: bytes, source: str) -> str:
    """``data`` as UTF-8; an unreadable byte fails at its 1-based line of ``source``."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # count lines as the parsers do, with str.splitlines
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"not valid UTF-8: {exc.reason}", path=source, line=line) from None


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
    for f, pts in zip(files, points):
        if len(pts) != len(points[0]):
            raise ParseError(f"{len(pts)} landmarks, but {files[0]} has {len(points[0])}",
                             path=str(f))
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
    def fail(msg: str) -> ParseError:
        return ParseError(msg, path=path, line=lineno)

    tokens = line.split()
    if len(tokens) != _WFLW_TOKENS:
        raise fail(f"expected {_WFLW_TOKENS} whitespace-separated fields, got {len(tokens)}")
    coords = []
    for t in tokens[:196]:
        try:
            coords.append(float(t))
        except ValueError:
            raise fail(f"non-numeric landmark coordinate {t!r}") from None
    coords = np.array(coords)
    if not np.all(np.isfinite(coords)):
        raise fail("non-finite landmark coordinate")
    try:
        bbox = tuple(int(t) for t in tokens[196:200])
        float(max(bbox, key=abs))  # a corpus holds boxes as floats
    except ValueError:
        raise fail(f"bounding box fields must be integers, got {tokens[196:200]}") from None
    except OverflowError:
        raise fail(f"bounding box field too large for a float in {tokens[196:200]}") from None
    if bbox[0] >= bbox[2] or bbox[1] >= bbox[3]:
        raise fail(f"degenerate bounding box {bbox}")
    for name, t in zip(ATTRIBUTE_NAMES, tokens[200:206]):
        if t not in ("0", "1"):
            raise fail(f"attribute flag '{name}' must be 0 or 1, got {t!r}")
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


# -- JSON -----------------------------------------------------------------------


def json_object(text: str, source: str | None, read):
    """``read`` of the JSON object ``text``: the one JSON parse of canonical files and payloads.

    Text that is not JSON, nested too deeply included, fails naming ``source``,
    and so does any :class:`SchemaError` that ``read`` raises.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer of too many digits
        raise SchemaError(f"invalid JSON: {exc}", path=source) from None
    except RecursionError:
        raise SchemaError("invalid JSON: nested too deeply", path=source) from None
    try:
        if not isinstance(doc, dict):
            raise SchemaError("top-level value must be an object", field="$")
        return read(doc)
    except SchemaError as exc:
        exc.path = source
        raise


def json_int(value, field: str, least: int) -> int:
    """``value`` as an int if it is an integer of at least ``least``: a JSON
    integer, or a numpy one a Python caller passes, which true or 64.0 is not."""
    if isinstance(value, np.integer):
        value = int(value)
    if type(value) is not int or value < least:
        raise SchemaError(f"must be an integer of at least {least}, got {value!r}", field=field)
    return value


def json_numbers(value, shape: tuple[int, ...]) -> np.ndarray | None:
    """A parsed JSON value as a float64 array of exactly ``shape``, or None.

    None unless every leaf is a finite number a double holds: not ``true`` or
    ``false``, a numeric string, ``NaN``, ``Infinity`` or an integer past it.
    """
    try:
        arr = np.array(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return None
    if arr.shape != shape:
        return None
    # numpy reads a JSON true as 1.0 and a numeric string as its number
    leaves = value
    for _ in shape[1:]:
        leaves = chain.from_iterable(leaves)
    if not {int, float}.issuperset(map(type, leaves)) or not np.isfinite(arr).all():
        return None
    return arr


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
        json.dumps(canonical_dict(corpus), sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8")


def load_canonical(source: str | Path) -> tuple[str, Corpus]:
    """Load and validate canonical JSON, naming the offending field on error."""
    p = Path(source)
    corpus = json_object(read_text(p), str(p), _canonical_corpus)
    return corpus.name, corpus


def _canonical_corpus(doc: dict) -> Corpus:
    for key in ("dataset", "n_landmarks", "records"):
        if key not in doc:
            raise SchemaError("missing required key", field=key)
    if not isinstance(doc["dataset"], str):
        raise SchemaError("must be a string", field="dataset")
    n = json_int(doc["n_landmarks"], "n_landmarks", 1)
    raw_records = doc["records"]
    if not isinstance(raw_records, list) or not raw_records:
        raise SchemaError("must be a non-empty array", field="records")
    rows = []
    seen_ids: set[str] = set()
    for i, entry in enumerate(raw_records):
        where = f"records[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError("must be an object", field=where)
        rec_id = entry.get("id")
        if not isinstance(rec_id, str) or not rec_id:
            raise SchemaError("must be a non-empty string", field=f"{where}.id")
        if rec_id in seen_ids:
            raise SchemaError(f"duplicate id '{rec_id}'", field=f"{where}.id")
        seen_ids.add(rec_id)
        image_path = entry.get("image_path")
        if not isinstance(image_path, str):
            raise SchemaError("must be a string", field=f"{where}.image_path")
        pts = json_numbers(entry.get("points"), (n, 2))
        if pts is None:
            raise SchemaError(f"must be an array of {n} [x, y] pairs of finite numbers",
                              field=f"{where}.points")
        bbox = entry.get("bbox")
        if bbox is not None:
            bbox = json_numbers(bbox, (4,))
            # a corpus holds "no bbox" as NaN
            if bbox is None or not (bbox[0] < bbox[2] and bbox[1] < bbox[3]):
                raise SchemaError("must be null or [x_min, y_min, x_max, y_max], finite, "
                                  "with x_min < x_max and y_min < y_max", field=f"{where}.bbox")
        attrs = entry.get("attributes")
        if attrs is not None:
            if not isinstance(attrs, dict):
                raise SchemaError("must be null or an object of boolean flags",
                                  field=f"{where}.attributes")
            unknown = set(attrs) - set(ATTRIBUTE_NAMES)
            if unknown:
                raise SchemaError(f"unknown attribute flags {sorted(unknown)}",
                                  field=f"{where}.attributes")
            for name, flag in attrs.items():
                if not isinstance(flag, bool):
                    raise SchemaError("must be true or false", field=f"{where}.attributes.{name}")
            attrs = [attrs.get(name, False) for name in ATTRIBUTE_NAMES]
        rows.append((rec_id, image_path, pts, (np.nan,) * 4 if bbox is None else bbox,
                     (np.nan,) * 6 if attrs is None else attrs))
    ids, image_paths, points, bbox, flags = zip(*rows)
    return Corpus(doc["dataset"], ids, image_paths, np.stack(points), bbox=bbox,
                  attributes=flags)


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
