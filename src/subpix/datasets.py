"""Annotation parsers and the canonical interchange format.

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

Parsers fail with located errors (path and 1-based line number) rather
than exceptions from the bowels of float(); a malformed annotation file
should never produce a traceback without coordinates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError, SchemaError
from .geometry import LandmarkSet, Space

__all__ = [
    "ATTRIBUTE_NAMES",
    "Attributes",
    "AnnotationRecord",
    "DatasetSpec",
    "parse_pts",
    "load_pts_file",
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


@dataclass(frozen=True)
class Attributes:
    """Binary condition flags attached to a single annotation."""

    pose: bool = False
    expression: bool = False
    illumination: bool = False
    make_up: bool = False
    occlusion: bool = False
    blur: bool = False

    def to_dict(self) -> dict[str, bool]:
        return {name: bool(getattr(self, name)) for name in ATTRIBUTE_NAMES}

    @classmethod
    def from_dict(cls, d: dict) -> Attributes:
        unknown = set(d) - set(ATTRIBUTE_NAMES)
        if unknown:
            raise SchemaError(f"unknown attribute flags {sorted(unknown)}", field="attributes")
        return cls(**{k: bool(v) for k, v in d.items()})


@dataclass(eq=False)
class AnnotationRecord:
    """One annotated face: identifier, source path, points, and extras."""

    id: str
    image_path: str
    landmarks: LandmarkSet
    bbox: tuple[float, float, float, float] | None = None
    attributes: Attributes | None = None


@dataclass(frozen=True)
class DatasetSpec:
    """Loader-level description of a dataset."""

    name: str
    n_landmarks: int


# -- pts files ----------------------------------------------------------------


def parse_pts(text: str, *, path: str | None = None) -> LandmarkSet:
    """Parse one pts file body into a raw-space landmark set.

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

    pts = np.empty((n_points, 2), dtype=np.float64)
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
        pts[k] = (x, y)

    lineno, line = next_content()
    if line != "}":
        raise fail(lineno, f"expected '}}' after {n_points} points, got {line!r}")
    while idx < len(lines):
        if lines[idx].strip():
            raise fail(idx + 1, f"unexpected content after '}}': {lines[idx].strip()!r}")
        idx += 1

    # pts files are 1-based; the rest of the pipeline is 0-based
    return LandmarkSet(pts - 1.0, space=Space.RAW)


def load_pts_file(path: str | Path) -> AnnotationRecord:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc}", path=str(p)) from exc
    landmarks = parse_pts(text, path=str(p))
    return AnnotationRecord(id=p.stem, image_path=p.name, landmarks=landmarks)


def load_pts_dir(path: str | Path) -> tuple[DatasetSpec, list[AnnotationRecord]]:
    """All ``*.pts`` files under a directory, sorted by path for determinism."""
    root = Path(path)
    if not root.is_dir():
        raise ParseError("not a directory", path=str(root))
    files = sorted(root.rglob("*.pts"))
    if not files:
        raise ParseError("no .pts files found", path=str(root))
    records = []
    for f in files:
        rec = load_pts_file(f)
        rec.id = f.relative_to(root).with_suffix("").as_posix()
        records.append(rec)
    counts = {len(r.landmarks) for r in records}
    if len(counts) != 1:
        raise ParseError(f"inconsistent landmark counts across files: {sorted(counts)}",
                         path=str(root))
    n = counts.pop()
    return DatasetSpec(name=root.name, n_landmarks=n), records


# -- annotation list files ------------------------------------------------------


def parse_wflw_line(line: str, *, lineno: int | None = None,
                    path: str | None = None) -> AnnotationRecord:
    """Parse one 207-token annotation-list line."""
    tokens = line.split()
    if len(tokens) != _WFLW_TOKENS:
        raise ParseError(
            f"expected {_WFLW_TOKENS} whitespace-separated fields, got {len(tokens)}",
            path=path, line=lineno)
    coord_tokens = tokens[:196]
    try:
        coords = np.array([float(t) for t in coord_tokens], dtype=np.float64)
    except ValueError:
        bad = next(t for t in coord_tokens if not _is_float(t))
        raise ParseError(f"non-numeric landmark coordinate {bad!r}",
                         path=path, line=lineno) from None
    if not np.all(np.isfinite(coords)):
        raise ParseError("non-finite landmark coordinate", path=path, line=lineno)
    try:
        bbox = tuple(int(t) for t in tokens[196:200])
    except ValueError:
        bad = tokens[196:200]
        raise ParseError(f"bounding box fields must be integers, got {bad}",
                         path=path, line=lineno) from None
    if bbox[0] >= bbox[2] or bbox[1] >= bbox[3]:
        raise ParseError(f"degenerate bounding box {bbox}", path=path, line=lineno)
    flags = []
    for name, t in zip(ATTRIBUTE_NAMES, tokens[200:206]):
        if t not in ("0", "1"):
            raise ParseError(f"attribute flag '{name}' must be 0 or 1, got {t!r}",
                             path=path, line=lineno)
        flags.append(t == "1")
    image_path = tokens[206]
    landmarks = LandmarkSet(coords.reshape(WFLW_N_LANDMARKS, 2), space=Space.RAW)
    rec_id = f"{lineno:06d}_{Path(image_path).stem}" if lineno is not None else image_path
    return AnnotationRecord(id=rec_id, image_path=image_path, landmarks=landmarks,
                            bbox=tuple(float(v) for v in bbox),
                            attributes=Attributes(*flags))


def _is_float(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def load_wflw(path: str | Path) -> tuple[DatasetSpec, list[AnnotationRecord]]:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc}", path=str(p)) from exc
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        records.append(parse_wflw_line(line, lineno=lineno, path=str(p)))
    if not records:
        raise ParseError("no annotation lines found", path=str(p))
    return DatasetSpec(name=p.stem, n_landmarks=WFLW_N_LANDMARKS), records


# -- canonical JSON -------------------------------------------------------------


def canonical_dict(records: list[AnnotationRecord], *, dataset: str) -> dict:
    """Round-trip-exact JSON form of a record list."""
    if not records:
        raise ConfigError("cannot serialize an empty record list")
    n = len(records[0].landmarks)
    out_records = []
    for rec in records:
        if len(rec.landmarks) != n:
            raise ConfigError(
                f"record '{rec.id}' has {len(rec.landmarks)} landmarks, expected {n}")
        entry: dict = {
            "id": rec.id,
            "image_path": rec.image_path,
            "points": [[float(x), float(y)] for x, y in rec.landmarks.points],
            "bbox": list(rec.bbox) if rec.bbox is not None else None,
            "attributes": rec.attributes.to_dict() if rec.attributes is not None else None,
        }
        out_records.append(entry)
    return {"dataset": dataset, "n_landmarks": n, "records": out_records}


def write_canonical(path: str | Path, records: list[AnnotationRecord], *,
                    dataset: str) -> None:
    Path(path).write_text(
        json.dumps(canonical_dict(records, dataset=dataset), sort_keys=True,
                   separators=(",", ":")) + "\n")


def load_canonical(source: str | Path) -> tuple[DatasetSpec, list[AnnotationRecord]]:
    """Load and validate canonical JSON, naming the offending field on error."""
    p = Path(source)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc}", path=str(p)) from exc
    try:
        doc = json.loads(text)
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
    records = []
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
        points = entry.get("points")
        if not isinstance(points, list) or len(points) != n:
            raise SchemaError(f"must be an array of {n} [x, y] pairs",
                              field=f"{where}.points", path=str(p))
        try:
            pts = np.array(points, dtype=np.float64)
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
                bbox = tuple(float(v) for v in bbox)
            except OverflowError:  # an integer past the float range
                raise bad_bbox from None
        attrs = entry.get("attributes")
        attributes = None
        if attrs is not None:
            if not isinstance(attrs, dict):
                raise SchemaError("must be null or an object of boolean flags",
                                  field=f"{where}.attributes", path=str(p))
            try:
                attributes = Attributes.from_dict(attrs)
            except SchemaError as exc:
                raise SchemaError(str(exc), field=f"{where}.attributes", path=str(p)) from exc
        records.append(AnnotationRecord(id=rec_id, image_path=image_path,
                                        landmarks=LandmarkSet(pts, space=Space.RAW),
                                        bbox=bbox, attributes=attributes))
    return DatasetSpec(name=doc["dataset"], n_landmarks=n), records


# -- entry point used by the CLI -------------------------------------------------


def load_dataset(spec: str) -> tuple[DatasetSpec, list[AnnotationRecord]]:
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


def subset_counts(records: list[AnnotationRecord]) -> dict[str, int]:
    """How many records carry each attribute flag."""
    counts = dict.fromkeys(ATTRIBUTE_NAMES, 0)
    for rec in records:
        if rec.attributes is None:
            continue
        for name in ATTRIBUTE_NAMES:
            if getattr(rec.attributes, name):
                counts[name] += 1
    return counts
