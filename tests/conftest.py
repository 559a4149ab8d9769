"""Shared fixtures: synthetic annotation corpora with realistic geometry.

The synthetic faces are built from fixed landmark templates whose
normalization pair sits at a realistic fraction of the bounding-box side
(0.58 for the 98-point layout, 0.673 for the 68-point one), so ideal-
condition error levels land in the same range as real face datasets. A
few template points are placed close enough together that shared-offset-
map collisions occur on some images.
"""

from __future__ import annotations

import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from subpix.codec import EncodedSample, Scheme, decode
from subpix.datasets import ATTRIBUTE_NAMES, Corpus

# Landmark indices whose distance normalizes the per-image error.
NORM_PAIR_98 = (60, 72)
NORM_PAIR_68 = (36, 45)

# Template points that form near-coincident pairs (sub-heatmap-cell apart).
TIGHT_PAIRS_98 = ((88, 89), (92, 93))
TIGHT_PAIRS_68 = ((61, 62),)


def _template(n_landmarks: int, norm_pair: tuple[int, int], norm_frac: float,
              tight_pairs, seed: int) -> np.ndarray:
    """Unit-square landmark layout with a pinned normalization distance."""
    rng = np.random.Generator(np.random.PCG64(seed))
    pts = rng.uniform(0.04, 0.96, size=(n_landmarks, 2))
    # the first four points pin the tight bounding box to the unit square
    pts[0] = (0.0, 0.05)
    pts[1] = (1.0, 0.93)
    pts[2] = (0.06, 1.0)
    pts[3] = (0.95, 0.0)
    i, j = norm_pair
    pts[i] = (0.5 - norm_frac / 2.0, 0.40)
    pts[j] = (0.5 + norm_frac / 2.0, 0.40)
    for a, b in tight_pairs:
        base = rng.uniform(0.25, 0.75, size=2)
        pts[a] = base
        pts[b] = base + rng.uniform(0.001, 0.004, size=2)
    return pts


TEMPLATE_98 = _template(98, NORM_PAIR_98, 0.58, TIGHT_PAIRS_98, seed=2024)
TEMPLATE_68 = _template(68, NORM_PAIR_68, 0.673, TIGHT_PAIRS_68, seed=2025)


def make_records(n_images: int, n_landmarks: int = 98, seed: int = 11,
                 jitter: float = 0.004, with_attributes: bool | None = None,
                 ) -> Corpus:
    """A synthetic corpus named "synthetic", in raw space.

    Each face is the layout template placed at a random scale and offset
    with small per-point jitter. Deterministic per seed.
    """
    if n_landmarks not in (98, 68):
        raise ValueError(f"no template for {n_landmarks} landmarks")
    template = TEMPLATE_98 if n_landmarks == 98 else TEMPLATE_68
    if with_attributes is None:
        with_attributes = n_landmarks == 98
    rng = np.random.Generator(np.random.PCG64(seed))
    points, boxes, flags = [], [], []
    for _ in range(n_images):
        side = rng.uniform(120.0, 420.0)
        origin = rng.uniform(20.0, 90.0, size=2)
        pts = origin + side * template + rng.normal(0.0, jitter * side,
                                                    size=template.shape)
        points.append(pts)
        boxes.append(np.concatenate([np.floor(pts.min(axis=0)) - 2,
                                     np.ceil(pts.max(axis=0)) + 2]))
        if with_attributes:
            flags.append([bool(rng.integers(0, 2)) for _ in ATTRIBUTE_NAMES])
    ids = [f"synth_{k:04d}" for k in range(n_images)]
    return Corpus("synthetic", ids, [f"images/{i}.png" for i in ids], np.array(points),
                  bbox=boxes, attributes=flags if with_attributes else None)


def one_face(face_id: str, points, *, valid=None, bbox=None,
             image_path: str = "x.png") -> Corpus:
    """A corpus of one face."""
    return Corpus("synthetic", [face_id], [image_path], np.asarray(points)[None],
                  valid=None if valid is None else np.asarray(valid)[None],
                  bbox=None if bbox is None else [bbox])


def join(*parts: Corpus) -> Corpus:
    """The faces of several corpora, in order, as one corpus named like the first."""
    return Corpus(parts[0].name, *(np.concatenate([getattr(p, f.name) for p in parts])
                                   for f in fields(Corpus)[1:]))


def wflw_line(corpus: Corpus, k: int) -> str:
    """Face ``k`` in the 207-token list format; no flags write as zeros."""
    coords = [repr(float(v)) for v in corpus.points[k].reshape(-1)]
    bbox = [str(int(v)) for v in corpus.bbox[k]]
    flags = [str(int(v == 1)) for v in corpus.attributes[k]]
    return " ".join(coords + bbox + flags + [corpus.image_paths[k]])


def write_wflw_file(corpus: Corpus, path: Path) -> None:
    """Serialize a corpus in the 207-token-per-line list format."""
    path.write_text("\n".join(wflw_line(corpus, k) for k in range(len(corpus))) + "\n")


def write_pts_file(points: np.ndarray, path: Path) -> None:
    """Serialize one point set in the brace-delimited pts format (1-based)."""
    lines = ["version: 1", f"n_points: {len(points)}", "{"]
    lines += [f"{float(x) + 1.0!r} {float(y) + 1.0!r}" for x, y in points]
    lines.append("}")
    path.write_text("\n".join(lines) + "\n")


def write_pts_tree(corpus: Corpus, root: Path) -> None:
    for face_id, points in zip(corpus.ids, corpus.points):
        target = root / f"{face_id}.pts"
        target.parent.mkdir(parents=True, exist_ok=True)
        write_pts_file(points, target)


@pytest.fixture(scope="session")
def corpus98() -> Corpus:
    return make_records(24, n_landmarks=98, seed=11)


@pytest.fixture(scope="session")
def corpus68() -> Corpus:
    return make_records(20, n_landmarks=68, seed=12)


# -- malformed-input corpora, shared with the acceptance suite -------------------

MALFORMED_PTS: list[tuple[str, str]] = [
    ("empty", ""),
    ("missing_version", "n_points: 1\n{\n1.0 2.0\n}\n"),
    ("wrong_version", "version: 2\nn_points: 1\n{\n1.0 2.0\n}\n"),
    ("bad_n_points", "version: 1\nn_points: three\n{\n1.0 2.0\n}\n"),
    ("zero_points", "version: 1\nn_points: 0\n{\n}\n"),
    ("missing_open_brace", "version: 1\nn_points: 1\n1.0 2.0\n}\n"),
    ("one_token_point", "version: 1\nn_points: 1\n{\n1.0\n}\n"),
    ("three_token_point", "version: 1\nn_points: 1\n{\n1.0 2.0 3.0\n}\n"),
    ("non_numeric_coord", "version: 1\nn_points: 1\n{\nabc 2.0\n}\n"),
    ("non_finite_coord", "version: 1\nn_points: 1\n{\nnan 2.0\n}\n"),
    ("truncated_points", "version: 1\nn_points: 3\n{\n1.0 2.0\n"),
    ("missing_close_brace", "version: 1\nn_points: 1\n{\n1.0 2.0\nhm\n"),
    ("content_after_close", "version: 1\nn_points: 1\n{\n1.0 2.0\n}\nextra\n"),
]


def make_wflw_line(seed: int = 5) -> str:
    return wflw_line(make_records(1, seed=seed), 0)


def malformed_wflw_lines() -> list[tuple[str, str]]:
    base = make_wflw_line().split()

    def swap(i: int, token: str) -> str:
        bad = list(base)
        bad[i] = token
        return " ".join(bad)

    inverted = list(base)
    inverted[196], inverted[198] = inverted[198], inverted[196]
    return [
        ("too_few_tokens", " ".join(base[:205] + base[206:])),
        ("too_many_tokens", " ".join(base + ["extra"])),
        ("non_numeric_coord", swap(0, "abc")),
        ("non_finite_coord", swap(3, "inf")),
        ("float_bbox", swap(196, "12.5")),
        ("inverted_bbox", " ".join(inverted)),
        ("numeric_flag_out_of_range", swap(200, "2")),
        ("word_flag", swap(205, "yes")),
    ]


def malformed_canonical_docs() -> list[tuple[str, str]]:
    import copy
    import json

    from subpix.datasets import canonical_dict

    doc = canonical_dict(make_records(2, seed=6))

    def mutate(name, fn):
        d = copy.deepcopy(doc)
        fn(d)
        return name, json.dumps(d)

    def set_attr(d, value):
        d["records"][0]["attributes"] = value

    cases = [
        ("invalid_json", "{not json"),
        ("top_level_array", "[1,2]"),
        mutate("missing_records", lambda d: d.pop("records")),
        mutate("string_n_landmarks", lambda d: d.update(n_landmarks="98")),
        mutate("empty_records", lambda d: d.update(records=[])),
        mutate("record_not_object", lambda d: d["records"].__setitem__(0, 7)),
        mutate("missing_id", lambda d: d["records"][0].pop("id")),
        mutate("empty_id", lambda d: d["records"][0].update(id="")),
        mutate("duplicate_id",
               lambda d: d["records"][1].update(id=d["records"][0]["id"])),
        mutate("missing_image_path", lambda d: d["records"][0].pop("image_path")),
        mutate("short_points",
               lambda d: d["records"][0].update(points=d["records"][0]["points"][:-1])),
        mutate("non_numeric_points",
               lambda d: d["records"][0]["points"].__setitem__(3, ["a", "b"])),
        mutate("non_finite_points",
               lambda d: d["records"][0]["points"].__setitem__(3, [float("inf"), 0.0])),
        mutate("short_bbox", lambda d: d["records"][0].update(bbox=[1, 2, 3])),
        mutate("unknown_attribute", lambda d: set_attr(d, {"grin": True})),
        mutate("attributes_not_object", lambda d: set_attr(d, 5)),
    ]
    return cases


# -- heatmap oracles ----------------------------------------------------------------


def brute_force_gaussian(center, sigma, shape):
    """Independent windowless double-loop reference of the rendering rule.

    Square truncation: cells farther than floor(3*sigma) on either axis
    are exactly zero. The denominator is 2*(sigma*sigma), squaring first,
    which is the association the library contract fixes.
    """
    w, h = shape
    cx, cy = center
    r = math.floor(3.0 * sigma)
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            if abs(x - cx) <= r and abs(y - cy) <= r:
                d2 = (x - cx) ** 2 + (y - cy) ** 2
                out[y, x] = math.exp(-d2 / (2.0 * (sigma * sigma)))
    return out


def peak_cell(grid: np.ndarray) -> tuple[int, int]:
    """(x, y) of a grid's maximum, first in row-major order."""
    y, x = np.unravel_index(int(np.argmax(grid)), grid.shape)
    return int(x), int(y)


def hand_built(values, scheme=Scheme.WSM) -> EncodedSample:
    """A one-landmark payload whose integer map is ``values[y, x]``."""
    values = np.asarray(values, dtype=np.float64)
    h, w = values.shape
    return EncodedSample(scheme=scheme, heatmap_shape=(w, h), integer_maps=values[None],
                         valid=np.array([True]), clamped=np.array([False]))


def decode_hand_built(values, scheme=Scheme.WSM) -> tuple[np.ndarray, bool]:
    """Decode :func:`hand_built`; returns heatmap-space (x, y) and the tie flag."""
    enc = hand_built(values, scheme)
    dec = decode(enc)
    return dec.landmarks.points[0] * np.array(enc.heatmap_shape), bool(dec.tie_encountered[0])


# -- acceptance verdict plumbing --------------------------------------------------
# The acceptance tests record one verdict line per criterion here; the hook
# replays them after the test summary, outside pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
