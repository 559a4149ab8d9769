"""Seeded benchmark inputs, generated without importing subpix.

The faces follow the layout of the test suite's synthetic 98-point
faces: a fixed landmark template placed at a random scale and offset with
small per-point jitter. The template has two near-coincident landmark
pairs, so shared-offset-map (``wom``) collisions occur. Inputs are written
in the annotation-list format the CLI reads by this module's own writer,
so a change to subpix can never change what the benchmark feeds it.
"""

from __future__ import annotations

import numpy as np

ATTRIBUTE_NAMES = ("pose", "expression", "illumination", "make_up", "occlusion", "blur")

N_LANDMARKS = 98
_NORM_PAIR = (60, 72)
_NORM_FRAC = 0.58
_TIGHT_PAIRS = ((88, 89), (92, 93))
_TEMPLATE_SEED = 2024


def template() -> np.ndarray:
    """Unit-square landmark layout with a pinned normalization distance."""
    rng = np.random.Generator(np.random.PCG64(_TEMPLATE_SEED))
    pts = rng.uniform(0.04, 0.96, size=(N_LANDMARKS, 2))
    # the first four points pin the tight bounding box to the unit square
    pts[0] = (0.0, 0.05)
    pts[1] = (1.0, 0.93)
    pts[2] = (0.06, 1.0)
    pts[3] = (0.95, 0.0)
    i, j = _NORM_PAIR
    pts[i] = (0.5 - _NORM_FRAC / 2.0, 0.40)
    pts[j] = (0.5 + _NORM_FRAC / 2.0, 0.40)
    for a, b in _TIGHT_PAIRS:
        base = rng.uniform(0.25, 0.75, size=2)
        pts[a] = base
        pts[b] = base + rng.uniform(0.001, 0.004, size=2)
    return pts


def make_faces(n_images: int, seed: int, jitter: float = 0.004) -> list[dict]:
    """``n_images`` synthetic faces as plain dicts; deterministic per seed."""
    base = template()
    rng = np.random.Generator(np.random.PCG64(seed))
    faces = []
    for k in range(n_images):
        side = rng.uniform(120.0, 420.0)
        origin = rng.uniform(20.0, 90.0, size=2)
        pts = origin + side * base + rng.normal(0.0, jitter * side, size=base.shape)
        lo = np.floor(pts.min(axis=0)) - 2
        hi = np.ceil(pts.max(axis=0)) + 2
        flags = [bool(rng.integers(0, 2)) for _ in ATTRIBUTE_NAMES]
        faces.append({
            "id": f"synth_{k:05d}",
            "image_path": f"images/synth_{k:05d}.png",
            "points": pts,
            "bbox": (int(lo[0]), int(lo[1]), int(hi[0]), int(hi[1])),
            "flags": flags,
        })
    return faces


def wflw_text(faces: list[dict]) -> str:
    """The 207-token-per-line annotation list format."""
    lines = []
    for f in faces:
        coords = [repr(float(v)) for v in f["points"].reshape(-1)]
        bbox = [str(v) for v in f["bbox"]]
        flags = [str(int(v)) for v in f["flags"]]
        lines.append(" ".join(coords + bbox + flags + [f["image_path"]]))
    return "\n".join(lines) + "\n"
