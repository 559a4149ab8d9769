"""The workloads: inputs from a seed, the CLI command, the output check.

Every workload runs in one process on one thread and goes through the
public CLI (``python3 -m subpix``), because the CLI process is what a user
waits for. ``prepare`` writes the inputs under a scratch directory and
returns a :class:`Prepared`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import corpus

#: Monte-Carlo scale factor: raw pixels per heatmap cell.
MC_N_FACTOR = 4.0
MC_LANDMARKS = 4


@dataclass
class Prepared:
    items: int                       # items completed by one operation
    input_size: dict
    check: Callable[[bytes], list[str]]
    argv: list[str]                  # CLI arguments after ``subpix``


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    item: str
    sizes: dict                      # size label -> the workload's size knob
    prepare: Callable[[Path, int, int], Prepared]


def _sub_seed(seed: int, role: int) -> int:
    """Independent stream per input role, all determined by ``seed``."""
    return int(np.random.SeedSequence([seed, role]).generate_state(1)[0])


def _prepare_ideal(work: Path, seed: int, n_images: int) -> Prepared:
    faces = corpus.make_faces(n_images, _sub_seed(seed, 1))
    path = work / "wflw98.txt"
    path.write_text(corpus.wflw_text(faces))
    return Prepared(
        items=n_images,
        input_size={"images": n_images, "landmarks": 98, "schemes": 5},
        check=lambda out: checks.check_ideal_report(out, n_images),
        argv=["bench-ideal", "--dataset", f"wflw:{path}", "--schemes", "all",
              "--format", "json", "--threads", "1"],
    )


def _prepare_synth(work: Path, seed: int, samples: int) -> Prepared:
    return Prepared(
        items=samples * MC_LANDMARKS,
        input_size={"samples": samples, "landmarks": MC_LANDMARKS, "schemes": 5,
                    "synth_seed": seed},
        check=lambda out: checks.check_synth_report(out, samples, MC_N_FACTOR),
        argv=["synth", "--samples", str(samples), "--landmarks", str(MC_LANDMARKS),
              "--n-factor", str(MC_N_FACTOR), "--seed", str(seed), "--schemes", "all",
              "--format", "json"],
    )


WORKLOADS = {w.name: w for w in (
    Workload(
        "ideal-wflw98",
        "north star: every scheme round-trips a 98-point corpus with wom conflicts "
        "through render/argmax; stresses codec grids, geometry, datasets.load_wflw",
        "one image scored under all five schemes",
        {"full": 100, "tiny": 4},
        _prepare_ideal),
    Workload(
        "synth-mc",
        "grid-free ideal_roundtrip, RNG and wom group resolution only; bypasses "
        "render, decode, geometry and datasets; memory-bound",
        "one landmark round-tripped under all five schemes",
        {"full": 250_000, "tiny": 2_000},
        _prepare_synth),
)}
