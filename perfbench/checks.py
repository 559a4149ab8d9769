"""Output checks, one per workload, independent of subpix's own code.

Each check returns a list of problems; an empty list means the output is
correct. A check never raises on malformed output: unparseable text is a
problem like any other, so every operation is counted as passed or failed.
"""

from __future__ import annotations

import json
import math

SCHEMES = ("direct", "wsm", "wov", "wom", "hih")

#: Acceptance bound on the ideal ``wov`` NME, in percent.
WOV_NME_BOUND_PERCENT = 1e-7
#: Standard errors the Monte-Carlo ``direct`` mean may sit from the closed form.
#: The benchmark draws a new sample on every seed it is run with, so this is
#: set for a false-alarm rate per run (5.7e-7) that a long campaign of runs
#: can afford; 3 SE would fail a correct program on 0.27 % of seeds (seed 14
#: of the full-size workload sits 3.86 SE out). A bias of 0.2 % of the mean
#: still fails at the workload's 1e6 landmarks.
MC_SE_BOUND = 5.0


def _parse(text) -> tuple[dict | None, list[str]]:
    try:
        doc = json.loads(text)
    except (ValueError, UnicodeDecodeError) as exc:
        return None, [f"report is not valid JSON: {exc}"]
    if not isinstance(doc, dict):
        return None, ["report is not a JSON object"]
    return doc, []


def _rows(doc: dict) -> tuple[dict, list[str]]:
    rows = doc.get("rows")
    if (not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows)
            or [r.get("scheme") for r in rows] != list(SCHEMES)):
        return {}, [f"expected one row per scheme in order {SCHEMES}"]
    return {r["scheme"]: r for r in rows}, []


def check_ideal_report(text, n_images: int) -> list[str]:
    """``bench-ideal --format json`` on a corpus of ``n_images`` clean faces."""
    doc, problems = _parse(text)
    if doc is None:
        return problems
    rows, problems = _rows(doc)
    if problems:
        return problems
    if doc.get("n_images") != n_images or doc.get("skipped") != 0:
        problems.append(f"expected {n_images} images and 0 skipped, got "
                        f"{doc.get('n_images')} and {doc.get('skipped')}")
    for name, row in rows.items():
        if row.get("n_images") != n_images:
            problems.append(f"{name}: scored {row.get('n_images')} of {n_images} images")
        nme = row.get("nme_percent")
        if not isinstance(nme, (int, float)) or not math.isfinite(nme) or nme < 0:
            problems.append(f"{name}: NME {nme!r} is not a finite non-negative number")
    wov = rows["wov"].get("nme_percent")
    if not (isinstance(wov, (int, float)) and wov < WOV_NME_BOUND_PERCENT):
        problems.append(f"wov NME {wov!r} percent is not below {WOV_NME_BOUND_PERCENT}")
    # on ideal maps the wsm shift always ties, so every per-image error,
    # hence the whole CED step curve and every aggregate, equals direct's
    for key in ("nme_percent", "auc", "failure_rate_percent", "ced",
                "conflicts", "clamped_points"):
        if rows["wsm"].get(key) != rows["direct"].get(key):
            problems.append(f"wsm {key} differs from direct")
    return problems


def check_per_image_wsm(report) -> list[str]:
    """In-process ``BenchReport``: wsm per-image NME equals direct's exactly."""
    by = {r.scheme.value: r for r in report.rows}
    direct, wsm = by["direct"].per_image, by["wsm"].per_image
    if len(direct) != len(wsm):
        return [f"wsm scored {len(wsm)} images, direct {len(direct)}"]
    bad = [a.id for a, b in zip(direct, wsm) if a.id != b.id or a.nme != b.nme]
    return [f"wsm per-image NME differs from direct on {len(bad)} images, "
            f"first {bad[0]}"] if bad else []


def analytic_direct_error(n: float) -> float:
    """Expected nearest-cell distance for uniform fractions, in raw pixels."""
    return n * (math.sqrt(2.0) + math.asinh(1.0)) / 6.0


def check_synth_report(text, samples: int, n_factor: float) -> list[str]:
    """``synth --format json``: the direct mean against the closed form."""
    doc, problems = _parse(text)
    if doc is None:
        return problems
    rows, problems = _rows(doc)
    if problems:
        return problems
    if any(r.get("n_images") != samples for r in rows.values()):
        problems.append(f"expected {samples} samples in every row")
    d = rows["direct"]
    mean, se = d.get("mean_px_error"), d.get("px_error_se")
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in (mean, se)) \
            or se <= 0:
        return problems + [f"direct mean {mean!r} / SE {se!r} are not usable numbers"]
    analytic = analytic_direct_error(n_factor)
    if abs(mean - analytic) > MC_SE_BOUND * se:
        problems.append(f"direct mean {mean!r} is {abs(mean - analytic) / se:.2f} SE "
                        f"from the analytic {analytic!r} (bound {MC_SE_BOUND})")
    reported = d.get("analytic_px_error")
    if not (isinstance(reported, (int, float))
            and math.isclose(reported, analytic, rel_tol=1e-12)):
        problems.append(f"reported analytic {reported!r} != {analytic!r}")
    for key in ("mean_px_error", "px_error_se"):
        if rows["wsm"].get(key) != d.get(key):
            problems.append(f"wsm {key} differs from direct")
    if rows["wov"].get("mean_px_error") != 0.0:
        problems.append(f"wov mean error {rows['wov'].get('mean_px_error')!r} is not 0")
    return problems


def check_same_bytes(first: bytes, again: bytes) -> list[str]:
    return [] if again == first else ["stdout differs from the first run on the same input"]
