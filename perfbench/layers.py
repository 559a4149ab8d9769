"""Where the traced run cuts subpix into layers, and what it reports.

The layers are the package's modules: ``datasets``, ``geometry``,
``codec``, ``metrics``, ``bench`` and ``cli``. Each span wraps a call
from one module into another, installed on the name the caller looks up
(``subpix.bench.build_samples`` is the name ``run_ideal`` calls, for
instance). ``heatmap`` is on no CLI path (``codec`` renders and finds
peaks itself), so it is not measured.

Counts are taken from the return values at the same boundaries: points
encoded, clamped, in ``wom`` conflict, tied under argmax, and the
computed bytes of every dense map ``encode_points`` allocates.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from checks import SCHEMES


def _scheme(cfg) -> str:
    return cfg.scheme.value


def _count_encode(c: Counter, enc, points, cfg, *args, **kwargs) -> None:
    s = enc.scheme.value
    n = int(np.count_nonzero(enc.valid))
    c["codec.encode_calls"] += 1
    c["codec.points"] += n
    c[f"codec.points.{s}"] += n
    clamped = int(np.count_nonzero(enc.clamped))
    c["codec.clamped"] += clamped
    c[f"codec.clamped.{s}"] += clamped
    c["codec.conflicts"] += int(enc.conflict_count)
    c[f"codec.conflicts.{s}"] += int(enc.conflict_count)
    if s == "wom":
        c["codec.wom_points"] += n
    c["codec.map_bytes_total"] += sum(
        a.nbytes for a in (enc.integer_maps, enc.offset_map_x, enc.offset_map_y,
                           enc.decimal_maps) if a is not None)


def _count_decode(c: Counter, dec, enc, cfg, *args, **kwargs) -> None:
    ties = np.asarray(dec.tie_encountered, dtype=bool)
    c["codec.ties"] += int(np.count_nonzero(ties))
    if enc.scheme.value == "wsm":
        valid = np.asarray(enc.valid, dtype=bool)
        c["codec.wsm_searches"] += int(np.count_nonzero(valid))
        c["codec.wsm_shifts"] += int(np.count_nonzero(valid & ~ties))


def _count_roundtrip(c: Counter, result, points, cfg, *args, **kwargs) -> None:
    coords, clamped, conflicts = result
    s = _scheme(cfg)
    n = int(np.count_nonzero(np.isfinite(coords[:, 0])))
    c["codec.points"] += n
    c[f"codec.points.{s}"] += n
    c["codec.clamped"] += int(np.count_nonzero(clamped))
    c[f"codec.clamped.{s}"] += int(np.count_nonzero(clamped))
    c["codec.conflicts"] += int(conflicts)
    c[f"codec.conflicts.{s}"] += int(conflicts)
    if s == "wom":
        c["codec.wom_points"] += n


def _count_samples(c: Counter, result, *args, **kwargs) -> None:
    samples, skipped = result
    c["bench.samples"] += len(samples)
    c["bench.skipped"] += int(skipped)


def targets(captured: dict) -> list[tuple]:
    """Patch points for :meth:`spans.Tracer.patched`.

    ``captured`` receives the last :class:`subpix.bench.BenchReport` that
    ``run_ideal`` returned, for checks that need per-image results.
    """
    import subpix.bench
    import subpix.cli
    import subpix.codec
    import subpix.datasets
    from subpix.geometry import AffineTransform

    def keep_report(c, report, *args, **kwargs):
        captured["report"] = report

    return [
        (subpix.datasets, "load_wflw", "datasets.load_wflw", None),
        (subpix.cli, "run_ideal", "bench.run_ideal", keep_report),
        (subpix.cli, "run_montecarlo", "bench.run_montecarlo", None),
        (subpix.cli, "emit_report", "bench.emit_report", None),
        (subpix.bench, "build_samples", "bench.build_samples", _count_samples),
        (subpix.bench, "crop_from_landmarks", "geometry.crop", None),
        (subpix.codec, "heatmap_transform", "geometry.transform.heatmap_transform", None),
        (subpix.codec, "apply_transform", "geometry.transform.apply_transform", None),
        (AffineTransform, "inverse", "geometry.transform.inverse", None),
        (AffineTransform, "apply", "geometry.transform.apply", None),
        (subpix.codec, "encode_points",
         lambda points, cfg, *a, **k: f"codec.encode_points.{_scheme(cfg)}", _count_encode),
        (subpix.codec, "decode",
         lambda enc, cfg, *a, **k: f"codec.decode.{enc.scheme.value}", _count_decode),
        (subpix.bench, "ideal_roundtrip",
         lambda points, cfg, *a, **k: f"codec.ideal_roundtrip.{_scheme(cfg)}",
         _count_roundtrip),
        (subpix.bench, "ced_auc", "metrics.ced", None),
        (subpix.bench, "ced_points", "metrics.ced", None),
        (subpix.bench, "failure_rate", "metrics.ced", None),
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, timing: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as ``name -> (value, unit)``.

    ``timing`` holds what the run measured around the traced pass:
    ``items``, ``traced_s`` and ``untraced_s`` (one pass each, medians),
    and ``cli_overhead_s``. Layers the workload never calls read 0.
    """
    t, c = tracer.total, tracer.counts
    out: dict[str, tuple[float, str]] = {
        "datasets.load_wflw.s": (t("datasets.load_wflw"), "s"),
        "geometry.crop.s": (t("geometry.crop"), "s"),
        "geometry.transform.s": (tracer.total_outermost("geometry.transform."), "s"),
    }
    for op in ("encode_points", "decode", "ideal_roundtrip"):
        per = {s: t(f"codec.{op}.{s}") for s in SCHEMES}
        out[f"codec.{op}.s"] = (sum(per.values()), "s")
        for s in SCHEMES:
            out[f"codec.{op}.{s}.s"] = (per[s], "s")
    out.update({
        "codec.map_bytes": (_ratio(c["codec.map_bytes_total"], c["codec.encode_calls"]),
                            "bytes"),
        "codec.points": (c["codec.points"], "count"),
        "codec.clamped": (c["codec.clamped"], "count"),
        "codec.conflicts": (c["codec.conflicts"], "count"),
        "codec.ties": (c["codec.ties"], "count"),
        "codec.wsm_searches": (c["codec.wsm_searches"], "count"),
        "codec.wsm_shift_ratio": (_ratio(c["codec.wsm_shifts"], c["codec.wsm_searches"]),
                                  "ratio"),
        "codec.wom_points": (c["codec.wom_points"], "count"),
        "codec.wom_conflict_ratio": (_ratio(c["codec.conflicts.wom"],
                                            c["codec.wom_points"]), "ratio"),
        "metrics.ced.s": (t("metrics.ced"), "s"),
        "bench.build_samples.s": (t("bench.build_samples"), "s"),
        "bench.skipped": (c["bench.skipped"], "count"),
        "bench.emit_report.s": (t("bench.emit_report"), "s"),
        "bench.run_ideal.self_s": (tracer.self_time("bench.run_ideal"), "s"),
        "bench.run_montecarlo.self_s": (tracer.self_time("bench.run_montecarlo"), "s"),
        "cli.main.self_s": (tracer.self_time("cli.main"), "s"),
        "cli.overhead_s": (timing.get("cli_overhead_s", 0.0), "s"),
        "trace.items_per_s": (timing["items"] / timing["traced_s"], "1/s"),
        "trace.untraced_items_per_s": (timing["items"] / timing["untraced_s"], "1/s"),
        "trace.overhead_pct": (100.0 * (timing["traced_s"] / timing["untraced_s"] - 1.0),
                               "%"),
    })
    return out
