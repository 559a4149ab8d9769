"""Command-line interface.

Subcommands:

* ``bench-ideal``: encode-decode a dataset's ground truth under the
  selected schemes and report the representation's own error.
* ``synth``: Monte-Carlo draws with uniform sub-pixel fractions, reported
  next to the closed-form expectation for the nearest-cell scheme.
* ``encode`` / ``decode``: one sample through a codec, as sparse JSON on
  stdout / from JSON on stdin. The pair round-trips bit-exactly.
* ``metrics``: score a prediction file against ground truth.
* ``convert``: rewrite any supported annotation format as canonical JSON.

Conventions: results go to stdout, diagnostics to stderr. Exit code 0 on
success, 2 for usage or input errors, 1 for internal failures. A flat
``key = value`` config file can pre-set any flag of a subcommand via
``--config``; explicit flags win over the file. ``--json-errors`` formats
errors as single-line JSON on stderr for machine consumption.

Identical inputs, flags, and seeds produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bench import (SCORE_COLUMNS, BenchConfig, Column, emit_report, format_report,
                    run_ideal, run_montecarlo, score_values)
from .codec import (SCHEME_ORDER, CodecConfig, DecimalOverflow, EncodedSample,
                    OobPolicy, Scheme, decode as codec_decode, encode, encode_points)
from .datasets import load_canonical, load_dataset, read_text, write_canonical
from .errors import ConfigError, ParseError
from .geometry import LandmarkSet, check_margin, crop_from_landmarks
from .metrics import (MetricsConfig, ced_auc, ced_points, failure_rate, format_ced_csv,
                      image_errors, mean_nme, norm_distances, resolve_norm_indices)

__all__ = ["main", "entry"]

_COMMANDS = ("bench-ideal", "synth", "encode", "decode", "metrics", "convert")


# -- config file ----------------------------------------------------------------


def _load_config_flags(path: str) -> list[str]:
    """Flat ``key = value`` lines to CLI flags; see the module docstring."""
    text = read_text(path)
    flags: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ParseError("expected 'key = value'", path=path, line=lineno)
        key = key.strip().lstrip("-").replace("_", "-")
        value = value.strip()
        if not key or not value:
            raise ParseError("expected 'key = value'", path=path, line=lineno)
        if value.lower() in ("true", "false"):
            if value.lower() == "true":
                flags.append(f"--{key}")
        elif value.startswith("-"):
            # joined on, a negative number cannot read as a flag
            flags.append(f"--{key}={value}")
        else:
            flags.extend([f"--{key}", value])
    return flags


def _splice_config(argv: list[str]) -> list[str]:
    """Insert config-file flags right after the subcommand, before user flags."""
    out = list(argv)
    path = None
    for i, tok in enumerate(out):
        if tok == "--config":
            if i + 1 >= len(out):
                raise ParseError("--config requires a path")
            path = out[i + 1]
            del out[i:i + 2]
            break
        if tok.startswith("--config="):
            path = tok.split("=", 1)[1]
            del out[i]
            break
    if path is None:
        return out
    if not out or out[0] not in _COMMANDS:
        raise ParseError("--config must follow a subcommand")
    return [out[0]] + _load_config_flags(path) + out[1:]


# -- shared argument plumbing -----------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json-errors", action="store_true",
                   help="report errors as single-line JSON on stderr")
    p.add_argument("--config", metavar="FILE",
                   help="flat 'key = value' file pre-setting any flag; flags win")


def _add_codec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--heatmap-res", type=int, default=64, metavar="N",
                   help="integer grid resolution, square (default 64)")
    p.add_argument("--decimal-res", type=int, default=8, metavar="N",
                   help="hih fractional grid resolution, square (default 8)")
    p.add_argument("--decimal-overflow", choices=[d.value for d in DecimalOverflow],
                   default=DecimalOverflow.CARRY.value,
                   help="hih fractions that round to 1: carry into the next cell "
                        "(exact rounding, default) or clamp to the last step")


def _add_oob_policy(p: argparse.ArgumentParser) -> None:
    # synth draws every point inside the grid, so only bench-ideal and encode take it
    p.add_argument("--oob-policy", choices=[p.value for p in OobPolicy],
                   default=OobPolicy.CLAMP.value,
                   help="out-of-grid landmarks: clamp onto the border (and flag) "
                        "or drop from scoring (default clamp)")


def _codec_config(args, scheme: Scheme = Scheme.DIRECT) -> CodecConfig:
    return CodecConfig(
        scheme=scheme,
        heatmap_shape=(args.heatmap_res, args.heatmap_res),
        decimal_shape=(args.decimal_res, args.decimal_res),
        # only encode renders a map, so only encode takes the sigmas
        sigma_integer=getattr(args, "sigma_integer", CodecConfig.sigma_integer),
        sigma_decimal=getattr(args, "sigma_decimal", CodecConfig.sigma_decimal),
        oob_policy=getattr(args, "oob_policy", CodecConfig.oob_policy),
        decimal_overflow=DecimalOverflow(args.decimal_overflow),
    )


def _parse_schemes(text: str) -> tuple[Scheme, ...]:
    if text.strip().lower() == "all":
        return SCHEME_ORDER
    out = []
    for name in text.split(","):
        try:
            out.append(Scheme(name.strip().lower()))
        except ValueError:
            known = ", ".join(s.value for s in SCHEME_ORDER)
            raise ConfigError(f"unknown scheme {name.strip()!r} (known: {known}, or 'all')")
    return tuple(out)


def _parse_index_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"expected two comma-separated indices, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"indices must be integers, got {text!r}") from None


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


# -- subcommands ------------------------------------------------------------------


def _cmd_bench_ideal(args) -> int:
    if args.threads < 1:
        raise ConfigError(f"thread count must be positive, got {args.threads}")
    _, corpus = load_dataset(args.dataset)
    schemes = _parse_schemes(args.schemes)
    norm = _parse_index_pair(args.norm_indices) if args.norm_indices else None
    bcfg = BenchConfig(
        schemes=schemes,
        codec=_codec_config(args),
        metrics=MetricsConfig(norm_indices=norm, threshold=args.threshold),
        crop_margin=args.margin,
        crop_source=args.crop_source,
        bbox_inclusive=args.bbox_edge == "inclusive",
    )
    report = run_ideal(corpus, bcfg)
    _write_out(emit_report(report, args.format), args.out)
    if args.ced_out:
        for row in report.rows:
            Path(f"{args.ced_out}{row.scheme.value}.csv").write_text(format_ced_csv(row.ced))
    return 0


def _cmd_synth(args) -> int:
    bcfg = BenchConfig(
        schemes=_parse_schemes(args.schemes),
        codec=_codec_config(args),
        seed=args.seed,
        mc_samples=args.samples,
        mc_landmarks=args.landmarks,
        mc_n=args.n_factor,
    )
    report = run_montecarlo(bcfg)
    _write_out(emit_report(report, args.format), args.out)
    return 0


def _cmd_encode(args) -> int:
    if bool(args.point) == bool(args.record):
        raise ConfigError("exactly one of --point or --record is required")
    cfg = _codec_config(args, Scheme(args.scheme))
    check_margin(args.margin)
    if args.point:
        pts = np.array([_parse_point(p) for p in args.point], dtype=np.float64)
        enc = encode_points(pts, cfg)
    else:
        _, corpus = load_canonical(args.record)
        if not (0 <= args.index < len(corpus)):
            raise ConfigError(f"record index {args.index} out of range "
                              f"(file has {len(corpus)} records)")
        landmarks = LandmarkSet(corpus.points[args.index], valid=corpus.valid[args.index])
        enc = encode(landmarks, crop_from_landmarks(landmarks, args.margin), cfg)
    _write_out(enc.to_json() + "\n", args.out)
    return 0


def _count_arg(text: str) -> int:
    """Integer flag value that also accepts scientific notation like 1e6."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if not value.is_integer():
        raise argparse.ArgumentTypeError(f"expected a whole number, got {text!r}")
    return int(value)


def _parse_point(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"expected 'x,y', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"point coordinates must be numbers, got {text!r}") from None


def _cmd_decode(args) -> int:
    if args.infile == "-":
        text = sys.stdin.read()
    else:
        text = read_text(args.infile)
    enc = EncodedSample.from_json(text)
    if Scheme(args.scheme) is not enc.scheme:
        raise ConfigError(f"--scheme {args.scheme} does not match payload "
                          f"scheme '{enc.scheme.value}'")
    result = codec_decode(enc)
    pts = result.landmarks.points
    doc = {
        "scheme": enc.scheme.value,
        "points": [[float(x), float(y)] if v else None
                   for (x, y), v in zip(pts, result.landmarks.valid)],
        "valid": [bool(v) for v in result.landmarks.valid],
        "tie_encountered": [bool(t) for t in result.tie_encountered],
        "clamped": [bool(c) for c in result.clamped],
    }
    _write_out(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", args.out)
    return 0


def _cmd_metrics(args) -> int:
    gt, pred = load_canonical(args.gt)[1], load_canonical(args.pred)[1]
    n_landmarks = gt.points.shape[1]
    if pred.points.shape[1] != n_landmarks:
        raise ConfigError(f"landmark counts differ: ground truth has "
                          f"{n_landmarks}, predictions have {pred.points.shape[1]}")
    # each ground-truth face's row in the prediction file, -1 where it has none
    where = dict(zip(pred.ids, range(len(pred))))
    rows = np.array([where.get(i, -1) for i in gt.ids], dtype=np.intp)
    missing = gt.ids[rows < 0]
    if len(missing):
        raise ConfigError(f"prediction file is missing record id '{missing[0]}' "
                          f"({len(missing)} missing in total)")
    extra = set(where) - set(gt.ids)
    if extra:
        raise ConfigError(f"prediction file has unknown record id '{sorted(extra)[0]}' "
                          f"({len(extra)} unknown in total)")
    mcfg = MetricsConfig(
        norm_indices=_parse_index_pair(args.norm_indices) if args.norm_indices else None,
        threshold=args.threshold)
    # canonical files hold only finite, valid points; scoring in ground-truth
    # order keeps the mean's last bits independent of the prediction file's order
    d = norm_distances(gt.points, resolve_norm_indices(n_landmarks, mcfg))
    scored = np.flatnonzero(~np.isnan(d))
    if not len(scored):
        raise ConfigError("every record was skipped; nothing to score")
    per_point, errors = image_errors(gt.points[scored], pred.points[rows[scored]], d[scored])
    # canonical points are finite, so only overflow makes an error non-finite
    nme = mean_nme(gt.ids[scored], errors, ~np.isfinite(per_point).all(axis=1))
    row = {**score_values(nme, ced_auc(errors, args.threshold),
                          failure_rate(errors, args.threshold)),
           "n_images": len(errors), "skipped": len(gt) - len(errors)}
    # the table shows the scores; CSV and JSON also carry the counts
    columns = (*SCORE_COLUMNS, Column("n_images", "n_images"), Column("skipped", "skipped"))
    _write_out(format_report(args.format, columns, [row], args.threshold,
                             f"images={row['n_images']} skipped={row['skipped']}", row),
               args.out)
    if args.ced_out:
        Path(args.ced_out).write_text(format_ced_csv(ced_points(errors, args.threshold)))
    return 0


def _cmd_convert(args) -> int:
    _, corpus = load_dataset(args.dataset)
    write_canonical(args.out, replace(corpus, name=args.name) if args.name else corpus)
    print(f"wrote {len(corpus)} records to {args.out}", file=sys.stderr)
    return 0


# -- parser -----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so that they print as one line like any input error."""

    def error(self, message: str):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="subpix",
        description="Sub-pixel landmark codecs and quantization-error benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bench-ideal",
                       help="measure each scheme's own representation error on a dataset")
    _add_common(p)
    _add_codec_flags(p)
    _add_oob_policy(p)
    p.add_argument("--dataset", required=True, metavar="FMT:PATH",
                   help="dataset as format:path; formats: wflw, pts, json")
    p.add_argument("--schemes", default="all",
                   help="comma-separated scheme list or 'all' (default all)")
    p.add_argument("--margin", type=float, default=0.25,
                   help="square crop margin around the landmark box (default 0.25)")
    p.add_argument("--crop-source", choices=("landmarks", "bbox"), default="landmarks",
                   help="crop around the landmark box or the annotation bbox "
                        "(default landmarks; bbox-less records are skipped)")
    p.add_argument("--bbox-edge", choices=("inclusive", "exclusive"), default="inclusive",
                   help="whether the bbox max edge counts as the last covered "
                        "pixel (default inclusive)")
    p.add_argument("--norm-indices", metavar="I,J",
                   help="landmark pair for error normalization "
                        "(defaults: 60,72 for 98 points; 36,45 for 68)")
    p.add_argument("--threshold", type=float, default=0.10,
                   help="failure/AUC threshold on normalized error (default 0.10)")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility and has no effect: scoring is "
                        "batched in one thread (must be positive; default 1)")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.add_argument("--out", metavar="FILE", help="write the report here instead of stdout")
    p.add_argument("--ced-out", metavar="PREFIX",
                   help="write one CED CSV per scheme to PREFIX<scheme>.csv")
    p.set_defaults(func=_cmd_bench_ideal)

    p = sub.add_parser("synth",
                       help="Monte-Carlo quantization error vs the analytic expectation")
    _add_common(p)
    _add_codec_flags(p)
    p.add_argument("--samples", type=_count_arg, default=100_000,
                   help="number of Monte-Carlo samples; 1e6 style accepted "
                        "(default 100000)")
    p.add_argument("--landmarks", type=_count_arg, default=1,
                   help="landmarks per sample; >1 exercises shared-map collisions "
                        "(default 1)")
    p.add_argument("--seed", type=int, default=1, help="PCG64 seed (default 1)")
    p.add_argument("--n-factor", type=float, default=4.0,
                   help="raw pixels per heatmap cell for error scaling (default 4)")
    p.add_argument("--schemes", default="all",
                   help="comma-separated scheme list or 'all' (default all)")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("encode", help="encode landmarks and print the sparse JSON payload")
    _add_common(p)
    _add_codec_flags(p)
    _add_oob_policy(p)
    p.add_argument("--scheme", required=True, choices=[s.value for s in SCHEME_ORDER])
    p.add_argument("--sigma-integer", type=float, default=1.5, metavar="S",
                   help="gaussian sigma on the integer grid (default 1.5; "
                        "1.0 is the usual choice for 68-point annotations)")
    p.add_argument("--sigma-decimal", type=float, default=1.0, metavar="S",
                   help="gaussian sigma on the hih fractional grid (default 1.0)")
    p.add_argument("--point", action="append", metavar="X,Y",
                   help="heatmap-space landmark; repeat for several; write a "
                        "negative x as --point=-3,70")
    p.add_argument("--record", metavar="FILE",
                   help="canonical JSON file to take landmarks from instead of --point")
    p.add_argument("--index", type=int, default=0,
                   help="record index within --record (default 0)")
    p.add_argument("--margin", type=float, default=0.25,
                   help="crop margin when encoding from --record (default 0.25)")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decode a sparse JSON payload back to coordinates")
    _add_common(p)
    p.add_argument("--scheme", required=True, choices=[s.value for s in SCHEME_ORDER],
                   help="expected payload scheme; mismatch is an error")
    p.add_argument("--in", dest="infile", default="-", metavar="FILE",
                   help="payload file, or - for stdin (default)")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("metrics", help="score a prediction file against ground truth")
    _add_common(p)
    p.add_argument("--gt", required=True, metavar="FILE", help="canonical JSON ground truth")
    p.add_argument("--pred", required=True, metavar="FILE", help="canonical JSON predictions")
    p.add_argument("--norm-indices", metavar="I,J",
                   help="landmark pair for error normalization "
                        "(defaults: 60,72 for 98 points; 36,45 for 68)")
    p.add_argument("--threshold", type=float, default=0.10)
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--ced-out", metavar="FILE", help="write the CED curve as CSV")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("convert", help="rewrite a dataset as canonical JSON")
    _add_common(p)
    p.add_argument("--dataset", required=True, metavar="FMT:PATH",
                   help="dataset as format:path; formats: wflw, pts, json")
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--name", help="dataset name to embed (default: derived from the path)")
    p.set_defaults(func=_cmd_convert)

    return parser


def _report_error(exc: BaseException, json_errors: bool, *, internal: bool = False) -> None:
    if json_errors:
        doc = {"error": str(exc), "type": exc.__class__.__name__,
               "kind": "internal" if internal else "input"}
        sys.stderr.write(json.dumps(doc, sort_keys=True) + "\n")
    else:
        prefix = "internal error" if internal else "error"
        sys.stderr.write(f"{prefix}: {exc}\n")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        argv = _splice_config(argv)  # a config file may set --json-errors too
        args = _build_parser().parse_args(argv)
    except (ParseError, ConfigError) as exc:
        _report_error(exc, "--json-errors" in argv)
        return 2
    except SystemExit as exc:  # --help prints its usage text and exits 0
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ParseError, ConfigError, OSError) as exc:
        _report_error(exc, args.json_errors)
        return 2
    except Exception as exc:  # noqa: BLE001 - invariant violations exit 1
        _report_error(exc, getattr(args, "json_errors", False), internal=True)
        return 1


def entry() -> None:
    sys.exit(main())
