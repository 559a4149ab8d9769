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

Conventions: results and help text go to stdout through one writer,
diagnostics to stderr through one reporter, and files are written as UTF-8.
Exit code 0 on success, 2 for usage, input or output errors (a report or
help text that cannot be written, or that stdout's encoding cannot hold),
1 for internal failures; an error keeps its exit code when stderr cannot
hold its message. An error is one line: a character that would not print,
a line break among them, is written as its backslash escape. Flags are the
one way to set a run, and each is accepted only when spelled in full.

Identical inputs, flags, and seeds produce byte-identical stdout.

:func:`entry`, the ``subpix`` console script and ``python -m subpix``,
wraps :func:`main` for a process of its own: it keeps freed heap mapped
between the Monte-Carlo blocks, and it ends the process without tearing
the interpreter down once the exit handlers have run and the output is
flushed.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bench import (SCORE_COLUMNS, BenchConfig, Column, emit_report, format_report,
                    run_ideal, run_montecarlo, score_images, score_values)
from .codec import (SCHEME_ORDER, CodecConfig, DecimalOverflow, EncodedSample, Scheme,
                    decode as codec_decode, encode, encode_points)
from .datasets import decode_text, load_canonical, load_dataset, read_text, write_canonical
from .errors import ConfigError, ParseError
from .geometry import check_margin, crop_from_landmarks
from .metrics import MetricsConfig, format_ced_csv, norm_distances, resolve_norm_indices

__all__ = ["main", "entry"]


# -- shared argument plumbing -----------------------------------------------------


def _add_codec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--heatmap-res", type=int, default=64, metavar="N",
                   help="integer grid resolution, square (default 64)")
    p.add_argument("--decimal-res", type=int, default=8, metavar="N",
                   help="hih fractional grid resolution, square (default 8)")
    p.add_argument("--decimal-overflow", choices=[d.value for d in DecimalOverflow],
                   default=DecimalOverflow.CARRY.value,
                   help="hih fractions that round to 1: carry into the next cell "
                        "(exact rounding, default) or clamp to the last step")


def _add_schemes_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--schemes", type=_parse_schemes, default="all",
                   help="comma-separated scheme list or 'all' (default all)")


def _add_score_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--norm-indices", type=_parse_index_pair, metavar="I,J",
                   help="landmark pair for error normalization "
                        "(defaults: 60,72 for 98 points; 36,45 for 68)")
    p.add_argument("--threshold", type=float, default=0.10,
                   help="failure/AUC threshold on normalized error (default 0.10)")


def _add_format_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")


def _codec_config(args, scheme: Scheme = Scheme.DIRECT) -> CodecConfig:
    return CodecConfig(
        scheme=scheme,
        heatmap_shape=(args.heatmap_res, args.heatmap_res),
        decimal_shape=(args.decimal_res, args.decimal_res),
        # only encode renders a map, so only encode takes the sigmas
        sigma_integer=getattr(args, "sigma_integer", CodecConfig.sigma_integer),
        sigma_decimal=getattr(args, "sigma_decimal", CodecConfig.sigma_decimal),
        decimal_overflow=DecimalOverflow(args.decimal_overflow),
    )


# flag values: an ArgumentTypeError is the flag's own error, located at the flag
def _parse_schemes(text: str) -> tuple[Scheme, ...]:
    if text.strip().lower() == "all":
        return SCHEME_ORDER
    out = []
    for name in text.split(","):
        try:
            out.append(Scheme(name.strip().lower()))
        except ValueError:
            known = ", ".join(s.value for s in SCHEME_ORDER)
            raise argparse.ArgumentTypeError(
                f"unknown scheme {name.strip()!r} (known: {known}, or 'all')") from None
    return tuple(out)


def _parse_index_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated indices, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"indices must be integers, got {text!r}") from None


def _parse_point(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'x,y', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"point coordinates must be numbers, got {text!r}") from None


def _nonempty(text: str) -> str:
    """A path or name flag's value: an empty one names nothing to read or write."""
    if not text:
        raise argparse.ArgumentTypeError("expected a non-empty value, got ''")
    return text


def _write_out(text: str, out: str | None) -> None:
    """``text`` to the file ``out`` as UTF-8, or to stdout, flushed so that a
    failed write is this command's error rather than one at exit."""
    if out is None or out == "-":
        if sys.stdout is None:  # the process was started with stdout closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF), "<stdout>")
        try:
            sys.stdout.write(text)
        except UnicodeEncodeError as exc:  # nothing is written: the whole text is encoded first
            raise OSError(f"<stdout>: cannot encode {exc.object[exc.start:exc.end]!r} "
                          f"as {exc.encoding}; --out writes UTF-8") from None
        sys.stdout.flush()
    else:
        Path(out).write_text(text, encoding="utf-8")


# -- subcommands ------------------------------------------------------------------


def _cmd_bench_ideal(args) -> int:
    if args.threads < 1:
        raise ConfigError(f"thread count must be positive, got {args.threads}")
    _, corpus = load_dataset(args.dataset)
    bcfg = BenchConfig(
        schemes=args.schemes,
        codec=_codec_config(args),
        metrics=MetricsConfig(norm_indices=args.norm_indices, threshold=args.threshold),
        crop_margin=args.margin,
        crop_source=args.crop_source,
        bbox_inclusive=args.bbox_edge == "inclusive",
    )
    report = run_ideal(corpus, bcfg)
    # the side files first: a path that cannot be written leaves no report
    if args.ced_out:
        for row in report.rows:
            Path(f"{args.ced_out}{row.scheme.value}.csv").write_text(format_ced_csv(row.ced),
                                                                     encoding="utf-8")
    _write_out(emit_report(report, args.format), args.out)
    return 0


def _cmd_synth(args) -> int:
    bcfg = BenchConfig(
        schemes=args.schemes,
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
        enc = encode_points(np.array(args.point, dtype=np.float64), cfg)
    else:
        _, corpus = load_canonical(args.record)
        if not (0 <= args.index < len(corpus)):
            raise ConfigError(f"record index {args.index} out of range "
                              f"(file has {len(corpus)} records)")
        pts = corpus.points[args.index]
        enc = encode(pts, crop_from_landmarks(pts, args.margin), cfg)
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


def _cmd_decode(args) -> int:
    if args.infile == "-":
        source, text = "<stdin>", decode_text(sys.stdin.buffer.read(), "<stdin>")
    else:
        source, text = args.infile, read_text(args.infile)
    enc = EncodedSample.from_json(text, source)
    if Scheme(args.scheme) is not enc.scheme:
        raise ConfigError(f"--scheme {args.scheme} does not match payload "
                          f"scheme '{enc.scheme.value}'")
    result = codec_decode(enc)
    doc = {
        "scheme": enc.scheme.value,
        "points": [[float(x), float(y)] for x, y in result.points],
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
    mcfg = MetricsConfig(norm_indices=args.norm_indices, threshold=args.threshold)
    # canonical files hold only finite points; scoring in ground-truth
    # order keeps the mean's last bits independent of the prediction file's order
    d = norm_distances(gt.points, resolve_norm_indices(n_landmarks, mcfg))
    keep = np.flatnonzero(~np.isnan(d))
    if not len(keep):
        raise ConfigError("every record was skipped; nothing to score")
    _, _, nme, auc, fr, ced = score_images(
        gt.ids[keep], gt.points[keep], pred.points[rows[keep]], d[keep], args.threshold)
    row = {**score_values(nme, auc, fr), "n_images": len(keep), "skipped": len(gt) - len(keep)}
    # the table shows the scores; CSV and JSON also carry the counts
    columns = (*SCORE_COLUMNS, Column("n_images", "n_images"), Column("skipped", "skipped"))
    # the side file first: a path that cannot be written leaves no report
    if args.ced_out:
        Path(args.ced_out).write_text(format_ced_csv(ced), encoding="utf-8")
    _write_out(format_report(args.format, columns, [row], args.threshold,
                             f"images={row['n_images']} skipped={row['skipped']}", row),
               args.out)
    return 0


def _cmd_convert(args) -> int:
    _, corpus = load_dataset(args.dataset)
    write_canonical(args.out, replace(corpus, name=args.name) if args.name else corpus)
    print(f"wrote {len(corpus)} records to {args.out}", file=sys.stderr)
    return 0


# -- parser -----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so that they print as one line like any input
    error, writes help text through ``_write_out`` like a report, and takes
    flags (its subcommands' too) only in full."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str):
        raise ConfigError(message)

    def print_help(self, file=None):
        _write_out(self.format_help(), None)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="subpix",
        description="Sub-pixel landmark codecs and quantization-error benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bench-ideal",
                       help="measure each scheme's own representation error on a dataset")
    _add_codec_flags(p)
    p.add_argument("--dataset", required=True, metavar="FMT:PATH",
                   help="dataset as format:path; formats: wflw, pts, json")
    _add_schemes_flag(p)
    p.add_argument("--margin", type=float, default=0.25,
                   help="square crop margin around the landmark box (default 0.25)")
    p.add_argument("--crop-source", choices=("landmarks", "bbox"), default="landmarks",
                   help="crop around the landmark box or the annotation bbox "
                        "(default landmarks; bbox-less records are skipped)")
    p.add_argument("--bbox-edge", choices=("inclusive", "exclusive"), default="inclusive",
                   help="whether the bbox max edge counts as the last covered "
                        "pixel (default inclusive)")
    _add_score_flags(p)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility and has no effect: scoring is "
                        "batched in one thread (must be positive; default 1)")
    _add_format_flag(p)
    p.add_argument("--out", type=_nonempty, metavar="FILE",
                   help="write the report here instead of stdout")
    p.add_argument("--ced-out", type=_nonempty, metavar="PREFIX",
                   help="write one CED CSV per scheme to PREFIX<scheme>.csv")
    p.set_defaults(func=_cmd_bench_ideal)

    p = sub.add_parser("synth",
                       help="Monte-Carlo quantization error vs the analytic expectation")
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
    _add_schemes_flag(p)
    _add_format_flag(p)
    p.add_argument("--out", type=_nonempty, metavar="FILE")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("encode", help="encode landmarks and print the sparse JSON payload")
    _add_codec_flags(p)
    p.add_argument("--scheme", required=True, choices=[s.value for s in SCHEME_ORDER])
    p.add_argument("--sigma-integer", type=float, default=1.5, metavar="S",
                   help="gaussian sigma on the integer grid (default 1.5; "
                        "1.0 is the usual choice for 68-point annotations)")
    p.add_argument("--sigma-decimal", type=float, default=1.0, metavar="S",
                   help="gaussian sigma on the hih fractional grid (default 1.0)")
    p.add_argument("--point", type=_parse_point, action="append", metavar="X,Y",
                   help="heatmap-space landmark; repeat for several; write a "
                        "negative x as --point=-3,70")
    p.add_argument("--record", type=_nonempty, metavar="FILE",
                   help="canonical JSON file to take landmarks from instead of --point")
    p.add_argument("--index", type=int, default=0,
                   help="record index within --record (default 0)")
    p.add_argument("--margin", type=float, default=0.25,
                   help="crop margin when encoding from --record (default 0.25)")
    p.add_argument("--out", type=_nonempty, metavar="FILE")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decode a sparse JSON payload back to coordinates")
    p.add_argument("--scheme", required=True, choices=[s.value for s in SCHEME_ORDER],
                   help="expected payload scheme; mismatch is an error")
    p.add_argument("--in", type=_nonempty, dest="infile", default="-", metavar="FILE",
                   help="payload file, or - for stdin (default)")
    p.add_argument("--out", type=_nonempty, metavar="FILE")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("metrics", help="score a prediction file against ground truth")
    p.add_argument("--gt", type=_nonempty, required=True, metavar="FILE",
                   help="canonical JSON ground truth")
    p.add_argument("--pred", type=_nonempty, required=True, metavar="FILE",
                   help="canonical JSON predictions")
    _add_score_flags(p)
    _add_format_flag(p)
    p.add_argument("--out", type=_nonempty, metavar="FILE")
    p.add_argument("--ced-out", type=_nonempty, metavar="FILE", help="write the CED curve as CSV")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("convert", help="rewrite a dataset as canonical JSON")
    p.add_argument("--dataset", required=True, metavar="FMT:PATH",
                   help="dataset as format:path; formats: wflw, pts, json")
    p.add_argument("--out", type=_nonempty, required=True, metavar="FILE")
    p.add_argument("--name", type=_nonempty,
                   help="dataset name to embed (default: derived from the path)")
    p.set_defaults(func=_cmd_convert)

    return parser


def _report_error(exc: BaseException, *, internal: bool = False) -> None:
    # each character that would not print is escaped, so the message is one line
    text = "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(exc))
    try:
        sys.stderr.write(f"{'internal error' if internal else 'error'}: {text}\n")
    except OSError:  # stderr cannot hold it either: the exit code still tells
        pass


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help prints its usage text and exits 0
        return exc.code if isinstance(exc.code, int) else 2
    except (ParseError, ConfigError, OSError) as exc:  # an OSError may be --help's write
        _report_error(exc)
        return 2
    except Exception as exc:  # noqa: BLE001 - invariant violations exit 1
        _report_error(exc, internal=True)
        return 1


# the glibc mallopt settings entry() makes: M_TRIM_THRESHOLD (-1) at 64 MiB
# keeps freed heap mapped, and M_MMAP_THRESHOLD (-3) at 1 MiB serves arrays
# below that from the heap. With the defaults, the 128 KiB arrays of a
# Monte-Carlo block sit at the mmap threshold and the heap is trimmed as each
# block frees them, so the next block faults the same pages back in
_MALLOPT = ((-1, 64 << 20), (-3, 1 << 20))


def _tune_allocator() -> None:
    """Make the ``_MALLOPT`` settings, where the C library has ``mallopt``."""
    import ctypes  # here, so that no other code in the package reaches the C library

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library, or not glibc's
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in _MALLOPT:
        mallopt(param, value)


def entry() -> None:
    """Run :func:`main` as the whole process, and end it without teardown.

    Exit handlers run and stdout and stderr are flushed; the process then
    ends with ``os._exit``, which skips freeing every module and object.
    ``main`` has written and flushed all output and reported every error, so
    a final flush that fails only keeps the exit code from being 0.
    """
    import atexit  # here, so that no other code in the package runs the exit handlers

    _tune_allocator()
    rc = main()
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except (OSError, ValueError):
            rc = rc or 2
    os._exit(rc)
