"""Sub-pixel landmark codecs and quantization-error benchmarks.

The package measures how much localization accuracy each heatmap target
representation gives away before any model is trained: encode ground-truth
coordinates, decode them straight back, and score the residual.
"""

from __future__ import annotations

from .bench import (BenchConfig, BenchReport, SchemeStats, analytic_direct_error,
                    build_samples, emit_report, run_ideal, run_montecarlo)
from .codec import (SCHEME_ORDER, CodecConfig, DecimalOverflow, DecodeResult,
                    EncodedSample, OobPolicy, Scheme, decode, encode,
                    encode_points, ideal_roundtrip)
from .datasets import (ATTRIBUTE_NAMES, Corpus, load_canonical, load_dataset,
                       load_pts_dir, load_wflw, parse_pts, parse_wflw_line,
                       subset_counts, write_canonical)
from .errors import ConfigError, ParseError, SchemaError
from .geometry import (AffineTransform, FaceBatch, LandmarkSet, Space,
                       apply_transform, crop_from_bbox, crop_from_landmarks,
                       downsample_factor, heatmap_transform)
from .metrics import (DEFAULT_NORM_INDICES, DEFAULT_THRESHOLD, MetricsConfig,
                      PerImageError, ced_auc, ced_points, failure_rate,
                      format_ced_csv, resolve_norm_indices)

__version__ = "0.1.0"

__all__ = [
    "ATTRIBUTE_NAMES",
    "AffineTransform",
    "BenchConfig",
    "BenchReport",
    "CodecConfig",
    "ConfigError",
    "Corpus",
    "DEFAULT_NORM_INDICES",
    "DEFAULT_THRESHOLD",
    "DecimalOverflow",
    "DecodeResult",
    "EncodedSample",
    "FaceBatch",
    "LandmarkSet",
    "MetricsConfig",
    "OobPolicy",
    "ParseError",
    "PerImageError",
    "SCHEME_ORDER",
    "SchemaError",
    "Scheme",
    "SchemeStats",
    "Space",
    "analytic_direct_error",
    "apply_transform",
    "build_samples",
    "ced_auc",
    "ced_points",
    "crop_from_bbox",
    "crop_from_landmarks",
    "decode",
    "downsample_factor",
    "emit_report",
    "encode",
    "encode_points",
    "failure_rate",
    "format_ced_csv",
    "heatmap_transform",
    "ideal_roundtrip",
    "load_canonical",
    "load_dataset",
    "load_pts_dir",
    "load_wflw",
    "parse_pts",
    "parse_wflw_line",
    "resolve_norm_indices",
    "run_ideal",
    "run_montecarlo",
    "subset_counts",
    "write_canonical",
    "__version__",
]
