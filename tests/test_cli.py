"""CLI tests: exit codes, golden outputs, piping, flag parsing.

Most cases drive ``main(argv)`` in-process and byte-compare captured
stdout; true subprocess round-trips live in the acceptance suite. Here only
the memory test and ``TestEntry``, which checks how ``python -m subpix``
ends its process, start child processes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import (TEMPLATE_68, join, make_records, make_wflw_line,
                      malformed_canonical_docs, one_face, write_pts_tree, write_wflw_file)
from hypothesis import assume
from hypothesis import example, given, settings
from hypothesis import strategies as st

import subpix
import subpix.bench
from subpix.bench import BenchConfig, build_samples
from subpix.cli import main
from subpix.codec import SCHEME_ORDER, CodecConfig, encode_points
from subpix.datasets import Corpus, load_canonical, load_dataset, write_canonical
from subpix.errors import ParseError
from subpix.geometry import heatmap_transform, landmark_crops
from subpix.metrics import image_errors


def stdin_of(data: str | bytes) -> io.TextIOWrapper:
    """A strict UTF-8 text stream over ``data``, with the byte ``buffer`` real stdin has."""
    raw = data.encode("utf-8") if isinstance(data, str) else data
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="strict")


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def child_env() -> dict[str, str]:
    """The environment of a child interpreter that imports this package's source."""
    src = str(Path(subpix.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


ENTRY = [sys.executable, "-m", "subpix"]


def run_entry(*argv: str, stdin: bytes | None = None) -> subprocess.CompletedProcess:
    """``python -m subpix argv`` as a process of its own, its output as bytes."""
    return subprocess.run([*ENTRY, *argv], input=stdin, capture_output=True,
                          env=child_env(), timeout=300)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory, corpus98, corpus68):
    d = tmp_path_factory.mktemp("cli_data")
    write_wflw_file(corpus98, d / "list.txt")
    write_pts_tree(corpus68[:4], d / "tree")
    write_canonical(d / "gt68.json", corpus68)
    write_canonical(d / "gt98.json", corpus98)
    # faces that no command can score: every normalization distance zero, and
    # every point outside the annotation box
    flat = one_face("flat", np.ones((68, 2)), image_path="flat.png")
    write_canonical(d / "flat68.json", join(flat, replace(flat, ids=np.array(["flat2"]))))
    write_canonical(d / "outside68.json",
                    one_face("far", corpus68.points[0], bbox=(0.0, 0.0, 10.0, 10.0)))
    return d


def noisy_metrics_files(directory: Path, corpus: Corpus, seed: int) -> tuple[Path, Path]:
    """Ground truth with one unscorable face inserted, and noisy predictions.

    The inserted face's normalization pair coincides, so it is skipped.
    Each prediction is its face plus gaussian noise of a per-face width,
    and the prediction file lists the faces in shuffled order.
    """
    n_landmarks = corpus.points.shape[1]
    half = len(corpus) // 2
    flat = one_face("flat", np.ones((n_landmarks, 2)), image_path="flat.png")
    gt = join(corpus[:half], flat, corpus[half:])
    rng = np.random.Generator(np.random.PCG64(seed))
    noisy = [pts + rng.normal(0.0, rng.uniform(1.0, 12.0), size=(n_landmarks, 2))
             for pts in gt.points]
    pred = Corpus(gt.name, gt.ids, gt.image_paths, np.array(noisy))
    write_canonical(directory / "gt.json", gt)
    write_canonical(directory / "pred.json", pred[rng.permutation(len(pred))])
    return directory / "gt.json", directory / "pred.json"


def shifted_copy(corpus: Corpus, fractions) -> Corpus:
    """Predictions displaced along x by ``fraction * norm_distance``."""
    d = np.linalg.norm(corpus.points[:, 36] - corpus.points[:, 45], axis=1)
    shift = np.stack([np.asarray(fractions) * d, np.zeros(len(d))], axis=1)
    return Corpus(corpus.name, corpus.ids, corpus.image_paths,
                  corpus.points + shift[:, None, :])


# every key of the ``config`` object in JSON reports: the settings each mode reads
IDEAL_CONFIG_KEYS = ["bbox_inclusive", "crop_margin", "crop_source", "decimal_overflow",
                     "decimal_shape", "heatmap_shape", "oob_policy", "schemes", "threshold"]
SYNTH_CONFIG_KEYS = ["decimal_overflow", "decimal_shape", "heatmap_shape", "mc_landmarks",
                     "mc_n", "mc_samples", "schemes", "seed"]


@pytest.mark.parametrize("argv", [
    ("bench-ideal", "--dataset", "json:unused.json"),
    ("synth",),
    ("encode", "--scheme", "direct", "--point", "1,2"),
])
def test_input_res_flag_removed(capsys, argv):
    # crops map straight onto the unit square; there is no input resolution
    rc, out, err = run_cli(capsys, *argv, "--input-res", "256")
    assert rc == 2 and out == ""
    assert "error: unrecognized arguments: --input-res 256" in err


@pytest.mark.parametrize("argv", [
    ("bench-ideal", "--dataset", "json:unused.json", "--sigma-integer", "1"),
    ("synth", "--sigma-decimal", "1"),
])
def test_sigma_flags_only_on_encode(capsys, argv):
    # neither command renders a map, so no sigma can change its result
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == ""
    assert f"error: unrecognized arguments: {argv[-2]} 1" in err


class TestSynth:
    def test_table_output_and_determinism(self, capsys):
        args = ("synth", "--samples", "2000", "--seed", "7")
        rc, out, err = run_cli(capsys, *args)
        assert rc == 0 and err == ""
        assert out.startswith("mode=montecarlo")
        rc2, out2, _ = run_cli(capsys, *args)
        assert rc2 == 0 and out2 == out

    def test_scientific_notation_sample_count(self, capsys):
        rc, out, _ = run_cli(capsys, "synth", "--samples", "2e3", "--seed", "3",
                             "--format", "csv", "--schemes", "direct")
        assert rc == 0
        assert out.strip().splitlines()[1].endswith(",2000")

    def test_fractional_sample_count_rejected(self, capsys):
        rc, _, err = run_cli(capsys, "synth", "--samples", "12.5")
        assert rc == 2

    def test_csv_header(self, capsys):
        rc, out, _ = run_cli(capsys, "synth", "--samples", "500", "--format", "csv")
        assert rc == 0
        assert out.splitlines()[0] == \
            "scheme,mean_px_error,px_error_se,analytic_px_error,conflicts,n_samples"

    def test_seed_changes_output(self, capsys):
        a = run_cli(capsys, "synth", "--samples", "500", "--seed", "1")[1]
        b = run_cli(capsys, "synth", "--samples", "500", "--seed", "2")[1]
        assert a != b

    def test_scheme_subset(self, capsys):
        rc, out, _ = run_cli(capsys, "synth", "--samples", "500",
                             "--schemes", "wov,direct", "--format", "csv")
        assert rc == 0
        schemes = [l.split(",")[0] for l in out.strip().splitlines()[1:]]
        assert schemes == ["direct", "wov"]  # canonical order, not flag order

    def test_unknown_scheme_lists_known(self, capsys):
        rc, _, err = run_cli(capsys, "synth", "--schemes", "bicubic")
        assert rc == 2
        assert "bicubic" in err and "direct" in err and "hih" in err

    def test_duplicate_schemes_named_by_value(self, capsys):
        rc, out, err = run_cli(capsys, "synth", "--samples", "10", "--schemes", "direct,direct")
        assert (rc, out, err) == (2, "", "error: duplicate schemes in 'direct,direct'\n")
        assert "Scheme." not in err

    @pytest.mark.parametrize("flag,value", [("--samples", "1e20"), ("--samples", "1e300"),
                                            ("--landmarks", "1e20")])
    def test_oversized_draw_refused(self, capsys, flag, value):
        # values far beyond any allocator, refused before anything is drawn
        rc, out, err = run_cli(capsys, "synth", flag, value)
        assert rc == 2 and out == ""
        assert err.startswith("error: Monte-Carlo draw of ")
        assert "exceeds the limit of 16777216 landmarks" in err

    def test_landmarks_past_one_block_refused(self, capsys):
        # a sample never spans two blocks, so a larger one would grow the block
        rc, out, err = run_cli(capsys, "synth", "--samples", "1", "--landmarks", "8193")
        assert (rc, out) == (2, "")
        assert err == "error: a Monte-Carlo sample may have at most 8192 landmarks\n"

    @pytest.mark.parametrize("value", ["1e-151", "1e-310", "5e-324"])
    def test_subnormal_scale_factor_refused(self, capsys, value):
        # the spread of errors this small underflows and would print as 0
        rc, out, err = run_cli(capsys, "synth", "--samples", "3", "--landmarks", "1",
                               "--n-factor", value)
        assert rc == 2 and out == ""
        assert err == (f"error: Monte-Carlo scale factor must be finite and at least "
                       f"1e-150, got {value}\n")

    def test_json_config_keys(self, capsys):
        rc, out, _ = run_cli(capsys, "synth", "--samples", "50", "--format", "json")
        assert rc == 0
        assert sorted(json.loads(out)["config"]) == SYNTH_CONFIG_KEYS

    def test_oob_policy_flag_removed(self, capsys):
        # every draw lies inside the grid, so no policy can change a result
        rc, out, err = run_cli(capsys, "synth", "--oob-policy", "drop")
        assert rc == 2 and out == ""
        assert "error: unrecognized arguments: --oob-policy drop" in err

    def test_peak_memory_flat_in_samples(self):
        cases = [
            # the draw is scored block by block, so 40x the samples may not
            # need more than a few blocks' worth of extra memory
            (("5e4", "2e6"), ("--landmarks", "1", "--schemes", "direct"), 16.0),
            # cache-sized blocks reuse their memory, so every scheme on 250000
            # samples peaks within 2 MB of one sample, which draws a whole block
            (("1", "250000"), ("--landmarks", "4", "--schemes", "all"), 2.0),
            # the most landmarks a sample may have fill one block, so the peak
            # is as flat in the landmarks per sample as in the samples
            (("1", "300"), ("--landmarks", "8192", "--schemes", "all"), 2.0),
        ]
        # a child's ru_maxrss counts the resident size of the process that
        # spawned it, here all of pytest, so the CLI reports the high-water
        # mark of its own image (VmHWM, in KiB) instead; each case runs with
        # the C allocator's defaults and with the thresholds entry() sets
        report = ("import sys\nfrom subpix.cli import _tune_allocator, main\n{tune}"
                  "rc = main(sys.argv[1:])\n"
                  "with open('/proc/self/status') as f:\n"
                  "    print(next(l for l in f if l.startswith('VmHWM:')).split()[1])\n"
                  "sys.exit(rc)\n")
        for tune, (sizes, args, bound_mb) in itertools.product(
                ("", "_tune_allocator()\n"), cases):
            peaks = []
            for samples in sizes:
                proc = subprocess.run(
                    [sys.executable, "-c", report.format(tune=tune), "synth", "--samples",
                     samples, *args, "--format", "json"],
                    env=child_env(), capture_output=True, text=True)
                assert proc.returncode == 0, proc.stderr
                peaks.append(int(proc.stdout.splitlines()[-1]) / 1024.0)
            assert peaks[1] - peaks[0] <= bound_mb, \
                f"{tune!r} {args}: peak RSS {peaks[0]:.1f} -> {peaks[1]:.1f} MB"


class TestBenchIdeal:
    def test_wflw_run_and_determinism(self, capsys, data_dir):
        args = ("bench-ideal", "--dataset", f"wflw:{data_dir / 'list.txt'}",
                "--format", "json")
        rc, out, err = run_cli(capsys, *args)
        assert rc == 0 and err == ""
        doc = json.loads(out)
        assert doc["mode"] == "ideal"
        assert [r["scheme"] for r in doc["rows"]] == \
            ["direct", "wsm", "wov", "wom", "hih"]
        assert run_cli(capsys, *args)[1] == out

    def test_pts_dataset(self, capsys, data_dir):
        rc, out, _ = run_cli(capsys, "bench-ideal",
                             "--dataset", f"pts:{data_dir / 'tree'}")
        assert rc == 0
        assert "mode=ideal" in out

    def test_out_file(self, capsys, data_dir, tmp_path):
        target = tmp_path / "report.csv"
        rc, out, _ = run_cli(capsys, "bench-ideal",
                             "--dataset", f"json:{data_dir / 'gt98.json'}",
                             "--format", "csv", "--out", str(target))
        assert rc == 0 and out == ""
        assert target.read_text().startswith("scheme,nme_percent,auc10")

    def test_ced_out_prefix(self, capsys, data_dir, tmp_path):
        prefix = tmp_path / "ced_"
        rc, _, _ = run_cli(capsys, "bench-ideal",
                           "--dataset", f"json:{data_dir / 'gt98.json'}",
                           "--ced-out", str(prefix))
        assert rc == 0
        for scheme in ("direct", "wsm", "wov", "wom", "hih"):
            f = tmp_path / f"ced_{scheme}.csv"
            assert f.exists()
            assert f.read_text().startswith("nme_threshold,fraction\n")

    def test_unwritable_ced_out_leaves_no_report(self, capsys, data_dir, tmp_path):
        rc, out, err = run_cli(capsys, "bench-ideal",
                               "--dataset", f"json:{data_dir / 'gt98.json'}",
                               "--ced-out", str(tmp_path / "missing" / "ced_"))
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_missing_dataset_file(self, capsys):
        rc, _, err = run_cli(capsys, "bench-ideal", "--dataset", "wflw:/nope.txt")
        assert rc == 2
        assert err.startswith("error: ")

    def test_threads_do_not_change_output(self, capsys, data_dir):
        args = ("bench-ideal", "--dataset", f"wflw:{data_dir / 'list.txt'}",
                "--format", "json")
        rc1, one, _ = run_cli(capsys, *args, "--threads", "1")
        rc4, four, _ = run_cli(capsys, *args, "--threads", "4")
        assert rc1 == rc4 == 0
        assert one == four

    def test_threads_must_be_positive(self, capsys, data_dir):
        rc, out, err = run_cli(capsys, "bench-ideal",
                               "--dataset", f"wflw:{data_dir / 'list.txt'}",
                               "--threads", "0")
        assert rc == 2 and out == ""
        assert err.startswith("error: thread count must be positive")

    def test_json_config_keys(self, capsys, data_dir):
        rc, out, _ = run_cli(capsys, "bench-ideal",
                             "--dataset", f"json:{data_dir / 'gt68.json'}",
                             "--format", "json")
        assert rc == 0
        assert sorted(json.loads(out)["config"]) == IDEAL_CONFIG_KEYS

    @pytest.mark.parametrize("margin", ["nan", "inf", "-inf", "-0.5"])
    def test_bad_margin_located(self, capsys, data_dir, margin):
        rc, out, err = run_cli(capsys, "bench-ideal",
                               "--dataset", f"json:{data_dir / 'gt68.json'}",
                               f"--margin={margin}")
        assert rc == 2 and out == ""
        assert err == f"error: crop margin must be finite and non-negative, " \
                      f"got {float(margin)}\n"

    def test_bbox_crop_source(self, capsys, data_dir):
        rc, out, _ = run_cli(capsys, "bench-ideal",
                             "--dataset", f"wflw:{data_dir / 'list.txt'}",
                             "--crop-source", "bbox", "--format", "json")
        assert rc == 0
        assert json.loads(out)["config"]["crop_source"] == "bbox"


# frozen `bench-ideal` and `synth` stdout per format, and the --ced-out files,
# per case; bench-ideal reads corpus98 written as a WFLW list ("{wflw}")
GOLDEN_BENCH = json.loads((Path(__file__).parent / "golden_bench.json").read_text())


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("case", sorted(GOLDEN_BENCH))
def test_report_bytes_frozen(capsys, data_dir, tmp_path, case, fmt):
    golden = GOLDEN_BENCH[case]
    argv = [a.format(wflw=data_dir / "list.txt") for a in golden["argv"]]
    if "ced" in golden:
        argv += ["--ced-out", str(tmp_path / "ced_")]
    assert run_cli(capsys, *argv, "--format", fmt) == (0, golden[fmt], "")
    ced = {p.name[4:-4]: p.read_text() for p in sorted(tmp_path.glob("ced_*.csv"))}
    assert ced == golden.get("ced", {})


# frozen `convert` output files and `bench-ideal --format json` stdout from each
# loader: corpus98[:3] as a WFLW list ("{wflw}"), corpus68[:4] as a pts tree
# ("{pts}") and mixed_canonical_text() ("{json}"); "{out}" is the convert target
GOLDEN_LOADERS = json.loads((Path(__file__).parent / "golden_loaders.json").read_text())


def mixed_canonical_text() -> str:
    """Canonical JSON whose records hold every optional-field form.

    One record has a bbox and all six flags, one has ``null`` for both, and
    one has integer points and bbox and a partial flags object.
    """
    face = 100.0 + 150.0 * TEMPLATE_68
    flags = ("pose", "expression", "illumination", "make_up", "occlusion", "blur")
    records = [
        {"id": "full", "image_path": "a.png", "points": face.tolist(),
         "bbox": [90.0, 95.0, 260.0, 262.0],
         "attributes": {name: k % 2 == 0 for k, name in enumerate(flags)}},
        {"id": "bare", "image_path": "b.png", "points": (face + [3.25, -1.5]).tolist(),
         "bbox": None, "attributes": None},
        {"id": "partial", "image_path": "sub/c.png",
         "points": np.rint(1.5 * face).astype(int).tolist(), "bbox": [140, 140, 390, 390],
         "attributes": {"pose": True, "blur": False}},
    ]
    return json.dumps({"dataset": "mixed", "n_landmarks": 68, "records": records})


def loader_inputs(directory: Path, corpus98, corpus68) -> dict[str, str]:
    write_wflw_file(corpus98[:3], directory / "list.txt")
    write_pts_tree(corpus68[:4], directory / "tree")
    (directory / "mixed.json").write_text(mixed_canonical_text())
    return {"wflw": str(directory / "list.txt"), "pts": str(directory / "tree"),
            "json": str(directory / "mixed.json"), "out": str(directory / "out.json")}


@pytest.mark.parametrize("case", sorted(GOLDEN_LOADERS))
def test_loader_bytes_frozen(capsys, tmp_path, corpus98, corpus68, case):
    golden = GOLDEN_LOADERS[case]
    paths = loader_inputs(tmp_path, corpus98, corpus68)
    rc, out, err = run_cli(capsys, *(a.format(**paths) for a in golden["argv"]))
    assert rc == 0
    if "file" in golden:
        assert (out, err) == ("", f"wrote {golden['records']} records to {paths['out']}\n")
        assert Path(paths["out"]).read_text() == golden["file"]
    else:
        assert (out, err) == (golden["stdout"], "")


class TestEncodeDecode:
    def test_pipe_round_trip_frozen_values(self, capsys, monkeypatch):
        rc, payload, _ = run_cli(capsys, "encode", "--scheme", "hih",
                                 "--point", "32.65,20.30", "--point", "10.2,55.9")
        assert rc == 0
        monkeypatch.setattr("sys.stdin", stdin_of(payload))
        rc, out, _ = run_cli(capsys, "decode", "--scheme", "hih")
        assert rc == 0
        doc = json.loads(out)
        assert doc["scheme"] == "hih"
        assert doc["points"][0] == [0.509765625, 0.31640625]
        assert doc["points"][1] == [0.16015625, 0.873046875]
        assert doc["valid"] == [True, True]
        assert doc["clamped"] == [False, False]

    def test_dash_is_stdin_and_stdout(self, capsys, monkeypatch):
        argv = ("encode", "--scheme", "wom", "--point", "32.65,20.30")
        rc, payload, _ = run_cli(capsys, *argv)
        assert (rc, payload) == run_cli(capsys, *argv, "--out", "-")[:2]
        monkeypatch.setattr("sys.stdin", stdin_of(payload))
        rc, out, _ = run_cli(capsys, "decode", "--scheme", "wom", "--in", "-", "--out", "-")
        assert rc == 0 and json.loads(out)["valid"] == [True]

    def test_direct_decode_values(self, capsys, tmp_path):
        rc, payload, _ = run_cli(capsys, "encode", "--scheme", "direct",
                                 "--point", "32.65,20.30", "--point", "10.2,55.9")
        f = tmp_path / "p.json"
        f.write_text(payload)
        rc, out, _ = run_cli(capsys, "decode", "--scheme", "direct",
                             "--in", str(f))
        assert rc == 0
        doc = json.loads(out)
        assert doc["points"] == [[0.515625, 0.3125], [0.15625, 0.875]]

    def test_wsm_flags_ties_on_ideal_maps(self, capsys, monkeypatch):
        _, payload, _ = run_cli(capsys, "encode", "--scheme", "wsm",
                                "--point", "30.5,30.5")
        monkeypatch.setattr("sys.stdin", stdin_of(payload))
        _, out, _ = run_cli(capsys, "decode", "--scheme", "wsm")
        assert json.loads(out)["tie_encountered"] == [True]

    def test_scheme_mismatch_rejected(self, capsys, monkeypatch):
        _, payload, _ = run_cli(capsys, "encode", "--scheme", "wov",
                                "--point", "1.5,2.5")
        monkeypatch.setattr("sys.stdin", stdin_of(payload))
        rc, _, err = run_cli(capsys, "decode", "--scheme", "hih")
        assert rc == 2
        assert "does not match payload" in err

    def test_point_and_record_mutually_exclusive(self, capsys, data_dir):
        rc, _, err = run_cli(capsys, "encode", "--scheme", "wov",
                             "--point", "1,2", "--record",
                             str(data_dir / "gt98.json"))
        assert rc == 2
        rc, _, _ = run_cli(capsys, "encode", "--scheme", "wov")
        assert rc == 2

    def test_encode_from_record(self, capsys, monkeypatch, data_dir):
        rc, payload, _ = run_cli(capsys, "encode", "--scheme", "wov",
                                 "--record", str(data_dir / "gt98.json"),
                                 "--index", "3")
        assert rc == 0
        monkeypatch.setattr("sys.stdin", stdin_of(payload))
        rc, out, _ = run_cli(capsys, "decode", "--scheme", "wov")
        assert rc == 0
        doc = json.loads(out)
        assert len(doc["points"]) == 98
        assert all(v for v in doc["valid"])

    @pytest.mark.parametrize("scheme", SCHEME_ORDER)
    def test_record_payload_is_batch_row(self, capsys, data_dir, scheme):
        # encode --record is one row of the batched crop -> heatmap -> apply path
        path = data_dir / "gt98.json"
        corpus = load_canonical(path)[1]
        cfg = CodecConfig(scheme=scheme)
        for k in range(len(corpus)):
            margin = 0.25 if k % 2 else 0.1
            crop, ok = landmark_crops(corpus.points, margin)
            assert ok[k]
            hm = heatmap_transform(crop, cfg.heatmap_shape).apply(corpus.points)
            want = encode_points(hm[k], cfg).to_json() + "\n"
            argv = ["--margin", str(margin)] if k % 2 == 0 else []
            assert run_cli(capsys, "encode", "--scheme", scheme.value, "--record", str(path),
                           "--index", str(k), *argv) == (0, want, ""), k

    @pytest.mark.parametrize("margin", ["nan", "inf", "-0.5"])
    def test_record_bad_margin_located(self, capsys, data_dir, margin):
        rc, out, err = run_cli(capsys, "encode", "--scheme", "wov",
                               "--record", str(data_dir / "gt98.json"), f"--margin={margin}")
        assert rc == 2 and out == ""
        assert err == f"error: crop margin must be finite and non-negative, " \
                      f"got {float(margin)}\n"

    def test_point_bad_margin_located(self, capsys):
        # the margin is checked even where only --record would read it
        rc, out, err = run_cli(capsys, "encode", "--scheme", "direct", "--point", "1,2",
                               "--margin", "nan")
        assert rc == 2 and out == ""
        assert err == "error: crop margin must be finite and non-negative, got nan\n"

    def test_record_index_out_of_range(self, capsys, data_dir):
        rc, _, err = run_cli(capsys, "encode", "--scheme", "wov",
                             "--record", str(data_dir / "gt98.json"),
                             "--index", "99")
        assert rc == 2
        assert "out of range" in err

    def test_malformed_point_rejected(self, capsys):
        rc, _, _ = run_cli(capsys, "encode", "--scheme", "wov", "--point", "1;2")
        assert rc == 2

    def test_decode_garbage_payload(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", stdin_of("{broken"))
        rc, _, err = run_cli(capsys, "decode", "--scheme", "wov")
        assert rc == 2

    def test_decode_non_utf8_stdin_located(self, capsys, monkeypatch):
        # the bytes are decoded as a file's are, whatever the stream's own decoder
        monkeypatch.setattr("sys.stdin", stdin_of(b'{"scheme":"direct"\n\xff}'))
        rc, out, err = run_cli(capsys, "decode", "--scheme", "direct")
        assert (rc, out) == (2, "")
        assert err == "error: <stdin>:2: not valid UTF-8: invalid start byte\n"

    @pytest.mark.parametrize("scheme,field,value,located", [
        ("wom", "conflict_count", "x", "conflict_count"),
        ("wom", "conflict_count", None, "conflict_count"),
        ("wom", "conflict_count", [1], "conflict_count"),
        ("direct", "integer_cells", 5, "integer_cells"),
        ("direct", "integer_cells", "0,0,0,1.0", "integer_cells"),
        ("wom", "offset_x_cells", {"0": 1}, "offset_x_cells"),
        ("wom", "offset_y_cells", 7, "offset_y_cells"),
        ("hih", "decimal_cells", None, "decimal_cells"),
        ("hih", "decimal_shape", [0, 8], "decimal_shape"),
        ("direct", "n_landmarks", "x", "n_landmarks"),
        ("direct", "heatmap_shape", [1e400, 64], "heatmap_shape"),
        ("direct", "clamped", "ff", "clamped"),
        # the flag lists bound the landmark count before any grid is allocated
        ("direct", "n_landmarks", 10 ** 12, "valid"),
        ("direct", "valid", [True], "valid"),
        # non-finite payload values
        ("direct", "integer_cells", ["0,0,0,nan"], "integer_cells"),
        ("direct", "integer_cells", ["1,3,4,inf"], "integer_cells"),
        ("hih", "decimal_cells", ["0,2,5,-inf"], "decimal_cells"),
        ("wom", "offset_x_cells", ["2,1,nan"], "offset_x_cells"),
        ("wom", "offset_y_cells", ["2,1,inf"], "offset_y_cells"),
        ("wov", "offsets", [[float("nan"), 0.5], [0.7, 0.2]], "offsets"),
        ("wov", "offsets", [[10 ** 400, 0.5], [0.7, 0.2]], "offsets"),
        # non-integral dimensions
        ("direct", "heatmap_shape", [64.5, 64], "heatmap_shape"),
        ("hih", "decimal_shape", [8.9, 8], "decimal_shape"),
        ("direct", "n_landmarks", 2.7, "n_landmarks"),
        # grids no allocator could hold are refused before allocating
        ("direct", "heatmap_shape", [10 ** 30, 8], "integer_cells"),
        ("wsm", "heatmap_shape", [2 ** 62, 2 ** 62], "integer_cells"),
        ("hih", "decimal_shape", [8, 10 ** 30], "decimal_cells"),
        # offsets are sub-cell fractions in [0, 1)
        ("wov", "offsets", [[40.0, -7.0], [0.7, 0.2]], "offsets"),
        ("wov", "offsets", [[0.5, 0.5], [1.0, 0.2]], "offsets"),
        ("wov", "offsets", [[-1e-9, 0.5], [0.7, 0.2]], "offsets"),
        ("wom", "offset_x_cells", ["2,3,40.0"], "offset_x_cells"),
        ("wom", "offset_x_cells", ["2,1,1.0"], "offset_x_cells"),
        ("wom", "offset_y_cells", ["2,1,-0.25"], "offset_y_cells"),
        # flags are JSON booleans, not whatever Python finds truthy
        ("direct", "valid", ["false", True], "valid"),
        ("direct", "valid", ["no", True], "valid"),
        ("direct", "valid", [2, True], "valid"),
        ("direct", "valid", [None, True], "valid"),
        ("direct", "clamped", [0, False], "clamped"),
        ("wov", "clamped", [False, "true"], "clamped"),
        # a count or a grid side is a JSON integer, not a boolean or a float,
        # and an offset is a number, not a boolean or a numeric string
        ("wom", "conflict_count", True, "conflict_count"),
        ("wom", "conflict_count", -5, "conflict_count"),
        ("direct", "heatmap_shape", [64.0, 64], "heatmap_shape"),
        ("direct", "n_landmarks", 2.0, "n_landmarks"),
        ("wov", "offsets", [["0.5", False], [0.7, 0.2]], "offsets"),
        ("direct", "n_landmarks", True, "n_landmarks"),
        ("hih", "decimal_shape", [True, True], "decimal_shape"),
        # counts, offsets and sparse cells no encoder writes
        ("direct", "n_landmarks", 0, "n_landmarks"),
        ("wov", "offsets", [["a", "b"], [0.7, 0.2]], "offsets"),
        ("direct", "integer_cells", ["x,1,1,1.0"], "integer_cells"),
        ("hih", "decimal_cells", ["0,9,1,1.0"], "decimal_cells"),  # an 8x8 grid
    ])
    @pytest.mark.parametrize("via", ["file", "stdin"])
    def test_malformed_payload_field_located(self, capsys, monkeypatch, tmp_path, via,
                                             scheme, field, value, located):
        # the refusal names the payload's source as well as its field
        _, payload, _ = run_cli(capsys, "encode", "--scheme", scheme,
                                "--point", "1.5,2.5", "--point", "1.7,2.2")
        doc = json.loads(payload)
        doc[field] = value
        if via == "file":
            source = tmp_path / "payload.json"
            source.write_text(json.dumps(doc))
            rc, out, err = run_cli(capsys, "decode", "--scheme", scheme, "--in", str(source))
        else:
            source = "<stdin>"
            monkeypatch.setattr("sys.stdin", stdin_of(json.dumps(doc)))
            rc, out, err = run_cli(capsys, "decode", "--scheme", scheme)
        assert rc == 2 and out == ""
        assert err.startswith(f"error: {source}: field '{located}': "), err
        assert err.count("\n") == 1, err

    @pytest.mark.parametrize("offsets", [
        [[0.1, [0.2]], [0.7, 0.2]],       # ragged
        [[0.1, 0.2, 0.3], [0.7, 0.2]],    # a triple
        [[0.1], [0.7, 0.2]],              # a single
        [0.1, 0.2],                       # flat
    ])
    def test_wov_offsets_one_refusal(self, capsys, monkeypatch, offsets):
        # an offset array of the wrong shape fails the one rule, with no
        # numpy message text
        _, payload, _ = run_cli(capsys, "encode", "--scheme", "wov",
                                "--point", "1.5,2.5", "--point", "1.7,2.2")
        doc = json.loads(payload)
        doc["offsets"] = offsets
        monkeypatch.setattr("sys.stdin", stdin_of(json.dumps(doc)))
        assert run_cli(capsys, "decode", "--scheme", "wov") == (
            2, "", "error: <stdin>: field 'offsets': wov requires one [x, y] pair of finite "
                   "numbers per landmark\n")

    @pytest.mark.parametrize("shape", [[1, 8], [8, 1], [1, 1]])
    def test_narrow_grid_payload_located(self, capsys, monkeypatch, shape):
        _, payload, _ = run_cli(capsys, "encode", "--scheme", "direct",
                                "--point", "1.5,2.5", "--point", "1.7,2.2")
        doc = json.loads(payload)
        doc["heatmap_shape"] = shape
        doc["integer_cells"] = ["0,0,0,1.0", "1,0,0,0.5"]  # inside every shape
        monkeypatch.setattr("sys.stdin", stdin_of(json.dumps(doc)))
        assert run_cli(capsys, "decode", "--scheme", "direct") == (
            2, "", "error: <stdin>: field 'heatmap_shape': must be an integer of at least 2, "
                   "got 1\n")

    def test_oversized_encode_grid_refused(self, capsys):
        rc, out, err = run_cli(capsys, "encode", "--scheme", "direct",
                               "--heatmap-res", str(2 ** 62), "--point", "1.5,2.5")
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and "exceeds the limit" in err, err

    @pytest.mark.parametrize("scheme", [s.value for s in SCHEME_ORDER])
    def test_encode_payload_bytes_frozen(self, capsys, scheme):
        rc, out, err = run_cli(capsys, "encode", "--scheme", scheme,
                               "--heatmap-res", "8", "--decimal-res", "4",
                               "--sigma-integer", "0.4", "--sigma-decimal", "0.4",
                               "--point", "3.3,2.6", "--point", "7.8,0.2")
        assert rc == 0 and err == ""
        assert out == json.dumps(GOLDEN_ENCODE[scheme], sort_keys=True,
                                 separators=(",", ":")) + "\n"

    def test_negative_point_coordinate(self, capsys):
        rc, out, _ = run_cli(capsys, "encode", "--scheme", "wov", "--point=-3,70")
        assert rc == 0
        assert json.loads(out)["clamped"] == [True]
        # the space-separated form reads as an unknown flag
        rc, _, err = run_cli(capsys, "encode", "--scheme", "wov", "--point", "-3,70")
        assert rc == 2 and "expected one argument" in err


# frozen `encode` stdout for two points on an 8x8 grid, one per scheme
GOLDEN_ENCODE = json.loads((Path(__file__).parent / "golden_encode.json").read_text())

_DROP = object()
_FUZZ_PAYLOADS = {
    s.value: json.loads(encode_points(np.array([[1.5, 2.5], [1.7, 2.2], [6.3, 4.6]]),
                                      CodecConfig(scheme=s, heatmap_shape=(8, 8),
                                                  decimal_shape=(4, 4))).to_json())
    for s in SCHEME_ORDER
}
_FUZZ_FIELDS = sorted({k for d in _FUZZ_PAYLOADS.values() for k in d} | {"extra"})
# sizes stay small or are far past anything an allocator accepts
_json_leaves = (st.none() | st.booleans() | st.integers(-3, 100)
                | st.sampled_from([10 ** 12, 2 ** 62, 10 ** 30, 10 ** 400, -10 ** 400, 1e30,
                                   1e400, -1e400])
                | st.floats(-100.0, 100.0) | st.just(float("nan")) | st.text(max_size=8)
                | st.sampled_from(["0,0,0,1.0", "1,3,2,0.5", "0,1,0.25", "2,1,nan",
                                   "0,0,0,0,1", "a,b,c"]))
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=10)


def _decode_text(text: str, scheme: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", stdin_of(text)), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        rc = main(["decode", "--scheme", scheme])
    return rc, out.getvalue(), err.getvalue()


class TestPayloadFuzz:
    """Any payload field replaced by any JSON, or dropped: exit 0, or exit 2
    with one located ``error:`` line; never exit 1 or a traceback."""

    @pytest.mark.parametrize("scheme", [s.value for s in SCHEME_ORDER])
    @given(field=st.sampled_from(_FUZZ_FIELDS), value=_json_values | st.just(_DROP))
    @example(field="heatmap_shape", value=[1e30, 8])
    @example(field="heatmap_shape", value=[1, 8])
    @example(field="decimal_shape", value=[2 ** 62, 2 ** 62])
    @settings(max_examples=150, deadline=None)
    def test_decode_fails_cleanly(self, scheme, field, value):
        doc = dict(_FUZZ_PAYLOADS[scheme])
        if value is _DROP:
            doc.pop(field, None)
        else:
            doc[field] = value
        rc, out, err = _decode_text(json.dumps(doc), scheme)
        assert rc in (0, 2), err
        if rc == 0:
            assert err == "" and out.endswith("\n")
        else:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err


# frozen `metrics` stdout per format, and the --ced-out file, on
# noisy_metrics_files(corpus68, seed=5) at threshold 0.08
GOLDEN_METRICS = json.loads((Path(__file__).parent / "golden_metrics.json").read_text())


class TestMetrics:
    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_output_bytes_frozen(self, capsys, tmp_path, corpus68, fmt):
        gt, pred = noisy_metrics_files(tmp_path, corpus68, seed=5)
        ced = tmp_path / "ced.csv"
        got = run_cli(capsys, "metrics", "--gt", str(gt), "--pred", str(pred),
                      "--threshold", "0.08", "--format", fmt, "--ced-out", str(ced))
        assert got == (0, GOLDEN_METRICS[fmt], "")
        assert ced.read_text() == GOLDEN_METRICS["ced"]

    def test_perfect_predictions(self, capsys, data_dir, tmp_path):
        rc, out, _ = run_cli(capsys, "metrics", "--gt", str(data_dir / "gt68.json"),
                             "--pred", str(data_dir / "gt68.json"))
        assert rc == 0
        row = out.strip().splitlines()[-1].split()
        assert row == ["0.000", "1.000", "0.000"]

    def test_frozen_two_image_auc(self, capsys, tmp_path, corpus68):
        gt = corpus68[:2]
        pred = shifted_copy(gt, [0.05, 0.20])
        write_canonical(tmp_path / "gt.json", gt)
        write_canonical(tmp_path / "pred.json", pred)
        rc, out, _ = run_cli(capsys, "metrics", "--gt", str(tmp_path / "gt.json"),
                             "--pred", str(tmp_path / "pred.json"),
                             "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["auc"] == pytest.approx(0.25, abs=1e-9)
        assert doc["failure_rate_percent"] == pytest.approx(50.0, abs=1e-9)
        assert doc["nme_percent"] == pytest.approx(12.5, abs=1e-6)
        assert doc["n_images"] == 2 and doc["skipped"] == 0

    def test_csv_format(self, capsys, data_dir):
        rc, out, _ = run_cli(capsys, "metrics", "--gt", str(data_dir / "gt68.json"),
                             "--pred", str(data_dir / "gt68.json"),
                             "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "nme_percent,auc10,fr10_percent,n_images,skipped"
        assert lines[1] == "0.000,1.000,0.000,20,0"

    @pytest.mark.parametrize("threshold,tag", [("0.08", "8"), ("0.125", "12.5"),
                                               ("0.004", "0.4")])
    def test_threshold_changes_tag(self, capsys, data_dir, threshold, tag):
        rc, out, _ = run_cli(capsys, "metrics", "--gt", str(data_dir / "gt68.json"),
                             "--pred", str(data_dir / "gt68.json"),
                             "--format", "csv", "--threshold", threshold)
        assert out.splitlines()[0] == f"nme_percent,auc{tag},fr{tag}_percent,n_images,skipped"

    def test_missing_prediction_id(self, capsys, tmp_path, corpus68):
        write_canonical(tmp_path / "gt.json", corpus68)
        write_canonical(tmp_path / "pred.json", corpus68[:-1])
        rc, _, err = run_cli(capsys, "metrics", "--gt", str(tmp_path / "gt.json"),
                             "--pred", str(tmp_path / "pred.json"))
        assert rc == 2
        assert "missing record id" in err and corpus68.ids[-1] in err

    def test_unknown_prediction_id(self, capsys, tmp_path, corpus68):
        write_canonical(tmp_path / "gt.json", corpus68[:-1])
        write_canonical(tmp_path / "pred.json", corpus68)
        rc, _, err = run_cli(capsys, "metrics", "--gt", str(tmp_path / "gt.json"),
                             "--pred", str(tmp_path / "pred.json"))
        assert rc == 2
        assert "unknown record id" in err

    def test_layout_mismatch(self, capsys, data_dir):
        rc, _, err = run_cli(capsys, "metrics", "--gt", str(data_dir / "gt68.json"),
                             "--pred", str(data_dir / "gt98.json"))
        assert rc == 2
        assert "68" in err and "98" in err

    def test_degenerate_records_counted(self, capsys, tmp_path, corpus68):
        faces = join(corpus68[:2], one_face("flat", np.ones((68, 2)), image_path="flat.png"))
        write_canonical(tmp_path / "gt.json", faces)
        write_canonical(tmp_path / "pred.json", faces)
        rc, out, _ = run_cli(capsys, "metrics", "--gt", str(tmp_path / "gt.json"),
                             "--pred", str(tmp_path / "pred.json"),
                             "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["skipped"] == 1 and doc["n_images"] == 2

    def test_ced_out(self, capsys, data_dir, tmp_path):
        target = tmp_path / "curve.csv"
        rc, _, _ = run_cli(capsys, "metrics", "--gt", str(data_dir / "gt68.json"),
                           "--pred", str(data_dir / "gt68.json"),
                           "--ced-out", str(target))
        assert rc == 0
        assert target.read_text().startswith("nme_threshold,fraction\n")

    def test_unwritable_ced_out_leaves_no_report(self, capsys, data_dir, tmp_path):
        rc, out, err = run_cli(capsys, "metrics", "--gt", str(data_dir / "gt68.json"),
                               "--pred", str(data_dir / "gt68.json"),
                               "--ced-out", str(tmp_path / "missing" / "c.csv"))
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err


class TestBenchIdealScoredByMetrics:
    """``metrics`` scores ``bench-ideal``'s own decoded points as ``bench-ideal``
    does, so the NME that quantization costs and a model's NME follow one rule."""

    def test_same_scores_and_curve(self, capsys, tmp_path, monkeypatch):
        faces = tmp_path / "faces.json"
        write_canonical(faces, make_records(200, 98))
        stacks = []

        def kept(gt, pred, norm_distance):
            stacks.append((gt, pred))
            return image_errors(gt, pred, norm_distance)

        monkeypatch.setattr(subpix.bench, "image_errors", kept)
        # schemes in report order, so the rows follow the order they are scored in
        rc, out, err = run_cli(capsys, "bench-ideal", "--dataset", f"json:{faces}",
                               "--schemes", "direct,wom,hih", "--format", "json",
                               "--ced-out", str(tmp_path / "bench_"))
        monkeypatch.undo()
        assert (rc, err) == (0, "")
        # the batch's faces in the order run_ideal scores them
        batch, skipped = build_samples(load_canonical(faces)[1], BenchConfig())
        assert skipped == 0
        rows = json.loads(out)["rows"]
        assert [r["scheme"] for r in rows] == ["direct", "wom", "hih"] and len(stacks) == 3
        for row, (gt, pred) in zip(rows, stacks):
            np.testing.assert_array_equal(gt, batch.points)
            paths = {}
            for role, points in (("gt", gt), ("pred", pred)):
                paths[role] = tmp_path / f"{role}_{row['scheme']}.json"
                write_canonical(paths[role], Corpus("d", batch.ids, batch.ids, points))
            ced = tmp_path / f"metrics_{row['scheme']}.csv"
            rc, out, err = run_cli(capsys, "metrics", "--gt", str(paths["gt"]),
                                   "--pred", str(paths["pred"]), "--format", "json",
                                   "--ced-out", str(ced))
            assert (rc, err) == (0, "")
            doc = json.loads(out)
            for key in ("nme_percent", "auc", "failure_rate_percent", "n_images"):
                assert doc[key] == row[key], (row["scheme"], key)
            assert ced.read_bytes() == (tmp_path / f"bench_{row['scheme']}.csv").read_bytes()


_CANONICAL_GT = {"dataset": "d", "n_landmarks": 3, "records": [
    {"id": "a", "image_path": "a.png", "points": [[0.0, 0.0], [10.0, 0.0], [4.0, 6.0]],
     "bbox": [0.0, 0.0, 10.0, 6.0], "attributes": {"pose": True}},
    {"id": "b", "image_path": "b.png", "points": [[1.0, 2.0], [9.0, 3.0], [5.0, 7.5]],
     "bbox": None, "attributes": None},
]}
_CANONICAL_PRED = {**_CANONICAL_GT, "records": [
    {**rec, "points": [[x + 0.5, y - 0.25] for x, y in rec["points"]]}
    for rec in _CANONICAL_GT["records"]]}
_RECORD_FIELDS = sorted({k for r in _CANONICAL_GT["records"] for k in r} | {"extra"})
_TOP_FIELDS = sorted(set(_CANONICAL_GT) | {"extra"})
# coordinates include ones past the float range and ones that overflow once squared
_coord = (st.floats(-100.0, 100.0) | st.integers(-3, 100)
          | st.sampled_from([float("nan"), float("inf"), 1e200, -1e300, 10 ** 400]))
_record_values = (_json_values | st.sampled_from([10 ** 400, -10 ** 400])
                  | st.lists(st.lists(_coord, min_size=2, max_size=2), min_size=3, max_size=3))


def _metrics_text(gt: dict, pred: dict, directory: Path) -> tuple[int, str, str]:
    (directory / "gt.json").write_text(json.dumps(gt))
    (directory / "pred.json").write_text(json.dumps(pred))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["metrics", "--gt", str(directory / "gt.json"),
                   "--pred", str(directory / "pred.json"), "--norm-indices", "0,1"])
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("metrics_fuzz")


class TestMetricsFuzz:
    """Any field of one canonical record, or any top-level key, replaced by
    any JSON (NaN and Infinity literals included) or dropped: exit 0, or
    exit 2 with one located ``error:`` line; never exit 1 or a traceback."""

    @given(in_pred=st.booleans(), top=st.booleans(),
           record_field=st.sampled_from(_RECORD_FIELDS), top_field=st.sampled_from(_TOP_FIELDS),
           value=_record_values | st.just(_DROP))
    @example(in_pred=False, top=False, record_field="points", top_field="dataset",
             value=[[10 ** 400, 0], [1, 2], [3, 4]])
    @example(in_pred=False, top=False, record_field="bbox", top_field="dataset",
             value=[0, 0, 10 ** 400, 1])
    @example(in_pred=True, top=False, record_field="points", top_field="dataset",
             value=[[1e200, 1e200], [1e200, 1e200], [1e200, 1e200]])
    @settings(max_examples=300, deadline=None)
    def test_metrics_fails_cleanly(self, fuzz_dir, in_pred, top, record_field, top_field,
                                   value):
        docs = {False: json.loads(json.dumps(_CANONICAL_GT)),
                True: json.loads(json.dumps(_CANONICAL_PRED))}
        target = docs[in_pred] if top else docs[in_pred]["records"][0]
        field = top_field if top else record_field
        if value is _DROP:
            target.pop(field, None)
        else:
            target[field] = value
        rc, out, err = _metrics_text(docs[False], docs[True], fuzz_dir)
        assert rc in (0, 2), err
        if rc == 0:
            assert err == "" and out.endswith("\n")
        else:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err


# JSON nested far past the depth the parser recurses to
_DEEP_JSON = "[" * 100000 + "]" * 100000
# an integer of more digits than Python converts from text
_LONG_INT_JSON = '{"n_landmarks": ' + "1" * 5000 + "}"


def _json_refusal(text: str) -> str:
    try:
        json.loads(text)
    except ValueError as exc:
        return f"invalid JSON: {exc}"
    except RecursionError:
        return "invalid JSON: nested too deeply"
    raise AssertionError("the document parses")


@pytest.mark.parametrize("text", [_DEEP_JSON, _LONG_INT_JSON], ids=["deep", "long_int"])
@pytest.mark.parametrize("command", ["decode", "convert", "metrics"])
def test_unparsable_json_refused(capsys, monkeypatch, tmp_path, command, text):
    """A payload or canonical file that the parser gives up on is invalid
    input, named by its source: exit 2 with one ``error:`` line, not an
    internal error."""
    path = tmp_path / "bad.json"
    path.write_text(text)
    monkeypatch.setattr("sys.stdin", stdin_of(text))
    argv = {"decode": ("decode", "--scheme", "wov"),
            "convert": ("convert", "--dataset", f"json:{path}", "--out", str(tmp_path / "o.json")),
            "metrics": ("metrics", "--gt", str(path), "--pred", str(path))}[command]
    source = "<stdin>" if command == "decode" else path
    assert run_cli(capsys, *argv) == (2, "", f"error: {source}: {_json_refusal(text)}\n")


class TestOverflow:
    """Coordinates too large to square: no numpy warning reaches the user."""

    def _moved(self, doc: dict, record: int, point: int, xy: list) -> dict:
        doc = json.loads(json.dumps(doc))
        doc["records"][record]["points"][point] = xy
        return doc

    def test_prediction_overflow_names_record(self, tmp_path):
        pred = self._moved(_CANONICAL_PRED, 1, 2, [1e300, 5.0])
        rc, out, err = _metrics_text(_CANONICAL_GT, pred, tmp_path)
        assert rc == 2 and out == ""
        assert err == "error: record 'b': landmark error too large for a float\n"

    def test_ground_truth_overflow_names_record(self, tmp_path):
        gt = self._moved(_CANONICAL_GT, 0, 2, [1e200, 6.0])
        rc, out, err = _metrics_text(gt, _CANONICAL_PRED, tmp_path)
        assert rc == 2 and out == ""
        assert err.startswith("error: record 'a': ") and err.count("\n") == 1, err

    def test_percent_overflow_names_record(self, tmp_path):
        # a tiny normalization distance makes a finite error overflow once
        # averaged into a percent, with no point error itself overflowing
        gt = self._moved(_CANONICAL_GT, 0, 1, [1e-160, 0.0])
        pred = self._moved(self._moved(_CANONICAL_PRED, 0, 1, [1e-160, 0.0]), 0, 2, [1e148, 6.0])
        rc, out, err = _metrics_text(gt, pred, tmp_path)
        assert rc == 2 and out == ""
        assert err == "error: record 'a': landmark error too large for a float\n"

    def test_mean_overflow_names_record(self, tmp_path):
        # every point and image error is finite, but the two images' sum is not
        gt, pred = _CANONICAL_GT, _CANONICAL_PRED
        for k in (0, 1):
            gt = self._moved(gt, k, 0, [0.0, 0.0])
            gt = self._moved(gt, k, 1, [1e-160, 0.0])
            for point, (x, y) in enumerate(gt["records"][k]["points"]):
                pred = self._moved(pred, k, point, [x + 1.7e148, y])
        rc, out, err = _metrics_text(gt, pred, tmp_path)
        assert rc == 2 and out == ""
        assert err.startswith("error: record '") and err.count("\n") == 1, err

    def test_bench_ideal_refuses_overflowing_point(self, capsys, tmp_path, corpus98):
        path = tmp_path / "list.txt"
        write_wflw_file(corpus98[:4], path)
        lines = path.read_text().splitlines()
        tokens = lines[1].split()
        tokens[10] = "1e200"  # x of landmark 5
        lines[1] = " ".join(tokens)
        path.write_text("\n".join(lines) + "\n")
        face = load_dataset(f"wflw:{path}")[1].ids[1]
        # on a crop about 1.5e200 wide the face's other points lose their
        # positions on the way to the heatmap and back, so every scheme,
        # lossless wov included, refuses the face before scoring it
        for schemes in ("all", "direct", "wsm", "hih", "wov", "wom", "wov,wom"):
            rc, out, err = run_cli(capsys, "bench-ideal", "--dataset", f"wflw:{path}",
                                   "--schemes", schemes)
            assert rc == 2 and out == ""
            assert err.startswith(f"error: record '{face}': mapping its points to the "
                                  f"heatmap and back moves one by "), err
            assert err.endswith(" normalization distances (limit 1e-10)\n"), err


class TestConvert:
    def test_wflw_to_canonical(self, capsys, data_dir, tmp_path, corpus98):
        out_file = tmp_path / "wflw.json"
        rc, out, err = run_cli(capsys, "convert",
                               "--dataset", f"wflw:{data_dir / 'list.txt'}",
                               "--out", str(out_file))
        assert rc == 0 and out == ""
        assert err.strip() == f"wrote {len(corpus98)} records to {out_file}"
        _, loaded = load_canonical(out_file)
        assert loaded.points.shape[1] == 98 and len(loaded) == len(corpus98)

    def test_name_override(self, capsys, data_dir, tmp_path):
        out_file = tmp_path / "named.json"
        rc, _, _ = run_cli(capsys, "convert",
                           "--dataset", f"pts:{data_dir / 'tree'}",
                           "--out", str(out_file), "--name", "mystery")
        assert rc == 0
        assert load_canonical(out_file)[1].name == "mystery"

    def test_canonical_passthrough_preserves_points(self, capsys, data_dir,
                                                    tmp_path, corpus68):
        out_file = tmp_path / "again.json"
        rc, _, _ = run_cli(capsys, "convert",
                           "--dataset", f"json:{data_dir / 'gt68.json'}",
                           "--out", str(out_file))
        assert rc == 0
        np.testing.assert_array_equal(load_canonical(out_file)[1].points[0],
                                      corpus68.points[0])

    @pytest.mark.parametrize("case", ["boolean_coordinate", "string_coordinate",
                                      "boolean_n_landmarks"])
    def test_coerced_types_refused(self, capsys, tmp_path, case):
        message = ("field 'n_landmarks': must be an integer of at least 1, got True"
                   if case.endswith("landmarks")
                   else "field 'records[0].points': must be an array of 98 [x, y] pairs "
                   "of finite numbers")
        src = tmp_path / "typed.json"
        src.write_text(dict(malformed_canonical_docs())[case])
        rc, out, err = run_cli(capsys, "convert", "--dataset", f"json:{src}",
                               "--out", str(tmp_path / "out.json"))
        assert (rc, out, err) == (2, "", f"error: {src}: {message}\n")
        assert not (tmp_path / "out.json").exists()


# each subcommand with the flags it requires, so that a parse goes on to its unknown arguments
_REQUIRED = {
    "bench-ideal": ["--dataset", "json:gt.json"],
    "synth": [],
    "encode": ["--scheme", "wov"],
    "decode": ["--scheme", "wov"],
    "metrics": ["--gt", "gt.json", "--pred", "pred.json"],
    "convert": ["--dataset", "json:gt.json", "--out", "out.json"],
}


class TestFlags:
    """Flags are the one input path: each is spelled in full, takes its value
    joined on or as the next argument, and the last of a repeated flag wins."""

    @pytest.mark.parametrize("command", sorted(_REQUIRED))
    def test_abbreviations_refused(self, capsys, command):
        # every strict prefix of every long option, in both forms, and as plain
        # text: only the full --json-errors asks for JSON
        _, help_text, _ = run_cli(capsys, command, "--help")
        flags = set(re.findall(r"--[a-z][a-z-]*[a-z]", help_text))
        assert {"--help", "--json-errors"} <= flags
        prefixes = {flag[:end] for flag in flags for end in range(3, len(flag))} - flags
        for prefix in sorted(prefixes):
            for given in ([prefix, "1"], [f"{prefix}=1"]):
                rc, out, err = run_cli(capsys, command, *_REQUIRED[command], *given)
                assert (rc, out, err) == (2, "", f"error: unrecognized arguments: "
                                                 f"{' '.join(given)}\n")

    @pytest.mark.parametrize("command", sorted(_REQUIRED))
    def test_help_lists_no_config(self, capsys, command):
        rc, out, err = run_cli(capsys, command, "--help")
        assert (rc, err) == (0, "")
        assert out.startswith(f"usage: subpix {command} ") and "--config" not in out

    def test_joined_form_matches_separate(self, capsys):
        joined = run_cli(capsys, "synth", "--samples=800", "--seed=9", "--format=csv")
        separate = run_cli(capsys, "synth", "--samples", "800", "--seed", "9",
                           "--format", "csv")
        assert joined == separate
        assert joined[0] == 0

    def test_last_repeated_flag_wins(self, capsys):
        rc, out, _ = run_cli(capsys, "synth", "--samples", "800", "--format", "csv",
                             "--samples=300", "--schemes", "direct")
        assert rc == 0
        assert out.strip().splitlines()[1].endswith(",300")

    @pytest.mark.parametrize("value", ["yes", "1", "on", "true", "false", ""])
    def test_json_errors_takes_no_value(self, capsys, value):
        # a switch: any value is refused, and the error is plain text
        rc, out, err = run_cli(capsys, "synth", "--samples", "300", f"--json-errors={value}")
        assert (rc, out) == (2, "")
        assert err == f"error: argument --json-errors: ignored explicit argument '{value}'\n"

    @pytest.mark.parametrize("argv,message", [
        (("synth", "--samples", "x"), "argument --samples: expected an integer, got 'x'"),
        (("synth", "--conf", "x"), "unrecognized arguments: --conf x"),
        (("synth", "--format", "xml"),
         "argument --format: invalid choice: 'xml' (choose from 'table', 'csv', 'json')"),
        (("synth", "--samples", "10", "--seed", "-1"),
         "seed must be a non-negative integer, got -1"),
        (("bench-ideal", "--threshold", "0.1"),
         "the following arguments are required: --dataset"),
        (("encode", "--scheme", "wov", "--point", "1,x"),
         "argument --point: point coordinates must be numbers, got '1,x'"),
    ])
    def test_json_errors_after_the_error(self, capsys, argv, message):
        # argparse stops at the bad flag before it reaches --json-errors
        rc, out, err = run_cli(capsys, *argv, "--json-errors")
        assert (rc, out, err.count("\n")) == (2, "", 1)
        assert json.loads(err) == {"error": message, "kind": "input", "type": "ConfigError"}

    @pytest.mark.parametrize("value", ["true", "False"])
    def test_boolean_word_is_a_value(self, capsys, tmp_path, data_dir, value):
        # only json-errors is a switch; "true" names a dataset like any word
        out = tmp_path / "out.json"
        rc, _, err = run_cli(capsys, "convert", "--name", value,
                             "--dataset", f"wflw:{data_dir / 'list.txt'}", "--out", str(out))
        assert rc == 0, err
        assert load_canonical(out)[1].name == value

    def test_false_is_a_path(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc, out, _ = run_cli(capsys, "synth", "--out", "false", "--samples", "300",
                             "--schemes", "direct")
        assert (rc, out) == (0, "")
        assert (tmp_path / "false").read_text().startswith("mode=montecarlo")


# numeric flag values: small, at an edge, or far past every cap (2^24
# Monte-Carlo landmarks, 2^26 cells a grid), so that no run allocates much
_FAR = st.sampled_from([2 ** 31, 2 ** 62, 10 ** 30])
_REAL = (st.floats(-10.0, 300.0)
         | st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, 1e307, 1e308, -1e308,
                            float("inf"), float("-inf"), float("nan")]))


def _count(hi: int):
    return st.integers(-2, hi) | _FAR


_GRID_KEYS = {"heatmap-res": _count(256), "decimal-res": _count(256)}
# scheme lists, valid and not: each unknown name is refused at its line
_SCHEMES = st.sampled_from(["all", "ALL", "direct", "wov,hih", "WSM, wom", "hih,direct,wsm",
                            "direct,direct", "bogus", "wov,nope", "direct,", "all,wov"])
_NUMERIC_FLAGS = {
    "bench-ideal": {**_GRID_KEYS, "margin": _REAL, "threshold": _REAL, "threads": _count(4),
                    "norm-indices": st.tuples(_count(99), _count(99)).map(
                        lambda pair: f"{pair[0]},{pair[1]}"),
                    "schemes": _SCHEMES},
    "synth": {**_GRID_KEYS, "samples": _count(1000), "landmarks": _count(1000),
              "seed": _count(2 ** 32), "n-factor": _REAL, "schemes": _SCHEMES},
    "encode": {**_GRID_KEYS, "sigma-integer": _REAL, "sigma-decimal": _REAL,
               "margin": _REAL, "index": _count(4)},
}


@st.composite
def _flag_runs(draw):
    """A subcommand and some of its numeric flags, each set to a drawn value.

    synth always sets both sizes: its default of 100000 samples times a
    small landmark count still passes the cap and allocates gigabytes.
    """
    command = draw(st.sampled_from(sorted(_NUMERIC_FLAGS)))
    keys = draw(st.lists(st.sampled_from(sorted(_NUMERIC_FLAGS[command])), unique=True,
                         max_size=len(_NUMERIC_FLAGS[command])))
    if command == "synth":
        keys = sorted({*keys, "samples", "landmarks"})
    return command, {key: draw(_NUMERIC_FLAGS[command][key]) for key in keys}


class TestFlagFuzz:
    """Numeric flags of bench-ideal, synth and encode: exit 0 with nothing on
    stderr, or exit 2 with one ``error:`` line; never exit 1, a traceback or
    a numpy warning."""

    @given(run=_flag_runs(), scheme=st.sampled_from([s.value for s in SCHEME_ORDER]))
    @example(run=("synth", {"seed": -1, "samples": 100, "landmarks": 1}), scheme="direct")
    @example(run=("synth", {"samples": 1, "landmarks": 8193}), scheme="direct")
    @example(run=("synth", {"n-factor": 1e308, "samples": 100, "landmarks": 1}),
             scheme="direct")
    @example(run=("synth", {"n-factor": 1e307, "samples": 100, "landmarks": 1}),
             scheme="direct")
    @example(run=("synth", {"heatmap-res": 2 ** 62, "samples": 100, "landmarks": 1}),
             scheme="direct")
    @example(run=("bench-ideal", {"heatmap-res": 2 ** 62}), scheme="direct")
    @example(run=("synth", {"n-factor": -1e300, "samples": 100, "landmarks": 1}),
             scheme="direct")
    @example(run=("synth", {"n-factor": 1e-310, "samples": 100, "landmarks": 1}),
             scheme="direct")
    @example(run=("encode", {"sigma-decimal": 5e-324}), scheme="hih")
    @example(run=("bench-ideal", {"threshold": 1e307}), scheme="direct")
    @example(run=("synth", {"samples": "x", "landmarks": 1}), scheme="direct")
    @example(run=("bench-ideal", {"norm-indices": "0,1", "margin": "1/2"}), scheme="direct")
    @example(run=("bench-ideal", {"schemes": "bogus"}), scheme="direct")
    @example(run=("synth", {"schemes": "wov,nope", "samples": 100, "landmarks": 1}),
             scheme="direct")
    @settings(max_examples=200, deadline=None)
    def test_numeric_flags_fail_cleanly(self, data_dir, run, scheme):
        command, values = run
        # joined on, a negative number such as -2 or -1e300 reads as the value
        flags = [f"--{key}={value if isinstance(value, str) else repr(value)}"
                 for key, value in values.items()]
        argv = {"bench-ideal": ["--dataset", f"wflw:{data_dir / 'list.txt'}"],
                "synth": ["--schemes", "all"],
                "encode": ["--scheme", scheme, "--point", "1.5,2.5"]}[command]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([command, *flags, *argv])
        out, err = out.getvalue(), err.getvalue()
        assert rc in (0, 2), err
        if rc == 0:
            assert err == "" and out.endswith("\n")
        else:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err


# characters that end a line neither for str.splitlines nor for a universal-newline read
_ONE_LINE = st.characters(blacklist_categories=("Cs",),
                          blacklist_characters="\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")
_TOKENS = st.one_of(
    st.text(_ONE_LINE, max_size=8), st.floats().map(repr), st.integers().map(str),
    st.sampled_from(["nan", "-inf", "infinity", "1e200", "-1e308", "1_0", "0x1p3", "-0", "2"]))


@st.composite
def _fuzzed_line(draw, lines: list[str]) -> tuple[int, bytes]:
    """Where to put a fuzzed line, and its bytes: an edit of ``lines[k]``, any text, or any bytes.

    The edit replaces, drops or inserts one whitespace-separated token.
    The result is always one line, so an error in it is located at k + 1.
    """
    k = draw(st.integers(0, len(lines) - 1))
    tokens = lines[k].split()
    i = draw(st.integers(0, len(tokens)))
    op = draw(st.sampled_from(["replace", "drop", "insert", "text", "bytes"]))
    if op == "bytes":
        return k, draw(st.binary(max_size=40)).translate(None, b"\n\r\x0b\x0c\x1c\x1d\x1e")
    if op == "text":
        return k, draw(st.text(_ONE_LINE, max_size=60)).encode()
    if op == "insert":
        tokens.insert(i, draw(_TOKENS))
    elif i < len(tokens):
        tokens[i:i + 1] = [] if op == "drop" else [draw(_TOKENS)]
    return k, " ".join(tokens).encode()


def _token_swapped(line: str, i: int, token: str) -> bytes:
    tokens = line.split()
    tokens[i] = token
    return " ".join(tokens).encode()


@pytest.fixture(scope="module")
def loader_fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("loader_fuzz")


def _run_quiet(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def _assert_loader_outcome(spec: str, path: Path, line: int | None, directory: Path) -> None:
    """``convert`` and ``bench-ideal`` on ``spec``: exit 0, or exit 2 with one ``error:`` line.

    Where the loader refuses the file, both print its located error, which
    names ``path`` and the 1-based ``line`` (any line when None).
    """
    try:
        n = len(load_dataset(spec)[1])
    except ParseError as exc:
        assert exc.path == str(path) and exc.line is not None and exc.line >= 1, exc
        assert line is None or exc.line == line, exc
        refusal = f"error: {exc}\n"
    else:
        refusal = None
    target = directory / "out.json"
    for argv in (("convert", "--dataset", spec, "--out", str(target)),
                 ("bench-ideal", "--dataset", spec, "--format", "json")):
        rc, out, err = _run_quiet(*argv)
        if refusal is not None:
            assert (rc, out, err) == (2, "", refusal)
        elif argv[0] == "convert":
            assert (rc, out, err) == (0, "", f"wrote {n} records to {target}\n")
        elif rc == 2:
            # a file that loads can still be refused, but not for a line of it
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
            assert not err.startswith(f"error: {path}"), err
        else:
            assert rc == 0 and err == "", err


class TestLoaderFuzz:
    """Arbitrary annotation text through the CLI: exit 0, or exit 2 with one
    ``error:`` line naming the file and the 1-based line; never exit 1, a
    traceback or a numpy warning."""

    WFLW_LINES = [make_wflw_line(seed) for seed in (5, 6, 7, 8)]
    PTS_LINES = ["version: 1", "n_points: 68", "{",
                 *(f"{x!r} {y!r}" for x, y in 50.0 + 200.0 * TEMPLATE_68), "}"]

    @given(fuzz=_fuzzed_line(WFLW_LINES))
    @example(fuzz=(1, b"abc\xff def"))
    @example(fuzz=(0, _token_swapped(make_wflw_line(5), 198, "1" + "0" * 400)))
    @example(fuzz=(2, make_wflw_line(7).replace(" 0 ", " 2 ", 1).encode()))
    @settings(max_examples=150, deadline=None)
    def test_wflw_list(self, loader_fuzz_dir, fuzz):
        k, line = fuzz
        assume(len((line.decode("utf-8", "replace") + "x").splitlines()) == 1)
        path = loader_fuzz_dir / "list.txt"
        lines = [s.encode() for s in self.WFLW_LINES]
        lines[k] = line
        path.write_bytes(b"\n".join(lines) + b"\n")
        _assert_loader_outcome(f"wflw:{path}", path, k + 1, loader_fuzz_dir)

    @given(fuzz=_fuzzed_line(PTS_LINES),
           whole=st.one_of(st.none(), st.binary(max_size=200), st.text(max_size=200)))
    @example(fuzz=(3, b"nan 2.0"), whole=None)
    @example(fuzz=(1, b"n_points: 100000000000000"), whole=None)
    @example(fuzz=(0, b""), whole=b"version: 1\nn_points: 1\n{\n\xe9 1\n}\n")
    @settings(max_examples=150, deadline=None)
    def test_pts_file(self, loader_fuzz_dir, fuzz, whole):
        k, line = fuzz
        if whole is None:
            assume(len((line.decode("utf-8", "replace") + "x").splitlines()) == 1)
            lines = [s.encode() for s in self.PTS_LINES]
            lines[k] = line
            data = b"\n".join(lines) + b"\n"
        else:
            data = whole if isinstance(whole, bytes) else whole.encode("utf-8", "surrogatepass")
        tree = loader_fuzz_dir / "tree"
        tree.mkdir(exist_ok=True)
        path = tree / "face.pts"
        path.write_bytes(data)
        # a replaced header or brace line can shift where the parse fails
        _assert_loader_outcome(f"pts:{tree}", path, None, loader_fuzz_dir)


class TestErrorReporting:
    def test_json_errors_flag(self, capsys):
        rc, _, err = run_cli(capsys, "bench-ideal", "--dataset", "wflw:/nope.txt",
                             "--json-errors")
        assert rc == 2
        doc = json.loads(err)
        assert doc["kind"] == "input"
        assert doc["type"] == "ParseError"
        assert "/nope.txt" in doc["error"]

    def test_plain_error_prefix(self, capsys):
        rc, _, err = run_cli(capsys, "bench-ideal", "--dataset", "nocolon")
        assert rc == 2
        assert err.startswith("error: ")

    def test_internal_errors_exit_one(self, capsys, monkeypatch):
        def boom(cfg):
            raise RuntimeError("wires crossed")
        monkeypatch.setattr("subpix.cli.run_montecarlo", boom)
        rc, _, err = run_cli(capsys, "synth", "--samples", "10")
        assert rc == 1
        assert err.startswith("internal error: wires crossed")

    def test_internal_errors_as_json(self, capsys, monkeypatch):
        def boom(cfg):
            raise RuntimeError("wires crossed")
        monkeypatch.setattr("subpix.cli.run_montecarlo", boom)
        rc, _, err = run_cli(capsys, "synth", "--samples", "10", "--json-errors")
        assert rc == 1
        assert json.loads(err)["kind"] == "internal"

    def test_unwritable_stderr_keeps_exit_code(self, monkeypatch):
        # the message is lost, but an input error still exits 2 and an internal one 1
        class Full(io.StringIO):
            def write(self, text):
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(sys, "stderr", Full())
        assert main(["synth", "--samples", "abc"]) == 2
        assert main(["synth", "--samples", "10", "--seed", "-1"]) == 2

        def boom(cfg):
            raise RuntimeError("wires crossed")
        monkeypatch.setattr("subpix.cli.run_montecarlo", boom)
        assert main(["synth", "--samples", "10"]) == 1

    def test_no_arguments_is_usage_error(self, capsys):
        assert run_cli(capsys)[0] == 2

    @pytest.mark.parametrize("argv,message", [
        (("synth", "--heatmap-res", "abc"), "argument --heatmap-res: invalid int value: 'abc'"),
        # argparse reads a negative number in scientific notation as a flag
        (("synth", "--n-factor", "-1e300"), "argument --n-factor: expected one argument"),
        (("bench-ideal",), "the following arguments are required: --dataset"),
        (("frobnicate",), "argument command: invalid choice: 'frobnicate' (choose from "
                          "'bench-ideal', 'synth', 'encode', 'decode', 'metrics', 'convert')"),
        # flags are the one input path, and each is spelled in full
        (("synth", "--config", "x"), "unrecognized arguments: --config x"),
        (("synth", "--config=x"), "unrecognized arguments: --config=x"),
        # before a subcommand, --config is no option and its path is read as the command
        (("--config", "x"), "argument command: invalid choice: 'x' (choose from "
                            "'bench-ideal', 'synth', 'encode', 'decode', 'metrics', 'convert')"),
        (("synth", "--n_factor", "1.0"), "unrecognized arguments: --n_factor 1.0"),
        (("synth", "--conf", "x"), "unrecognized arguments: --conf x"),
        (("synth", "--json"), "unrecognized arguments: --json"),
        (("synth", "--format", "xml"),
         "argument --format: invalid choice: 'xml' (choose from 'table', 'csv', 'json')"),
        (("bench-ideal", "--margin", "wide"), "argument --margin: invalid float value: 'wide'"),
        (("encode", "--heatmap-res", "1.5"), "argument --heatmap-res: invalid int value: '1.5'"),
        (("synth", "--schemes", "bogus"),
         "argument --schemes: unknown scheme 'bogus' (known: direct, wsm, wov, wom, hih, or "
         "'all')"),
        (("metrics", "--norm-indices", "1,x"),
         "argument --norm-indices: indices must be integers, got '1,x'"),
        # a range check of the run's settings, made once parsing is done
        (("synth", "--samples", "10", "--seed", "-1"),
         "seed must be a non-negative integer, got -1"),
        (("synth", "--samples", "abc"), "argument --samples: expected an integer, got 'abc'"),
        (("synth", "--samples=abc"), "argument --samples: expected an integer, got 'abc'"),
        # the first of two bad flags is the one argparse stops at
        (("synth", "--samples", "x", "--seed", "y"),
         "argument --samples: expected an integer, got 'x'"),
        (("encode", "--scheme", "wov", "--point", "1,x"),
         "argument --point: point coordinates must be numbers, got '1,x'"),
        (("bench-ideal", "--dataset", "json:{data}/gt68.json", "--norm-indices", "1,2,3"),
         "argument --norm-indices: expected two comma-separated indices, got '1,2,3'"),
        (("bench-ideal", "--dataset", "json:{data}/gt68.json", "--norm-indices", "1"),
         "argument --norm-indices: expected two comma-separated indices, got '1'"),
        (("bench-ideal", "--dataset", "json:{data}/gt68.json", "--norm-indices", "1,x"),
         "argument --norm-indices: indices must be integers, got '1,x'"),
        (("metrics", "--gt", "{data}/flat68.json", "--pred", "{data}/flat68.json"),
         "every record was skipped; nothing to score"),
        (("bench-ideal", "--dataset", "json:{data}/outside68.json", "--crop-source", "bbox",
          "--oob-policy", "drop", "--schemes", "wov,direct"),
         "scheme 'wov' produced no scorable images"),
        # an empty path or name names nothing: it is refused, not skipped
        (("bench-ideal", "--dataset", "json:{data}/gt68.json", "--ced-out", ""),
         "argument --ced-out: expected a non-empty value, got ''"),
        (("bench-ideal", "--dataset", "json:{data}/gt68.json", "--out="),
         "argument --out: expected a non-empty value, got ''"),
        (("synth", "--samples", "10", "--out", ""),
         "argument --out: expected a non-empty value, got ''"),
        (("metrics", "--gt", "{data}/gt68.json", "--pred", "{data}/gt68.json", "--ced-out", ""),
         "argument --ced-out: expected a non-empty value, got ''"),
        (("metrics", "--gt", "", "--pred", "{data}/gt68.json"),
         "argument --gt: expected a non-empty value, got ''"),
        (("metrics", "--gt", "{data}/gt68.json", "--pred", ""),
         "argument --pred: expected a non-empty value, got ''"),
        (("encode", "--scheme", "wov", "--record", ""),
         "argument --record: expected a non-empty value, got ''"),
        (("encode", "--scheme", "wov", "--point", "1,2", "--out", ""),
         "argument --out: expected a non-empty value, got ''"),
        (("decode", "--scheme", "wov", "--in", ""),
         "argument --in: expected a non-empty value, got ''"),
        (("decode", "--scheme", "wov", "--out", ""),
         "argument --out: expected a non-empty value, got ''"),
        (("convert", "--dataset", "json:{data}/gt68.json", "--out", "x.json", "--name", ""),
         "argument --name: expected a non-empty value, got ''"),
        (("convert", "--dataset", "json:{data}/gt68.json", "--out", ""),
         "argument --out: expected a non-empty value, got ''"),
    ])
    def test_usage_errors_are_one_line(self, capsys, data_dir, argv, message):
        argv = [a.format(data=data_dir) for a in argv]
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")
        rc, out, err = run_cli(capsys, *argv[:1], "--json-errors", *argv[1:])
        assert (rc, out, err.count("\n")) == (2, "", 1)
        assert json.loads(err) == {"error": message, "kind": "input", "type": "ConfigError"}

    def test_help_keeps_usage_and_exit_zero(self, capsys):
        rc, out, err = run_cli(capsys, "synth", "--help")
        assert rc == 0 and err == ""
        assert out.startswith("usage: subpix synth ")

    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2


class TestEntry:
    """``python -m subpix``, like the console script, runs ``cli.entry``: it
    sets the allocator, runs ``main``, then the exit handlers, flushes the
    output and ends with ``os._exit``. Its output is ``main``'s, and a report
    it cannot write is one ``error:`` line and exit 2."""

    @pytest.mark.parametrize("argv", [
        ("synth", "--samples", "3000", "--landmarks", "4", "--format", "json"),
        ("synth", "--samples", "2000", "--seed", "5"),
        ("bench-ideal", "--dataset", "json:{data}/gt98.json", "--format", "csv"),
        ("bench-ideal", "--dataset", "wflw:{data}/list.txt", "--oob-policy", "drop"),
        ("metrics", "--gt", "{gt}", "--pred", "{pred}", "--format", "json"),
    ])
    def test_stdout_bytes_equal_main(self, capsys, data_dir, corpus98, tmp_path, argv):
        gt, pred = noisy_metrics_files(tmp_path, corpus98[:20], 4)
        argv = [a.format(data=data_dir, gt=gt, pred=pred) for a in argv]
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, err) == (0, "")
        proc = run_entry(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out.encode(), b"")

    def test_encode_pipes_into_decode(self, capsys):
        argv = ("encode", "--scheme", "hih", "--point", "32.65,20.3", "--point=-3,70")
        rc, payload, _ = run_cli(capsys, *argv)
        encoded = run_entry(*argv)
        assert (rc, encoded.returncode, encoded.stdout) == (0, 0, payload.encode())
        rc, points, _ = _decode_text(payload, "hih")
        decoded = run_entry("decode", "--scheme", "hih", stdin=encoded.stdout)
        assert (rc, decoded.returncode, decoded.stdout, decoded.stderr) == \
            (0, 0, points.encode(), b"")

    @pytest.mark.parametrize("argv,message", [
        (("synth", "--samples", "abc"), "argument --samples: expected an integer, got 'abc'"),
        (("bench-ideal", "--dataset", "wflw:{data}/missing.txt"), "{data}/missing.txt"),
    ])
    def test_input_error_is_one_line_and_exit_2(self, data_dir, argv, message):
        proc = run_entry(*(a.format(data=data_dir) for a in argv))
        assert (proc.returncode, proc.stdout) == (2, b"")
        lines = proc.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert message.format(data=data_dir) in lines[0]

    def test_help_exits_zero(self):
        proc = run_entry("synth", "--help")
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout.startswith(b"usage: subpix synth ")

    def test_out_files_are_complete(self, capsys, data_dir, tmp_path):
        argv = ("bench-ideal", "--dataset", f"json:{data_dir / 'gt98.json'}", "--format", "json")
        rc, report, _ = run_cli(capsys, *argv, "--ced-out", str(tmp_path / "main_"))
        proc = run_entry(*argv, "--out", str(tmp_path / "report.json"),
                         "--ced-out", str(tmp_path / "entry_"))
        assert (rc, proc.returncode, proc.stdout, proc.stderr) == (0, 0, b"", b"")
        assert (tmp_path / "report.json").read_text() == report
        for scheme in SCHEME_ORDER:
            name = f"{scheme.value}.csv"
            assert (tmp_path / f"entry_{name}").read_bytes() == \
                (tmp_path / f"main_{name}").read_bytes()
        argv = ("convert", "--dataset", f"wflw:{data_dir / 'list.txt'}", "--out")
        assert run_cli(capsys, *argv, str(tmp_path / "main.json"))[0] == 0
        proc = run_entry(*argv, str(tmp_path / "entry.json"))
        assert (proc.returncode, proc.stdout) == (0, b"")
        assert (tmp_path / "entry.json").read_bytes() == (tmp_path / "main.json").read_bytes()

    @pytest.mark.skipif(os.name != "posix", reason="closes stdout with a POSIX shell")
    def test_closed_stdout_is_an_error(self):
        # `subpix synth >&-`: the interpreter starts with sys.stdout None; with
        # --help, argparse alone would print the usage on stderr and exit 0
        env = child_env()
        env.pop("PYTHONUNBUFFERED", None)
        for argv in (("synth", "--samples", "10"), ("synth", "--help")):
            proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *ENTRY, *argv],
                                  stderr=subprocess.PIPE, env=env, timeout=300)
            assert (proc.returncode, proc.stderr) == \
                (2, b"error: [Errno 9] Bad file descriptor: '<stdout>'\n"), argv

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv,buffered", [
        (("synth", "--samples", "10"), True),   # the flush after the report fails
        (("synth", "--samples", "10"), False),  # the write itself fails
        (("synth", "--help"), True),            # the flush after the help text fails
        (("synth", "--help"), False),           # the help text's write itself fails
    ])
    def test_full_device_is_an_error(self, argv, buffered):
        env = child_env()
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "wb") as full:
            proc = subprocess.run([*ENTRY, *argv], stdout=full, stderr=subprocess.PIPE,
                                  env=env, timeout=300)
        assert proc.returncode == 2
        assert proc.stderr == b"error: [Errno 28] No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_help_write_error_as_json(self):
        # --json-errors covers the help text's failed write
        env = child_env()
        env.pop("PYTHONUNBUFFERED", None)
        with open("/dev/full", "wb") as full:
            proc = subprocess.run([*ENTRY, "synth", "--json-errors", "--help"], stdout=full,
                                  stderr=subprocess.PIPE, env=env, timeout=300)
        assert (proc.returncode, proc.stderr) == (2, b'{"error": "[Errno 28] No space left '
                                                     b'on device", "kind": "input", "type": '
                                                     b'"OSError"}\n')

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [
        ("synth", "--samples", "abc"),  # the error line cannot be written
        ("convert", "--dataset", "wflw:{data}/list.txt", "--out", "{out}"),  # nor its notice
    ])
    def test_full_stderr_is_still_exit_2(self, data_dir, tmp_path, argv):
        argv = [a.format(data=data_dir, out=tmp_path / "out.json") for a in argv]
        with open("/dev/full", "wb") as full:
            proc = subprocess.run([*ENTRY, *argv], stdout=subprocess.PIPE, stderr=full,
                                  env=child_env(), timeout=300)
        assert (proc.returncode, proc.stdout) == (2, b"")

    def test_report_stdout_cannot_encode_is_an_error(self, capsys, corpus68, tmp_path):
        # an ASCII locale without UTF-8 mode: stdout cannot hold the dataset's
        # name, a file written with --out can
        write_canonical(tmp_path / "gt.json", replace(corpus68[:4], name="visages-é"))
        argv = ("bench-ideal", "--dataset", f"json:{tmp_path / 'gt.json'}", "--format", "table")
        rc, report, _ = run_cli(capsys, *argv)
        assert rc == 0 and "visages-é" in report
        env = dict(child_env(), PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C")
        env.pop("PYTHONIOENCODING", None)
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.run([*ENTRY, *argv], capture_output=True, env=env, timeout=300)
        assert (proc.returncode, proc.stdout, proc.stderr.count(b"\n")) == (2, b"", 1)
        assert proc.stderr.startswith(b"error: <stdout>: cannot encode ")
        proc = subprocess.run([*ENTRY, *argv, "--out", str(tmp_path / "report.txt")],
                              capture_output=True, env=env, timeout=300)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        assert (tmp_path / "report.txt").read_bytes() == report.encode("utf-8")

    def test_importing_main_module_returns(self):
        # pydoc and package walkers import __main__; only running it runs entry()
        proc = subprocess.run([sys.executable, "-c", "import subpix.__main__; print('back')"],
                              capture_output=True, env=child_env(), timeout=300)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"back\n", b"")
