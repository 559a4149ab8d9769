"""Acceptance criteria, one test per criterion, one verdict line each.

Each test records ``[acceptance] criterion N: PASS|FAIL|SKIPPED - detail``;
the conftest terminal-summary hook replays every recorded line after the
test summary, outside pytest's output capture, so the verdicts appear in
any tee'd log. Criteria needing real dataset files are gated on
environment variables and report SKIPPED when those are absent:

* ``SUBPIX_WFLW_ANNOTATIONS``: path to the real WFLW test annotation list.
* ``SUBPIX_300W_DIR``: directory tree of real 300W ``.pts`` files.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from collections import Counter

import conftest
import numpy as np
import pytest
from conftest import (MALFORMED_PTS, child_env, make_wflw_line,
                      malformed_canonical_docs, malformed_wflw_lines,
                      write_wflw_file)

from subpix.bench import BenchConfig, _face_maps, analytic_direct_error, build_samples, run_ideal
from subpix.codec import CodecConfig, Scheme, ideal_roundtrip
from subpix.datasets import (load_canonical, load_pts_dir, load_wflw,
                             parse_pts, parse_wflw_line, subset_counts,
                             write_canonical)
from subpix.errors import ParseError
from subpix.geometry import heatmap_transform
from subpix.metrics import ced_auc, failure_rate

WFLW_ENV = "SUBPIX_WFLW_ANNOTATIONS"
W300_ENV = "SUBPIX_300W_DIR"

CLI = [sys.executable, "-m", "subpix"]


def report(n: int, status: str, detail: str) -> None:
    line = f"[acceptance] criterion {n}: {status} - {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    try:  # also useful live under -s / --capture=no
        sys.__stderr__.write(line + "\n")
        sys.__stderr__.flush()
    except (OSError, ValueError):
        pass


def verdict(n: int, ok: bool, detail: str) -> None:
    report(n, "PASS" if ok else "FAIL", detail)
    assert ok, f"criterion {n}: {detail}"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(CLI + list(args), capture_output=True, env=child_env(), timeout=300)


@pytest.fixture(scope="module")
def reports(corpus98, corpus68):
    cfg = BenchConfig(seed=1)
    return {
        98: run_ideal(corpus98, cfg),
        68: run_ideal(corpus68, cfg),
    }


def scheme_row(report_, scheme):
    return next(r for r in report_.rows if r.scheme is scheme)


def test_criterion_1_wov_exactness(reports):
    worst = max(scheme_row(r, Scheme.WOV).nme * 100.0 for r in reports.values())
    verdict(1, worst < 1e-7,
            f"WOV ideal NME {worst:.3e} percent across both synthetic corpora "
            f"(bound 1e-7)")


def test_criterion_2_wsm_equals_direct(reports):
    worst = 0.0
    images = 0
    for rep in reports.values():
        direct = scheme_row(rep, Scheme.DIRECT).per_image
        wsm = scheme_row(rep, Scheme.WSM).per_image
        for a, b in zip(direct, wsm):
            assert a.id == b.id
            worst = max(worst, abs(a.nme - b.nme))
            images += 1
    verdict(2, worst <= 1e-12,
            f"per-image |NME(WSM) - NME(DIRECT)| max {worst:.3e} over "
            f"{images} samples (bound 1e-12)")


def test_criterion_3_montecarlo_analytic():
    t0 = time.monotonic()
    proc = run_cli("synth", "--samples", "1e6", "--n-factor", "4",
                   "--seed", "1", "--schemes", "direct", "--format", "json")
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stderr.decode()
    row = json.loads(proc.stdout)["rows"][0]
    mean, se = row["mean_px_error"], row["px_error_se"]
    analytic = analytic_direct_error(4.0)
    dev = abs(mean - analytic) / se
    verdict(3, dev < 3.0 and elapsed < 30.0,
            f"mean {mean:.6f} vs analytic {analytic:.6f} = {dev:.2f} SE "
            f"(bound 3), {elapsed:.1f}s (bound 30)")


def test_criterion_4_hih_residual_bound():
    t0 = time.monotonic()
    k = (np.arange(1024) + 0.0) / 1024.0
    fx, fy = np.meshgrid(k, k, indexing="ij")
    lattice = np.stack([fx.ravel(), fy.ravel()], axis=1)
    ok = True
    details = []
    for wo in (4, 8, 16):
        cfg_h = CodecConfig(scheme=Scheme.HIH, decimal_shape=(wo, wo))
        cfg_d = CodecConfig(scheme=Scheme.DIRECT)

        pts = lattice + np.array([10.0, 20.0])  # interior cell
        hih, clamped, _ = ideal_roundtrip(pts, cfg_h)
        resid = np.abs(hih - pts)
        assert not clamped.any()
        interior_ok = resid.max() <= 0.5 / wo + 1e-12

        edge = lattice + np.array([63.0, 63.0])  # carry clamps at the border
        hih_e, clamped_e, _ = ideal_roundtrip(edge, cfg_h)
        resid_e = np.abs(hih_e - edge).max(axis=1)
        edge_ok = bool(resid_e.max() <= 1.0 / wo + 1e-12
                       and resid_e[~clamped_e].max() <= 0.5 / wo + 1e-12)

        direct, _, _ = ideal_roundtrip(pts, cfg_d)
        ratio = (np.linalg.norm(direct - pts, axis=1).mean()
                 / np.linalg.norm(hih - pts, axis=1).mean())
        ratio_ok = 0.9 * wo <= ratio <= 1.1 * wo

        ok = ok and interior_ok and edge_ok and ratio_ok
        details.append(f"w_o={wo}: ratio {ratio:.3f}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    verdict(4, ok,
            "1024x1024 lattice residuals within 0.5/w_o (clamped within 1/w_o); "
            + ", ".join(details) + f"; {elapsed:.1f}s (bound 60)")


def test_criterion_5_wom_conflict_property(corpus98):
    cfg = CodecConfig(scheme=Scheme.WOM)

    # all-distinct cells: exactly zero error
    distinct = np.array([[10.25, 11.75], [20.5, 30.5], [40.9, 50.1]])
    coords, _, conflicts = ideal_roundtrip(distinct, cfg)
    distinct_ok = conflicts == 0 and np.array_equal(coords, distinct)

    # injected collision: error lands exactly on the overwritten landmark
    pts = np.array([[10.25, 11.75], [10.75, 11.25], [40.5, 50.5]])
    coords, _, conflicts = ideal_roundtrip(pts, cfg)
    err = np.linalg.norm(coords - pts, axis=1)
    injected_ok = (conflicts == 1 and err[0] > 0
                   and err[1] == 0.0 and err[2] == 0.0)

    # dataset-level attribution: every nonzero-error landmark shares a cell
    bcfg = BenchConfig(seed=1)
    faces, _ = build_samples(corpus98, bcfg)
    attributable = True
    total_conflicted = 0
    for hm in heatmap_transform(_face_maps(faces, bcfg)[0], cfg.heatmap_shape).apply(
            faces.points):
        cells = [tuple(c) for c in np.floor(hm).astype(int)]
        occupancy = Counter(cells)
        conflicted = {k for k, c in enumerate(cells) if occupancy[c] > 1}
        total_conflicted += len(conflicted)
        coords, _, _ = ideal_roundtrip(hm, cfg)
        nonzero = {int(k) for k in
                   np.nonzero(np.linalg.norm(coords - hm, axis=1) > 0)[0]}
        attributable &= nonzero <= conflicted
    verdict(5, distinct_ok and injected_ok and attributable,
            f"distinct-cell NME 0; injected conflict hits only the overwritten "
            f"landmark; all dataset WOM error inside the {total_conflicted} "
            f"cell-sharing landmarks")


def test_criterion_6_real_dataset_levels():
    wflw_path = os.environ.get(WFLW_ENV)
    w300_path = os.environ.get(W300_ENV)
    if not wflw_path and not w300_path:
        report(6, "SKIPPED",
               f"real annotations not supplied; set {WFLW_ENV} and/or "
               f"{W300_ENV} to run the reference-accuracy comparison")
        pytest.skip("real dataset files not available")

    cfg = BenchConfig(seed=1, crop_margin=0.25)
    checks = []
    ok = True

    def within(value, center, rel):
        return abs(value - center) <= rel * center

    if wflw_path:
        t0 = time.monotonic()
        rep = run_ideal(load_wflw(wflw_path)[1], cfg)
        elapsed = time.monotonic() - t0
        direct = 100 * scheme_row(rep, Scheme.DIRECT).nme
        hih = 100 * scheme_row(rep, Scheme.HIH).nme
        wom = 100 * scheme_row(rep, Scheme.WOM).nme
        ok &= within(direct, 1.285, 0.20)
        ok &= within(hih, 0.182, 0.25)
        ok &= 0.0041 <= wom <= 0.41
        ok &= elapsed < 120.0
        checks.append(f"WFLW direct {direct:.3f} (1.285±20%), hih {hih:.3f} "
                      f"(0.182±25%), wom {wom:.3f} (order 0.041), {elapsed:.0f}s")
    if w300_path:
        t0 = time.monotonic()
        rep = run_ideal(load_pts_dir(w300_path)[1], cfg)
        elapsed = time.monotonic() - t0
        direct = 100 * scheme_row(rep, Scheme.DIRECT).nme
        hih = 100 * scheme_row(rep, Scheme.HIH).nme
        wom = 100 * scheme_row(rep, Scheme.WOM).nme
        ok &= within(direct, 1.111, 0.20)
        ok &= within(hih, 0.157, 0.25)
        ok &= 0.0002 <= wom <= 0.02
        ok &= elapsed < 120.0
        checks.append(f"300W direct {direct:.3f} (1.111±20%), hih {hih:.3f} "
                      f"(0.157±25%), wom {wom:.4f} (order 0.002), {elapsed:.0f}s")
    verdict(6, ok, "; ".join(checks))


def test_criterion_7_metrics_oracle():
    rng = np.random.Generator(np.random.PCG64(2024))
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 60))
        errs = rng.uniform(0.0, 0.3, size=m)
        closed = 1.0 - float(np.mean(np.minimum(errs, 0.1))) / 0.1
        worst = max(worst, abs(ced_auc(errs, 0.1) - closed))
    oracle_ok = worst < 1e-12

    # monotonicity sweeps backing the hypothesis property tests
    errs = rng.uniform(0.0, 0.3, size=50)
    ts = np.linspace(0.01, 0.3, 40)
    aucs = [ced_auc(errs, float(t)) for t in ts]
    frs = [failure_rate(errs, float(t)) for t in ts]
    mono_ok = (all(b >= a - 1e-12 for a, b in zip(aucs, aucs[1:]))
               and all(b <= a for a, b in zip(frs, frs[1:])))
    verdict(7, oracle_ok and mono_ok,
            f"step AUC vs closed form max |diff| {worst:.2e} over 1000 sets "
            f"(bound 1e-12); AUC/FR monotone in threshold")


def test_criterion_8_parser_suite(tmp_path, corpus98):
    # golden round-trips
    pts_golden = parse_pts("version: 1\nn_points: 2\n{\n10.5 20.5\n1.0 1.0\n}\n")
    golden_ok = np.array_equal(pts_golden, [[9.5, 19.5], [0.0, 0.0]])
    line = make_wflw_line()
    _, _, points, bbox, flags = parse_wflw_line(line, lineno=1)
    golden_ok &= points.shape == (98, 2) and len(bbox) == 4 and len(flags) == 6

    f = tmp_path / "list.txt"
    write_wflw_file(corpus98, f)
    golden_ok &= np.array_equal(load_wflw(f)[1].points, corpus98.points)

    # malformed corpus: located errors, zero crashes, zero silent accepts
    def probe(fn, needle):
        try:
            fn()
        except ParseError as exc:
            return needle in str(exc)
        except Exception:
            return False  # wrong exception type counts as a crash
        return False  # accepted malformed input

    cases = 0
    located = 0
    for _name, text in MALFORMED_PTS:
        cases += 1
        located += probe(lambda t=text: parse_pts(t, path="bad.pts"), "bad.pts:")
    for _name, bad_line in malformed_wflw_lines():
        cases += 1
        located += probe(
            lambda ln=bad_line: parse_wflw_line(ln, lineno=3, path="bad.txt"),
            "bad.txt:3")
    for i, (_name, text) in enumerate(malformed_canonical_docs()):
        cases += 1
        doc = tmp_path / f"bad_{i}.json"
        doc.write_text(text)
        located += probe(lambda d=doc: load_canonical(d), doc.name)
    malformed_ok = cases >= 20 and located == cases

    wflw_path = os.environ.get(WFLW_ENV)
    if wflw_path:
        counts = subset_counts(load_wflw(wflw_path)[1])
        subset_ok = counts == {"pose": 326, "expression": 314,
                               "illumination": 698, "make_up": 206,
                               "occlusion": 736, "blur": 773}
        subset_note = f"real-list subset counts {tuple(counts.values())}"
    else:
        subset_ok = True
        subset_note = f"real-list subset counts not checked ({WFLW_ENV} unset)"
    verdict(8, bool(golden_ok) and malformed_ok and subset_ok,
            f"golden round-trips exact; {located}/{cases} malformed cases "
            f"located (need >= 20); {subset_note}")


def test_criterion_9_byte_identical_runs(tmp_path, corpus98, corpus68):
    wflw = tmp_path / "list.txt"
    write_wflw_file(corpus98[:8], wflw)
    gt = tmp_path / "gt.json"
    write_canonical(gt, corpus68)
    payload = tmp_path / "payload.json"
    proc = run_cli("encode", "--scheme", "hih", "--point", "32.65,20.3")
    assert proc.returncode == 0, proc.stderr.decode()
    payload.write_bytes(proc.stdout)

    commands = [
        ("synth", "--samples", "20000", "--seed", "7", "--format", "json"),
        ("synth", "--samples", "5000", "--seed", "3", "--landmarks", "4",
         "--format", "csv"),
        ("bench-ideal", "--dataset", f"wflw:{wflw}", "--format", "json"),
        ("bench-ideal", "--dataset", f"wflw:{wflw}", "--threads", "4",
         "--format", "csv"),
        ("encode", "--scheme", "wom", "--point", "10.25,11.75",
         "--point", "10.75,11.25"),
        ("decode", "--scheme", "hih", "--in", str(payload)),
        ("metrics", "--gt", str(gt), "--pred", str(gt), "--format", "json"),
    ]
    ok = True
    for cmd in commands:
        a = run_cli(*cmd)
        b = run_cli(*cmd)
        assert a.returncode == 0, a.stderr.decode()
        ok &= a.returncode == b.returncode and a.stdout == b.stdout
    verdict(9, ok,
            f"{len(commands)} command reruns with fixed seeds produced "
            f"byte-identical stdout")
