"""Tests of the benchmark itself: smoke runs and the output checks.

Each workload runs end to end at a tiny size in both modes, and each
output check is shown to reject a deliberately corrupted output.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import types
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import corpus  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import MC_N_FACTOR, WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=300, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run(workload, trace):
    proc = _bench(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                   "--trace", str(trace), "--size", "tiny"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_declared_workloads_exist():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


def test_refuses_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(["--workload", "synth-mc", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_inputs_depend_only_on_seed():
    a = corpus.wflw_text(corpus.make_faces(3, 7))
    assert a == corpus.wflw_text(corpus.make_faces(3, 7))
    assert a != corpus.wflw_text(corpus.make_faces(3, 8))


# -- output checks reject corrupted outputs ----------------------------------------


def _cli(argv) -> bytes:
    from subpix import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue().encode()


def _flip_digit(text: bytes, anchor: bytes) -> bytes:
    """Change the last digit of the first number after ``anchor``."""
    start = text.index(anchor) + len(anchor)
    end = start
    while chr(text[end]) in "0123456789.-e+":
        end += 1
    k = end - 1
    digit = b"1" if text[k:k + 1] != b"1" else b"2"
    return text[:k] + digit + text[k + 1:]


@pytest.fixture(scope="module")
def ideal(tmp_path_factory):
    path = tmp_path_factory.mktemp("ideal") / "wflw.txt"
    path.write_text(corpus.wflw_text(corpus.make_faces(4, 5)))
    return _cli(["bench-ideal", "--dataset", f"wflw:{path}", "--format", "json"]), path


def test_ideal_check_accepts_and_rejects(ideal):
    out, _ = ideal
    assert checks.check_ideal_report(out, 4) == []
    assert checks.check_ideal_report(out, 5)                  # wrong image count
    assert checks.check_ideal_report(out[:-20], 4)            # truncated JSON
    doc = json.loads(out)
    doc["rows"][2]["nme_percent"] = 1e-6                      # wov over its bound
    assert checks.check_ideal_report(json.dumps(doc), 4)
    for key in ("nme_percent", "auc", "failure_rate_percent", "conflicts", "ced"):
        doc = json.loads(out)
        wsm = doc["rows"][1]
        wsm[key] = wsm[key][1:] if key == "ced" else wsm[key] + 1
        assert checks.check_ideal_report(json.dumps(doc), 4), key
    flipped = _flip_digit(out, b'"scheme":"hih"')
    assert flipped != out
    assert checks.check_same_bytes(out, flipped)
    assert checks.check_same_bytes(out, out) == []


def test_per_image_wsm_check(ideal):
    from subpix.bench import BenchConfig, run_ideal
    from subpix.datasets import load_wflw

    _, path = ideal
    report = run_ideal(load_wflw(path)[1], BenchConfig())
    assert checks.check_per_image_wsm(report) == []
    wsm = next(r for r in report.rows if r.scheme.value == "wsm")
    wsm.per_image[2] = replace(wsm.per_image[2],
                               nme=float(np.nextafter(wsm.per_image[2].nme, 1.0)))
    assert checks.check_per_image_wsm(report)


def test_synth_check_accepts_and_rejects():
    out = _cli(["synth", "--samples", "4000", "--landmarks", "4", "--seed", "2",
                "--n-factor", str(MC_N_FACTOR), "--format", "json"])
    assert checks.check_synth_report(out, 4000, MC_N_FACTOR) == []
    doc = json.loads(out)
    direct = doc["rows"][0]
    direct["mean_px_error"] += 6 * direct["px_error_se"]
    assert checks.check_synth_report(json.dumps(doc), 4000, MC_N_FACTOR)
    doc = json.loads(out)
    doc["rows"][2]["mean_px_error"] = 1e-17
    assert checks.check_synth_report(json.dumps(doc), 4000, MC_N_FACTOR)


# -- tracer -------------------------------------------------------------------------


def test_tracer_restores_and_nests():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original = (mod.inner, mod.outer)
    tracer = Tracer()
    seen = []
    with tracer.patched([(mod, "inner", "layer.inner", None),
                         (mod, "outer", "layer.outer",
                          lambda c, result, x: seen.append(result))]):
        assert mod.outer(1) == 4
    assert (mod.inner, mod.outer) == original and seen == [4]
    ids = {s[1]: s for s in tracer.spans}
    assert ids["layer.inner"][4] == ids["layer.outer"][0]
    assert tracer.total_outermost("layer.") == pytest.approx(tracer.total("layer.outer"))
    assert tracer.self_time("layer.outer") == pytest.approx(
        tracer.total("layer.outer") - tracer.total("layer.inner"))
