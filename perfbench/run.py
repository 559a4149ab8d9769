"""subpix benchmark: one workload, one seed, one result line.

Usage, from the root of a source checkout (the package is imported from
``src/``; nothing needs installing)::

    python3 perfbench/run.py --workload ideal-wflw98 --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
``--trace 1`` runs a fixed amount of the same work once plain and once with
spans around every layer boundary (see ``layers.py``), and reports the
per-layer metrics plus the tracing overhead. Every output is checked; the
last stdout line is the JSON result, earlier lines are for people. A copy
of the result with its provenance, and the spans of a traced run, are
written under ``.perfbench/results/``.
"""

from __future__ import annotations

import os

# one process, one thread: keep BLAS pools out of every measured process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: plain and traced passes alternated in a ``--trace 1`` run
TRACE_REPS = 3
#: no single child process may run longer than this
CHILD_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The benchmark cannot run here (not a failed operation)."""


# -- child processes ----------------------------------------------------------


def run_child(cmd: list[str], env: dict, cwd: Path, out_path: Path,
              ) -> tuple[float, float, int, bytes, bytes]:
    """Run ``cmd`` to completion; wall seconds, peak RSS in MB, exit code, output.

    ``os.wait4`` gives the child's own resource usage, so the peak RSS is
    that of this process alone.
    """
    err_path = out_path.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_maxrss / 1024.0, proc.returncode,
            out_path.read_bytes(), err_path.read_bytes())


def probe_versions(env: dict, root: Path, work: Path) -> dict:
    """Import subpix once (compiling its bytecode) and report the versions."""
    probe = ("import subpix, numpy, platform; print(subpix.__version__, "
             "numpy.__version__, platform.python_version())")
    _, _, rc, out, err = run_child([sys.executable, "-c", probe], env, root,
                                   work / "probe.out")
    if rc != 0:
        raise BenchError(f"cannot import subpix from src/: {err.decode()[-400:]}")
    subpix_v, numpy_v, python_v = out.decode().split()
    return {"subpix": subpix_v, "numpy": numpy_v, "python": python_v}


def time_import(env: dict, root: Path, work: Path) -> float:
    """Wall time of one fresh interpreter running ``import subpix``.

    Runs take one sample after each operation, so that ``setup_s`` spans
    the same stretch of time as the throughput it is reported beside.
    """
    return run_child([sys.executable, "-c", "import subpix"], env, root,
                     work / "setup.out")[0]


# -- statistics ----------------------------------------------------------------


#: below this many operations the highest percentile with ten samples
#: beyond it is under the 83rd, which is no tail; the maximum is reported
TAIL_MIN_SAMPLES = 60


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: value, pct, n.

    A CLI workload completes a few dozen invocations at most in a run, so
    it reports its maximum, labelled as the 100th percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < TAIL_MIN_SAMPLES:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


# -- untraced runs ------------------------------------------------------------


def untraced_cli(prep, env, root, work, seconds) -> dict:
    cmd = [sys.executable, "-m", "subpix", *prep.argv]
    walls, rss, setup, failed, problems = [], [], [], 0, []
    first = None
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        wall, peak, rc, out, err = run_child(cmd, env, root, work / "cli.out")
        walls.append(wall)
        rss.append(peak)
        setup.append(time_import(env, root, work))
        found = [f"exit code {rc}: {err.decode()[-300:]}"] if rc != 0 else prep.check(out)
        if first is None:
            first = out
        else:
            found += checks.check_same_bytes(first, out)
        if found:
            failed += 1
            problems.extend(found)
    return {"latencies": walls, "rss": rss, "setup": setup, "failed": failed,
            "problems": problems}


def end_to_end(res: dict, items_per_op: int) -> tuple[dict, dict]:
    """The end-to-end metrics, and the figures printed beside them."""
    lat = res["latencies"]
    value, pct, n = tail(lat)
    return {
        "setup_s": (statistics.median(res["setup"]), "s"),
        "items_per_s": (items_per_op * len(lat) / sum(lat), "1/s"),
        "peak_rss_mb": (statistics.median(res["rss"]), "MB"),
        "op_tail_ms": (1000.0 * value, "ms"),
    }, {"op_p50_ms": 1000.0 * statistics.median(lat), "op_tail_percentile": pct,
        "op_samples": n, "setup_samples": len(res["setup"])}


# -- traced runs --------------------------------------------------------------


def _alternate(rep: int) -> tuple[Tracer | None, Tracer | None]:
    """A plain pass (None) and a traced one, the first of the pair alternating."""
    pair = (None, Tracer())
    return pair if rep % 2 == 0 else pair[::-1]


def _import_subpix(root: Path):
    sys.path.insert(0, str(root / "src"))
    import subpix
    import subpix.cli
    return subpix


def _cli_pass(subpix, argv: list[str]) -> tuple[float, bytes]:
    buf = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(buf):
        rc = subpix.cli.main(list(argv))
    elapsed = time.perf_counter() - start
    if rc != 0:
        raise BenchError(f"in-process subpix {argv[0]} returned {rc}")
    return elapsed, buf.getvalue().encode()


def _report_counts(name: str, prep, out: bytes) -> dict[str, int]:
    """Exact counts the plain run's own output implies, per scheme."""
    doc = json.loads(out)
    per_point = prep.input_size["landmarks"]
    counts = {}
    for row in doc["rows"]:
        s = row["scheme"]
        counts[f"codec.points.{s}"] = row["n_images"] * per_point
        counts[f"codec.conflicts.{s}"] = row["conflicts"]
        counts[f"codec.clamped.{s}"] = row["clamped_points"]
    if name == "ideal-wflw98":
        counts["bench.skipped"] = doc["skipped"]
    return counts


def traced_cli(name, prep, subpix, env, root, work) -> tuple[dict, dict, Tracer]:
    """CLI wall time, a plain and a traced in-process pass, interleaved."""
    cmd = [sys.executable, "-m", "subpix", *prep.argv]
    problems: list[str] = []
    walls, setup, plain, traced, tracers, outputs = [], [], [], [], [], []
    captured: dict = {}
    _cli_pass(subpix, prep.argv)  # warm-up: first-call imports and caches
    for rep in range(TRACE_REPS):
        wall, _, rc, out, err = run_child(cmd, env, root, work / "cli.out")
        if rc != 0:
            raise BenchError(f"subpix {prep.argv[0]} exited {rc}: {err.decode()[-300:]}")
        walls.append(wall)
        outputs.append(out)
        setup.append(time_import(env, root, work))
        for tracer in _alternate(rep):
            if tracer is None:
                elapsed, out = _cli_pass(subpix, prep.argv)
                plain.append(elapsed)
            else:
                tracer.op_id = rep
                with tracer.patched(layers.targets(captured)), tracer.span("cli.main"):
                    elapsed, out = _cli_pass(subpix, prep.argv)
                traced.append(elapsed)
                tracers.append(tracer)
            outputs.append(out)
    for out in outputs:
        problems += prep.check(out)
        problems += checks.check_same_bytes(outputs[0], out)
    if "report" in captured:
        problems += checks.check_per_image_wsm(captured["report"])
    problems += _compare_counts(tracers, _report_counts(name, prep, outputs[0]))
    timing = {"items": prep.items, "traced_s": statistics.median(traced),
              "untraced_s": statistics.median(plain),
              "cli_overhead_s": (statistics.median(walls) - statistics.median(setup)
                                 - statistics.median(plain))}
    ops = {"attempted": len(outputs), "failed": len(outputs) if problems else 0,
           "problems": problems}
    return timing, ops, tracers[-1]


def _compare_counts(tracers: list[Tracer], expected: dict[str, int]) -> list[str]:
    """Tracing must see exactly the work the plain run reports, every time."""
    problems = []
    first = tracers[0].counts
    if any(t.counts != first for t in tracers[1:]):
        problems.append("exact counts differ between traced passes")
    for key, value in expected.items():
        if first.get(key, 0) != value:
            problems.append(f"traced {key} = {first.get(key, 0)}, plain run implies {value}")
    return problems


# -- provenance -----------------------------------------------------------------


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = root / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


# -- main -----------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input size; 'tiny' is for the benchmark's own smoke tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "subpix" / "__init__.py").is_file():
        print("error: run from the root of a subpix checkout (src/subpix not found)",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    results_dir = root / ".perfbench" / "results"
    work = root / ".perfbench" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    results_dir.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    try:
        prep = wl.prepare(work, args.seed, wl.sizes[args.size])
        versions = probe_versions(env, root, work)
        tracer, latencies, setup_samples = None, None, None
        if args.trace:
            subpix = _import_subpix(root)
            timing, ops, tracer = traced_cli(wl.name, prep, subpix, env, root, work)
            metrics = layers.layer_metrics(tracer, timing)
            detail = {"traced_passes": TRACE_REPS}
            attempted, failed, problems = ops["attempted"], ops["failed"], ops["problems"]
        else:
            res = untraced_cli(prep, env, root, work, args.seconds)
            metrics, detail = end_to_end(res, prep.items)
            latencies, setup_samples = res["latencies"], res["setup"]
            attempted, failed = len(latencies), res["failed"]
            problems = res["problems"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    provenance = {
        "workload": wl.name, "why": wl.why, "item": wl.item, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "input_size": prep.input_size, "cores": os.cpu_count(),
        "machine": platform.machine(), **versions,
        "git_commit": git_commit(root), "src_sha256": source_digest(root),
        **detail,
    }
    error_rate = failed / attempted
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(results_dir / f"{stem}.spans.jsonl")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (results_dir / f"{stem}.json").write_text(json.dumps(
        {"provenance": provenance, "error_rate": error_rate, "problems": problems[:50],
         "op_latencies_s": latencies, "setup_samples_s": setup_samples, **result},
        indent=1) + "\n")

    print(f"# provenance {json.dumps(provenance, sort_keys=True)}")
    for p in problems[:10]:
        print(f"# problem: {p}")
    for k, (v, u) in metrics.items():
        print(f"# {k:<32} {v:>16.6g} {u}")
    if "op_p50_ms" in detail:
        print(f"# {'op_p50_ms':<32} {detail['op_p50_ms']:>16.6g} ms "
              f"(tail is p{detail['op_tail_percentile']:.4g} of {detail['op_samples']})")
    print(f"# {'error_rate':<32} {error_rate:>16.6g} ({failed} of {attempted} operations)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
