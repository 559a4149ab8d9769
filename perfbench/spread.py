"""Run-to-run spread of the end-to-end metrics, over several seeds.

For each workload, runs ``run.py --trace 0`` once per seed, one run at a
time, and prints for every metric the median and the distance between the
first and third quartiles as a share of the median. This is how a bound in
``BENCHMARK.json`` is checked against the noise of the machine::

    python3 perfbench/spread.py --seeds 1-10 --seconds 25 [--out FILE] [WORKLOAD ...]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else float("inf"), "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("workloads", nargs="*")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--out", help="also write the summary here as JSON")
    args = p.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary: dict = {"seconds": args.seconds, "seeds": parse_seeds(args.seeds),
                     "workloads": {}}
    for name in names:
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                 str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=600, cwd=HERE.parent)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            prov = json.loads(next(x for x in lines if x.startswith("# provenance "))[13:])
            summary["machine"] = {k: prov[k] for k in ("cores", "machine", "python", "numpy",
                                                       "subpix", "git_commit", "src_sha256")}
            if not result["correct"]:
                print(f"{name} seed {seed}: incorrect output", file=sys.stderr)
                return 1
            runs.append(result["metrics"])
        summary["workloads"][name] = {}
        for metric in runs[0]:
            s = summarize([r[metric]["value"] for r in runs])
            summary["workloads"][name][metric] = s
            flag = "" if s["iqr_share"] < bounds[metric] / 3 else "  <-- above bound/3"
            print(f"{name:<14}{metric:<14}median {s['median']:>14.6g}  "
                  f"iqr/median {s['iqr_share']:.4f}  bound {bounds[metric]}{flag}",
                  flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
