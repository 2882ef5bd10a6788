"""Measure the benchmark's baseline and write ``perfbench/baseline.json``.

    python3 perfbench/baseline.py --runs 10 --commit <sha> [--first-seed 1] [--out FILE]

Runs every workload ``--runs`` times untraced, each with another seed,
and once traced; then the re-anchor script.  Records, per workload and
end-to-end metric, the median, the quartiles, their distance as a share
of the median (the spread the bounds are checked against) and the sample
count, plus the traced run's per-layer values and the machine facts.
Takes about 25 minutes with ten runs.  A second set on other seeds, written
to another file, checks that two sets of runs agree within the bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# single-run figures from the ROADMAP's re-anchor, for comparison
ROADMAP = {"key_ms_n15": 0.9, "key_ms_n31": 3.5, "key_ms_n63": 18.0,
           "nodes_per_s_with_seed": 27.0, "u_minus_pretzel_444_s": 5.0}


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True, check=True, timeout=400,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "samples": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--commit", required=True)
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    out = {
        "commit": args.commit,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "processor": platform.processor() or platform.machine(),
        },
        "run_seconds": seconds,
        "workloads": {},
    }
    for wl in spec["workloads"]:
        name = wl["name"]
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            res = run(name, seed, seconds, 0)
            if not res["correct"]:
                raise SystemExit(f"{name} seed {seed}: outputs failed the checks")
            for metric, m in res["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(name, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        traced = run(name, args.first_seed, seconds, 1)
        out["workloads"][name] = {
            "end_to_end": {k: {**summary(v), "values": v} for k, v in values.items()},
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    reanchor = subprocess.run(
        [sys.executable, str(HERE / "reanchor.py")], cwd=str(ROOT), check=True,
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    out["reanchor"] = {"roadmap": ROADMAP, "measured": json.loads(reanchor.stdout)}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
