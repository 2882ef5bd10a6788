"""Run one splicecap benchmark workload and print its metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload table --seed 1 --seconds 50 --trace 0

The workload runs in fresh single-threaded interpreters, one at a time:
``SETUP_EACH_SIDE`` set-up-only runs, the measured run, whose set-up is
one more set-up sample, and ``SETUP_EACH_SIDE`` set-up-only runs again.
Set-up time is measured here, from process start to the worker's
``READY`` line; it is the median of all the samples.  The machine's speed
changes every few seconds, so the samples are taken on both sides of the
timed phase, about a minute apart, rather than all at once.  The worker runs the timed
closed loop and checks every output afterwards.  With ``--trace 1`` it also
reports the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_EACH_SIDE = 15
RUN_LIMIT_S = 170.0  # the worker stops itself at 150 s; this is the backstop
WORKLOADS = ("table", "descent")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONUNBUFFERED"] = "1"
    return env


def start_worker(args, setup_only: bool) -> tuple[subprocess.Popen, float]:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env(), cwd=str(ROOT))
    return proc, t0


def wait_ready(proc: subprocess.Popen, t0: float) -> float:
    line = proc.stdout.readline()
    if line.strip() != "READY":
        raise RuntimeError(f"worker did not finish set-up: {line.strip()!r}")
    return time.perf_counter() - t0


def finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker exceeded the run limit and was stopped")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "splicecap" / "__init__.py").is_file():
        print(f"error: no splicecap sources under {SRC}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S

    procs, setup = [], []

    def setup_only_runs() -> None:
        for _ in range(SETUP_EACH_SIDE):
            proc, t0 = start_worker(args, setup_only=True)
            procs.append(proc)
            setup.append(wait_ready(proc, t0))
            finish(proc, deadline)

    try:
        setup_only_runs()
        proc, t0 = start_worker(args, setup_only=False)
        procs.append(proc)
        setup.append(wait_ready(proc, t0))
        lines = finish(proc, deadline).splitlines()
        setup_only_runs()
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()

    for line in lines[:-1]:
        print(line)
    res = json.loads(lines[-1])
    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        metrics = res["per_layer"]
    else:
        lat = res["latencies_ms"]
        lat_tail, pct = tail(lat)
        metrics = {
            "ops_per_s": {"value": len(lat) / res["elapsed_s"], "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(lat), "unit": "ms"},
            "op_tail_ms": {"value": lat_tail, "unit": "ms"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        print(f"{len(lat)} ops in {res['elapsed_s']:.2f} s; "
              f"op_tail_ms is p{pct} of {len(lat)} op latencies")
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup)}")
        print(f"failed_share: {failed / attempted:.4f} share ({failed} of {attempted})")
        for name in ("exact_share", "bound_sum"):
            if name in res["quality"]:
                q = res["quality"][name]
                print(f"{name}: {q['value']} {q['unit']}")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"run wall time {time.perf_counter() - start:.1f} s")
    print(json.dumps({
        "correct": bool(res["correct"]) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
