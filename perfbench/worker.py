"""One workload run in a fresh interpreter (started by ``run.py``).

Set-up imports the package and builds the seeded inputs, then prints
``READY``.  The timed phase is the workload's closed loop; every output is
checked after it.  With ``--trace 1`` the loop runs twice on the same op
sequence: untraced for half the time, then traced with spans around every
call into the package, which gives the per-layer metrics and the tracing
overhead.  The last stdout line is a JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import splicecap as sc
from splicecap import families, search

import probes
import tracing
from workloads import WORKLOADS, fresh

HARD_LIMIT_S = 150.0


class Unfinished(BaseException):
    """Raised by the watchdog inside an op that runs past the hard limit."""


@dataclass
class Result:
    op: object
    result: object
    error: str | None
    seconds: float


def package_api():
    names = ("ingest_table", "ingest_external", "verify_observation",
             "emit_report", "u_minus", "crosscap_alt",
             "connected_sum", "gen_family")
    return SimpleNamespace(**{n: getattr(sc, n) for n in names})


class Caches:
    """The package's two process-global caches: the descent memo and the
    family keys.  ``reset`` returns them to their import-time state, so a
    batch starts cold.  They are named, not searched for, so that a renamed
    cache stops the run instead of letting it run warm."""

    def __init__(self):
        self.memo = search._UMINUS_MEMO
        self.memo_initial = dict(self.memo)
        self.family_keys = families._family_keys_by_count

    def reset(self) -> None:
        self.memo.clear()
        self.memo.update(self.memo_initial)
        self.family_keys.cache_clear()


def run_loop(wl, inputs, api, caches, out_dir, seconds, tracer=None, op_count=None):
    """The closed loop.  Stops after ``op_count`` ops when given, else at
    the first end of a cycle of ``wl.cycle`` ops after ``seconds``, so
    that every run does whole cycles.  Returns the results and the
    elapsed time."""
    results: list[Result] = []
    t0 = time.perf_counter()

    def done() -> bool:
        if op_count is not None:
            return len(results) >= op_count
        return len(results) % wl.cycle == 0 and time.perf_counter() - t0 >= seconds

    for batch in wl.batches(inputs):
        caches.reset()
        first = len(results)
        for op in batch:
            m = fresh(op.map)
            if tracer is not None:
                tracer.op = len(results)
            start = time.perf_counter()
            try:
                out, err = wl.run(api, op, m), None
            except Unfinished:
                results.append(Result(op, None, "unfinished at the time limit", 0.0))
                return results, time.perf_counter() - t0
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                out, err = None, f"{type(exc).__name__}: {exc}"
            results.append(Result(op, out, err, time.perf_counter() - start))
            if done():
                break
        wl.end_batch(api, results[first:], out_dir)
        if done():
            return results, time.perf_counter() - t0


def check_results(wl, results) -> tuple[int, list[str]]:
    """Failed op count and the first few messages."""
    failed, messages = 0, []
    for r in results:
        msg = r.error
        if msg is None:
            try:
                msg = wl.check(r.op, fresh(r.op.map), r.result)
            except Exception as exc:  # noqa: BLE001 - a check that raises fails
                msg = f"check raised {type(exc).__name__}: {exc}"
        if msg is not None:
            failed += 1
            if len(messages) < 5:
                messages.append(f"{r.op.label}: {msg}")
    return failed, messages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    api = package_api()
    caches = Caches()
    tracer = tracing.Tracer()
    saved = tracing.install(tracer, api) if args.trace else []
    tracer.enabled = bool(args.trace)
    inputs = wl.setup(args.seed, api, tracer)
    tracer.enabled = False
    tracing.uninstall(saved)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    def on_alarm(signum, frame):
        raise Unfinished()

    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, HARD_LIMIT_S)
    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    if args.trace:
        # untraced for half the time, then the same ops traced
        results, elapsed = run_loop(wl, inputs, api, caches, out_dir, args.seconds / 2)
        mark = tracer.mark()
        saved = tracing.install(tracer, api)
        tracer.enabled = True
        traced, traced_elapsed = run_loop(wl, inputs, api, caches, out_dir, 0,
                                          tracer, len(results))
        tracer.enabled = False
        tracing.uninstall(saved)
        results += traced
    else:
        results, elapsed = run_loop(wl, inputs, api, caches, out_dir, args.seconds)
    signal.setitimer(signal.ITIMER_REAL, 0)
    failed, messages = check_results(wl, results)
    run_errors = wl.check_run(results, out_dir)
    for msg in messages + run_errors:
        print(f"check failed: {msg}")
    print("inputs: " + json.dumps(wl.describe(inputs, args.seed)))
    per_layer = None
    if args.trace:
        spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        per_layer = probes.per_layer(wl, inputs, tracer, mark, elapsed,
                                     traced_elapsed, results, units)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        for name, (secs, calls) in sorted(tracer.self_times(mark).items()):
            print(f"self time {name}: {secs:.4f} s over {calls} calls")
        print(f"spans written to {spans_path}")
    print(json.dumps({
        "attempted": len(results),
        "failed": failed,
        "correct": failed == 0 and not run_errors,
        "elapsed_s": elapsed,
        "latencies_ms": [r.seconds * 1e3 for r in results],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "quality": wl.quality(results),
        "per_layer": per_layer,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
