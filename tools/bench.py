#!/usr/bin/env python3
"""Run perfbench on a parent checkout and on this one, in alternating pairs,
and write the per-pair end-to-end metrics to a JSON file.

Each pair runs ``perfbench/run.py --seconds 50 --trace 0`` once in the
parent checkout and once in this one, for the ``table`` and ``descent``
workloads on seeds 3, 4 and 5.  Which side runs first alternates from one
pair to the next, so a slow drift of the machine's speed falls on both
sides.  The file holds every run's metrics, the per-side medians and the
change/parent ratio of each median, both commit ids, each side's line
count of ``src/splicecap/*.py`` and the facts of the machine.  It records only: nothing is compared against a bound.

perfbench's traced ``per_layer`` counts are sums over a run, so they grow
with throughput.  So one ``--trace 1`` run per side and workload, on the
first seed, is recorded per traced op: ``search.u_minus_calls``,
``search.u_upper_nodes`` and ``surfaces.ak_leaves``.  The two sides
complete different numbers of traced ops, so they stop at different points
of the input cycle; the counts are read from each side's span file,
``perfbench/out/spans-<workload>-seed<seed>.jsonl``, over the ops both
sides completed, op ids ``0 … min − 1``.

perfbench's ``peak_rss_mb`` grows with the ops a run completes, since the
harness keeps every op's result.  So each side's peak RSS is also read
after a fixed number of ops (``RSS_OPS``), by running perfbench's own
``worker.run_loop`` with ``op_count`` in a fresh interpreter per side.

The descent's work is counted apart from the clock too: in a fresh
interpreter per side, one pass over seed 3's ``descent`` inputs, each op
cold, records the keys (``_token_key`` calls in ``search``), the children
``_token_children`` yields and the descent memo entries per op
(``keys_per_cold_op``).

It also times scale probes that the 50 s workloads cannot reach, three
times per side, alternating which side runs first, each in a fresh
interpreter (so the descent memo starts cold) under a 120 s timeout: cold
``u_minus`` on ``Pretzel(5,5,5)``, on ``7_4 # 7_4 # 7_4`` and on
``gen_torus(300)``, ``crosscap_alt`` and ``decompose_prime`` (the prime
check that every CLI command runs on every record) on ``gen_torus(600)``,
the canonical key (its length is the value) of a fresh ``gen_torus(600)``, of
the two-curve oriented smoothing of ``gen_torus(32)``, of the split link of
two ``gen_torus(300)`` (built from both words with prefixed labels; the
one key path with several graph components) and of fresh ``gen_torus(8)``,
``(16)`` and ``(32)`` (``perfbench/reanchor.py``'s key sizes), cold
``u_minus`` on ``Pretzel(4,4,4)`` (as in ``reanchor.py``), on
``Pretzel(6,6,6)`` and on ``Torus(5) # Pretzel(3,3,3)`` (long twist
regions, where the descent splices one crossing per region), acceptance
criterion 8's ``u_upper`` call on ``7_4 # 7_4`` (``sum_74.gauss``),
``u_upper`` on it with the default budget, ``u_upper`` with the default
budget on the first 20 records of
``projections_9.gauss`` whose ``u_minus`` is 4 (the set-up finds them and
then empties the descent memo), and ``verify_observation`` with its default
budget on the bundled table and external snapshot.  A probe reading is
its value and seconds, ``"timeout"``, or ``{"error": <last stderr line>}``
when it raises; the file holds every reading and, per side, the median
seconds of the readings that returned a value.

The parent checkout is any directory holding the parent commit's files (a
``git worktree`` or a clone).  Run from anywhere, stdlib only:

    python3 tools/bench.py <parent checkout> BENCH_<n>.json

The twelve runs take about 13 minutes on a 2-vCPU machine, the four traced
runs about 6 more, the fixed-count RSS runs about 2 more, the key counts
under one, and the probes about 11 more (at most 120, if every reading times out).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

CHANGE = Path(__file__).resolve().parent.parent
WORKLOADS = ("table", "descent")
SEEDS = (3, 4, 5)
SECONDS = 50
PROBE_TIMEOUT_S = 120
PROBE_REPEATS = 3
# traced counts recorded per op: name -> (span name, note field or None to
# count the spans)
TRACED_COUNTS = {
    "search.u_minus_calls": ("search.u_minus", None),
    "search.u_upper_nodes": ("search.u_upper", "nodes"),
    "surfaces.ak_leaves": ("surfaces.ak_min_genus", "leaves"),
}
# workload -> ops after which each side's peak RSS is read
RSS_OPS = {"table": 6000, "descent": 6000}
# The peak is the process's own VmHWM: ``ru_maxrss`` also counts the peak
# of the process it was forked from, here this script after reading spans.
RSS_RUN = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, "perfbench")
import worker, tracing
from workloads import WORKLOADS
wl = WORKLOADS[{workload!r}]
api = worker.package_api()
inputs = wl.setup({seed}, api, tracing.Tracer())
with tempfile.TemporaryDirectory() as out:
    results, seconds = worker.run_loop(
        wl, inputs, api, worker.Caches(), Path(out), 0, op_count={ops}
    )
with open("/proc/self/status") as fh:
    kb = next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))
print(json.dumps({{"ops": len(results), "seconds": seconds, "peak_rss_mb": kb / 1024}}))
"""
# Keys (``_token_key`` calls in ``search``), children (items that
# ``_token_children`` yields) and descent memo entries per cold op, over
# one pass of the ``descent`` inputs with the caches reset before each op.
KEYS_RUN = """
import json, sys
sys.path.insert(0, "perfbench")
import worker, tracing
from workloads import WORKLOADS, fresh
from splicecap import search
wl = WORKLOADS["descent"]
api = worker.package_api()
inputs = wl.setup({seed}, api, tracing.Tracer())
caches = worker.Caches()
counts = dict.fromkeys(("keys", "children", "memo_entries"), 0)
token_key, token_children = search._token_key, search._token_children

def counted_key(*args):
    counts["keys"] += 1
    return token_key(*args)

def counted_children(*args):
    for child in token_children(*args):
        counts["children"] += 1
        yield child

search._token_key = counted_key
search._token_children = counted_children
for op in inputs:
    caches.reset()
    wl.run(api, op, fresh(op.map))
    counts["memo_entries"] += len(caches.memo) - len(caches.memo_initial)
ops = len(inputs)
print(json.dumps({{"ops": ops}} | {{f"{{k}}_per_op": v / ops for k, v in counts.items()}}))
"""
# name -> (set-up building ``m`` from the package ``sc``, the timed call)
PROBES = {
    "u_minus Pretzel(5,5,5)": ("m = sc.gen_pretzel(5, 5, 5)", "sc.u_minus(m)[0]"),
    "u_minus 7_4#7_4#7_4": (
        "p = next(e.map for e in sc.ingest_table(sc.bundled_table_path())"
        " if e.name == '7_4')\n"
        "m = sc.connected_sum(sc.connected_sum(p, None, p, None), None, p, None)",
        "sc.u_minus(m)[0]",
    ),
    "u_minus gen_torus(300)": ("m = sc.gen_torus(300)", "sc.u_minus(m)[0]"),
    "crosscap_alt gen_torus(600)": ("m = sc.gen_torus(600)", "sc.crosscap_alt(m)"),
    "decompose_prime gen_torus(600)": ("m = sc.gen_torus(600)", "len(sc.decompose_prime(m))"),
    "canonical_key gen_torus(600)": ("m = sc.gen_torus(600)", "len(m.canonical_key)"),
    "canonical_key oriented smoothing of gen_torus(32)": (
        "t = sc.gen_torus(32)\n"
        "m = sc.smooth(t, t.names[0], sc.SmoothingChoice.ORIENTED)",
        "len(m.canonical_key)",
    ),
    "canonical_key split link of two gen_torus(300)": (
        "w = sc.extract_code(sc.gen_torus(300)).components[0]\n"
        "m = sc.build_map(sc.SignedGaussCode("
        "tuple(tuple((p + l, s) for l, s in w) for p in 'ab')))",
        "len(m.canonical_key)",
    ),
    **{
        f"canonical_key gen_torus({l})": (f"m = sc.gen_torus({l})", "len(m.canonical_key)")
        for l in (8, 16, 32)
    },
    "u_minus Pretzel(4,4,4)": ("m = sc.gen_pretzel(4, 4, 4)", "sc.u_minus(m)[0]"),
    "u_minus Pretzel(6,6,6)": ("m = sc.gen_pretzel(6, 6, 6)", "sc.u_minus(m)[0]"),
    "u_minus Torus(5)#Pretzel(3,3,3)": (
        "m = sc.connected_sum(sc.gen_torus(5), None, sc.gen_pretzel(3, 3, 3), None)",
        "sc.u_minus(m)[0]",
    ),
    "u_upper 7_4#7_4 (criterion 8)": (
        "m = sc.ingest_table(sc.bundled_witness_path().parent / 'sum_74.gauss')[0].map",
        "sc.u_upper(m, sc.SearchBudget(max_crossings=18, max_cost=5, max_nodes=1500))"
        ".value",
    ),
    "u_upper 7_4#7_4 default budget": (
        "m = sc.ingest_table(sc.bundled_witness_path().parent / 'sum_74.gauss')[0].map",
        "sc.u_upper(m).value",
    ),
    "u_upper first 20 u_minus=4 of projections_9, default budget": (
        "from splicecap import search\n"
        "nine = sc.ingest_table(sc.bundled_table_path().parent / 'projections_9.gauss')\n"
        "ms = [e.map for e in nine if sc.u_minus(e.map)[0] == 4][:20]\n"
        "search._UMINUS_MEMO.clear()\n"
        "search._UMINUS_MEMO[sc.O_KEY] = 0",
        "[sc.u_upper(m).value for m in ms]",
    ),
    "verify_observation default budget": (
        "entries = sc.ingest_table(sc.bundled_table_path())\n"
        "external = sc.ingest_external(sc.bundled_external_path())",
        "sc.verify_observation(entries, external)[1]",
    ),
}
PROBE_TIMED = """
t0 = time.perf_counter()
value = {call}
print(json.dumps({{"value": value, "seconds": time.perf_counter() - t0}}))
"""


def _git(root: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(root), *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def _revision(root: Path) -> dict:
    """The checkout's commit, whether its tracked files differ from it, and
    the line count of its package sources."""
    dirty = _git(root, "status", "--porcelain", "--untracked-files=no")
    lines = sum(
        len(f.read_text().splitlines())
        for f in (root / "src" / "splicecap").glob("*.py")
    )
    return {
        "commit": _git(root, "rev-parse", "HEAD"),
        "dirty": bool(dirty),
        "src_lines": lines,
    }


def _machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as f:
            model = next(
                (ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                None,
            )
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "loadavg_at_start": os.getloadavg(),
        "started_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
    }


def _run(root: Path, workload: str, seed: int, trace: int = 0) -> dict:
    """One perfbench run in ``root``: its closing JSON line, metric values
    flattened to numbers."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} failed in {root}:\n{proc.stderr.strip()}"
        )
    res = json.loads(proc.stdout.splitlines()[-1])
    res["metrics"] = {k: m["value"] for k, m in res["metrics"].items()}
    return res


def _traced_ops(root: Path, workload: str, seed: int) -> int:
    """One ``--trace 1`` run in ``root``, which writes its span file: the
    number of ops it traced."""
    res = _run(root, workload, seed, trace=1)
    # the worker runs the op sequence untraced, then the same ops traced
    return res["attempted"] // 2


def _span_counts(root: Path, workload: str, seed: int, ops: int) -> dict:
    """``TRACED_COUNTS`` per op, over the traced ops ``0 … ops − 1`` of the
    last traced run in ``root``."""
    path = root / "perfbench" / "out" / f"spans-{workload}-seed{seed}.jsonl"
    totals = dict.fromkeys(TRACED_COUNTS, 0)
    with open(path) as fh:
        for line in fh:
            span = json.loads(line)
            if span["op"] is None or span["op"] >= ops:
                continue
            for count, (name, field) in TRACED_COUNTS.items():
                if span["name"] == name:
                    totals[count] += 1 if field is None else span["note"][field]
    return {f"{k}_per_op": v / ops for k, v in totals.items()}


def _fresh_run(root: Path, code: str, what: str) -> dict:
    """The closing JSON line of ``code`` run in a fresh interpreter that
    imports ``root``'s package from ``root``."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONHASHSEED": "0"}
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{what} failed in {root}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def _rss_at(root: Path, workload: str, seed: int, ops: int) -> dict:
    """Peak RSS of a fresh interpreter that sets up ``workload`` and runs
    perfbench's closed loop in ``root`` for exactly ``ops`` ops."""
    code = RSS_RUN.format(workload=workload, seed=seed, ops=ops)
    return _fresh_run(root, code, f"{workload} RSS run")


def _keys_per_op(root: Path, seed: int) -> dict:
    """``KEYS_RUN``'s counts per cold ``descent`` op in ``root``."""
    return _fresh_run(root, KEYS_RUN.format(seed=seed), "descent key count")


def _probe(root: Path, setup: str, call: str) -> dict | str:
    """One scale probe in a fresh interpreter importing ``root``'s package:
    ``{"value", "seconds"}``, ``"timeout"``, or ``{"error"}``."""
    code = (
        f"import json, time\nimport splicecap as sc\n{setup}\n"
        + PROBE_TIMED.format(call=call)
    )
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=env,
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines()
        return {"error": lines[-1] if lines else f"exit code {proc.returncode}"}
    return json.loads(proc.stdout.splitlines()[-1])


def _order(turn: int) -> tuple[str, str]:
    """The sides in the order they run on the given turn: alternating, so a
    slow drift of the machine's speed falls on both."""
    return ("parent", "change") if turn % 2 == 0 else ("change", "parent")


def _median_seconds(readings: list) -> float | None:
    """The median seconds of the probe readings that returned a value."""
    seconds = [r["seconds"] for r in readings if isinstance(r, dict) and "seconds" in r]
    return statistics.median(seconds) if seconds else None


def _medians(runs: list[dict]) -> dict:
    names = runs[0]["metrics"]
    return {k: statistics.median(r["metrics"][k] for r in runs) for k in names}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("out", type=Path, help="JSON file to write")
    args = ap.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": CHANGE}
    report = {
        "command": f"perfbench/run.py --seconds {SECONDS} --trace 0",
        "revisions": {side: _revision(root) for side, root in roots.items()},
        "machine": _machine(),
        "workloads": {},
    }
    pair = 0
    for workload in WORKLOADS:
        pairs = []
        for seed in SEEDS:
            order = _order(pair)
            pair += 1
            runs = {side: _run(roots[side], workload, seed) for side in order}
            pairs.append({"seed": seed, "first": order[0], **runs})
            for side in order:
                m = runs[side]["metrics"]
                print(
                    f"{workload} seed {seed} {side}: ops_per_s {m['ops_per_s']:.2f} "
                    f"op_tail_ms {m['op_tail_ms']:.2f} "
                    f"peak_rss_mb {m['peak_rss_mb']:.2f}",
                    file=sys.stderr,
                )
        medians = {s: _medians([p[s] for p in pairs]) for s in roots}
        report["workloads"][workload] = {
            "pairs": pairs,
            "median": medians,
            "ratio": {
                k: medians["change"][k] / medians["parent"][k]
                for k in medians["parent"]
                if medians["parent"][k]
            },
        }
    report["traced"] = {"seed": SEEDS[0]}
    for workload in WORKLOADS:
        traced = {side: _traced_ops(roots[side], workload, SEEDS[0]) for side in roots}
        common = min(traced.values())
        report["traced"][workload] = {"common_ops": common} | {
            side: {"traced_ops": traced[side]}
            | _span_counts(roots[side], workload, SEEDS[0], common)
            for side in roots
        }
        print(f"traced {workload}: {report['traced'][workload]}", file=sys.stderr)
    report["rss_at_fixed_ops"] = {"seed": SEEDS[0]}
    for turn, (workload, ops) in enumerate(RSS_OPS.items()):
        readings = {
            side: _rss_at(roots[side], workload, SEEDS[0], ops) for side in _order(turn)
        }
        report["rss_at_fixed_ops"][workload] = readings
        print(f"RSS after {ops} {workload} ops: {readings}", file=sys.stderr)
    report["keys_per_cold_op"] = {"seed": SEEDS[0], "workload": "descent"} | {
        side: _keys_per_op(roots[side], SEEDS[0]) for side in roots
    }
    print(f"keys per cold descent op: {report['keys_per_cold_op']}", file=sys.stderr)
    report["probes"] = {"timeout_s": PROBE_TIMEOUT_S, "repeats": PROBE_REPEATS}
    turn = 0
    for name, (setup, call) in PROBES.items():
        readings = {side: [] for side in roots}
        for _ in range(PROBE_REPEATS):
            for side in _order(turn):
                readings[side].append(_probe(roots[side], setup, call))
            turn += 1
        report["probes"][name] = {
            side: {"readings": r, "median_s": _median_seconds(r)}
            for side, r in readings.items()
        }
        print(f"{name}: {report['probes'][name]}", file=sys.stderr)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
