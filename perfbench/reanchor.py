"""The ROADMAP's re-anchor figures, measured again for comparison.

    PYTHONPATH=src python3 perfbench/reanchor.py

Prints one JSON object: the canonical key at n = 15, 31 and 63 on torus
projections (median of five fresh maps), ``u_upper`` nodes per second on
the bundled ``7_4 # 7_4`` record under criterion 8's caps (with and
without the cold descent seed that ``u_upper`` computes first), and the
cold ``u_minus`` time on ``Pretzel(4,4,4)``.  Not part of a benchmark run;
it takes about two minutes.
"""

from __future__ import annotations

import json
import time

import splicecap as sc

from probes import key_ms
from worker import Caches
from workloads import fresh

NODES = 1500  # criterion 8's node budget


def main() -> None:
    out = {f"key_ms_n{2 * l - 1}": key_ms(l) for l in (8, 16, 32)}
    record = sc.ingest_table(sc.bundled_table_path().parent / "sum_74.gauss")[0].map
    budget = sc.SearchBudget(max_crossings=18, max_cost=5, max_nodes=NODES)
    caches = Caches()
    caches.reset()
    t0 = time.perf_counter()
    sc.u_minus(fresh(record))
    t1 = time.perf_counter()
    result = sc.u_upper(fresh(record), budget)  # the seed is memoized now
    t2 = time.perf_counter()
    out["u_upper_nodes"] = result.nodes_expanded
    out["u_upper_seed_s"] = t1 - t0
    out["nodes_per_s_with_seed"] = result.nodes_expanded / (t2 - t0)
    out["nodes_per_s_search_only"] = result.nodes_expanded / (t2 - t1)
    caches.reset()
    t0 = time.perf_counter()
    value, _ = sc.u_minus(sc.gen_pretzel(4, 4, 4))
    out["u_minus_pretzel_444_s"] = time.perf_counter() - t0
    out["u_minus_pretzel_444"] = value
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
