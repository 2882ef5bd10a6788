"""Per-layer metrics of a traced run: span self times and counts, plus
direct probes of the ``curvemap`` and ``splices`` layers.

The probes time single calls on the workload's own inputs and their
one-move (descent) successors, each on a freshly built map, so that the
canonical key and the other cached properties are computed, not looked up.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time

import splicecap as sc
from splicecap.splices import SmoothingChoice

from stats import tail
from workloads import fresh

PROBE_BASES = 24  # distinct inputs probed
PROBE_SUCCESSORS = 4  # descent successors kept per input
PROBE_CALLS = 120  # timed calls per move kind
KEY_SIZES = {"n15": 8, "n31": 16, "n63": 32}  # gen_torus(l) has 2l - 1 crossings
KEY_REPEATS = 5
CLI_REPEATS = 3


def _us(fn, *args) -> float:
    t0 = time.perf_counter_ns()
    fn(*args)
    return (time.perf_counter_ns() - t0) / 1e3


def _band_pairs(m: sc.CurveMap) -> list[tuple]:
    """Dart pairs that admit a band insertion (same face, same direction)."""
    out = m.out_darts
    pairs = []
    for orbit in m.face_orbits:
        for i, d1 in enumerate(orbit):
            for d2 in orbit[i + 1:]:
                if out[d1] == out[d2]:
                    pairs.append(((m.names[d1 >> 2], d1 & 3), (m.names[d2 >> 2], d2 & 3)))
    return pairs


def layer_probes(inputs) -> dict[str, float]:
    rng = random.Random(0)
    distinct = list({op.label: op.map for op in inputs if op.map.n}.values())
    bases = rng.sample(distinct, min(PROBE_BASES, len(distinct)))
    pool = list(bases)
    for m in bases:
        for name in rng.sample(m.names, min(PROBE_SUCCESSORS, m.n)):
            child = sc.smooth(m, name, SmoothingChoice.DISORIENTED)
            if child.n:
                pool.append(child)
    pool = rng.sample(pool, min(PROBE_CALLS, len(pool)))

    construct, key, build = [], [], []
    for m in pool:
        construct.append(_us(sc.CurveMap, m.opp, m.names, m.free_circles))
        copy = fresh(m)
        key.append(_us(lambda: copy.canonical_key))
        code = sc.extract_code(m)
        build.append(_us(sc.build_map, code))

    smooth, ri, band = [], [], []
    for _ in range(PROBE_CALLS):
        m = fresh(rng.choice(bases))
        name = rng.choice(m.names)
        smooth.append(_us(sc.smooth, m, name, SmoothingChoice.DISORIENTED))
        ri.append(_us(sc.ri_plus, m, (name, rng.randrange(4)), rng.choice("LR")))
        pairs = _band_pairs(m)
        if pairs:
            band.append(_us(sc.s_plus, m, *rng.choice(pairs)))

    successors = [m.n + 8 * m.n + len(_band_pairs(m)) for m in distinct]
    out = {
        "curvemap.build_map_us": statistics.median(build),
        "curvemap.construct_us": statistics.median(construct),
        "curvemap.key_us": statistics.median(key),
        "curvemap.key_tail_us": tail(key)[0],
        "curvemap.probe_n_mean": statistics.mean(m.n for m in pool),
        "splices.smooth_us": statistics.median(smooth),
        "splices.ri_plus_us": statistics.median(ri),
        "splices.s_plus_us": statistics.median(band),
        "splices.successors_per_map": statistics.mean(successors),
    }
    for label, l in KEY_SIZES.items():
        out[f"curvemap.key_ms.{label}"] = key_ms(l)
    return out


def key_ms(l: int) -> float:
    """Canonical key of ``gen_torus(l)`` in ms, median over fresh maps."""
    m = sc.gen_torus(l)
    times = []
    for _ in range(KEY_REPEATS):
        copy = fresh(m)
        times.append(_us(lambda: copy.canonical_key) / 1e3)
    return statistics.median(times)


def cli_startup_s() -> float:
    """Median wall time of a fresh interpreter running ``splicecap --version``."""
    samples = []
    for _ in range(CLI_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "splicecap.cli", "--version"],
                       check=True, stdout=subprocess.DEVNULL, timeout=60)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def per_layer(wl, inputs, tracer, mark, plain_s, traced_s, results, units) -> dict:
    setup = tracer.self_times(0, mark)
    timed = tracer.self_times(mark)

    def secs(table, name):
        return table.get(name, (0.0, 0))[0]

    def calls(table, name):
        return table.get(name, (0.0, 0))[1]

    uppers = [i for i in range(mark, len(tracer.spans))
              if tracer.spans[i][0] == "search.u_upper"]
    nodes = searched = improved = 0
    for i in uppers:
        note = tracer.spans[i][5]
        nodes += note["nodes"]
        if note["nodes"]:
            searched += 1
            seed = [c[5]["value"] for c in tracer.children(i) if c[0] == "search.u_minus"]
            if seed and note["value"] is not None and note["value"] < seed[0]:
                improved += 1
    leaves = sum(n["leaves"] for n in tracer.notes("surfaces.ak_min_genus", mark))
    upper_s = secs(timed, "search.u_upper")
    crosscap_s = secs(timed, "surfaces.crosscap_alt") + secs(timed, "surfaces.ak_min_genus")
    quality = wl.quality(results)

    values = {
        "pipeline.ingest_s": secs(setup, "pipeline.ingest_table"),
        "families.decompose_prime_s": secs(setup, "families.decompose_prime"),
        "pipeline.verify_observation_s": secs(timed, "pipeline.verify_observation"),
        "pipeline.emit_report_s": secs(timed, "pipeline.emit_report"),
        "search.u_minus_s": secs(timed, "search.u_minus"),
        "search.u_minus_calls": calls(timed, "search.u_minus"),
        "search.u_upper_s": upper_s,
        "search.u_upper_nodes": nodes,
        "search.nodes_per_s": nodes / upper_s if upper_s else 0.0,
        "search.improved_share": improved / searched if searched else 0.0,
        "search.exact_share": quality.get("exact_share", {}).get("value", 0.0),
        "search.bound_sum": quality.get("bound_sum", {}).get("value", 0),
        "surfaces.crosscap_s": crosscap_s,
        "surfaces.ak_leaves": leaves,
        "surfaces.leaves_per_s": leaves / crosscap_s if crosscap_s else 0.0,
        "families.gen_s": secs(setup, "families.gen"),
        "families.classify_s": secs(timed, "families.classify_projection"),
        "trace.overhead": traced_s / plain_s - 1,
        "cli.startup_s": cli_startup_s(),
    }
    values.update(layer_probes(inputs))
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}
