"""The workloads: seeded inputs, the calls one op makes, output checks.

Every workload is a closed loop with one caller: the next op starts when
the previous one returns.  Inputs are built from the seed during set-up;
the program receives only the built projections.  The ops come in
*batches*, each what one CLI command would process: the package's
process-global caches are reset when a batch starts, so each batch runs
cold, and every op works on a freshly built copy of its projection.

Expected values come from ``expected_table.csv`` and from the source
paper's theorems (additivity of ``u_minus``, the class-to-count and
class-to-crosscap dichotomies, crosscap <= ``u_minus``), never from the
code under test.  Every returned witness is replayed.
"""

from __future__ import annotations

import csv
import itertools
import random
import statistics
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import splicecap as sc

HERE = Path(__file__).resolve().parent
DATA = HERE.parent / "src" / "splicecap" / "data"

TABLE_NODES = 40  # search_nodes pinned as in criterion 6 and demos/04


@dataclass
class Op:
    label: str
    map: sc.CurveMap  # template; every op runs on a fresh copy
    expect: dict = field(default_factory=dict)


def fresh(m: sc.CurveMap) -> sc.CurveMap:
    """A copy with no cached properties (canonical key, faces, ...)."""
    return sc.CurveMap(m.opp, m.names, m.free_circles)


def read_csv(path: Path) -> dict[str, dict]:
    with open(path, newline="") as fh:
        return {row["name"]: row for row in csv.DictReader(fh)}


def check_witness(m: sc.CurveMap, witness, value: int) -> str | None:
    check = sc.verify_witness(m, witness)
    if not check.valid:
        return f"witness invalid at step {check.failed_at}: {check.error}"
    if check.s_count != value:
        return f"witness uses {check.s_count} bands for value {value}"
    return None


# A larger search budget may prove more bounds exact; either status is right
# as long as the value is the expected one.
UPPER_STATUSES = {sc.SearchStatus.EXACT.value, sc.SearchStatus.UPPER_BOUND_ONLY.value}


def table_row_errors(want: dict[str, str], got: dict[str, str]) -> list[str]:
    """Columns of a report row that disagree with its expected row.  Every
    column must match, except ``u_upper_status``, which depends on the
    search budget: it may be either status in ``UPPER_STATUSES``."""
    bad = [k for k, v in want.items() if k != "u_upper_status" and got.get(k) != v]
    if got.get("u_upper_status") not in UPPER_STATUSES:
        bad.append("u_upper_status")
    return bad


def table_entries(api) -> list:
    return [e for e in api.ingest_table(sc.bundled_table_path()) if e.prime]


class Workload:
    name = ""
    cycle = 1  # the loop stops only after a multiple of this many ops

    @cached_property
    def expected(self) -> dict[str, dict]:
        return read_csv(HERE / "expected_table.csv")

    def setup(self, seed: int, api, tracer) -> list[Op]:
        raise NotImplementedError

    def batches(self, inputs: list[Op]):
        """Endless batches: each op its own cold batch, cycling through the
        inputs, unless a workload says otherwise."""
        for op in itertools.cycle(inputs):
            yield [op]

    def run(self, api, op: Op, m: sc.CurveMap):
        raise NotImplementedError

    def end_batch(self, api, results: list, out_dir: Path) -> None:
        pass

    def check(self, op: Op, m: sc.CurveMap, result) -> str | None:
        """Message for a wrong output, else ``None``."""
        raise NotImplementedError

    def check_run(self, results: list, out_dir: Path) -> list[str]:
        return []

    def quality(self, results: list) -> dict:
        return {}

    def describe(self, inputs: list[Op], seed: int) -> dict:
        sizes = [op.map.n for op in inputs]
        keys = {fresh(op.map).canonical_key for op in inputs}
        return {
            "workload": self.name, "seed": seed, "inputs": len(inputs),
            "n_min": min(sizes), "n_median": statistics.median(sizes),
            "n_max": max(sizes), "n_total": sum(sizes),
            "distinct_keys": len(keys),
        }

    def table_value(self, name: str) -> int:
        return int(self.expected[name]["u_minus"])


def _basepoint(rng: random.Random, m: sc.CurveMap) -> tuple[str, int]:
    return rng.choice(m.names), rng.randrange(4)


# ---------------------------------------------------------------------------


class Table(Workload):
    name = "table"

    def setup(self, seed, api, tracer):
        """Every prime entry, in a seeded order; a cycle is one pass."""
        self.external = api.ingest_external(sc.bundled_external_path())
        ops = [Op(e.name, e.map, {"entry": e}) for e in table_entries(api)]
        random.Random(seed).shuffle(ops)
        self.cycle = len(ops)
        return ops

    def batches(self, inputs):
        """``verify-table`` passes over every entry, each with its report."""
        while True:
            yield inputs

    def run(self, api, op, m):
        e = op.expect["entry"]
        entry = sc.TableEntry(e.name, e.code, m, e.prime)
        return api.verify_observation([entry], self.external, search_nodes=TABLE_NODES)

    def end_batch(self, api, results, out_dir):
        rows = [row for r in results if r.result for row in r.result[0]]
        api.emit_report(rows, out_dir / "table_report.csv")

    def check(self, op, m, result):
        rows, summary = result
        if len(rows) != 1 or summary["mismatches"] or summary["external_mismatches"]:
            return f"summary {summary}"
        got = {k: str(getattr(rows[0], k)) for k in self.expected[op.label]}
        bad = table_row_errors(self.expected[op.label], got)
        if bad:
            return f"{bad} differ from the expected table"
        return None

    def check_run(self, results, out_dir):
        errors = []
        # the expected file itself: criterion 6 and the external snapshot
        for name, row in self.expected.items():
            if not row["u_minus"] == row["crosscap_alt"] == row["u_upper_value"]:
                errors.append(f"expected table breaks u- = crosscap = u-upper at {name}")
        knotinfo = read_csv(DATA / "knotinfo_crosscap.csv")
        if len(knotinfo) != 9 or any(
            self.expected.get(n, {}).get("crosscap_alt") != row["crosscap"]
            for n, row in knotinfo.items()
        ):
            errors.append("expected table disagrees with the 9-row crosscap snapshot")
        if {r.op.label for r in results} != set(self.expected):
            errors.append("the passes did not cover exactly the expected entries")
        report = read_csv(out_dir / "table_report.csv")
        for name, want in self.expected.items():
            if table_row_errors(want, report.get(name, {})):
                errors.append(f"report row {name} differs from the expected table")
        return errors

    def quality(self, results):
        """``exact_share`` over all ``u_upper`` results and ``bound_sum``,
        the certified ``u_upper`` values summed over the distinct entries."""
        rows = [r.result[0][0] for r in results if r.result]
        if not rows:
            return {}
        exact = sum(1 for row in rows if row.u_upper_status == sc.SearchStatus.EXACT.value)
        first = {row.name: row.u_upper_value for row in rows}
        return {
            "exact_share": {"value": exact / len(rows), "unit": "share"},
            "bound_sum": {"value": sum(first.values()), "unit": "count"},
        }


# ---------------------------------------------------------------------------

# Connected sums of two prime table entries with 11 crossings, one per
# stratum of factor sizes in every cycle.  The factor pairs follow a fixed
# roster (the k-th cycle takes the k-th entry of each size, by name) and the
# seed picks both basepoints, so every seed runs the same factor mix: with
# seeded pairs the spread of a run's total time across seeds was about three
# times larger, in a simulation from measured per-sum costs.
DESCENT_SUM_STRATA = ((3, 8), (4, 7), (5, 6))
# Twist-family members, alternating per cycle; the seed splits the
# parameter sum: Pretzel(p,q,r) with p+q+r = 8 (14 crossings) and
# Rational(m,n) with m+n = 7 (13 crossings).
DESCENT_FAMILIES = (("pretzel", 8), ("rational", 7))
DESCENT_CYCLES = 32  # about what a run uses; the loop wraps around after them


def _split(rng: random.Random, total: int, parts: int, low: int) -> list[int]:
    """A random composition of ``total`` into ``parts`` parts >= ``low``."""
    cuts = sorted(rng.sample(range(1, total - parts * (low - 1)), parts - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [total - parts * (low - 1)])]
    return [s + low - 1 for s in sizes]


def _family(kind: str, params: list[int]):
    return sc.Rational(*params) if kind == "rational" else sc.Pretzel(*params)


class Descent(Workload):
    name = "descent"
    cycle = len(DESCENT_SUM_STRATA) + 1

    def setup(self, seed, api, tracer):
        rng = random.Random(seed)
        by_n: dict[int, list] = {}
        for e in sorted(table_entries(api), key=lambda e: e.name):
            by_n.setdefault(e.n, []).append(e)
        ops = []
        with tracer.span("families.gen"):
            for cycle in range(DESCENT_CYCLES):
                for na, nb in DESCENT_SUM_STRATA:
                    a, b = by_n[na][cycle % len(by_n[na])], by_n[nb][cycle % len(by_n[nb])]
                    d1, d2 = _basepoint(rng, a.map), _basepoint(rng, b.map)
                    m = api.connected_sum(a.map, d1, b.map, d2)
                    label = f"{a.name}@{d1[0]}.{d1[1]}#{b.name}@{d2[0]}.{d2[1]}"
                    ops.append(Op(label, m, {"parts": (a.name, b.name)}))
                kind, total = DESCENT_FAMILIES[cycle % len(DESCENT_FAMILIES)]
                parts = 3 if kind == "pretzel" else 2
                spec = _family(kind, _split(rng, total, parts, 2))
                ops.append(Op(str(spec), api.gen_family(spec), {"family": spec}))
        return ops

    def run(self, api, op, m):
        value, witness = api.u_minus(m)
        return value, witness, api.crosscap_alt(m)

    def check(self, op, m, result):
        value, witness, cc = result
        if "parts" in op.expect:
            want = sum(self.table_value(p) for p in op.expect["parts"])
            if value != want:
                return f"u_minus {value}, additivity gives {want}"
        else:  # rational and pretzel members: class U2 (criteria 3 and 5)
            if value != 2 or cc != 2:
                return f"u_minus {value}, crosscap {cc}; the class gives 2 and 2"
        if cc > value:
            return f"crosscap {cc} exceeds u_minus {value}"
        return check_witness(m, witness, value)


WORKLOADS = {wl.name: wl for wl in (Table(), Descent())}
