"""Self-test of the benchmark's inputs and output checks.

    PYTHONPATH=src python3 perfbench/selftest.py

Checks, for every workload, that the same seed builds the same inputs and
that two different seeds build inputs of comparable total size (sum of
crossing counts over the first 48 ops, within 10 %), so that a claim can
be rechecked on a seed it was not tuned on.  Then feeds each workload's
output check a deliberately wrong output and expects it to be rejected,
and a ``table`` row whose bound a larger search proved exact and expects
it to be accepted.
"""

from __future__ import annotations

import itertools
import sys
from types import SimpleNamespace

import splicecap as sc

from tracing import Tracer
from worker import package_api
from workloads import WORKLOADS, fresh

SIZE_OPS = 48
SIZE_TOLERANCE = 0.10


def stream_sizes(wl, inputs) -> list[tuple[str, int]]:
    ops = itertools.chain.from_iterable(wl.batches(inputs))
    return [(op.label, op.map.n) for op in itertools.islice(ops, SIZE_OPS)]


def main() -> int:
    api, failures = package_api(), []
    for name, wl in WORKLOADS.items():
        runs = {}
        for seed in (1, 1, 2):
            inputs = wl.setup(seed, api, Tracer())
            runs.setdefault(seed, []).append(stream_sizes(wl, inputs))
        if runs[1][0] != runs[1][1]:
            failures.append(f"{name}: seed 1 is not reproducible")
        total1 = sum(n for _, n in runs[1][0])
        total2 = sum(n for _, n in runs[2][0])
        spread = abs(total1 - total2) / max(total1, total2)
        print(f"{name}: total crossings over {SIZE_OPS} ops, seed 1: {total1}, "
              f"seed 2: {total2} ({spread:.1%} apart)")
        if spread > SIZE_TOLERANCE:
            failures.append(f"{name}: seeds differ by {spread:.1%} in input size")

    # wrong outputs must be rejected
    trefoil = sc.build_map(sc.parse_code("1+ 2+ 3+ 1+ 2+ 3+"))
    value, witness = sc.u_minus(trefoil)
    descent = WORKLOADS["descent"]
    sum_op = SimpleNamespace(label="3_1#4_1", map=trefoil, expect={"parts": ("3_1", "4_1")})
    family_op = SimpleNamespace(label="Pretzel", map=trefoil, expect={"family": sc.Pretzel(1, 2, 2)})
    curl_sum = SimpleNamespace(label="3_1#1_1", map=trefoil, expect={"parts": ("3_1", "1_1")})
    broken = sc.Witness(witness.base_key, witness.steps[1:])
    row = sc.ReportRow("4_1", 4, 2, 1, "Exact", 2, 1, "U2(Pretzel(1,1,1))", 2, False)
    summary = {"rows": 1, "mismatches": 0, "external_rows_joined": 1, "external_mismatches": 0}
    cases = [
        ("descent additivity", descent.check(sum_op, fresh(trefoil), (value, witness, 1))),
        ("descent class", descent.check(family_op, fresh(trefoil), (value, witness, 1))),
        ("descent witness", descent.check(curl_sum, fresh(trefoil), (value, broken, 1))),
        ("table row", WORKLOADS["table"].check(SimpleNamespace(label="4_1"), None, ([row], summary))),
    ]
    table = WORKLOADS["table"]
    exhausted = sc.ReportRow("8x1", 8, 4, 4, "Exhausted", 4, 2, "U_AT_LEAST_3", None, False)
    cases.append(("table status", table.check(SimpleNamespace(label="8x1"), None,
                                               ([exhausted], summary))))
    for label, message in cases:
        if message is None:
            failures.append(f"{label}: a wrong output passed the check")
        else:
            print(f"{label}: wrong output rejected ({message})")

    # a status that only a larger search budget changes is not an error
    proved = sc.ReportRow("8x1", 8, 4, 4, "Exact", 4, 2, "U_AT_LEAST_3", None, False)
    message = table.check(SimpleNamespace(label="8x1"), None, ([proved], summary))
    if message is not None:
        failures.append(f"table status: a proved bound was rejected ({message})")
    else:
        print("table status: a bound proved exact is accepted")

    for f in failures:
        print(f"FAIL {f}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
