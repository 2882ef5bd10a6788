"""Acceptance suite: every headline claim at its stated tolerance.

Each criterion is one test; a summary line prints per criterion (visible
with ``pytest -s`` or in the captured output).  Wall-clock limits are
asserted where the criterion states one.
"""

import time
from collections import Counter
from itertools import combinations_with_replacement, product
from pathlib import Path
from random import Random

import pytest

from splicecap import (
    SearchBudget,
    SmoothingChoice,
    Witness,
    build_map,
    classify_projection,
    connected_sum,
    crosscap_alt,
    equivalent,
    ingest_table,
    interleaved,
    ri_plus,
    smooth,
    u_minus,
    u_upper,
    verify_observation,
    verify_witness,
    O_KEY,
)
from splicecap.curvemap import SignedGaussCode, extract_code
from splicecap.search import _band_insertions
from splicecap.splices import _smooth_pairings
from splicecap.surfaces import ak_min_genus
from conftest import brute_force_chis, count_state_circles, family_members

WITNESS_PATH = Path(__file__).resolve().parents[1] / (
    "src/splicecap/data/witness_74_sum.witness"
)
NINE_PATH = WITNESS_PATH.parent / "projections_9.gauss"


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def sum_74(table_maps):
    p = table_maps["7_4"]
    return connected_sum(p, None, p, None)


def test_criterion_1_figure3_values(table_maps):
    t0 = time.time()
    assert u_minus(table_maps["1_1"])[0] == 0
    assert u_minus(table_maps["3_1"])[0] == 1
    assert u_minus(table_maps["6_2"])[0] == 2
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report("1", f"u- = 0/1/2 for 1_1/3_1/6_2 in {elapsed:.2f}s")


def test_criterion_2_example_7_5(table_maps, sum_74):
    t0 = time.time()
    assert u_minus(table_maps["7_4"])[0] == 3
    assert u_minus(sum_74)[0] == 6
    assert crosscap_alt(table_maps["7_4"]) == 3
    assert crosscap_alt(sum_74) == 5
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report("2", f"7_4 values 3/6/3/5 in {elapsed:.1f}s")


def test_criterion_3_classification(table):
    t0 = time.time()
    checked = 0
    for name, m in family_members(12):
        value, _ = u_minus(m)
        label = classify_projection(m)
        assert label.index == min(value, 3), name
        expect = 1 if name.startswith("torus") else 2
        assert value == expect, name
        checked += 1
    for entry in table:
        value, _ = u_minus(entry.map)
        assert classify_projection(entry.map).index == min(value, 3), entry.name
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report("3", f"classify == min(u-, 3) on {checked} projections in {elapsed:.1f}s")


def test_criterion_4_crosscap_bound(table):
    t0 = time.time()
    checked = 0
    for name, m in family_members(12):
        assert crosscap_alt(m) <= u_minus(m)[0], name
        checked += 1
    for entry in table:
        assert crosscap_alt(entry.map) <= u_minus(entry.map)[0], entry.name
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 600.0
    report("4", f"crosscap <= u- on {checked} projections in {elapsed:.1f}s")


def test_criterion_5_crosscap_classes(table):
    t0 = time.time()
    from splicecap import gen_torus

    for l in range(2, 6):
        assert crosscap_alt(gen_torus(l)) == 1, l
    two_sided = 0
    for name, m in family_members(10):
        if not name.startswith("torus"):
            assert crosscap_alt(m) == 2, name
            two_sided += 1
    for l1 in range(2, 4):
        for l2 in range(l1, 4):
            s = connected_sum(gen_torus(l1), None, gen_torus(l2), None)
            if s.n <= 10:
                assert crosscap_alt(s) == 2, (l1, l2)
                two_sided += 1
    # converse over the table: crosscap 1 or 2 appears only in the classes
    for entry in table:
        c = crosscap_alt(entry.map)
        idx = classify_projection(entry.map).index
        if c == 1:
            assert idx == 1, entry.name
        elif c == 2:
            assert idx == 2, entry.name
        else:
            assert idx in (0, 3), entry.name
    elapsed = time.time() - t0
    report("5", f"torus => 1, {two_sided} two-class members => 2, converse on table "
                f"in {elapsed:.1f}s")


def test_class_theorem_on_every_class_to_seven_crossings(classes_by_size):
    """The paper's class theorem and its crosscap corollary on every
    one-curve class with at most seven crossings, kinked and composite ones
    included: the classifier names ``min(u_minus, 3)``, crosscap is at most
    ``u_minus``, and crosscap is at most two exactly where ``u_minus`` is,
    with equality there.  The class counts are those of spherical curves
    (OEIS A008989)."""
    sizes = {n: len(maps) for n, maps in classes_by_size.items()}
    assert sizes == {1: 1, 2: 2, 3: 6, 4: 19, 5: 76, 6: 376, 7: 2194}
    histogram = Counter()
    for n, maps in classes_by_size.items():
        for m in maps:
            value, cc = u_minus(m)[0], crosscap_alt(m)
            assert classify_projection(m).index == min(value, 3), m.canonical_key
            assert cc <= value, m.canonical_key
            assert (cc <= 2) == (value <= 2), m.canonical_key
            if value <= 2:
                assert cc == value, m.canonical_key
            histogram[n, value, cc] += 1
    counts = dict(sorted(histogram.items()))
    report("class theorem", f"{sum(sizes.values())} classes, (n, u-, cc): {counts}")


def test_criterion_6_prime_table_equalities(table, external_rows):
    t0 = time.time()
    rows, summary = verify_observation(table, external_rows, search_nodes=40)
    assert summary["rows"] == 45
    assert summary["mismatches"] == 0
    assert summary["external_mismatches"] == 0
    assert summary["external_rows_joined"] == 9
    for row in rows:
        assert row.u_minus == row.crosscap_alt == row.u_upper_value, row.name
    elapsed = time.time() - t0
    assert elapsed < 600.0
    report("6", f"u- = crosscap = u-upper on all {summary['rows']} prime entries, "
                f"{summary['external_rows_joined']} external rows matched, "
                f"in {elapsed:.1f}s")


def test_criterion_7_additivity(table):
    t0 = time.time()
    entries = [e for e in table if e.n <= 9]
    values = {e.name: u_minus(e.map)[0] for e in entries}
    pairs = 0
    for a, b in combinations_with_replacement(entries, 2):
        if a.n + b.n > 10:
            continue
        s = connected_sum(a.map, None, b.map, None)
        assert u_minus(s)[0] == values[a.name] + values[b.name], (a.name, b.name)
        pairs += 1
    rng = Random(20260811)
    randomized = 0
    while randomized < 100:
        a, b = rng.choice(entries), rng.choice(entries)
        if a.n + b.n > 10:
            continue
        d1 = (rng.choice(a.map.names), rng.randrange(4))
        d2 = (rng.choice(b.map.names), rng.randrange(4))
        s = connected_sum(a.map, d1, b.map, d2)
        assert u_minus(s)[0] == values[a.name] + values[b.name]
        randomized += 1
    elapsed = time.time() - t0
    report("7", f"additivity on {pairs} table pairs + {randomized} randomized "
                f"basepoints in {elapsed:.1f}s")


def test_criterion_8_u_upper_bound(sum_74):
    """Two-way search for the doubled 7_4; the stated cap of 1e8 expanded
    nodes is beyond desk scale here, so per the criterion the check degrades
    to the checked-in five-band witness when the bounded run exhausts."""
    t0 = time.time()
    budget = SearchBudget(max_crossings=18, max_cost=5, max_nodes=1500)
    result = u_upper(sum_74, budget)
    if result.value is not None and result.value <= 5:
        detail = f"search found value {result.value}"
        check = verify_witness(sum_74, result.witness)
        assert check.valid and check.s_count == result.value
    else:
        # the witness is addressed against the bundled serialized record
        base_entry = ingest_table(WITNESS_PATH.parent / "sum_74.gauss")[0]
        base = base_entry.map
        assert base_entry.name == "7_4_sum_7_4"
        assert equivalent(base, sum_74)
        lines = [
            ln.strip()
            for ln in WITNESS_PATH.read_text().splitlines()
            if ln.strip() and not ln.strip().startswith(("#", "BASE"))
        ]
        witness = Witness(base.canonical_key, tuple(lines))
        check = verify_witness(base, witness)
        assert check.valid, (check.failed_at, check.error)
        assert check.s_count == 5
        assert check.endpoint == O_KEY
        detail = (
            f"budget exhausted after {result.nodes_expanded} nodes; "
            "checked-in witness with five bands verified"
        )
    elapsed = time.time() - t0
    assert elapsed < 1800.0
    report("8", f"u(7_4 # 7_4) <= 5: {detail} in {elapsed:.1f}s")


def test_criterion_9_property_suites(table):
    t0 = time.time()
    small = [e.map for e in table if e.n <= 6]
    # splice commutativity and order-independence of total smoothings
    for m in small:
        for c1, c2 in combinations_with_replacement(range(m.n), 2):
            if c1 == c2:
                continue
            for p1, p2 in product((0, 1), repeat=2):
                a = _smooth_pairings(m, {c1: p1})
                a = _smooth_pairings(a, {a.crossing_index(m.names[c2]): p2})
                b = _smooth_pairings(m, {c2: p2})
                b = _smooth_pairings(b, {b.crossing_index(m.names[c1]): p1})
                assert equivalent(a, b)
        for ps in product((0, 1), repeat=m.n):
            expected = count_state_circles(m, ps) + m.free_circles
            cur = m
            for c in reversed(range(m.n)):
                cur = _smooth_pairings(cur, {cur.crossing_index(m.names[c]): ps[c]})
            assert cur.free_circles == expected

    # canonical key symmetry and mirror invariance, exhaustive n <= 8
    for entry in table:
        m = entry.map
        key = m.canonical_key
        word = list(extract_code(m).components[0])
        for rot in range(len(word)):
            rotated = word[rot:] + word[:rot]
            for direction in (1, -1):
                for flip in (1, -1):
                    comps = (tuple((lab, s * flip) for lab, s in rotated[::direction]),)
                    assert build_map(SignedGaussCode(comps)).canonical_key == key

    # small-instance brute-force oracle for the branching
    for m in small:
        chi_s, best_non = brute_force_chis(m)
        r = ak_min_genus(m)
        assert r.chi_max == max(chi_s, best_non)
        assert r.nonorientable_at_max == (best_non == r.chi_max)

    # reconnection property on interleaved pairs, n <= 8
    for entry in table:
        m = entry.map
        for i, c1 in enumerate(m.names):
            for c2 in m.names[i + 1 :]:
                if not interleaved(m, c1, c2):
                    continue
                half = smooth(m, c1, SmoothingChoice.ORIENTED)
                for choice in SmoothingChoice:
                    from splicecap import components

                    assert components(smooth(half, c2, choice)) == 1

    # kink-reduction order independence, n <= 6 after seeding kinks
    def endpoints(m):
        mono = [m.names[c] for c in m.monogon_crossings]
        if not mono:
            return {m.canonical_key}
        out = set()
        for name in mono:
            out |= endpoints(smooth(m, name, SmoothingChoice.DISORIENTED))
        return out

    for m in [e.map for e in table if e.n <= 4]:
        for slot in (0, 1):
            for side in "LR":
                one = ri_plus(m, (m.names[0], slot), side)
                new = next(nm for nm in one.names if nm not in m.names)
                two = ri_plus(one, (new, 2), side)
                assert len(endpoints(two)) == 1

    elapsed = time.time() - t0
    report("9", f"property suites clean in {elapsed:.1f}s")


def test_nine_crossing_projections():
    """Criteria 3-5 and witness replay outside the table, on the 101 prime
    kink-free projections with nine double points; and, as evidence for
    crosscap <= two-way count, no one-band child drops the crosscap by two
    and every one-band child's ``chi_max`` is the parent's or one less."""
    t0 = time.time()
    entries = ingest_table(NINE_PATH)
    assert len({e.map.canonical_key for e in entries}) == len(entries) == 101
    values = Counter()
    drops = Counter()
    for e in entries:
        assert e.n == 9 and e.prime and not e.map.monogon_crossings, e.name
        value, witness = u_minus(e.map)
        check = verify_witness(e.map, witness)
        assert check.valid and check.s_count == value, e.name
        # crosscap <= u- holds with equality, so with criterion 3 the
        # converse of criterion 5 holds as well
        assert crosscap_alt(e.map) == value, e.name
        assert classify_projection(e.map).index == min(value, 3), e.name
        values[value] += 1
        chi = ak_min_genus(e.map).chi_max
        children = {q.canonical_key: q for _, q in _band_insertions(e.map)}
        for q in children.values():
            drops[value - crosscap_alt(q)] += 1
            assert chi - 1 <= ak_min_genus(q).chi_max <= chi, e.name
    assert values == {1: 1, 2: 3, 3: 38, 4: 59}
    assert drops == {1: 4, 0: 511, -1: 843}
    elapsed = time.time() - t0
    report("9-crossing", f"u- = crosscap, classes, witnesses and band drops on "
                         f"{len(entries)} projections in {elapsed:.1f}s")
