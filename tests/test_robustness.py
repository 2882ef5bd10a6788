"""Broader-coverage checks past the exhaustive small cases: randomized
projections built by insertions, larger family members, and the budget
edge cases of the two-way search."""

from random import Random

import pytest

from splicecap import (
    ParseError,
    SearchBudget,
    SearchStatus,
    SmoothingChoice,
    Witness,
    classify_projection,
    components,
    connected_sum,
    crosscap_alt,
    equivalent,
    gen_rational,
    gen_torus,
    reduce_ri,
    replay,
    ri_plus,
    s_plus,
    smooth,
    u_minus,
    u_upper,
    verify_witness,
)
from splicecap.surfaces import ak_min_genus
from conftest import exhaustive_u_minus


def random_insertions(m, steps, rng):
    """Grow a projection by random kink and band insertions."""
    for _ in range(steps):
        if rng.random() < 0.5:
            name = rng.choice(m.names) if m.n else None
            dart = (name, rng.randrange(4)) if name else None
            m = ri_plus(m, dart, rng.choice("LR"))
        else:
            sites = []
            out = m.out_darts
            for orbit in m.face_orbits:
                for i in range(len(orbit)):
                    for j in range(i + 1, len(orbit)):
                        if out[orbit[i]] == out[orbit[j]]:
                            sites.append((orbit[i], orbit[j]))
            if not sites:
                continue
            d1, d2 = rng.choice(sites)
            m = s_plus(
                m, (m.names[d1 >> 2], d1 & 3), (m.names[d2 >> 2], d2 & 3)
            )
    return m


def test_randomized_growth_invariants(table_maps):
    """Insertions preserve the core invariants on projections well past the
    table sizes (seeded, deterministic)."""
    rng = Random(7_040_813)
    seeds = [table_maps["3_1"], table_maps["4_1"], table_maps["6_3"]]
    for seed in seeds:
        for trial in range(4):
            m = random_insertions(seed, 3, rng)
            assert components(m) == 1
            value, witness = u_minus(m)
            assert verify_witness(m, witness).valid
            assert crosscap_alt(m) <= value
            # insertions of kinks never change class or crosscap
            base_class = classify_projection(reduce_ri(m)).index
            assert classify_projection(m).index == base_class


def test_kink_insertions_preserve_counts(table_maps):
    rng = Random(99)
    for name in ("5_2", "6_1", "7_4"):
        m = table_maps[name]
        value = u_minus(m)[0]
        cc = crosscap_alt(m)
        grown = m
        for _ in range(3):
            dart = (rng.choice(grown.names), rng.randrange(4))
            grown = ri_plus(grown, dart, rng.choice("LR"))
        assert u_minus(grown)[0] == value == exhaustive_u_minus(grown)
        assert crosscap_alt(grown) == cc
        assert equivalent(reduce_ri(grown), m)


def test_larger_family_members():
    """Desk-scale spot checks at thirteen and fourteen crossings."""
    t7 = gen_torus(7)
    assert t7.n == 13
    assert u_minus(t7)[0] == 1
    assert crosscap_alt(t7) == 1
    r = gen_rational(3, 4)
    assert r.n == 13
    assert u_minus(r)[0] == 2
    assert crosscap_alt(r) == 2
    s = connected_sum(gen_torus(4), None, gen_torus(4), None)
    assert s.n == 14
    assert u_minus(s)[0] == 2
    assert crosscap_alt(s) == 2


def test_u_upper_exhausted_status(table_maps):
    m = table_maps["7_4"]  # band count three
    result = u_upper(m, SearchBudget(max_crossings=9, max_cost=2, max_nodes=500))
    assert result.value is None
    assert result.status is SearchStatus.EXHAUSTED


def test_u_upper_additivity_gap(table_maps):
    """On the doubled 7_4 the two-way count drops below the descent count:
    one band insertion and a descent reach five, and the search never
    claims that bound exact."""
    p = table_maps["7_4"]
    s = connected_sum(p, None, p, None)
    result = u_upper(s, SearchBudget(max_crossings=15, max_cost=6, max_nodes=30))
    assert result.value == 5
    assert result.status is SearchStatus.UPPER_BOUND_ONLY
    check = verify_witness(s, result.witness)
    assert check.valid and check.s_count == 5


def test_multi_circuit_equivalence(trefoil, table_maps):
    """Canonical forms of link intermediates (two curves through shared
    crossings) collapse the splice symmetry of the trefoil."""
    halves = [
        smooth(trefoil, name, SmoothingChoice.ORIENTED)
        for name in trefoil.names
    ]
    assert all(components(h) == 2 for h in halves)
    assert len({h.canonical_key for h in halves}) == 1
    other = smooth(table_maps["4_1"], "1", SmoothingChoice.ORIENTED)
    assert other.canonical_key != halves[0].canonical_key


def test_replay_with_seifert_steps(trefoil):
    """Oriented splices run through multi-component intermediates:
    splitting, merging at a shared crossing, splitting again.  They belong
    to neither count, so a witness cannot hold one."""
    oriented = SmoothingChoice.ORIENTED
    mid = smooth(trefoil, "1", oriented)
    assert components(mid) == 2
    merged = smooth(mid, "2", oriented)
    assert components(merged) == 1
    done = smooth(merged, "3", oriented)
    assert done.n == 0
    assert done.free_circles == components(done) == 2
    with pytest.raises(ParseError, match="unknown witness op 'Seifert'"):
        replay(trefoil, ("Seifert 1",))


def test_witness_counts_for_twist_steps(trefoil):
    w = Witness(trefoil.canonical_key, ("TWIST 1.0 2.1 4 A",))
    assert w.s_count == 1 and w.ri_count == 3


def test_state_oracle_extended(table):
    """Full 2^n state enumeration vs the branching for every table entry
    (the acceptance suite keeps the n <= 6 slice; this sweeps all 45)."""
    from conftest import brute_force_chis

    for entry in table:
        chi_s, best_non = brute_force_chis(entry.map)
        r = ak_min_genus(entry.map)
        assert r.chi_max == max(chi_s, best_non), entry.name
        assert r.nonorientable_at_max == (best_non == r.chi_max), entry.name


def test_74_signature_unique(table):
    """The 7_4 alias is over-determined: it is the unique seven-crossing
    entry with band count 3, crosscap 3, and genus 1 (the classical
    crosscap = 2 genus + 1 example)."""
    from splicecap import seifert_genus

    hits = [
        e.name
        for e in table
        if e.n == 7
        and u_minus(e.map)[0] == 3
        and crosscap_alt(e.map) == 3
        and seifert_genus(e.map) == 1
    ]
    assert hits == ["7_4"]


def test_randomized_move_consistency(table_maps):
    """Chains of twist moves from circle-closures: the band count never
    exceeds the number of moves, and one or two moves land exactly in the
    one- and two-band classes."""
    from splicecap import O_MAP, twist_move

    rng = Random(31_313)

    def random_move(m, i):
        out = m.out_darts
        sites = []
        for orbit in m.face_orbits:
            for a in range(len(orbit)):
                for b in range(a + 1, len(orbit)):
                    sites.append((orbit[a], orbit[b]))
        d1, d2 = rng.choice(sites)
        if (i % 2 == 1) != (out[d1] == out[d2]):
            i += 1  # region parity is dictated by the chosen arcs
        return twist_move(
            m, (m.names[d1 >> 2], d1 & 3), (m.names[d2 >> 2], d2 & 3), i, "A"
        )

    for trial in range(6):
        seed = ri_plus(O_MAP, None, "L")
        one = random_move(seed, rng.choice((2, 3, 4)))
        v1 = u_minus(one)[0]
        assert v1 <= 1
        if v1 == 1:
            assert classify_projection(one).index == 1
        two = random_move(one, rng.choice((1, 2, 3)))
        v2 = u_minus(two)[0]
        assert v2 <= 2
        assert classify_projection(two).index == min(v2, 3)


def test_replay_circle_locator():
    """The bare-circle locator in kink-insertion steps round-trips."""
    from splicecap import O_KEY, O_MAP

    grown = replay(O_MAP, ("RI+ O L",))
    assert grown.n == 1
    back = replay(grown, (f"RI- {grown.names[0]}",))
    assert back.canonical_key == O_KEY
    w = Witness(O_MAP.canonical_key, ("RI+ O R", "RI- 1"))
    assert verify_witness(O_MAP, w).valid


def test_decompose_three_factors(table_maps):
    from splicecap import decompose_prime

    s = connected_sum(table_maps["3_1"], None, table_maps["3_1"], None)
    s = connected_sum(s, None, table_maps["4_1"], None)
    factors = decompose_prime(s)
    assert sorted(f.n for f in factors) == [3, 3, 4]
    assert u_minus(s)[0] == sum(u_minus(f)[0] for f in factors) == 4
