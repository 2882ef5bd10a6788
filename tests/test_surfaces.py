from itertools import combinations_with_replacement, product

import pytest

from splicecap import (
    AKResult,
    InvalidMove,
    MultiComponentError,
    ParseError,
    SmoothingChoice,
    Witness,
    ak_min_genus,
    apply_state,
    build_map,
    check_upper_bound,
    connected_sum,
    crosscap_alt,
    equality_report,
    gen_pretzel,
    gen_rational,
    gen_torus,
    is_seifert_state,
    parse_code,
    ri_plus,
    s_plus,
    seifert_genus,
    sigma_from_witness,
    smooth,
    state_chi,
    u_minus,
    O_MAP,
)
from splicecap.curvemap import CurveMap
from splicecap.splices import _smooth_pairings, oriented_pairing
from splicecap.surfaces import _explore
from conftest import (
    SPLITTING_CODE,
    brute_force_chis,
    count_state_circles,
    family_members,
)


def test_brute_force_oracle(table, table_maps, one_band_children):
    """The branching result matches the full state enumeration (all 2^n
    states) on every table entry with n <= 6, their distinct one-band
    children, a few kink-grown maps and a projection whose branching
    splits."""
    cases = [(e.name, e.map) for e in table if e.n <= 6]
    for entry, children in one_band_children:
        if entry.n <= 6:
            cases.extend((f"{entry.name} S+", q) for q in children)
    for name, side in (("3_1", "L"), ("5_2", "R"), ("6_2", "L"), ("7_4", "R")):
        m = table_maps[name]
        cases.append((f"{name} RI+", ri_plus(m, (m.names[0], 0), side)))
    cases.append(("splitting", build_map(parse_code(SPLITTING_CODE))))
    seifert_only = []
    for name, m in cases:
        chi_s, best_non = brute_force_chis(m)
        r = ak_min_genus(m)
        assert r.chi_max == max(chi_s, best_non), name
        assert r.nonorientable_at_max == (best_non == r.chi_max), name
        assert chi_s == 1 - 2 * r.genus
        if not r.nonorientable_at_max:
            seifert_only.append(name)
    # the anchor loop also runs to its end, not only on the curl
    assert set(seifert_only) - {"1_1"}, seifert_only


def test_branching_on_disjoint_unions(table):
    """A disconnected map is branched as one tree: its circle yield is the
    sum of its parts' yields, and for n <= 12 the best of all its states.
    Unions pair consecutive table entries, and every two entries with at
    most six crossings."""
    maps = [e.map for e in table]
    small = [m for m in maps if m.n <= 6]
    pairs = [*zip(maps, maps[1:]), *combinations_with_replacement(small, 2)]
    for a, b in pairs:
        union = CurveMap(a.opp + tuple(d + 4 * a.n for d in b.opp))
        circles = _explore(union)[0]
        assert circles == _explore(a)[0] + _explore(b)[0], (a, b)
        if union.n <= 12:
            states = product((0, 1), repeat=union.n)
            assert circles == max(count_state_circles(union, ps) for ps in states)


def test_ak_results_anchor_values(trefoil, table_maps):
    r = ak_min_genus(trefoil)
    assert (r.chi_max, r.nonorientable_at_max, r.crosscap, r.genus) == (0, True, 1, 1)
    assert ak_min_genus(table_maps["7_4"]).crosscap == 3
    assert ak_min_genus(table_maps["4_1"]).crosscap == 2


def test_ak_multi_component_rejected(trefoil):
    with pytest.raises(MultiComponentError):
        ak_min_genus(smooth(trefoil, "1", SmoothingChoice.ORIENTED))


def test_crosscap_unknot_convention(kink, double_kink):
    assert crosscap_alt(O_MAP) == 0
    # the bare circle is one leaf, with no crossing to anchor
    assert ak_min_genus(O_MAP) == AKResult(1, False, 1, 0, 1)
    assert crosscap_alt(kink) == 0
    assert crosscap_alt(double_kink) == 0


def test_crosscap_torus_family():
    for l in range(2, 6):
        assert crosscap_alt(gen_torus(l)) == 1


def test_crosscap_two_families():
    assert crosscap_alt(gen_rational(1, 2)) == 2
    assert crosscap_alt(gen_pretzel(1, 1, 1)) == 2
    t = gen_torus(2)
    assert crosscap_alt(connected_sum(t, None, t, None)) == 2


def test_crosscap_kink_invariant(trefoil):
    grown = ri_plus(trefoil, ("3", 2), "R")
    assert crosscap_alt(grown) == crosscap_alt(trefoil) == 1


def test_dichotomy_consistency(table):
    """When every maximal leaf is orientable the crosscap is odd and equals
    twice the genus plus one."""
    fired = 0
    for entry in table:
        r = ak_min_genus(entry.map)
        if not r.nonorientable_at_max:
            fired += 1
            assert r.crosscap == 2 * r.genus + 1
            assert r.crosscap % 2 == 1
        else:
            assert r.crosscap == 1 - r.chi_max
    # the orientable-only branch genuinely occurs in the table
    assert fired > 0


def test_chi_never_exceeds_disk(table):
    for entry in table:
        r = ak_min_genus(entry.map)
        assert r.chi_max <= 1


def test_sigma_from_witness_trefoil(trefoil):
    value, witness = u_minus(trefoil)
    state = sigma_from_witness(trefoil, witness)
    circles = apply_state(trefoil, state)
    assert circles == 1 + witness.ri_count == 3
    assert state_chi(trefoil.n, circles) == 1 - value
    assert not is_seifert_state(state)


def test_sigma_from_witness_kink(kink):
    value, witness = u_minus(kink)
    state = sigma_from_witness(kink, witness)
    assert apply_state(kink, state) == 2
    assert is_seifert_state(state)  # all steps were kink removals


def test_sigma_from_witness_table(table):
    """The witness state realizes circles = 1 + kink removals, hence
    chi = 1 - band count, on every table entry."""
    for entry in table:
        value, witness = u_minus(entry.map)
        state = sigma_from_witness(entry.map, witness)
        circles = apply_state(entry.map, state)
        assert circles == 1 + witness.ri_count
        assert state_chi(entry.n, circles) == 1 - value


def test_sigma_rejects_non_descent(trefoil):
    bad = Witness(trefoil.canonical_key, ("RI+ 1.0 L",))
    with pytest.raises(InvalidMove):
        sigma_from_witness(trefoil, bad)
    # a step the witness grammar rejects fails as it does in ``apply_step``
    for step in ("", "S- 1 2"):
        bad = Witness(trefoil.canonical_key, (step,))
        with pytest.raises(ParseError):
            sigma_from_witness(trefoil, bad)


def test_upper_bound_everywhere(table):
    for entry in table:
        assert check_upper_bound(entry.map), entry.name


def test_upper_bound_strict_on_sums(table_maps):
    p = table_maps["7_4"]
    s = connected_sum(p, None, p, None)
    assert crosscap_alt(s) == 5
    assert u_minus(s)[0] == 6
    assert check_upper_bound(s)


def test_equality_report(trefoil, table_maps):
    r = equality_report(trefoil)
    assert (r.crosscap, r.u_minus, r.equal) == (1, 1, True)
    p = table_maps["7_4"]
    s = connected_sum(p, None, p, None)
    r = equality_report(s)
    assert (r.crosscap, r.u_minus, r.equal) == (5, 6, False)


def test_crosscap_bound_on_families():
    for name, m in family_members(10):
        assert crosscap_alt(m) <= u_minus(m)[0], name


def test_equality_on_prime_table(table):
    for entry in table:
        assert equality_report(entry.map).equal, entry.name


@pytest.fixture(scope="module")
def one_band_children(table):
    """Each prime table entry with its distinct ``S+`` children, found by
    trying every pair of darts."""
    out = []
    for entry in table:
        m = entry.map
        darts = [(name, slot) for name in m.names for slot in range(4)]
        children = {}
        for i, d1 in enumerate(darts):
            for d2 in darts[i + 1 :]:
                try:
                    q = s_plus(m, d1, d2)
                except InvalidMove:
                    continue
                children.setdefault(q.canonical_key, q)
        out.append((entry, list(children.values())))
    return out


def full_anchor_loop(m):
    """``ak_min_genus`` as it was before the anchor loop stopped early:
    every crossing anchored at its disoriented smoothing."""
    chi_max = _explore(m)[0] - m.n
    best_non = max(
        _explore(_smooth_pairings(m, {c: 1 - oriented_pairing(m, c)}))[0] - m.n
        for c in range(m.n)
    )
    genus = seifert_genus(m)
    flag = best_non == chi_max
    return chi_max, flag, 1 - chi_max if flag else 2 * genus + 1, genus


def test_anchor_early_exit_matches_full_loop(one_band_children):
    checked = 0
    for entry, children in one_band_children:
        for m in [entry.map, *children]:
            r = ak_min_genus(m)
            got = (r.chi_max, r.nonorientable_at_max, r.crosscap, r.genus)
            assert got == full_anchor_loop(m), entry.name
            checked += 1
    assert checked == 45 + 374


def test_one_band_lowers_crosscap_by_at_most_one(one_band_children):
    """Evidence, not proof, for crosscap <= two-way count: over the table's
    one-band children no band insertion lowers the crosscap by two, and
    ``chi_max`` of every child is the parent's or one less (the sandwich of
    the unchecked proof sketch in README "Design notes")."""
    drops = {}
    for entry, children in one_band_children:
        cc = crosscap_alt(entry.map)
        chi = ak_min_genus(entry.map).chi_max
        for q in children:
            drop = cc - crosscap_alt(q)
            drops[drop] = drops.get(drop, 0) + 1
            assert chi - 1 <= ak_min_genus(q).chi_max <= chi, entry.name
    assert drops == {1: 3, 0: 161, -1: 210}
