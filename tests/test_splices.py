from itertools import product

import pytest

from splicecap import (
    DegenerateOnO,
    InvalidMove,
    MultiComponentError,
    SmoothingChoice,
    SpliceCapError,
    SpliceKind,
    State,
    apply_state,
    bundled_table_path,
    classify_splice,
    components,
    equivalent,
    gen_rational,
    gen_torus,
    ingest_table,
    is_seifert_state,
    make_state,
    ri_plus,
    s_plus,
    seifert_genus,
    smooth,
    state_chi,
    twist_move,
    O_KEY,
    O_MAP,
)
from splicecap.splices import _smooth_pairings, oriented_pairing
from conftest import count_state_circles, family_members

ORIENTED = SmoothingChoice.ORIENTED
DISORIENTED = SmoothingChoice.DISORIENTED


def small_projections(table, n_max):
    return [e.map for e in table if e.n <= n_max]


# ---------------------------------------------------------------------------
# smooth / classify


def test_smooth_component_rule(table):
    """Disoriented keeps one closed curve, oriented splits into two."""
    for entry in table:
        if entry.n > 6:
            continue
        for name in entry.map.names:
            assert components(smooth(entry.map, name, DISORIENTED)) == 1
            assert components(smooth(entry.map, name, ORIENTED)) == 2


def test_trefoil_smooth(trefoil, double_kink):
    d = smooth(trefoil, "2", DISORIENTED)
    assert d.n == 2 and components(d) == 1
    assert equivalent(d, double_kink)
    s = smooth(trefoil, "2", ORIENTED)
    assert s.n == 2 and components(s) == 2


def test_kink_smooth(kink):
    assert smooth(kink, "1", DISORIENTED).canonical_key == O_KEY
    two = smooth(kink, "1", ORIENTED)
    assert (two.n, two.free_circles) == (0, 2)


def test_smooth_unknown_crossing(trefoil):
    with pytest.raises(InvalidMove):
        smooth(trefoil, "9", DISORIENTED)


def test_classify(trefoil, kink):
    assert classify_splice(kink, "1", DISORIENTED) is SpliceKind.RI_MINUS
    for name in trefoil.names:
        assert classify_splice(trefoil, name, DISORIENTED) is SpliceKind.S_MINUS
        assert classify_splice(trefoil, name, ORIENTED) is SpliceKind.SEIFERT


def test_classify_multi_component(trefoil):
    with pytest.raises(MultiComponentError):
        classify_splice(smooth(trefoil, "1", ORIENTED), "2", DISORIENTED)


def test_smooth_commutes(table):
    """Slot-pairing smoothings at distinct crossings commute (exhaustive
    n <= 6 over crossing pairs and both pairings each)."""
    for m in small_projections(table, 6):
        for c1 in range(m.n):
            for c2 in range(c1 + 1, m.n):
                for p1, p2 in product((0, 1), repeat=2):
                    a = _smooth_pairings(m, {c1: p1})
                    a = _smooth_pairings(a, {a.crossing_index(m.names[c2]): p2})
                    b = _smooth_pairings(m, {c2: p2})
                    b = _smooth_pairings(b, {b.crossing_index(m.names[c1]): p1})
                    assert equivalent(a, b)


# ---------------------------------------------------------------------------
# states


def test_apply_state_trefoil(trefoil):
    st = make_state(trefoil, {nm: ORIENTED for nm in trefoil.names})
    assert apply_state(trefoil, st) == 2
    assert is_seifert_state(st)
    mixed = make_state(
        trefoil, {"1": DISORIENTED, "2": ORIENTED, "3": ORIENTED}
    )
    assert not is_seifert_state(mixed)


def test_apply_state_on_circle():
    st = make_state(O_MAP, {})
    assert apply_state(O_MAP, st) == 1
    assert is_seifert_state(st)


def test_apply_state_mismatch(trefoil, kink):
    st = make_state(kink, {"1": ORIENTED})
    with pytest.raises(InvalidMove):
        apply_state(trefoil, st)
    with pytest.raises(InvalidMove):
        make_state(trefoil, {"1": ORIENTED})


def test_state_rejects_bad_pairings(trefoil):
    for pairings in ((2, 7, -1), (0, 1, 2), (0, -1, 1)):
        with pytest.raises(InvalidMove, match="0 or 1"):
            State(trefoil, pairings)


def test_apply_state_order_independence(table):
    """Applying the pairings one crossing at a time, in any order, always
    matches the simultaneous circle count (exhaustive n <= 6, all states;
    forward and reversed orders plus an interleaved one, and all crossings
    in one call)."""
    for m in small_projections(table, 6):
        for ps in product((0, 1), repeat=m.n):
            expected = count_state_circles(m, ps) + m.free_circles
            orders = [list(range(m.n)), list(range(m.n))[::-1]]
            orders.append(sorted(range(m.n), key=lambda c: (c % 2, c)))
            for order in orders:
                cur = m
                for c in order:
                    cur = _smooth_pairings(cur, {cur.crossing_index(m.names[c]): ps[c]})
                assert cur.n == 0 and cur.free_circles == expected
            at_once = _smooth_pairings(m, dict(enumerate(ps)))
            assert at_once.n == 0 and at_once.free_circles == expected


def test_state_chi():
    assert state_chi(3, 2) == -1
    assert state_chi(3, 3) == 0
    assert state_chi(0, 1) == 1
    with pytest.raises(InvalidMove):
        state_chi(2, 0)


def test_seifert_genus(trefoil, table_maps):
    assert seifert_genus(trefoil) == 1
    assert seifert_genus(O_MAP) == 0
    assert seifert_genus(gen_rational(1, 2)) == 1
    assert seifert_genus(table_maps["4_1"]) == 1
    assert seifert_genus(table_maps["6_2"]) == 2


def test_seifert_genus_against_state_oracle(table):
    """The genus from ``_smooth_pairings``'s Seifert circle count equals the
    arc-following oracle's on both bundled files, the family members up to
    17 crossings and each bundled projection grown by two kinks."""
    nine = ingest_table(bundled_table_path().parent / "projections_9.gauss")
    maps = [e.map for e in table] + [e.map for e in nine]
    maps += [m for _, m in family_members(17)]
    for e in table:
        m = ri_plus(e.map, (e.map.names[0], 0), "L")
        maps.append(ri_plus(m, (m.names[-1], 1), "R"))
    for m in maps:
        seifert = [oriented_pairing(m, c) for c in range(m.n)]
        circles = count_state_circles(m, seifert) + m.free_circles
        assert 2 * seifert_genus(m) == 1 + m.n - circles, m


# ---------------------------------------------------------------------------
# insertions


def test_ri_plus_on_circle(kink):
    m = ri_plus(O_MAP, None, "L")
    assert equivalent(m, kink)
    assert equivalent(ri_plus(O_MAP, None, "R"), kink)


def test_ri_plus_inverse_law(table):
    for m in small_projections(table, 5):
        for name in m.names:
            for slot in range(4):
                for side in "LR":
                    bigger = ri_plus(m, (name, slot), side)
                    new = next(nm for nm in bigger.names if nm not in m.names)
                    assert classify_splice(bigger, new, DISORIENTED) is SpliceKind.RI_MINUS
                    assert equivalent(smooth(bigger, new, DISORIENTED), m)


def test_ri_plus_both_sides_differ_locally(trefoil):
    left = ri_plus(trefoil, ("1", 0), "L")
    right = ri_plus(trefoil, ("1", 0), "R")
    assert left.n == right.n == 4
    # both are one kink away from the trefoil
    for m in (left, right):
        new = next(nm for nm in m.names if nm not in trefoil.names)
        assert equivalent(smooth(m, new, DISORIENTED), trefoil)


def test_s_plus_rejected_on_circle():
    with pytest.raises(DegenerateOnO):
        s_plus(O_MAP, ("1", 0), ("1", 1))


def _band_sites(m):
    out = m.out_darts
    for orbit in m.face_orbits:
        for i in range(len(orbit)):
            for j in range(i + 1, len(orbit)):
                d1, d2 = orbit[i], orbit[j]
                if out[d1] == out[d2]:
                    yield (
                        (m.names[d1 >> 2], d1 & 3),
                        (m.names[d2 >> 2], d2 & 3),
                    )


def test_s_plus_inverse_law(table):
    for m in small_projections(table, 5):
        for loc1, loc2 in _band_sites(m):
            bigger = s_plus(m, loc1, loc2)
            assert components(bigger) == 1
            new = next(nm for nm in bigger.names if nm not in m.names)
            assert classify_splice(bigger, new, DISORIENTED) is SpliceKind.S_MINUS
            assert equivalent(smooth(bigger, new, DISORIENTED), m)


def test_s_plus_requires_common_face(trefoil):
    """``s_plus`` and ``twist_move`` share one band check."""
    for insert in (s_plus, lambda m, a, b: twist_move(m, a, b, 1, "A")):
        # darts on distinct faces are rejected
        rejected = 0
        for c1 in trefoil.names:
            for c2 in trefoil.names:
                try:
                    insert(trefoil, (c1, 0), (c2, 2))
                except InvalidMove as exc:
                    rejected += "common face" in str(exc)
        assert rejected > 0
        # so are identical darts, and the simple closed curve has no arcs
        with pytest.raises(InvalidMove, match="distinct darts"):
            insert(trefoil, ("1", 0), ("1", 0))
        with pytest.raises(DegenerateOnO):
            insert(O_MAP, ("1", 0), ("1", 1))
        # a band between two curves would join them, which no move does
        link = smooth(trefoil, "1", ORIENTED)
        with pytest.raises(InvalidMove, match="different curves"):
            insert(link, ("2", 0), ("3", 3))


def test_s_plus_recovers_trefoil(double_kink, trefoil):
    hits = [
        s_plus(double_kink, loc1, loc2)
        for loc1, loc2 in _band_sites(double_kink)
    ]
    assert any(equivalent(h, trefoil) for h in hits)


def test_twist_move_builds_torus(kink):
    bigon = next(o for o in kink.face_orbits if len(o) == 2)
    locs = [(kink.names[d >> 2], d & 3) for d in bigon]
    for l in (2, 3, 4):
        grown = twist_move(kink, locs[0], locs[1], 2 * l - 2, "A")
        assert equivalent(grown, gen_torus(l))


def test_twist_move_variants(kink, trefoil):
    """The two variants coil opposite arcs; both are legal wherever the
    parity fits, and they coincide at symmetric sites like the curl's
    bigon."""
    bigon = next(o for o in kink.face_orbits if len(o) == 2)
    locs = [(kink.names[d >> 2], d & 3) for d in bigon]
    for i in (2, 4):
        a = twist_move(kink, locs[0], locs[1], i, "A")
        b = twist_move(kink, locs[0], locs[1], i, "B")
        assert equivalent(a, b)
    big = next(o for o in trefoil.face_orbits if len(o) == 3)
    locs = [(trefoil.names[d >> 2], d & 3) for d in big]
    for variant in "AB":
        grown = twist_move(trefoil, locs[0], locs[1], 3, variant)
        assert grown.n == 6
        from splicecap import u_minus

        assert u_minus(grown)[0] <= 2


def test_twist_move_parity_rule(trefoil):
    """Odd twist regions need compatibly traversed arcs; even always fit."""
    out = trefoil.out_darts
    bigon = next(o for o in trefoil.face_orbits if len(o) == 2)
    d1, d2 = bigon
    locs = [(trefoil.names[d >> 2], d & 3) for d in (d1, d2)]
    assert out[d1] != out[d2]  # braid bigon arcs run the same way
    with pytest.raises(InvalidMove):
        twist_move(trefoil, locs[0], locs[1], 3, "A")
    grown = twist_move(trefoil, locs[0], locs[1], 2, "A")
    assert grown.n == 5 and components(grown) == 1


def test_twist_move_matches_trial_coil(table):
    """Coiling on the right always lands the loop on the other arc's face:
    the same maps and the same errors as trying both sides, over every
    ordered dart pair of the small table entries."""
    from conftest import trial_twist_move

    def outcome(move, *args):
        try:
            q = move(*args)
        except SpliceCapError as exc:
            return type(exc)
        return q.opp, q.names, q.free_circles

    built = 0
    for m in small_projections(table, 6):
        locs = [(m.names[d >> 2], d & 3) for d in range(4 * m.n)]
        for a in locs:
            for b in locs:
                for i in (1, 2, 3, 4):
                    for variant in "AB":
                        args = (m, a, b, i, variant)
                        got = outcome(twist_move, *args)
                        assert got == outcome(trial_twist_move, *args), args
                        built += not isinstance(got, type)
    assert built > 1000


def test_twist_move_undo_costs_one_band(table, trefoil):
    """A twist region is undone by one band splice plus kink removals."""
    from splicecap import u_minus

    base, _ = u_minus(trefoil)
    for loc1, loc2 in list(_band_sites(trefoil))[:4]:
        for i in (1, 2, 3):
            try:
                grown = twist_move(trefoil, loc1, loc2, i, "A")
            except InvalidMove:
                continue
            value, _ = u_minus(grown)
            assert value <= base + 1


def test_interleaved_reconnection_property(table):
    """After an oriented splice at one crossing of an interleaved pair, both
    splices at the other crossing reconnect to a single closed curve
    (exhaustive over interleaved pairs, n <= 8)."""
    from splicecap import interleaved

    for entry in table:
        m = entry.map
        if m.n < 2 or m.n > 8:
            continue
        for i, c1 in enumerate(m.names):
            for c2 in m.names[i + 1 :]:
                if not interleaved(m, c1, c2):
                    continue
                half = smooth(m, c1, ORIENTED)
                assert components(half) == 2
                for choice in (ORIENTED, DISORIENTED):
                    assert components(smooth(half, c2, choice)) == 1
