"""Oracles for the maps the moves build without the public constructor's
checks, and for the descent children the ``u_minus`` dynamic program reads
off traversal tokens."""

from random import Random

import pytest

from splicecap import (
    CurveMap,
    O_KEY,
    SmoothingChoice,
    bundled_table_path,
    connected_sum,
    ingest_table,
    reduce_ri,
    ri_plus,
    smooth,
    twist_move,
)
from splicecap import surfaces
from splicecap.curvemap import _curve_tokens, _token_key
from splicecap.search import _band_insertions, _bigons, _token_children
from splicecap.splices import _smooth_pairings
from conftest import family_members

DISORIENTED = SmoothingChoice.DISORIENTED


def _kink_grown(maps, rng):
    """Each map with three random ``RI+`` insertions."""
    out = []
    for m in maps:
        for _ in range(3):
            m = ri_plus(m, (rng.choice(m.names), rng.randrange(4)), rng.choice("LR"))
        out.append(m)
    return out


@pytest.fixture(scope="module")
def knots(table):
    """The bundled knot projections, the nine-crossing ones, and both grown
    by three kinks each."""
    nine = ingest_table(bundled_table_path().parent / "projections_9.gauss")
    base = [e.map for e in table + nine if len(e.map.curve_components) == 1]
    return base + _kink_grown(base, Random(12))


@pytest.fixture(scope="module")
def descent_sums(table):
    """Seeded 11-crossing sums of table entries, as the descent benchmark
    builds them: summands of 3 and 8, 4 and 7, or 5 and 6 crossings, each
    cut at a random dart."""
    rng = Random(20)
    by_n = {}
    for e in table:
        by_n.setdefault(e.n, []).append(e.map)
    out = []
    for _ in range(20):
        for na, nb in ((3, 8), (4, 7), (5, 6)):
            a, b = rng.choice(by_n[na]), rng.choice(by_n[nb])
            da = rng.choice(a.names), rng.randrange(4)
            db = rng.choice(b.names), rng.randrange(4)
            out.append(connected_sum(a, da, b, db))
    return out


@pytest.fixture(scope="module")
def kink_free_classes(knots, descent_sums):
    """One map of every kink-free class that the descent meets below the
    bundled knot projections, the family members up to 17 crossings and
    the seeded sums."""
    stack = [reduce_ri(m) for m in knots + descent_sums]
    stack += [reduce_ri(m) for _, m in family_members(17)]
    seen = {}
    while stack:
        m = stack.pop()
        if m.n and m.canonical_key not in seen:
            seen[m.canonical_key] = m
            stack.extend(reduce_ri(smooth(m, name, DISORIENTED)) for name in m.names)
    return list(seen.values())


def assert_rebuilds(q):
    """The public constructor accepts ``q``'s fields and gives the same map."""
    public = CurveMap(q.opp, q.names, q.free_circles)
    assert (q.opp, q.n, q.names, q.free_circles) == (
        public.opp,
        public.n,
        public.names,
        public.free_circles,
    )
    assert q.canonical_key == public.canonical_key


def _co_face_pairs(m):
    for orbit in m.face_orbits:
        for i, d1 in enumerate(orbit):
            for d2 in orbit[i + 1 :]:
                yield (m.names[d1 >> 2], d1 & 3), (m.names[d2 >> 2], d2 & 3)


def test_smoothings_rebuild(table, knots):
    for m in knots:
        assert_rebuilds(reduce_ri(m))
        for name in m.names:
            assert_rebuilds(smooth(m, name, DISORIENTED))
    # two curves take the slower rooted key, so the table alone
    for m in (e.map for e in table):
        for name in m.names:
            assert_rebuilds(smooth(m, name, SmoothingChoice.ORIENTED))


def test_insertions_rebuild(knots):
    assert_rebuilds(ri_plus(CurveMap((), (), 1), None, "L"))
    for m in knots:
        for name in m.names:
            for slot in range(4):
                for side in "LR":
                    assert_rebuilds(ri_plus(m, (name, slot), side))
        for _, q in _band_insertions(m):
            assert_rebuilds(q)


def test_twist_regions_rebuild(table):
    for m in (e.map for e in table if e.n <= 6):
        for loc1, loc2 in _co_face_pairs(m):
            matched = m.out_darts[m.dart(*loc1)] == m.out_darts[m.dart(*loc2)]
            for variant in "AB":
                assert_rebuilds(twist_move(m, loc1, loc2, 3 if matched else 2, variant))


def test_branching_maps_rebuild(knots, monkeypatch):
    built = []

    def recording(m, chosen):
        built.append(_smooth_pairings(m, chosen))
        return built[-1]

    monkeypatch.setattr(surfaces, "_smooth_pairings", recording)
    for m in knots:
        surfaces.ak_min_genus(m)
    assert len(built) > 1000
    for q in built:
        assert_rebuilds(q)


def test_token_children_match_map_moves(knots, kink, descent_sums):
    """The tokens of a one-curve map give its canonical key, and the token
    child at each crossing it yields gives the key of splicing there and
    then reducing.  The crossings it skips add no child class."""
    assert _token_key(_curve_tokens(kink.curve_components[0])) == kink.canonical_key
    assert _token_key([]) == O_KEY
    maps = knots + [m for _, m in family_members(17)] + descent_sums
    children = 0
    for m in maps:
        orbit = m.curve_components[0]
        tokens = _curve_tokens(orbit)
        assert _token_key(tokens) == m.canonical_key, m
        crossings, keys = [], set()
        for p, child in _token_children(tokens):
            name = m.names[orbit[p] >> 2]
            crossings.append(name)
            two_step = reduce_ri(smooth(m, name, DISORIENTED))
            assert _token_key(child) == two_step.canonical_key, (m, name)
            keys.add(two_step.canonical_key)
            children += 1
        assert len(set(crossings)) == len(crossings)
        every = {reduce_ri(smooth(m, c, DISORIENTED)).canonical_key for c in m.names}
        assert keys == every, m
    assert children > 2000


def test_token_bigons_match_faces(kink_free_classes):
    """On tokens, :func:`_bigons` finds exactly the crossing pairs of the
    two-dart faces, and the two crossings of each such face splice to the
    same reduced class, which is why ``_token_children`` keeps one
    crossing per twist region."""
    bigons = 0
    for m in kink_free_classes:
        orbit = m.curve_components[0]
        # a set, since each bigon shows on both of its edges
        found = {
            frozenset(m.names[orbit[v] >> 2] for v in pair)
            for pair in _bigons(_curve_tokens(orbit))
        }
        faces = {
            frozenset(m.names[d >> 2] for d in face)
            for face in m.face_orbits
            if len(face) == 2
        }
        assert found == faces, m
        for a, b in faces:
            assert (
                reduce_ri(smooth(m, a, DISORIENTED)).canonical_key
                == reduce_ri(smooth(m, b, DISORIENTED)).canonical_key
            ), (m, a, b)
        bigons += len(faces)
    assert len(kink_free_classes) > 500 and bigons > 2500
