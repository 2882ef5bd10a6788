"""Oracles for the maps the moves build without the public constructor's
checks, and for the descent children the ``u_minus`` dynamic program reads
off traversal tokens."""

from random import Random

import pytest

from splicecap import (
    CurveMap,
    O_KEY,
    SmoothingChoice,
    SpliceKind,
    Witness,
    bundled_table_path,
    classify_splice,
    connected_sum,
    gen_pretzel,
    gen_torus,
    ingest_table,
    reduce_ri,
    ri_plus,
    smooth,
    twist_move,
    u_minus,
)
from splicecap import search, splices, surfaces
from splicecap.curvemap import (
    _curve_tokens,
    _token_key,
    label_sort_key,
)
from splicecap.search import (
    _band_insertions,
    _bigons,
    _kink_free,
    _low,
    _splice,
    _token_children,
    _u_minus_value,
    _visits,
    _word_tokens,
)
from splicecap.splices import _kinks, _smooth_pairings
from conftest import exhaustive_u_minus, family_members

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


def _crossing_words(m):
    """The crossing names along the one curve of ``m``, read from every
    start in both directions."""
    word = [m.names[d >> 2] for d in m.curve_components[0]]
    out = set()
    for w in (word, word[::-1]):
        out.update(tuple(w[k:] + w[:k]) for k in range(len(w)))
    return out


def test_token_children_match_map_moves(knots, kink, descent_sums):
    """The tokens of a one-curve map give its canonical key.  On a kinked
    map, the witness walk's splice at each crossing, without cancelling,
    gives the key and the labels of ``smooth(m, c, DISORIENTED)``, and the
    full kink pass then gives the key of ``reduce_ri`` of it.  On a
    kink-free map, the token child at each crossing ``_token_children``
    yields gives the key of splicing there and then reducing, and the
    crossings it skips add no child class."""
    assert _token_key(_curve_tokens(kink.curve_components[0])) == kink.canonical_key
    assert _token_key([]) == O_KEY
    maps = knots + [m for _, m in family_members(17)] + descent_sums
    # curves with symmetries: crossings a symmetry swaps give one child class
    maps += [gen_pretzel(3, 3, 3), gen_torus(5)]
    children = spliced = 0
    for m in maps:
        orbit = m.curve_components[0]
        tokens = _curve_tokens(orbit)
        assert _token_key(tokens) == m.canonical_key, m
        every = {reduce_ri(smooth(m, c, DISORIENTED)).canonical_key for c in m.names}
        if m.monogon_crossings:
            labels = [m.names[d >> 2] for d in orbit]
            partner, first = _visits(tokens)
            for p, q in enumerate(partner):
                if p < q:
                    order, kept = _splice(first, p, q, False)
                    child = _word_tokens(tokens, partner, order, kept)
                    one_step = smooth(m, labels[p], DISORIENTED)
                    assert _token_key(child) == one_step.canonical_key, (m, labels[p])
                    if one_step.n:
                        word = tuple(labels[i] for i in order)
                        assert word in _crossing_words(one_step), (m, labels[p])
                    two_step = reduce_ri(one_step).canonical_key
                    assert _token_key(_kink_free(child)) == two_step, (m, labels[p])
                    spliced += 1
            continue
        crossings, keys = [], set()
        for p, child in _token_children(tokens):
            name = m.names[orbit[p] >> 2]
            crossings.append(name)
            two_step = reduce_ri(smooth(m, name, DISORIENTED))
            assert _token_key(child) == two_step.canonical_key, (m, name)
            keys.add(two_step.canonical_key)
            children += 1
        assert len(set(crossings)) == len(crossings)
        assert keys == every, m
    assert children > 1000 and spliced > 1500


def test_join_cancellation_matches_kink_pass(kink_free_classes):
    """On a kink-free curve, cancelling the splice's kinks outward from its
    two joins leaves the same visits as the full kink pass over the whole
    spliced word, and the same child tokens."""
    splices = 0
    for m in kink_free_classes:
        tokens = _curve_tokens(m.curve_components[0])
        partner, first = _visits(tokens)
        for p, q in enumerate(partner):
            if p < q:
                joined, kept = _splice(first, p, q, True)
                order, whole = _splice(first, p, q, False)
                gone = set(_kinks([first[i] for i in order]))
                assert joined == [i for i in order if first[i] not in gone], (m, p)
                child = _word_tokens(tokens, partner, joined, kept)
                unreduced = _word_tokens(tokens, partner, order, whole)
                assert child == _kink_free(unreduced), (m, p)
                splices += 1
    assert splices > 4000


def _map_walk_u_minus(m):
    """``u_minus`` with the witness walk on maps: at every step, the least
    crossing label whose disoriented splice stays optimal, with kinks at
    cost 0 and the values of the children looked up through ``reduce_ri``
    and the descent memo.  An oracle for the walk on traversal tokens."""
    dis = SmoothingChoice.DISORIENTED

    def value(q):
        r = reduce_ri(q)
        return _u_minus_value(_curve_tokens(r.curve_components[0]) if r.n else [])

    total = remaining = value(m)
    steps = []
    cur = m
    while cur.n:
        for name in sorted(cur.names, key=label_sort_key):
            kind = classify_splice(cur, name, dis)
            child = smooth(cur, name, dis)
            cost = kind is SpliceKind.S_MINUS
            if cost + value(child) == remaining:
                break
        else:
            raise AssertionError("no optimal step")
        cur = child
        steps.append(f"{kind.value} {name}")
        remaining -= cost
    assert cur.canonical_key == O_KEY
    return total, Witness(m.canonical_key, tuple(steps))


def test_token_walk_matches_map_walk(knots, descent_sums):
    """The witness walk on traversal tokens gives the map walk's witness,
    byte for byte, on the bundled files, kink-grown maps, seeded sums and
    the family members."""
    sum_74 = ingest_table(bundled_table_path().parent / "sum_74.gauss")
    maps = knots + descent_sums + [e.map for e in sum_74]
    maps += [m for _, m in family_members(17)]
    for m in maps:
        assert u_minus(m) == _map_walk_u_minus(m), m
    assert len(maps) > 400


def test_u_minus_builds_no_map(table_maps, descent_sums, monkeypatch):
    """A cold ``u_minus`` builds no ``CurveMap`` beyond its input: every
    move builds its map through ``_smooth_pairings`` or ``CurveMap._of``,
    and both raise here."""

    def no_map(*args):
        raise AssertionError("u_minus built a map")

    monkeypatch.setattr(splices, "_smooth_pairings", no_map)
    monkeypatch.setattr(CurveMap, "_of", classmethod(no_map))
    monkeypatch.setattr(search, "_UMINUS_MEMO", {O_KEY: 0})
    for m in (table_maps["8x1"], descent_sums[0]):
        fresh = CurveMap(m.opp, m.names, m.free_circles)
        assert u_minus(fresh)[0] > 0
    assert len(search._UMINUS_MEMO) > 10


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


def test_low_is_exact(kink_free_classes):
    """The word test gives 1 on exactly the kink-free classes whose
    exhaustive descent value is 1, and 0 only on the circle."""
    assert _low([]) == 0
    ones = 0
    for m in kink_free_classes:
        low = _low(_curve_tokens(m.curve_components[0]))
        assert low in (None, 1), m
        assert (low == 1) == (exhaustive_u_minus(m) == 1), m
        ones += low == 1
    assert ones >= 5


def _full_expansion_u_minus(tokens, memo):
    """``u_minus`` of the kink-free curve with tokens ``tokens`` by the
    descent that keys every child class and evaluates all of them, with
    no word test and no early stop: an oracle for both, stored in
    ``memo``."""
    root = _token_key(tokens)
    stack = [] if root in memo else [(root, tokens, None)]
    while stack:
        key, tokens, children = stack.pop()
        if children is not None:
            memo[key] = 1 + min(memo[c] for c in children)
        elif key not in memo:
            kids = {}
            for _, child in _token_children(tokens):
                kids.setdefault(_token_key(child), child)
            stack.append((key, tokens, list(kids)))
            stack.extend((k, kid, None) for k, kid in kids.items() if k not in memo)
    return memo[root]


def test_u_minus_value_matches_full_expansion(table, descent_sums, monkeypatch):
    """Cold, the descent with the word test and the early stop gives the
    full expansion's value on the table, the seeded sums and the family
    members up to 14 crossings, and every value it stores in its memo is
    the full expansion's value for the same key."""
    maps = [e.map for e in table if len(e.map.curve_components) == 1]
    maps += descent_sums + [m for _, m in family_members(14)]
    oracle = {O_KEY: 0}
    stored = set()
    for m in maps:
        memo = {O_KEY: 0}
        monkeypatch.setattr(search, "_UMINUS_MEMO", memo)
        tokens = _kink_free(_curve_tokens(m.curve_components[0]) if m.n else [])
        assert u_minus(m)[0] == _full_expansion_u_minus(tokens, oracle), m
        for key, value in memo.items():
            assert oracle[key] == value, (m, key)
        stored.update(memo.values())
    assert {0, 2, 3, 4} <= stored and len(maps) > 150
