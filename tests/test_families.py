import gc
from random import Random

import pytest

from splicecap import (
    ClassKind,
    CurveMap,
    ClassLabel,
    InvalidMove,
    MultiComponentError,
    Pretzel,
    Rational,
    Sum,
    Torus,
    classify_projection,
    components,
    connected_sum,
    decompose_prime,
    equivalent,
    gen_family,
    gen_pretzel,
    gen_rational,
    gen_torus,
    is_prime,
    match_family,
    mirror_map,
    ri_plus,
    smooth,
    u_minus,
    O_MAP,
    SignedGaussCode,
    SmoothingChoice,
    bundled_table_path,
    build_map,
    extract_code,
    ingest_table,
    reduce_ri,
    render_code,
    s_plus,
)
from conftest import family_members, stretch_decompose_prime


def test_crossing_count_formulas():
    """Generated members match the family crossing-count formulas
    (exhaustive for parameters up to twelve crossings)."""
    for name, m in family_members(12):
        assert components(m) == 1, name
        if name.startswith("torus"):
            l = int(name[6:-1])
            assert m.n == 2 * l - 1
        elif name.startswith("rational"):
            a, b = map(int, name[9:-1].split(","))
            assert m.n == 2 * a + 2 * b - 1
        else:
            p, q, r = map(int, name[8:-1].split(","))
            assert m.n == 2 * (p + q + r) - 2


def test_parameter_bounds():
    with pytest.raises(InvalidMove):
        gen_torus(1)
    with pytest.raises(InvalidMove):
        gen_rational(0, 2)
    with pytest.raises(InvalidMove):
        gen_rational(1, 1)
    with pytest.raises(InvalidMove):
        gen_pretzel(0, 1, 1)
    with pytest.raises(InvalidMove):
        Sum(())
    with pytest.raises(InvalidMove):
        Sum((Torus(2), Sum((Torus(2),))))


def _gauss_word_rational(m, n):
    """The rational member built from its Gauss word (clasp, row, clasp,
    reversed row): an oracle for the column-built ``gen_rational``."""
    a = [str(i + 1) for i in range(2 * m)]
    b = [str(2 * m + i + 1) for i in range(2 * n - 1)]
    word = a + b + a + b[::-1]
    return build_map(SignedGaussCode((tuple((lab, 1) for lab in word),)))


def test_gen_rational_matches_gauss_word_oracle():
    """The pretzel closure P(2m, 1, ..., 1) is the double-twist projection:
    same class, same record text and the same descent witness."""
    for m in range(1, 9):
        for n in range(2, 9):
            got, want = gen_rational(m, n), _gauss_word_rational(m, n)
            assert got.canonical_key == want.canonical_key, (m, n)
            assert render_code(extract_code(got)) == render_code(extract_code(want))
            if m <= 5 and n <= 6:
                assert u_minus(got)[1].steps == u_minus(want)[1].steps, (m, n)


def test_gen_torus_is_trefoil(trefoil):
    assert equivalent(gen_torus(2), trefoil)
    assert gen_family(Torus(2)).canonical_key == trefoil.canonical_key


def test_gen_family_sum(trefoil):
    s = gen_family(Sum((Torus(2), Torus(2))))
    assert s.n == 6
    assert [f.n for f in decompose_prime(s)] == [3, 3]


def test_connected_sum_counts(trefoil, table_maps):
    s = connected_sum(trefoil, None, trefoil, None)
    assert s.n == 6 and components(s) == 1
    assert u_minus(s)[0] == 2
    big = connected_sum(table_maps["7_4"], None, table_maps["7_4"], None)
    assert big.n == 14


def test_sum_with_circle_is_identity(trefoil):
    assert equivalent(connected_sum(trefoil, None, O_MAP, None), trefoil)
    assert equivalent(connected_sum(O_MAP, None, trefoil, None), trefoil)


def test_sum_with_circle_checks_named_darts(trefoil):
    """A named basepoint must exist, also beside a crossingless summand."""
    for args in ((O_MAP, ("1", 0), trefoil, None), (O_MAP, None, trefoil, ("9", 0))):
        with pytest.raises(InvalidMove, match="unknown crossing"):
            connected_sum(*args)
    assert equivalent(connected_sum(O_MAP, None, trefoil, ("1", 0)), trefoil)


def test_sum_multi_component_rejected(trefoil):
    with pytest.raises(MultiComponentError):
        connected_sum(
            trefoil, None, smooth(trefoil, "1", SmoothingChoice.ORIENTED), None
        )


def test_sum_basepoint_choices(trefoil, table_maps):
    """Band counts are basepoint-independent under the sum."""
    other = table_maps["5_2"]
    expect = u_minus(trefoil)[0] + u_minus(other)[0]
    for name1 in trefoil.names:
        for slot in (0, 2):
            s = connected_sum(trefoil, (name1, slot), other, ("3", 1))
            assert u_minus(s)[0] == expect


def test_sum_with_circle_keeps_the_code(table):
    """A simple closed curve summand, on either side, leaves the other
    factor rebuilt from its code.  (``build_map`` names crossings in the
    order the word first visits them, so the rebuilt map's code can be a
    relabelled rotation of the factor's.)"""
    for entry in table:
        want = render_code(extract_code(build_map(extract_code(entry.map))))
        for s in (
            connected_sum(entry.map, None, O_MAP, None),
            connected_sum(O_MAP, None, entry.map, None),
        ):
            assert render_code(extract_code(s)) == want, entry.name
    circle = connected_sum(O_MAP, None, O_MAP, None)
    assert render_code(extract_code(circle)) == render_code(extract_code(O_MAP))


def _edge_swap_keys(p1, d1, p2, d2):
    """Keys of the sums that join the edge of dart ``d1`` of ``p1`` to the
    edge of dart ``d2`` of ``p2`` or of its mirror: both edges are cut and
    their ends swapped, both ways.  An oracle built on the two edge
    involutions alone."""
    keys = set()
    reflected = (d2 & ~3) | ((-d2) & 3)  # the dart's image under mirror_map
    for g, e in ((p2, d2), (mirror_map(p2), reflected)):
        shift = 4 * p1.n
        opp = list(p1.opp) + [x + shift for x in g.opp]
        a, b = d1, e + shift
        a2, b2 = opp[a], opp[b]
        for x, y in ((b, b2), (b2, b)):
            swapped = list(opp)
            swapped[a], swapped[x] = x, a
            swapped[a2], swapped[y] = y, a2
            keys.add(CurveMap(swapped).canonical_key)
    return keys


def test_sum_cuts_at_the_named_edge(table):
    """A sum at named darts joins the edges those darts lie on."""
    rng = Random(17)
    for _ in range(200):
        a, b = rng.choice(table).map, rng.choice(table).map
        d1, d2 = rng.randrange(4 * a.n), rng.randrange(4 * b.n)
        s = connected_sum(
            a, (a.names[d1 >> 2], d1 & 3), b, (b.names[d2 >> 2], d2 & 3)
        )
        assert s.canonical_key in _edge_swap_keys(a, d1, b, d2), (
            a.dart_name(d1), b.dart_name(d2), extract_code(a), extract_code(b)
        )


def test_decompose_prime_basics(trefoil, kink):
    assert decompose_prime(O_MAP) == []
    assert is_prime(trefoil)
    assert not is_prime(O_MAP)
    assert is_prime(kink)
    factors = decompose_prime(connected_sum(kink, None, trefoil, None))
    assert sorted(f.n for f in factors) == [1, 3]
    assert any(equivalent(f, trefoil) for f in factors)
    assert any(equivalent(f, kink) for f in factors)


def test_decompose_reassembles(table, trefoil, table_maps):
    """Factors multiply back to the input for some basepoint/orientation
    choice (projection-level sums are not unique, so the default basepoints
    need not reproduce the original gluing)."""
    def reassembles(s, f1, f2):
        for n1 in f1.names:
            for s1 in range(4):
                for n2 in f2.names:
                    for s2 in range(4):
                        for g in (f2, mirror_map(f2)):
                            if equivalent(
                                connected_sum(f1, (n1, s1), g, (n2, s2)), s
                            ):
                                return True
        return False

    pairs = [
        (trefoil, trefoil),
        (trefoil, table_maps["5_2"]),
        (table_maps["4_1"], table_maps["4_1"]),
        (table_maps["6_3"], trefoil),
    ]
    for a, b in pairs:
        s = connected_sum(a, None, b, None)
        factors = decompose_prime(s)
        assert len(factors) == 2
        assert reassembles(s, factors[0], factors[1])


def test_decompose_prime_leaves_no_cycles(table_maps):
    """The factor lists are freed when dropped, without the cyclic
    collector: the factorization builds no reference cycle."""
    s = connected_sum(table_maps["7_4"], None, table_maps["5_2"], None)
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            decompose_prime(s)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _oracle_inputs(table_maps):
    """One-curve maps for the prime split: the bundled records, seeded
    self-sums (equal-key ties), mixed sums, kink-grown sums and family
    members."""
    data = bundled_table_path().parent
    out = [
        e.map
        for path in ("projections_le8.gauss", "projections_9.gauss", "sum_74.gauss")
        for e in ingest_table(data / path)
        if components(e.map) == 1
    ]
    rng = Random(25)
    primes = [m for m in table_maps.values() if m.n > 0]

    def dart(m):
        return rng.choice(m.names), rng.randrange(4)

    def total(parts):
        s = parts[0]
        for f in parts[1:]:
            s = connected_sum(s, dart(s), f, dart(f))
        return s

    sums = [total([rng.choice(primes)] * rng.randint(2, 5)) for _ in range(80)]
    sums += [total(rng.choices(primes, k=rng.randint(2, 4))) for _ in range(80)]
    for _ in range(80):
        s = rng.choice(sums)
        for _ in range(rng.randint(1, 4)):
            s = ri_plus(s, dart(s), rng.choice("LR"))
        sums.append(s)
    # "2+ 4- 4- 3+ 3+ 2+ 1+ 1+": kinks 4 and 3 sit in the loop of kink 2.
    # The traversal leaves them 4, 3, 2, 1; the stretch split walks that
    # loop's sub-map backwards and returns 3, 4, 2, 1
    nested = CurveMap((4, 2, 1, 5, 0, 3, 15, 8, 7, 12, 11, 10, 9, 14, 13, 6))
    return (
        out + sums + [nested] + [m for _, m in family_members(17)]
        + [gen_torus(l) for l in range(2, 41)]
    )


def test_decompose_prime_matches_stretch_oracle(table_maps):
    """The face-pair split gives the factors, names and codes of the split
    one closing stretch at a time, in the same key order. Equal keys come
    in the order the input's traversal leaves them for the last time; the
    oracle's ties follow the direction it walks each cut-off piece in."""
    def signature(factors):
        return [
            (f.canonical_key, f.names, render_code(extract_code(f))) for f in factors
        ]

    for m in _oracle_inputs(table_maps):
        got = decompose_prime(m)
        if len(got) == 1 and got[0].n == m.n:
            assert got[0] is m
        sig, want = signature(got), signature(stretch_decompose_prime(m))
        assert [k for k, _, _ in sig] == [k for k, _, _ in want]
        assert sorted(sig) == sorted(want)
        last = {m.names[m.opp[d] >> 2]: i for i, d in enumerate(m.curve_components[0])}
        for (k1, n1, _), (k2, n2, _) in zip(sig, sig[1:]):
            if k1 == k2:
                assert max(map(last.get, n1)) < max(map(last.get, n2))


def test_table_primality(table):
    for entry in table:
        assert entry.prime, entry.name
        assert is_prime(entry.map)


def test_u_minus_additive_over_factors(table, trefoil, table_maps):
    for a, b in [
        (trefoil, trefoil),
        (trefoil, table_maps["4_1"]),
        (table_maps["5_2"], table_maps["5_1"]),
    ]:
        s = connected_sum(a, None, b, None)
        total = sum(u_minus(f)[0] for f in decompose_prime(s))
        assert u_minus(s)[0] == total


def test_match_family(trefoil, table_maps):
    assert match_family(trefoil) == Torus(2)
    assert match_family(O_MAP) is None
    assert match_family(table_maps["7_4"]) is None
    assert match_family(gen_rational(2, 3)) == Rational(2, 3)
    assert isinstance(match_family(table_maps["4_1"]), Pretzel)


def test_classify_families():
    for name, m in family_members(12):
        label = classify_projection(m)
        if name.startswith("torus"):
            assert label.kind is ClassKind.U1, name
        else:
            assert label.kind is ClassKind.U2, name


def test_classify_closure_under_kinks(trefoil):
    """Kink insertions never change the class."""
    for name, m in family_members(8):
        base = classify_projection(m).kind
        grown = ri_plus(m, (m.names[0], 1), "L")
        assert classify_projection(grown).kind is base, name


def test_classify_sums(trefoil, table_maps):
    s = connected_sum(trefoil, None, gen_torus(3), None)
    assert classify_projection(s).kind is ClassKind.U2
    deeper = connected_sum(s, None, trefoil, None)
    assert classify_projection(deeper).kind is ClassKind.U_AT_LEAST_3
    mixed = connected_sum(trefoil, None, table_maps["4_1"], None)
    assert classify_projection(mixed).kind is ClassKind.U_AT_LEAST_3


def test_classify_unknotted(kink, double_kink):
    assert classify_projection(O_MAP).kind is ClassKind.U0
    assert classify_projection(kink).kind is ClassKind.U0
    assert classify_projection(double_kink).kind is ClassKind.U0


def test_classify_agrees_with_u_minus(table):
    for entry in table:
        value, _ = u_minus(entry.map)
        assert classify_projection(entry.map).index == min(value, 3), entry.name


def _classify_reducing_factors(m):
    """The classifier that reduces every prime factor's kinks once more: an
    oracle for ``classify_projection``, which trusts the factors with two or
    more crossings to be kink-free."""
    factors = []
    for f in decompose_prime(reduce_ri(m)):
        f = reduce_ri(f)
        if f.n != 0:
            factors.append(f)
    if not factors:
        return ClassLabel(ClassKind.U0)
    if len(factors) == 1:
        spec = match_family(factors[0])
        if isinstance(spec, Torus):
            return ClassLabel(ClassKind.U1, (spec,))
        if isinstance(spec, (Rational, Pretzel)):
            return ClassLabel(ClassKind.U2, (spec,))
        return ClassLabel(ClassKind.U_AT_LEAST_3)
    if len(factors) == 2:
        s1, s2 = (match_family(f) for f in factors)
        if isinstance(s1, Torus) and isinstance(s2, Torus):
            return ClassLabel(ClassKind.U2, (s1, s2))
    return ClassLabel(ClassKind.U_AT_LEAST_3)


def _random_dart(m, rng):
    return rng.choice(m.names), rng.randrange(4)


def _band_grown(m, rng):
    """``m`` with one random band insertion that keeps it a knot projection,
    or ``None`` when it has no such insertion."""
    out = m.out_darts
    pairs = [
        (d1, d2)
        for orbit in m.face_orbits
        for i, d1 in enumerate(orbit)
        for d2 in orbit[i + 1 :]
        if out[d1] == out[d2]
    ]
    if not pairs:
        return None
    d1, d2 = rng.choice(pairs)
    return s_plus(m, (m.names[d1 >> 2], d1 & 3), (m.names[d2 >> 2], d2 & 3))


def test_classify_matches_factor_reducing_oracle(table, table_maps):
    """Labels agree with the oracle on the table, the nine-crossing records,
    family members, kink-grown and band-grown maps, and seeded sums."""
    rng = Random(14)
    nine = ingest_table(bundled_table_path().parent / "projections_9.gauss")
    base = [e.map for e in table + nine] + [m for _, m in family_members(9)]
    maps = list(base)
    for m in base:
        grown = m
        for _ in range(rng.randrange(1, 4)):
            grown = ri_plus(grown, _random_dart(grown, rng), rng.choice("LR"))
        maps.append(grown)
        banded = _band_grown(m, rng)
        if banded is not None:
            maps.append(banded)
    kinks = [O_MAP, ri_plus(O_MAP, None, "L")]
    for _ in range(3):
        kinks.append(ri_plus(kinks[-1], _random_dart(kinks[-1], rng), rng.choice("LR")))
    maps += kinks
    small = [m for m in base if m.n <= 6] + kinks
    for _ in range(200):
        parts = [rng.choice(small) for _ in range(rng.randrange(2, 4))]
        s = parts[0]
        for part in parts[1:]:
            darts = [None if x.n == 0 else _random_dart(x, rng) for x in (s, part)]
            s = connected_sum(s, darts[0], part, darts[1])
        maps.append(s)
    # a crossing whose loop holds a whole summand bounds no monogon, so
    # reduce_ri keeps it and it comes back as a one-crossing factor
    for a, b in (("3_1", "3_1"), ("3_1", "4_1"), ("5_1", "3_1"), ("4_1", "5_2")):
        s = connected_sum(kinks[1], None, table_maps[a], None)
        for name in s.names:
            for slot in range(4):
                maps.append(connected_sum(s, (name, slot), table_maps[b], None))
    kinds = set()
    for m in maps:
        label = classify_projection(m)
        assert label == _classify_reducing_factors(m), extract_code(m)
        kinds.add(label.kind)
    assert kinds == set(ClassKind)
