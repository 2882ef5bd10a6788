import gc

import pytest

from splicecap import (
    ClassKind,
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
    ri_plus,
    smooth,
    u_minus,
    O_MAP,
    SmoothingChoice,
)
from conftest import family_members


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
    from splicecap import mirror_map

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
