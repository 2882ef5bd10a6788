import tracemalloc

import pytest

from splicecap import (
    NotRealizable,
    ParseError,
    build_map,
    components,
    equivalent,
    extract_code,
    faces,
    gen_torus,
    interleaved,
    mirror_map,
    parse_code,
    parse_record,
    render_code,
    O_KEY,
    O_MAP,
)
from splicecap.curvemap import SignedGaussCode, _canonical_key


def test_parse_trefoil(trefoil):
    assert trefoil.n == 3
    assert components(trefoil) == 1


def test_parse_free_circles():
    m = build_map(parse_code("O"))
    assert (m.n, m.free_circles) == (0, 1)
    assert components(m) == 1
    m2 = build_map(parse_code("O | O"))
    assert m2.free_circles == 2
    assert components(m2) == 2


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_code("")
    with pytest.raises(ParseError):
        parse_code("1+ 2+ 1+")  # label 2 occurs once
    with pytest.raises(ParseError):
        parse_code("1+ 2+ 3+ 1+ 2- 3+")  # inconsistent signs on 2
    with pytest.raises(ParseError):
        parse_code("1* 1*")
    with pytest.raises(ParseError):
        parse_record("no record separator")
    for text in ("²+ ²+", "١+ ١+"):  # labels are ASCII only
        with pytest.raises(ParseError, match="bad label"):
            parse_code(text)


def test_not_realizable():
    # the abab word admits no spherical realization under any signs
    for text in ("1+ 2+ 1+ 2+", "1+ 2- 1+ 2-", "1- 2+ 1- 2+"):
        with pytest.raises(NotRealizable):
            build_map(parse_code(text))


def test_render_round_trip(table):
    for entry in table:
        code = extract_code(entry.map)
        assert parse_code(render_code(code)) == code


def test_build_extract_round_trip(table):
    for entry in table:
        rebuilt = build_map(extract_code(entry.map))
        assert equivalent(rebuilt, entry.map), entry.name


def test_faces_trefoil(trefoil):
    report = faces(trefoil)
    assert report.gon_multiset == (2, 2, 2, 3, 3)
    assert sum(f.gon for f in report.faces) == 4 * trefoil.n


def test_faces_kink(kink):
    assert faces(kink).gon_multiset == (1, 1, 2)


def test_faces_simple_circle():
    report = faces(O_MAP)
    assert report.faces == ()
    assert report.free_circles == 1


def test_face_sum_equals_two_e(table):
    for entry in table:
        assert sum(f.gon for f in faces(entry.map).faces) == 4 * entry.n


def test_components_after_seifert_smooth(trefoil):
    from splicecap import SmoothingChoice, smooth

    assert components(smooth(trefoil, "1", SmoothingChoice.ORIENTED)) == 2


def test_spherical_invariant(table):
    # every accepted map satisfies V - E + F = 2 per connected sub-map
    for entry in table:
        m = entry.map
        f = len(m.face_orbits)
        assert m.n - 2 * m.n + f == 2


def test_canonical_key_symmetries(table):
    """Keys are invariant under start, direction, mirror, and relabeling
    (exhaustive over all traversal serializations for every table entry)."""
    for entry in table:
        if entry.n > 8:
            continue
        m = entry.map
        key = m.canonical_key
        code = extract_code(m)
        word = list(code.components[0])
        k = len(word)
        for rot in range(k):
            rotated = word[rot:] + word[:rot]
            for direction in (1, -1):
                oriented = rotated[::direction]
                for flip in (1, -1):
                    comps = (tuple((lab, s * flip) for lab, s in oriented),)
                    again = build_map(SignedGaussCode(comps))
                    assert again.canonical_key == key, (entry.name, rot, direction, flip)


def test_canonical_key_relabeling(trefoil):
    relabeled = build_map(parse_code("x+ y+ z+ x+ y+ z+"))
    assert relabeled.canonical_key == trefoil.canonical_key


def test_mirror_key(table):
    for entry in table:
        assert mirror_map(entry.map).canonical_key == entry.map.canonical_key


def test_distinct_keys(trefoil, table_maps):
    assert trefoil.canonical_key != table_maps["5_2"].canonical_key
    assert trefoil.canonical_key != O_KEY
    assert O_MAP.canonical_key == O_KEY


def test_one_curve_key_memory():
    """The one-curve key keeps one candidate rotation at a time.  On a torus
    projection half the visits of each of the four walks start a least
    rotation, so holding every candidate at once would take about 6 MB
    here: 1,196 lists of 598 tokens."""
    m = gen_torus(150)
    m.curve_components  # the lazy curve walk is not part of the key
    tracemalloc.start()
    try:
        key = _canonical_key(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert key == m.canonical_key
    assert peak < 1 << 20


def test_interleaved(trefoil, double_kink):
    for a, b in (("1", "2"), ("1", "3"), ("2", "3")):
        assert interleaved(trefoil, a, b)
        assert interleaved(trefoil, b, a)
    assert not interleaved(double_kink, "1", "2")
    assert not interleaved(double_kink, "2", "1")


def test_interleaved_errors(trefoil):
    from splicecap import InvalidMove, MultiComponentError, SmoothingChoice, smooth

    with pytest.raises(InvalidMove):
        interleaved(trefoil, "1", "1")
    two = smooth(trefoil, "1", SmoothingChoice.ORIENTED)
    with pytest.raises(MultiComponentError):
        interleaved(two, "2", "3")
