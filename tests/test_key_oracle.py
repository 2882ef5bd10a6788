"""The token-based canonical key against the exhaustive traversal key it
replaced, kept here as the reference.

The reference tries every start, direction and reflection of a one-curve
component's Gauss-word walk; the fast key reads rotation-invariant tokens
once.  A component with more curves gets a rooted encoding of its own here,
numbered in another order than the package's.  Both keys must split any set
of maps into the same classes.  The bytes of the one-curve key are pinned
too, against the least rotation found by trying every start.
"""

import random

from splicecap import (
    SmoothingChoice,
    build_map,
    bundled_table_path,
    extract_code,
    gen_pretzel,
    gen_rational,
    gen_torus,
    ingest_table,
    mirror_map,
    ri_plus,
    s_plus,
    smooth,
)
from splicecap.curvemap import SignedGaussCode, _curve_tokens, _least_rotation


def rot2(d: int) -> int:
    """Straight through the crossing: the opposite slot."""
    return (d & ~3) | ((d + 2) & 3)


def _reference_canonical_key(m) -> bytes:
    comp_keys = sorted(
        _reference_component_key(m, crossings) for crossings in m.graph_components
    )
    head = f"n{m.n}o{m.free_circles}"
    return ";".join([head] + comp_keys).encode()


def _reference_component_key(m, crossings) -> str:
    dense = {c: i for i, c in enumerate(crossings)}
    nn = len(crossings)
    opp = [0] * (4 * nn)
    for c in crossings:
        for s in range(4):
            e = m.opp[4 * c + s]
            opp[4 * dense[c] + s] = 4 * dense[e >> 2] + (e & 3)
    # count curves in this component
    seen = [False] * (4 * nn)
    circuits = 0
    for d0 in range(4 * nn):
        if seen[d0]:
            continue
        circuits += 1
        d = d0
        while not seen[d]:
            seen[d] = True
            d = rot2(opp[d])
    if circuits == 2:
        seq = _curve_canon(opp, nn)
    else:
        seq = _rooted_encoding(opp, nn)
    return f"c{nn}:" + ",".join(map(str, seq))


def _rooted_encoding(opp: list[int], n: int) -> tuple[int, ...]:
    """Least rooted encoding of a connected map over all roots and both
    orientations.  A breadth-first walk from the root numbers the darts,
    taking each dart's edge partner before its rotation successor; the
    encoding lists both images of every dart in the new numbering."""
    best = None
    for root in range(4 * n):
        for turn in (1, 3):  # counterclockwise, then clockwise

            def step(d):
                return (d & ~3) | ((d + turn) & 3)

            new = {root: 0}
            order = [root]
            for d in order:  # grows while it is walked
                for nb in (opp[d], step(d)):
                    if nb not in new:
                        new[nb] = len(order)
                        order.append(nb)
            enc = tuple(x for d in order for x in (new[opp[d]], new[step(d)]))
            if best is None or enc < best:
                best = enc
    return best


def _curve_canon(opp: list[int], n: int) -> tuple[int, ...]:
    """Minimal traversal encoding of a one-curve map over all starts,
    directions, and reflections.

    Token stream: first visit to a crossing emits ``4L``; the second visit
    emits ``4L + 1`` or ``4L + 2`` by the sense of the second strand, with the
    two senses swapped under reflection.
    """
    total = 2 * n
    best: list[int] | None = None
    for start in range(4 * n):
        for flip in (0, 1):
            seq: list[int] = []
            labels: dict[int, int] = {}
            entries: dict[int, int] = {}
            cur = start
            abort = False
            for i in range(total):
                arrival = opp[cur]
                c, t = arrival >> 2, arrival & 3
                if c not in labels:
                    labels[c] = len(labels)
                    entries[c] = t
                    tok = 4 * labels[c]
                else:
                    delta = (t - entries[c]) & 3
                    plus = (delta == 1) ^ flip
                    tok = 4 * labels[c] + (1 if plus else 2)
                if best is not None:
                    b = best[i]
                    if tok > b:
                        abort = True
                        break
                    if tok < b:
                        best = None  # strictly better; finish this walk fresh
                seq.append(tok)
                cur = rot2(arrival)
            if not abort and (best is None or seq < best):
                best = seq
    assert best is not None
    return tuple(best)


def _disjoint_union(a, b):
    """Both projections side by side, as two graph components."""
    words = []
    for tag, m in (("a", a), ("b", b)):
        for word in extract_code(m).components:
            words.append(tuple((tag + label, sign) for label, sign in word))
    return build_map(SignedGaussCode(tuple(words)))


def _random_move(m, rng):
    """A random kink insertion or band insertion (same face, same direction)."""
    out = m.out_darts
    pairs = [
        (d1, d2)
        for orbit in m.face_orbits
        for i, d1 in enumerate(orbit)
        for d2 in orbit[i + 1 :]
        if out[d1] == out[d2]
    ]
    if pairs and rng.random() < 0.6:
        d1, d2 = rng.choice(pairs)
        return s_plus(m, (m.names[d1 >> 2], d1 & 3), (m.names[d2 >> 2], d2 & 3))
    return ri_plus(m, (rng.choice(m.names), rng.randrange(4)), rng.choice("LR"))


def _oracle_maps(table):
    rng = random.Random(2008)
    maps = []
    for entry in table:
        m = entry.map
        maps.append(m)
        maps.append(mirror_map(m))
        for name in m.names:
            maps.append(smooth(m, name, SmoothingChoice.DISORIENTED))
        maps.append(smooth(m, rng.choice(m.names), SmoothingChoice.ORIENTED))
        grown = m
        for _ in range(4):
            grown = _random_move(grown, rng)
            maps.append(grown)
            maps.append(mirror_map(grown))
            maps.append(smooth(grown, rng.choice(grown.names), SmoothingChoice.DISORIENTED))
    maps.extend(gen_torus(l) for l in range(2, 33))
    maps.extend(
        gen_pretzel(*pqr) for pqr in ((1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 2, 3), (2, 3, 2))
    )
    maps.extend(gen_rational(a, b) for a, b in ((1, 2), (2, 2), (1, 3), (3, 2)))
    small = [e.map for e in table if e.n <= 5]
    for a, b in zip(small, reversed(small)):
        maps.append(_disjoint_union(a, b))
        maps.append(_disjoint_union(a, mirror_map(b)))
        maps.append(_disjoint_union(a, smooth(b, b.names[0], SmoothingChoice.ORIENTED)))
    return maps


def test_token_key_matches_reference_partition(table):
    maps = _oracle_maps(table)
    assert len(maps) > 1000
    pairs = {(_reference_canonical_key(m), m.canonical_key) for m in maps}
    old_classes = {old for old, _ in pairs}
    new_classes = {new for _, new in pairs}
    # old keys equal <=> new keys equal: the pairing is a bijection
    assert len(old_classes) == len(new_classes) == len(pairs)
    assert len(pairs) > 450


def _brute_least_rotation(tokens: list[int]) -> list[int]:
    """The least of every rotation of the tokens, bit-flipped or not, read
    forwards or backwards; backwards, distance ``d`` reads ``2n - d``."""
    total = len(tokens)
    rev = [((total - (t >> 1)) << 1) | (t & 1) for t in reversed(tokens)]
    variants = (tokens, [t ^ 1 for t in tokens], rev, [t ^ 1 for t in rev])
    return min(v[k:] + v[:k] for v in variants for k in range(total))


def test_one_curve_key_bytes():
    """The least rotation and the key bytes of every one-curve map of the
    bundled files, of its one-crossing disoriented smoothings, and of the
    torus projections with 3 to 79 crossings."""
    data = bundled_table_path().parent
    maps = []
    for name in ("projections_le8.gauss", "projections_9.gauss", "sum_74.gauss"):
        for e in ingest_table(data / name):
            if len(e.map.curve_components) == 1:
                maps.append(e.map)
                maps.extend(
                    smooth(e.map, c, SmoothingChoice.DISORIENTED) for c in e.map.names
                )
    maps += [gen_torus(k) for k in range(2, 41)]
    keyed = 0
    for m in maps:
        if m.n and len(m.curve_components) == 1:
            tokens = _curve_tokens(m.curve_components[0])
            least = _brute_least_rotation(tokens)
            assert _least_rotation(tokens) == least, m
            seq = ",".join(map(str, least))
            assert m.canonical_key == f"n{m.n}o{m.free_circles};c{m.n}:{seq}".encode()
            keyed += 1
    assert keyed > 1000
