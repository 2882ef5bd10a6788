import importlib.util
from itertools import product
from pathlib import Path
from random import Random

import pytest

from splicecap import (
    CurveMap,
    InvalidMove,
    SmoothingChoice,
    bundled_external_path,
    bundled_table_path,
    build_map,
    connected_sum,
    gen_pretzel,
    gen_rational,
    gen_torus,
    ingest_external,
    ingest_table,
    parse_code,
    ri_plus,
    s_plus,
    smooth,
)
from splicecap.curvemap import O_MAP, dense_opp
from splicecap.splices import _band_darts, _smooth_pairings, oriented_pairing

# n = 9; the crosscap branching leaves a disconnected remainder on this one
SPLITTING_CODE = "1+ 2+ 3+ 4+ 7+ 1+ 8- 6+ 5+ 9+ 6+ 5+ 9+ 8- 2+ 7+ 4+ 3+"


@pytest.fixture(scope="session")
def table():
    return ingest_table(bundled_table_path())


@pytest.fixture(scope="session")
def table_maps(table):
    return {e.name: e.map for e in table}


@pytest.fixture(scope="session")
def external_rows():
    return ingest_external(bundled_external_path())


@pytest.fixture(scope="session")
def classes_by_size():
    """Every one-curve class with one to seven crossings, by crossing
    number: each layer grown from the one below by the curation tool's
    ``insertions`` (every ``RI+`` and ``S+``), one map per canonical key."""
    tool = Path(__file__).resolve().parent.parent / "tools" / "enumerate_projections.py"
    spec = importlib.util.spec_from_file_location("enumerate_projections", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    by_size = {}
    layer = [O_MAP]
    for n in range(1, 8):
        grown = {}
        for m in layer:
            for q in module.insertions(m):
                grown.setdefault(q.canonical_key, q)
        layer = by_size[n] = list(grown.values())
    return by_size


@pytest.fixture(scope="session")
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


@pytest.fixture(scope="session")
def trefoil():
    return build_map(parse_code("1+ 2+ 3+ 1+ 2+ 3+"))


@pytest.fixture(scope="session")
def kink():
    return build_map(parse_code("1+ 1+"))


@pytest.fixture(scope="session")
def double_kink():
    return build_map(parse_code("1+ 1+ 2+ 2+"))


def family_members(max_crossings):
    """All torus/rational/pretzel members up to a crossing budget."""
    out = []
    for l in range(2, (max_crossings + 1) // 2 + 1):
        if 2 * l - 1 <= max_crossings:
            out.append((f"torus({l})", gen_torus(l)))
    for m in range(1, max_crossings // 2 + 1):
        for n in range(2, max_crossings // 2 + 2):
            if 2 * m + 2 * n - 1 <= max_crossings:
                out.append((f"rational({m},{n})", gen_rational(m, n)))
    for p in range(1, max_crossings // 2 + 1):
        for q in range(1, max_crossings // 2 + 1):
            for r in range(q, max_crossings // 2 + 1):
                # (q, r) swap gives the mirror-symmetric closure; skip echoes
                if 2 * (p + q + r) - 2 <= max_crossings:
                    out.append((f"pretzel({p},{q},{r})", gen_pretzel(p, q, r)))
    return out


_EXHAUSTIVE_MEMO: dict[bytes, int] = {}


def exhaustive_u_minus(m):
    """The descent minimum memoized over every class, kinks included: the
    search without the kink quotient, an oracle for ``u_minus``."""
    if m.n == 0:
        return 0
    key = m.canonical_key
    if key not in _EXHAUSTIVE_MEMO:
        _EXHAUSTIVE_MEMO[key] = min(
            (0 if m.crossing_index(name) in m.monogon_crossings else 1)
            + exhaustive_u_minus(smooth(m, name, SmoothingChoice.DISORIENTED))
            for name in m.names
        )
    return _EXHAUSTIVE_MEMO[key]


def round_wise_reduce_ri(m):
    """Kink reduction one layer of nested kinks per round, each round
    smoothing every current monogon crossing: an oracle for ``reduce_ri``."""
    while m.monogon_crossings:
        m = _smooth_pairings(
            m, {c: 1 - oriented_pairing(m, c) for c in m.monogon_crossings}
        )
    return m


def count_state_circles(m, pairings):
    """Circles of a total smoothing, given one pairing per crossing index
    (free circles not counted), found by following the arcs of every
    crossing: an oracle for the state counts of ``_smooth_pairings``."""
    seen = [False] * (4 * m.n)
    circles = 0
    for d0 in range(4 * m.n):
        if seen[d0]:
            continue
        circles += 1
        d = d0
        while not seen[d]:
            seen[d] = True
            # pairing 0 joins slots {0,1} and {2,3}, pairing 1 {1,2} and {3,0}
            slot = d & 3
            d = 4 * (d >> 2) + (slot ^ 1 if pairings[d >> 2] == 0 else 3 - slot)
            seen[d] = True
            d = m.opp[d]
    return circles


def brute_force_chis(m):
    """State Euler characteristics over all 2^n states: (Seifert, best
    non-Seifert), the latter None when there is no other state."""
    seifert = tuple(oriented_pairing(m, c) for c in range(m.n))
    chi_s = None
    best_non = None
    for ps in product((0, 1), repeat=m.n):
        chi = count_state_circles(m, ps) + m.free_circles - m.n
        if ps == seifert:
            chi_s = chi
        elif best_non is None or chi > best_non:
            best_non = chi
    return chi_s, best_non


def trial_twist_move(m, dart1, dart2, i, variant="A"):
    """``twist_move`` with a trial coil: each kink is tried on the left and
    then on the right of the coiled arc, and kept when its outer loop dart
    shares a face with the other arc.  An oracle for the one-sided coil."""
    if i < 1:
        raise InvalidMove("twist region needs at least one crossing")
    if variant not in ("A", "B"):
        raise InvalidMove(f"variant must be 'A' or 'B', got {variant!r}")
    if variant == "B":
        dart1, dart2 = dart2, dart1
    d1, d2 = _band_darts(m, dart1, dart2)
    if (i % 2 == 1) != (m.out_darts[d1] == m.out_darts[d2]):
        raise InvalidMove("twist region parity does not fit these arcs")
    cur, band_src = m, dart2
    for _ in range(i - 1):
        for side, outer_slot in (("L", 2), ("R", 1)):
            cand = ri_plus(cur, band_src, side)
            loop = cand.dart(cand.names[-1], outer_slot)
            target = cand.dart(*dart1)
            if any(loop in f and target in f for f in cand.face_orbits):
                cur, band_src = cand, (cand.names[-1], outer_slot)
                break
        else:
            raise AssertionError("kink loop landed in neither face of the arc")
    return s_plus(cur, dart1, band_src)


def closing_stretch(word):
    """The first cyclic stretch ``(start, length)`` of a Gauss word, shorter
    than the word, that holds both visits of each of its labels; ``None``
    when there is none, i.e. when the word is prime."""
    k = len(word)
    for s in range(k):
        seen = set()
        closed = 0
        for length in range(1, k):
            lab = word[(s + length - 1) % k]
            if lab in seen:
                closed += 1
            else:
                seen.add(lab)
            if closed == len(seen):
                return s, length
    return None


def _sub_factor(m, orbit, s, length):
    """Close off the traversal stretch ``s .. s+length-1`` as its own map."""
    k = len(orbit)
    crossings = sorted({m.opp[orbit[(s + i) % k]] >> 2 for i in range(length)})
    entry_in = m.opp[orbit[s % k]]
    exit_out = orbit[(s + length) % k]
    # the stretch leaves its crossings only through these two darts
    opp = list(m.opp)
    opp[entry_in], opp[exit_out] = exit_out, entry_in
    names = tuple(m.names[c] for c in crossings)
    return CurveMap(dense_opp(opp, crossings), names, 0)


def stretch_decompose_prime(m):
    """Prime factors found one closing stretch at a time off a work stack,
    left half first, then sorted by canonical key: an oracle for
    ``decompose_prime``, its tie order included."""
    factors = []
    todo = [m]
    while todo:
        m = todo.pop()
        if m.n == 0:
            continue
        orbit = list(m.curve_components[0])
        stretch = closing_stretch([m.opp[d] >> 2 for d in orbit])
        if stretch is None:
            factors.append(m)
            continue
        s, length = stretch
        # right half below the left, so the left half is split first
        todo.append(_sub_factor(m, orbit, s + length, len(orbit) - length))
        todo.append(_sub_factor(m, orbit, s, length))
    factors.sort(key=lambda f: f.canonical_key)
    return factors
