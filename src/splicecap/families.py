"""Twist-region families, connected sums, prime factorization, and the
classifier of projections by their splice unknotting count.

The three generated families are closures of vertical twist columns:

* torus ``T(l)``: one column of ``2l - 1`` crossings, braid-closed;
* rational ``R(m, n)``: a ``2m``-crossing clasp against a twist row of
  ``2n - 1`` crossings, i.e. the pretzel closure ``P(2m, 1, ..., 1)``;
* pretzel ``P(p, q, r)``: three columns of ``2p``, ``2q - 1``, ``2r - 1``
  crossings, pretzel-closed.

Crossing counts are ``2l - 1``, ``2m + 2n - 1`` and ``2p + 2q + 2r - 2``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache, reduce

from .curvemap import (
    CurveMap,
    SignedGaussCode,
    build_map,
    components,
    dense_opp,
    extract_code,
    label_sort_key,
)
from .errors import InvalidMove, MultiComponentError
from .splices import reduce_ri

__all__ = [
    "FamilySpec",
    "Torus",
    "Rational",
    "Pretzel",
    "Sum",
    "ClassLabel",
    "ClassKind",
    "gen_family",
    "gen_torus",
    "gen_rational",
    "gen_pretzel",
    "connected_sum",
    "decompose_prime",
    "is_prime",
    "classify_projection",
    "match_family",
]


# ---------------------------------------------------------------------------
# Family specifications


@dataclass(frozen=True)
class Torus:
    l: int

    def __post_init__(self):
        if self.l < 2:
            raise InvalidMove("torus family needs l >= 2")

    @property
    def crossings(self) -> int:
        return 2 * self.l - 1

    def __str__(self) -> str:
        return f"Torus({self.l})"


@dataclass(frozen=True)
class Rational:
    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 2:
            raise InvalidMove("rational family needs m >= 1, n >= 2")

    @property
    def crossings(self) -> int:
        return 2 * self.m + 2 * self.n - 1

    def __str__(self) -> str:
        return f"Rational({self.m},{self.n})"


@dataclass(frozen=True)
class Pretzel:
    p: int
    q: int
    r: int

    def __post_init__(self):
        if min(self.p, self.q, self.r) < 1:
            raise InvalidMove("pretzel family needs p, q, r >= 1")

    @property
    def crossings(self) -> int:
        return 2 * (self.p + self.q + self.r) - 2

    def __str__(self) -> str:
        return f"Pretzel({self.p},{self.q},{self.r})"


@dataclass(frozen=True)
class Sum:
    parts: tuple

    def __post_init__(self):
        if not self.parts:
            raise InvalidMove("a sum needs at least one part")
        for part in self.parts:
            if not isinstance(part, (Torus, Rational, Pretzel)):
                raise InvalidMove(f"not a prime family spec: {part!r}")

    @property
    def crossings(self) -> int:
        return sum(p.crossings for p in self.parts)

    def __str__(self) -> str:
        return " # ".join(str(p) for p in self.parts)


FamilySpec = Torus | Rational | Pretzel | Sum


# ---------------------------------------------------------------------------
# Column gadgets
#
# A twist column of k crossings, drawn upright, uses slots
# 0 = NE, 1 = NW, 2 = SW, 3 = SE at every crossing (counterclockwise), with
# crossing i's SW/SE joined to crossing i+1's NW/NE.  The loose ends are the
# top crossing's NW/NE and the bottom crossing's SW/SE.


def _column(opp: list[int], first: int, k: int) -> tuple[int, int, int, int]:
    """Wire a chain of ``k`` crossings starting at index ``first``; returns
    the loose ends (top-left, top-right, bottom-left, bottom-right)."""
    for i in range(k - 1):
        a = 4 * (first + i)
        b = 4 * (first + i + 1)
        opp[a + 2] = b + 1
        opp[b + 1] = a + 2
        opp[a + 3] = b + 0
        opp[b + 0] = a + 3
    top = 4 * first
    bot = 4 * (first + k - 1)
    return top + 1, top + 0, bot + 2, bot + 3


def _join(opp: list[int], a: int, b: int) -> None:
    opp[a] = b
    opp[b] = a


def gen_torus(l: int) -> CurveMap:
    """The (2, 2l-1)-torus knot projection: one braid-closed twist column."""
    k = Torus(l).crossings
    opp = [-1] * (4 * k)
    tl, tr, bl, br = _column(opp, 0, k)
    _join(opp, tl, bl)
    _join(opp, tr, br)
    return CurveMap(opp)


def gen_rational(m: int, n: int) -> CurveMap:
    """The (2m, 2n-1)-rational knot projection: a clasp of 2m crossings
    against a twist row of 2n-1 crossings, drawn as the pretzel closure
    P(2m, 1, ..., 1) with 2n-1 one-crossing columns."""
    Rational(m, n)  # validates the parameters
    return _pretzel_columns((2 * m,) + (1,) * (2 * n - 1))


def gen_pretzel(p: int, q: int, r: int) -> CurveMap:
    """The (2p, 2q-1, 2r-1)-pretzel knot projection: three pretzel-closed
    twist columns."""
    Pretzel(p, q, r)  # validates the parameters
    return _pretzel_columns((2 * p, 2 * q - 1, 2 * r - 1))


def _pretzel_columns(cols: tuple[int, ...]) -> CurveMap:
    """Pretzel closure of vertical twist columns (a curation helper too)."""
    total = sum(cols)
    opp = [-1] * (4 * total)
    ends = []
    first = 0
    for k in cols:
        ends.append(_column(opp, first, k))
        first += k
    ncols = len(cols)
    for j in range(ncols):
        tl_next = ends[(j + 1) % ncols][0]
        bl_next = ends[(j + 1) % ncols][2]
        _join(opp, ends[j][1], tl_next)   # top-right to next top-left
        _join(opp, ends[j][3], bl_next)   # bottom-right to next bottom-left
    m = CurveMap(opp)
    if components(m) != 1:
        raise MultiComponentError(
            f"pretzel closure of columns {cols} is not a knot projection"
        )
    return m


def gen_family(spec: FamilySpec) -> CurveMap:
    """Standard projection of a family member (single component, spherical);
    the parts of a ``Sum`` are prime members, summed left to right."""
    maps = []
    for part in spec.parts if isinstance(spec, Sum) else (spec,):
        if isinstance(part, Torus):
            maps.append(gen_torus(part.l))
        elif isinstance(part, Rational):
            maps.append(gen_rational(part.m, part.n))
        elif isinstance(part, Pretzel):
            maps.append(gen_pretzel(part.p, part.q, part.r))
        else:
            raise InvalidMove(f"not a prime family spec: {part!r}")
    return reduce(lambda a, b: connected_sum(a, None, b, None), maps)


# ---------------------------------------------------------------------------
# Connected sums and prime factorization


def connected_sum(
    p1: CurveMap,
    dart1: tuple[str, int] | None,
    p2: CurveMap,
    dart2: tuple[str, int] | None,
) -> CurveMap:
    """Connected sum of two knot projections at chosen basepoint arcs.

    The basepoint arc of each factor is the edge of the given dart; by
    default, the arc following the first visit to the lowest-labeled
    crossing.  Realized as word concatenation at the basepoints, crossings
    relabeled ``1..n1+n2``.  A simple closed curve summand leaves the other
    factor, rebuilt from its code; a named dart must exist there too.
    """
    for p in (p1, p2):
        if components(p) != 1:
            raise MultiComponentError("connected sum needs knot projections")
    if p1.n == 0 or p2.n == 0:
        for p, dart in ((p1, dart1), (p2, dart2)):
            if dart is not None:
                p.dart(*dart)
        return build_map(extract_code(p1 if p2.n == 0 else p2))
    relabeled: list[tuple[str, int]] = []
    mapping: dict[tuple[int, str], str] = {}
    for which, w in ((1, _cut_word(p1, dart1)), (2, _cut_word(p2, dart2))):
        for lab, sign in w:
            new = mapping.setdefault((which, lab), str(len(mapping) + 1))
            relabeled.append((new, sign))
    return build_map(SignedGaussCode((tuple(relabeled),)))


def _cut_word(m: CurveMap, dart: tuple[str, int] | None) -> tuple:
    """The factor's word cut open at the chosen basepoint arc.

    ``word[i]`` is the crossing that the edge of exit dart
    ``curve_components[0][i]`` arrives at, so the word cut at that edge
    starts at ``i``.
    """
    word = extract_code(m).components[0]
    if dart is None:
        i = 1 + min(range(len(word)), key=lambda k: label_sort_key(word[k][0]))
    else:
        d = m.dart(*dart)
        i = m.curve_components[0].index(d if m.out_darts[d] else m.opp[d])
    return word[i:] + word[:i]


def decompose_prime(m: CurveMap) -> list[CurveMap]:
    """Maximal connected-sum factorization of a knot projection.

    Returns prime factors in canonical-key order, ties in the order the
    traversal leaves them for the last time; the simple closed curve
    factors into nothing, and a prime map comes back as itself.  A sum splits along a
    circle through two faces, so the edges that border the same two faces
    cut the traversal into stretches that each close over their own
    crossings.  Stretches of different face pairs nest or lie apart, so
    every cut is made at once: each such edge's exit joins the entry of the
    edge before it in its group (README "Design notes").
    """
    if components(m) != 1:
        raise MultiComponentError("prime decomposition needs a knot projection")
    if m.n == 0:
        return []
    face = [0] * (4 * m.n)
    for i, orbit in enumerate(m.face_orbits):
        for d in orbit:
            face[d] = i
    walk = m.curve_components[0]
    groups: dict[frozenset, list[int]] = {}
    for d in walk:
        groups.setdefault(frozenset((face[d], face[m.opp[d]])), []).append(d)
    cuts = [g for g in groups.values() if len(g) > 1]
    if not cuts:
        return [m]
    opp = list(m.opp)
    for g in cuts:
        for prev, d in zip(g[-1:] + g[:-1], g):
            entry = m.opp[prev]
            opp[d], opp[entry] = entry, d
    last = {m.opp[d] >> 2: i for i, d in enumerate(walk)}
    pieces = sorted(
        CurveMap._of(tuple(opp), m.names, 0).graph_components,
        key=lambda cs: max(last[c] for c in cs),
    )
    factors = [
        CurveMap(dense_opp(opp, cs), tuple(m.names[c] for c in cs))
        for cs in pieces
    ]
    factors.sort(key=lambda f: f.canonical_key)
    return factors


def is_prime(m: CurveMap) -> bool:
    """Prime: not the simple closed curve and not a nontrivial sum."""
    if m.n == 0:
        return False
    return len(decompose_prime(m)) == 1


# ---------------------------------------------------------------------------
# Classification


class ClassKind(enum.Enum):
    U0 = 0
    U1 = 1
    U2 = 2
    U_AT_LEAST_3 = 3


@dataclass(frozen=True)
class ClassLabel:
    kind: ClassKind
    detail: tuple = ()

    @property
    def index(self) -> int:
        return self.kind.value

    def __str__(self) -> str:
        if not self.detail:
            return self.kind.name
        return f"{self.kind.name}({' # '.join(str(d) for d in self.detail)})"


@lru_cache(maxsize=None)
def _family_keys_by_count(n: int) -> dict[bytes, FamilySpec]:
    """Canonical keys of all family members with exactly ``n`` crossings."""
    out: dict[bytes, FamilySpec] = {}
    specs: list[FamilySpec] = []
    if n >= 3 and n % 2 == 1:
        specs.append(Torus((n + 1) // 2))
    for m in range(1, n // 2 + 1):
        rest = n - 2 * m
        if rest >= 3 and rest % 2 == 1:
            specs.append(Rational(m, (rest + 1) // 2))
    for p in range(1, n // 2 + 1):
        for q in range(1, n // 2 + 1):
            rr = n + 2 - 2 * p - 2 * q
            if rr >= 2 and rr % 2 == 0:
                specs.append(Pretzel(p, q, rr // 2))
    for spec in specs:
        key = gen_family(spec).canonical_key
        out.setdefault(key, spec)
    return out


def match_family(q: CurveMap) -> FamilySpec | None:
    """The family member equivalent to a kink-free projection, if any."""
    if q.n == 0:
        return None
    return _family_keys_by_count(q.n).get(q.canonical_key)


def classify_projection(m: CurveMap) -> ClassLabel:
    """Theorem-style class of a knot projection by splice unknotting count.

    ``U0`` for kink-closures of the simple circle; ``U1`` for the torus
    family closure; ``U2`` for rational or pretzel members and sums of two
    torus members; everything else needs at least three non-kink splices.
    """
    if components(m) != 1:
        raise MultiComponentError("classification needs a knot projection")
    # a kink's two outer edges border the same two faces, so it comes back
    # as a one-crossing factor and every larger factor is kink-free
    factors = [f for f in decompose_prime(reduce_ri(m)) if f.n > 1]
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
