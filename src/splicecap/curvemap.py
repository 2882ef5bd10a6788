"""Knot and link projections as 4-valent combinatorial maps on the sphere.

A projection is stored as a set of crossings, each with four dart slots in
counterclockwise cyclic order, plus a fixed-point-free involution ``opp``
pairing darts into edges.  Crossingless components ("free circles") are held
as a counter; their placement among the faces is never needed by any
quantity computed here.

Dart arithmetic: crossing ``c`` owns darts ``4c .. 4c+3``; ``slot = dart & 3``.
Traversal goes straight through a crossing (slot ``k`` enters, ``k+2`` exits),
and the face permutation is ``dart -> rot(opp(dart))`` with ``rot`` the next
counterclockwise slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    InvalidMove,
    InvariantViolation,
    MultiComponentError,
    NotRealizable,
    ParseError,
)

__all__ = [
    "SignedGaussCode",
    "CurveMap",
    "Face",
    "FaceReport",
    "parse_code",
    "render_code",
    "parse_record",
    "build_map",
    "extract_code",
    "faces",
    "components",
    "canonical_key",
    "equivalent",
    "interleaved",
    "mirror_map",
    "O_MAP",
    "O_KEY",
]


def label_sort_key(label: str) -> tuple:
    """Natural order: numeric labels numerically, others lexicographically."""
    numeric = label.isascii() and label.isdigit()
    return (0, int(label), "") if numeric else (1, 0, label)


def dense_opp(opp, crossings) -> list[int]:
    """The edge involution on the darts of ``crossings``, renumbered so that
    ``crossings[j]`` owns darts ``4j .. 4j+3``.

    Every dart of ``crossings`` must pair with a dart of ``crossings``.
    """
    dense = {c: j for j, c in enumerate(crossings)}
    out = [0] * (4 * len(crossings))
    for j, c in enumerate(crossings):
        for s in range(4):
            e = opp[4 * c + s]
            out[4 * j + s] = 4 * dense[e >> 2] + (e & 3)
    return out


# ---------------------------------------------------------------------------
# Signed Gauss codes


@dataclass(frozen=True)
class SignedGaussCode:
    """Double-occurrence words with a sign per crossing.

    ``components`` holds one word per closed curve; each word is a sequence of
    ``(label, sign)`` with ``sign`` in ``{+1, -1}``.  Both occurrences of a
    label carry the same sign.  ``free_circles`` counts crossingless
    components.
    """

    components: tuple[tuple[tuple[str, int], ...], ...]
    free_circles: int = 0

    def __post_init__(self):
        seen: dict[str, list[int]] = {}
        for word in self.components:
            if not word:
                raise ParseError("empty component word")
            for label, sign in word:
                if sign not in (1, -1):
                    raise ParseError(f"bad sign {sign!r} on label {label!r}")
                seen.setdefault(label, []).append(sign)
        for label, signs in seen.items():
            if len(signs) != 2:
                raise ParseError(
                    f"label {label!r} occurs {len(signs)} time(s), expected exactly 2"
                )
            if signs[0] != signs[1]:
                raise ParseError(f"label {label!r} carries inconsistent signs")
        if self.free_circles < 0:
            raise ParseError("negative free circle count")

    @property
    def n(self) -> int:
        return sum(len(w) for w in self.components) // 2


def parse_code(text: str) -> SignedGaussCode:
    """Parse one line of Gauss-code tokens.

    Components are separated by ``|``; the token ``O`` denotes a crossingless
    circle; every other token is ``<label><sign>`` with ``label`` in
    ``[A-Za-z0-9_]+`` and ``sign`` one of ``+-``.
    """
    segments = [seg.strip() for seg in text.split("|")]
    words: list[tuple[tuple[str, int], ...]] = []
    free = 0
    if not any(seg for seg in segments):
        raise ParseError("empty Gauss code")
    for seg in segments:
        tokens = seg.split()
        if not tokens:
            raise ParseError("empty component between '|' separators")
        if all(t == "O" for t in tokens):
            free += len(tokens)
            continue
        word = []
        for tok in tokens:
            if tok == "O":
                raise ParseError("free circle token 'O' mixed into a crossing word")
            label, sign_ch = tok[:-1], tok[-1:]
            if sign_ch not in "+-" or not label:
                raise ParseError(f"malformed token {tok!r}")
            if not label.isascii() or not all(
                ch.isalnum() or ch == "_" for ch in label
            ):
                raise ParseError(f"bad label in token {tok!r}")
            word.append((label, 1 if sign_ch == "+" else -1))
        words.append(tuple(word))
    return SignedGaussCode(tuple(words), free)


def render_code(code: SignedGaussCode) -> str:
    """Inverse of :func:`parse_code` (modulo whitespace)."""
    parts = [
        " ".join(f"{label}{'+' if s > 0 else '-'}" for label, s in word)
        for word in code.components
    ]
    parts.extend("O" for _ in range(code.free_circles))
    if not parts:
        raise ParseError("cannot render an empty code")
    return " | ".join(parts)


def parse_record(line: str) -> tuple[str, SignedGaussCode]:
    """Parse a ``name: tokens`` record line."""
    if ":" not in line:
        raise ParseError(f"record line missing ':': {line!r}")
    name, rest = line.split(":", 1)
    name = name.strip()
    if not name:
        raise ParseError("record with empty name")
    return name, parse_code(rest)


# ---------------------------------------------------------------------------
# The map itself


class CurveMap:
    """Immutable spherical 4-valent map with a free-circle counter.

    ``opp`` is the edge involution on darts, ``names[c]`` the external label of
    crossing ``c``.  The public constructor checks that ``opp`` is a
    fixed-point-free involution, that the names are unique, and the spherical
    invariant ``V - E + F = 2`` on every connected sub-map, and raises
    :class:`NotRealizable` otherwise.  The moves build their results through
    :meth:`_of`, which checks nothing: a smoothing or an insertion on a
    spherical map keeps all three (README "Design notes").
    """

    def __init__(self, opp, names=None, free_circles: int = 0):
        opp = tuple(opp)
        if len(opp) % 4:
            raise NotRealizable("dart count not a multiple of four")
        n = len(opp) // 4
        if names is None:
            names = tuple(str(i + 1) for i in range(n))
        else:
            names = tuple(names)
        if len(names) != n or len(set(names)) != n:
            raise NotRealizable("crossing names must be unique, one per crossing")
        if free_circles < 0:
            raise NotRealizable("negative free circle count")
        for d, e in enumerate(opp):
            if not 0 <= e < 4 * n or opp[e] != d or e == d:
                raise NotRealizable("opp is not a fixed-point-free involution")
        self.opp = opp
        self.n = n
        self.names = names
        self.free_circles = free_circles
        self._check_spherical()

    @classmethod
    def _of(cls, opp: tuple[int, ...], names: tuple[str, ...], free_circles: int):
        """A map from fields a move has already made valid; computes nothing,
        so faces and components stay lazy."""
        m = cls.__new__(cls)
        m.opp = opp
        m.n = len(opp) // 4
        m.names = names
        m.free_circles = free_circles
        return m

    # -- construction helpers ------------------------------------------------

    def _check_spherical(self) -> None:
        # a connected sub-map has V - E + F = 2 - 2g <= 2, so the total
        # reaches two per sub-map only if every one of them is spherical
        k = len(self.graph_components)
        euler = self.n - 2 * self.n + len(self.face_orbits)
        if euler != 2 * k:
            raise NotRealizable(
                f"V-E+F = {euler} over {k} connected sub-map(s), expected {2 * k}"
            )

    # -- basic structure -----------------------------------------------------

    @cached_property
    def graph_components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components of the underlying 4-valent graph (crossing sets)."""
        opp = self.opp
        seen = [False] * self.n
        comps = []
        for start in range(self.n):
            if seen[start]:
                continue
            seen[start] = True
            stack = [start]
            comp = [start]
            while stack:
                c = stack.pop()
                for e in opp[4 * c : 4 * c + 4]:
                    c2 = e >> 2
                    if not seen[c2]:
                        seen[c2] = True
                        comp.append(c2)
                        stack.append(c2)
            comps.append(tuple(sorted(comp)))
        return tuple(comps)

    @cached_property
    def curve_components(self) -> tuple[tuple[int, ...], ...]:
        """One traversal circuit per closed curve, as exit darts in traversal
        order: cross the edge (``opp``), then go straight through the
        crossing.  Each circuit starts at its curve's least dart."""
        opp = self.opp
        seen = [False] * len(opp)
        chosen = []
        for d0 in range(len(opp)):
            if seen[d0]:
                continue
            orbit = []
            d = d0
            while not seen[d]:
                e = opp[d]
                # the reverse direction leaves through exactly the opp-partners
                seen[d] = seen[e] = True
                orbit.append(d)
                d = (e & ~3) | ((e + 2) & 3)
            chosen.append(tuple(orbit))
        return tuple(chosen)

    @cached_property
    def out_darts(self) -> tuple[bool, ...]:
        """Exit-dart flags for the canonical traversal direction of each curve."""
        flags = [False] * (4 * self.n)
        for orbit in self.curve_components:
            for d in orbit:
                flags[d] = True
        return tuple(flags)

    @cached_property
    def face_orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of the face permutation ``d -> rot(opp(d))``."""
        opp = self.opp
        seen = [False] * len(opp)
        orbits = []
        for d0 in range(len(opp)):
            if seen[d0]:
                continue
            orbit = []
            d = d0
            while not seen[d]:
                seen[d] = True
                orbit.append(d)
                e = opp[d]
                d = (e & ~3) | ((e + 1) & 3)
            orbits.append(tuple(orbit))
        return tuple(orbits)

    @cached_property
    def monogon_crossings(self) -> frozenset[int]:
        return frozenset(
            orbit[0] >> 2 for orbit in self.face_orbits if len(orbit) == 1
        )

    # -- addressing ----------------------------------------------------------

    @cached_property
    def _index_of(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def crossing_index(self, name: str) -> int:
        try:
            return self._index_of[name]
        except KeyError:
            raise InvalidMove(
                f"unknown crossing {name!r} (have {', '.join(self.names)})"
            ) from None

    def dart(self, name: str, slot: int) -> int:
        if not 0 <= slot <= 3:
            raise ParseError(f"slot {slot} out of range 0..3")
        return 4 * self.crossing_index(name) + slot

    def dart_name(self, d: int) -> str:
        return f"{self.names[d >> 2]}.{d & 3}"

    # -- equality ------------------------------------------------------------

    @cached_property
    def canonical_key(self) -> bytes:
        return _canonical_key(self)

    def __repr__(self) -> str:
        if self.n == 0:
            return f"CurveMap(O x {self.free_circles})"
        return f"CurveMap({render_code(extract_code(self))!r})"


O_MAP = CurveMap((), (), 1)


# ---------------------------------------------------------------------------
# Code <-> map


def _alternating_phases(occurrences, k: int) -> list[int]:
    """Phase per component making over/under strictly alternate along every
    word (over exactly at even position + phase).

    ``occurrences`` holds, per crossing, its two visits as ``(component,
    position)`` pairs.  Every spherical projection admits such an assignment
    (checkerboard coloring), so an inconsistency here already proves
    non-realizability.
    """
    phase = [-1] * k
    adj: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for (c1, p1), (c2, p2) in occurrences:
        # the two strands at a crossing must take opposite over/under roles
        need = (p1 + p2 + 1) & 1
        adj[c1].append((c2, need))
        adj[c2].append((c1, need))
    for root in range(k):
        if phase[root] != -1:
            continue
        phase[root] = 0
        stack = [root]
        while stack:
            a = stack.pop()
            for b, need in adj[a]:
                want = phase[a] ^ need
                if phase[b] == -1:
                    phase[b] = want
                    stack.append(b)
                elif phase[b] != want:
                    raise NotRealizable(
                        "no alternating over/under assignment exists "
                        "(parity obstruction); the code has no spherical "
                        "realization"
                    )
    return phase


def build_map(code: SignedGaussCode) -> CurveMap:
    """Realize a signed Gauss code as a spherical map.

    The sign of a crossing is its sense in the alternating diagram carried by
    the projection (the projection fixes that diagram up to mirror, and a
    global sign flip is exactly the mirror image).  The first visit to a
    crossing enters slot 0 and leaves at slot 2; the slot of the second
    entry is decoded from the sign and the over/under roles of the two
    visits.  Raises :class:`NotRealizable` when the induced map is not
    spherical.
    """
    occ: dict[str, list[tuple[int, int]]] = {}
    for ci, word in enumerate(code.components):
        for pos, (label, _) in enumerate(word):
            occ.setdefault(label, []).append((ci, pos))
    phases = _alternating_phases(occ.values(), len(code.components))
    index: dict[str, int] = {}
    order: list[str] = []
    first_over: dict[str, bool] = {}
    visits_per_component: list[list[tuple[int, int]]] = []
    for ci, word in enumerate(code.components):
        visits = []
        for pos, (label, sign) in enumerate(word):
            over = (pos + phases[ci]) & 1 == 0
            if label not in index:
                index[label] = len(order)
                order.append(label)
                first_over[label] = over
                entry = 0
            else:
                # the local frame of (first passage, second passage) turns
                # counterclockwise iff sign and first-visit-over agree
                ccw = (sign > 0) == first_over[label]
                entry = 1 if ccw else 3
            visits.append((index[label], entry))
        visits_per_component.append(visits)
    n = len(order)
    opp = [-1] * (4 * n)
    for visits in visits_per_component:
        k = len(visits)
        for i, (c, entry) in enumerate(visits):
            exit_dart = 4 * c + ((entry + 2) & 3)
            c2, entry2 = visits[(i + 1) % k]
            entry_dart = 4 * c2 + entry2
            if opp[exit_dart] != -1 or opp[entry_dart] != -1:
                raise NotRealizable("inconsistent visit structure")
            opp[exit_dart] = entry_dart
            opp[entry_dart] = exit_dart
    return CurveMap(opp, tuple(order), code.free_circles)


def extract_code(m: CurveMap) -> SignedGaussCode:
    """Read a signed Gauss code back off a map.

    Each curve is read from its least dart (:attr:`CurveMap.curve_components`),
    so :func:`build_map` of the result has the same canonical key as ``m``,
    but the code need not repeat the word ``m`` was built from: ``3+ 2+ 1+
    3+ 2+ 1+`` reads back as ``1+ 2+ 3+ 1+ 2+ 3+``.
    """
    first_entry: dict[int, int] = {}
    ccw: dict[int, bool] = {}
    occ: dict[int, list[tuple[int, int]]] = {}
    words: list[list[int]] = []
    for ci, orbit in enumerate(m.curve_components):
        word = []
        for pos, d in enumerate(orbit):
            arrival = m.opp[d]
            c, t = arrival >> 2, arrival & 3
            if c not in first_entry:
                first_entry[c] = t
            else:
                delta = (t - first_entry[c]) & 3
                ccw[c] = delta == 1
            occ.setdefault(c, []).append((ci, pos))
            word.append(c)
        words.append(word)
    phase = _alternating_phases(occ.values(), len(words))
    signs: dict[int, int] = {}
    for c, ((c1, p1), _) in occ.items():
        over_first = (p1 + phase[c1]) & 1 == 0
        signs[c] = 1 if ccw[c] == over_first else -1
    # cosmetic: mirror any graph component whose least crossing came out '-'
    for comp in m.graph_components:
        if signs[comp[0]] < 0:
            for c in comp:
                signs[c] = -signs[c]
    comps = tuple(
        tuple((m.names[c], signs[c]) for c in word) for word in words
    )
    return SignedGaussCode(comps, m.free_circles)


# ---------------------------------------------------------------------------
# Faces


@dataclass(frozen=True)
class Face:
    """One face: its gon count and cyclic (crossing, corner) incidences.

    Corner ``k`` of a crossing sits between slots ``k`` and ``k+1 mod 4``.
    """

    gon: int
    corners: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class FaceReport:
    faces: tuple[Face, ...]
    free_circles: int

    @property
    def gon_multiset(self) -> tuple[int, ...]:
        return tuple(sorted(f.gon for f in self.faces))


def faces(m: CurveMap) -> FaceReport:
    out = []
    for orbit in m.face_orbits:
        corners = tuple((m.names[d >> 2], (d - 1) & 3) for d in orbit)
        out.append(Face(len(orbit), corners))
    return FaceReport(tuple(out), m.free_circles)


def components(m: CurveMap) -> int:
    """Number of closed curves, free circles included."""
    return len(m.curve_components) + m.free_circles


def interleaved(m: CurveMap, c1: str, c2: str) -> bool:
    """Whether the traversal meets the two crossings in the pattern abab.

    The alternative patterns aabb / abba return ``False``.  Requires a
    single-component map and two distinct crossings.
    """
    if components(m) != 1 or m.n == 0:
        raise MultiComponentError("interleavement needs a single closed curve")
    i1, i2 = m.crossing_index(c1), m.crossing_index(c2)
    if i1 == i2:
        raise InvalidMove("interleaved() needs two distinct crossings")
    seq = [d >> 2 for d in m.curve_components[0]]
    pos1 = [i for i, c in enumerate(seq) if c == i1]
    between = sum(1 for i, c in enumerate(seq) if c == i2 and pos1[0] < i < pos1[1])
    return between == 1


# ---------------------------------------------------------------------------
# Canonical form


def _canonical_key(m: CurveMap) -> bytes:
    if len(m.curve_components) == 1:
        return _token_key(_curve_tokens(m.curve_components[0]), m.free_circles)
    comps = m.graph_components
    owner = {c: i for i, crossings in enumerate(comps) for c in crossings}
    curves = [[] for _ in comps]
    for orbit in m.curve_components:
        curves[owner[orbit[0] >> 2]].append(orbit)
    # a component with one curve keys by its tokens in linear time; the
    # rooted encoding of the others is quadratic
    texts = []
    for crossings, cs in zip(comps, curves):
        nn = len(crossings)
        if len(cs) == 1:
            seq = _least_rotation(_curve_tokens(cs[0]))
        else:
            seq = _rooted_canon(dense_opp(m.opp, crossings), nn)
        texts.append(f"c{nn}:" + ",".join(map(str, seq)))
    return ";".join([f"n{m.n}o{m.free_circles}", *sorted(texts)]).encode()


def _token_key(tokens: list[int], free_circles: int = 0) -> bytes:
    """The canonical key of the map made of one curve, whose traversal
    tokens (:func:`_curve_tokens`) are ``tokens``, read from any start, in
    either direction or reflected, and of ``free_circles`` crossingless
    circles.  No tokens makes the curve one more crossingless circle."""
    n = len(tokens) >> 1
    if not n:
        return f"n0o{free_circles + 1}".encode()
    seq = ",".join(map(str, _least_rotation(tokens)))
    return f"n{n}o{free_circles};c{n}:{seq}".encode()


def _curve_tokens(orbit: tuple[int, ...]) -> list[int]:
    """The traversal tokens of one curve, visit by visit.

    Visit ``i`` (exit dart ``orbit[i]``) emits ``2d + sense``: ``d`` is the
    forward distance to the other visit of the same crossing, and ``sense``
    is set iff that visit leaves one slot counterclockwise of this one, so
    the two visits of a crossing carry complementary bits.  The tokens do
    not depend on where the walk starts.
    """
    total = len(orbit)
    fwd = [0] * total
    first: dict[int, int] = {}
    for i, d in enumerate(orbit):
        j = first.pop(d >> 2, -1)
        if j < 0:
            first[d >> 2] = i
        else:
            sense = ((d - orbit[j]) & 3) == 1
            fwd[j] = ((i - j) << 1) | sense
            fwd[i] = ((total - i + j) << 1) | (not sense)
    return fwd


def _least_rotation(tokens: list[int]) -> list[int]:
    """Least rotation of a curve's tokens over both directions and both
    reflections.

    The reverse walk reads the tokens backwards with distance ``2n - d``
    and the same bits; reflection flips every bit.  The least rotation over
    the four sequences starts with the least token, so only those starts
    are compared.
    """
    total = len(tokens)
    rev = [((total - (t >> 1)) << 1) | (t & 1) for t in reversed(tokens)]
    # every variant holds the same distances, and one of each pair a 0 bit
    lo = min(tokens) & ~1
    best = [total << 1]  # above every token, so any rotation beats it
    for v in (tokens, [t ^ 1 for t in tokens], rev, [t ^ 1 for t in rev]):
        i = -1
        for _ in range(v.count(lo)):
            i = v.index(lo, i + 1)
            rotation = v[i:] + v[:i]
            if rotation < best:
                best = rotation
    return best


def _rooted_canon(opp: list[int], n: int) -> tuple[int, ...]:
    """Minimal rooted relabeling of a general connected map.

    Darts are renumbered by a breadth-first walk from the root, taking a
    dart's rotation successor before its edge partner; the encoding lists
    both images of every dart in the new numbering.  Minimized over all
    roots and both global orientations.
    """
    best: tuple[int, ...] | None = None
    for root in range(4 * n):
        for turn in (1, 3):  # counterclockwise, then clockwise
            new = {root: 0}
            order = [root]
            enc = []
            for d in order:  # grows while it is walked
                for nb in ((d & ~3) | ((d + turn) & 3), opp[d]):
                    if nb not in new:
                        new[nb] = len(order)
                        order.append(nb)
                    enc.append(new[nb])
            cand = tuple(enc)
            if best is None or cand < best:
                best = cand
    if best is None:
        raise InvariantViolation("rooted encoding of a map without crossings")
    return best


def canonical_key(m: CurveMap) -> bytes:
    """Opaque key equal exactly for maps related by sphere homeomorphism,
    relabeling, traversal reversal, or mirror reflection."""
    return m.canonical_key


O_KEY = O_MAP.canonical_key


def equivalent(a: CurveMap, b: CurveMap) -> bool:
    return a.canonical_key == b.canonical_key


def mirror_map(m: CurveMap) -> CurveMap:
    """The mirror image: every crossing's cyclic slot order reversed."""

    def ref(d: int) -> int:
        return (d & ~3) | ((-d) & 3)

    opp = [0] * (4 * m.n)
    for d in range(4 * m.n):
        opp[ref(d)] = ref(m.opp[d])
    return CurveMap(opp, m.names, m.free_circles)
