"""Splices (crossing smoothings), states, and the inverse insertion moves.

Each crossing admits two planar smoothings: pairing ``0`` joins slots
``{0,1}`` and ``{2,3}``, pairing ``1`` joins ``{1,2}`` and ``{3,0}``.  With a
traversal orientation fixed, exactly one of them reconnects the strands
coherently; that one is the *oriented* (Seifert) splice.  On a knot projection
the oriented splice always splits the curve in two, the disoriented splice
keeps one closed curve, and a disoriented splice at a crossing carrying a
monogon is a kink removal.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .curvemap import CurveMap, components, dense_opp
from .errors import DegenerateOnO, InvalidMove, InvariantViolation, MultiComponentError

__all__ = [
    "SmoothingChoice",
    "SpliceKind",
    "State",
    "smooth",
    "reduce_ri",
    "classify_splice",
    "make_state",
    "apply_state",
    "state_chi",
    "is_seifert_state",
    "seifert_genus",
    "ri_plus",
    "s_plus",
    "twist_move",
]


class SmoothingChoice(enum.Enum):
    ORIENTED = "oriented"
    DISORIENTED = "disoriented"


class SpliceKind(enum.Enum):
    SEIFERT = "Seifert"
    RI_MINUS = "RI-"
    S_MINUS = "S-"


def _arc_partner(slot: int, pairing: int) -> int:
    return slot ^ 1 if pairing == 0 else 3 - slot


def oriented_pairing(m: CurveMap, c: int) -> int:
    """The pairing id of the orientation-respecting smoothing at crossing ``c``."""
    out = m.out_darts
    if out[4 * c] != out[4 * c + 1]:
        return 0
    if out[4 * c + 1] == out[4 * c + 2]:
        raise InvariantViolation("degenerate in/out pattern")
    return 1


def pairing_for(m: CurveMap, c: int, choice: SmoothingChoice) -> int:
    p = oriented_pairing(m, c)
    return p if choice is SmoothingChoice.ORIENTED else 1 - p


def _smooth_pairings(m: CurveMap, chosen: dict[int, int]) -> CurveMap:
    """Remove the crossings of ``chosen`` at once, reconnecting the four edge
    ends of each by its pairing.

    A strand entering the removed crossings from a kept dart is followed
    through their arcs to the kept dart where it comes out, and the two ends
    are joined; strands that close up inside them become free circles.
    """
    old = m.opp
    opp = list(old)
    removed = [4 * c + s for c in chosen for s in range(4)]
    seen = set()

    def walk(d: int) -> int:
        # pass through removed crossings until the strand reaches a kept dart
        while True:
            p = 4 * (d >> 2) + _arc_partner(d & 3, chosen[d >> 2])
            seen.add(d)
            seen.add(p)
            d = old[p]
            if d >> 2 not in chosen or d in seen:
                return d

    for d in removed:
        if d not in seen and old[d] >> 2 not in chosen:
            e = walk(d)
            opp[old[d]] = e
            opp[e] = old[d]
    free = m.free_circles
    for d in removed:
        if d not in seen:
            walk(d)
            free += 1
    keep = [c for c in range(m.n) if c not in chosen]
    names = tuple(m.names[c] for c in keep)
    return CurveMap._of(tuple(dense_opp(opp, keep)), names, free)


def smooth(m: CurveMap, crossing: str, choice: SmoothingChoice) -> CurveMap:
    """Erase one crossing and reconnect per the chosen splice.

    Crossingless components produced by the splice are absorbed into the
    free-circle counter.  The orientation reference is the map's canonical
    traversal direction on each closed curve.
    """
    c = m.crossing_index(crossing)
    return _smooth_pairings(m, {c: pairing_for(m, c, choice)})


def _kinks(word: list[int]) -> list[int]:
    """The crossings that kink removal, round after round, deletes from a
    curve with the cyclic traversal ``word``: a kink's two visits are
    adjacent and removing it deletes both, so they are the letters a stack
    cancels from the word."""
    stack: list[int] = []
    gone: list[int] = []
    for c in word:
        if stack and stack[-1] == c:
            gone.append(stack.pop())
        else:
            stack.append(c)
    # the word is cyclic: equal letters left at its two ends meet too
    i, j = 0, len(stack) - 1
    while i < j and stack[i] == stack[j]:
        gone.append(stack[i])
        i += 1
        j -= 1
    return gone


def reduce_ri(m: CurveMap) -> CurveMap:
    """Remove kinks until none remain, in one smoothing.  On one curve a
    monogon is exactly a crossing whose visits are cyclically adjacent, so
    a map whose word cancels nothing is returned as it is."""
    if components(m) != 1:
        raise MultiComponentError("kink reduction needs a knot projection")
    if m.n == 0:
        return m
    gone = _kinks([d >> 2 for d in m.curve_components[0]])
    if not gone:
        return m
    return _smooth_pairings(m, {c: 1 - oriented_pairing(m, c) for c in gone})


def classify_splice(m: CurveMap, crossing: str, choice: SmoothingChoice) -> SpliceKind:
    """Sort a splice on a knot projection into Seifert / RI- / S-.

    The oriented choice is a Seifert splice.  The disoriented choice is a
    first Reidemeister reduction exactly when the crossing carries a monogon,
    and is of type S- otherwise.
    """
    if components(m) != 1 or m.n == 0:
        raise MultiComponentError("splice classification needs a knot projection")
    c = m.crossing_index(crossing)
    if choice is SmoothingChoice.ORIENTED:
        return SpliceKind.SEIFERT
    if c in m.monogon_crossings:
        return SpliceKind.RI_MINUS
    return SpliceKind.S_MINUS


# ---------------------------------------------------------------------------
# States


@dataclass(frozen=True)
class State:
    """A smoothing choice at every crossing of a fixed base projection.

    Pairings are stored slot-wise (see module docstring), so a state can be
    applied in any order; ``choices`` reports them relative to the base map's
    traversal orientation.
    """

    base: CurveMap
    pairings: tuple[int, ...]

    def __post_init__(self):
        if len(self.pairings) != self.base.n:
            raise InvalidMove("state must assign a smoothing to every crossing")
        if not set(self.pairings) <= {0, 1}:
            raise InvalidMove("state pairings must be 0 or 1")

    @property
    def choices(self) -> dict[str, SmoothingChoice]:
        out = {}
        for c, name in enumerate(self.base.names):
            ori = oriented_pairing(self.base, c)
            out[name] = (
                SmoothingChoice.ORIENTED
                if self.pairings[c] == ori
                else SmoothingChoice.DISORIENTED
            )
        return out


def make_state(m: CurveMap, choices: dict[str, SmoothingChoice]) -> State:
    if set(choices) != set(m.names):
        raise InvalidMove("state does not cover exactly the crossings of the map")
    pairings = tuple(
        pairing_for(m, c, choices[m.names[c]]) for c in range(m.n)
    )
    return State(m, pairings)


def apply_state(m: CurveMap, state: State) -> int:
    """Number of circles after smoothing every crossing of ``m`` by ``state``."""
    if state.base.opp != m.opp or state.base.names != m.names:
        raise InvalidMove("state was built for a different projection")
    return _smooth_pairings(m, dict(enumerate(state.pairings))).free_circles


def state_chi(n: int, circles: int) -> int:
    """Euler characteristic of the state surface: circles minus crossings."""
    if n < 0 or circles < 1:
        raise InvalidMove("need n >= 0 and at least one circle")
    return circles - n


def is_seifert_state(state: State) -> bool:
    """True exactly when every choice is oriented (the one orientable state)."""
    return all(
        ch is SmoothingChoice.ORIENTED for ch in state.choices.values()
    )


def seifert_genus(m: CurveMap) -> int:
    """Genus of the surface from the all-oriented state (the knot genus for
    alternating diagrams)."""
    if components(m) != 1:
        raise MultiComponentError("Seifert genus needs a knot projection")
    seifert = {c: oriented_pairing(m, c) for c in range(m.n)}
    g2 = 1 + m.n - _smooth_pairings(m, seifert).free_circles
    if g2 % 2:
        raise InvariantViolation("parity violation in Seifert circle count")
    return g2 // 2


# ---------------------------------------------------------------------------
# Increasing moves


def _fresh_name(m: CurveMap) -> str:
    used = set(m.names)
    k = m.n + 1
    while str(k) in used:
        k += 1
    return str(k)


def _add_crossing(m: CurveMap, joins, free_circles: int) -> CurveMap:
    """Append one crossing, darts ``4n..4n+3``, named ``_fresh_name(m)``,
    and make each pair of ``joins`` an edge, in order."""
    opp = list(m.opp) + [0, 0, 0, 0]
    for a, b in joins:
        opp[a] = b
        opp[b] = a
    return CurveMap._of(tuple(opp), m.names + (_fresh_name(m),), free_circles)


def ri_plus(m: CurveMap, dart: tuple[str, int] | None, side: str) -> CurveMap:
    """Insert a kink on the edge of ``dart``, on the given side of travel.

    On the simple closed curve (``dart=None``) the kink is put on a free
    circle.  The disoriented smoothing at the new crossing undoes the move.
    """
    if side not in ("L", "R"):
        raise InvalidMove(f"side must be 'L' or 'R', got {side!r}")
    x = 4 * m.n
    if dart is None:
        if m.free_circles < 1:
            raise InvalidMove("no free circle to put a kink on")
        # both mirror kinks on a bare circle give the same map
        return _add_crossing(m, ((x, x + 3), (x + 1, x + 2)), m.free_circles - 1)
    d = m.dart(*dart)
    o = m.opp[d]
    # the loop edge joins slots 1 and 2 (R) or 2 and 3 (L) of the new crossing
    if side == "R":
        joins = ((d, x), (x + 1, x + 2), (x + 3, o))
    else:
        joins = ((d, x), (x + 2, x + 3), (x + 1, o))
    return _add_crossing(m, joins, m.free_circles)


def _band_darts(
    m: CurveMap, dart1: tuple[str, int], dart2: tuple[str, int]
) -> tuple[int, int]:
    """The darts of two distinct locators on a common face and on a common
    curve of ``m``."""
    if m.n == 0:
        raise DegenerateOnO(
            "no distinct arcs on the simple closed curve; use ri_plus"
        )
    d1 = m.dart(*dart1)
    d2 = m.dart(*dart2)
    if d1 == d2:
        raise InvalidMove("need two distinct darts")
    if not any(d1 in orbit and d2 in orbit for orbit in m.face_orbits):
        raise InvalidMove("darts do not lie on a common face")
    curves = (
        {e for d in orbit for e in (d, m.opp[d])} for orbit in m.curve_components
    )
    if not any(d1 in darts and d2 in darts for darts in curves):
        raise InvalidMove("darts lie on different curves; a band would join them")
    return d1, d2


def _insert_band(m: CurveMap, d1: int, d2: int) -> CurveMap:
    """Cut the edges of two co-face darts and join all four ends through one
    new crossing placed in the common face.  The slot layout makes the
    disoriented smoothing of the new crossing the exact inverse."""
    o1, o2 = m.opp[d1], m.opp[d2]
    x = 4 * m.n
    joins = ((d1, x + 1), (o1, x + 0), (o2, x + 2), (d2, x + 3))
    out = _add_crossing(m, joins, m.free_circles)
    if components(out) != components(m):
        raise InvariantViolation("band insertion changed components")
    return out


def s_plus(m: CurveMap, dart1: tuple[str, int], dart2: tuple[str, int]) -> CurveMap:
    """Join two arcs on a common face by one new crossing (a half-twist band).

    Inverse of an S- splice: the disoriented smoothing at the new crossing
    restores the input.  Requires the arcs to be traversed compatibly, else
    the band would cut the curve into a two-component link.
    """
    d1, d2 = _band_darts(m, dart1, dart2)
    if m.out_darts[d1] != m.out_darts[d2]:
        raise InvalidMove(
            "a band joining oppositely traversed arcs would cut the curve "
            "into a two-component link"
        )
    return _insert_band(m, d1, d2)


def twist_move(
    m: CurveMap,
    dart1: tuple[str, int],
    dart2: tuple[str, int],
    i: int,
    variant: str = "A",
) -> CurveMap:
    """Insert a twist region of ``i`` crossings joining two co-face arcs.

    Implemented literally as its definition: ``i - 1`` kink insertions
    coiling one arc into the common face, then one band insertion joining
    the coil to the other arc.  Undoing it therefore always costs a single
    S- splice plus kink removals.  The region's parity is dictated by how
    the curve runs along the two arcs: compatibly traversed arcs take odd
    regions, oppositely traversed arcs take even ones (each kink flips the
    coiled arc's direction, and the final band needs compatible arcs).
    ``variant`` chooses which of the two arcs is coiled: ``A`` coils the
    second, ``B`` the first.
    """
    if i < 1:
        raise InvalidMove("twist region needs at least one crossing")
    if variant not in ("A", "B"):
        raise InvalidMove(f"variant must be 'A' or 'B', got {variant!r}")
    if variant == "B":
        dart1, dart2 = dart2, dart1
    d1, d2 = _band_darts(m, dart1, dart2)
    matched = m.out_darts[d1] == m.out_darts[d2]
    if (i % 2 == 1) != matched:
        raise InvalidMove(
            "twist region parity does not fit these arcs: compatibly "
            "traversed arcs take odd regions, opposite ones take even"
        )
    cur = m
    band_src = dart2
    for _ in range(i - 1):
        # an R kink's outer loop dart (slot 1) joins the face of the arc's
        # dart, which holds dart1; an L kink's would join the face across
        # the edge, which differs, as a 4-valent map has no isthmus
        cur = ri_plus(cur, band_src, "R")
        band_src = (cur.names[-1], 1)
    return s_plus(cur, dart1, band_src)
