"""State surfaces: Euler characteristics, the minimal-genus branching
algorithm for alternating diagrams, and crosscap numbers.

A state surface spans the alternating knot carried by a projection; its
Euler characteristic is the circle count of the state minus the crossing
count, and only the all-oriented (Seifert) state is orientable.  The
branching algorithm repeatedly turns a smallest face into a state circle
(faces with one or two corners force their splices, triangles fork into the
circle-forming and the all-opposite choices) and keeps the best leaves.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curvemap import CurveMap, components
from .errors import InvariantViolation, MultiComponentError
from .splices import _smooth_pairings, oriented_pairing, reduce_ri, seifert_genus

__all__ = [
    "AKResult",
    "ak_min_genus",
    "crosscap_alt",
]


@dataclass(frozen=True)
class AKResult:
    """Outcome of the minimal-genus branching run.

    ``crosscap`` is ``1 - chi_max`` when some maximal leaf is non-orientable,
    else ``2 * genus + 1`` (every maximal leaf was the Seifert state).
    ``branch_count`` totals the leaves of the runs' branch trees; where a
    remainder splits, a tree's leaves are the product of the pieces' leaves,
    not their sum.  It depends on which smallest face each step takes, so it
    measures the work done and is not an answer.
    """

    chi_max: int
    nonorientable_at_max: bool
    crosscap: int
    genus: int
    branch_count: int


def _circle_pairing(corner_dart: int) -> int:
    """The pairing whose smoothing arc runs along this face corner.

    Orbit dart ``(c, s)`` stands for the corner between slots ``s-1`` and
    ``s``; the circle-forming splice joins exactly those two slots.
    """
    return 0 if (corner_dart & 3) % 2 == 1 else 1


def _forced_pairings(orbit: tuple[int, ...], opposite: int):
    """Pairings per crossing index turning the face into a state circle (or,
    with ``opposite`` set, all the other way); ``None`` if the corners demand
    conflicting arcs."""
    chosen: dict[int, int] = {}
    for d in orbit:
        p = _circle_pairing(d) ^ opposite
        if chosen.setdefault(d >> 2, p) != p:
            return None
    return chosen


def _explore(m: CurveMap) -> tuple[int, int]:
    """Maximal circle yield over the branch tree of ``m``, its free circles
    included, and the number of leaves evaluated.

    The lemma holds for every face with at most three corners, so any
    smallest face will do.  A disconnected map needs no split: each of its
    sub-maps with crossings has such a face, and their circle counts add.
    """
    best = leaves = 0
    stack = [m]
    while stack:
        m = stack.pop()
        if not m.n:
            leaves += 1
            best = max(best, m.free_circles)
            continue
        orbit = min(m.face_orbits, key=len)
        if len(orbit) > 3:
            raise InvariantViolation("a spherical projection has a <=3-gon")
        size = len(stack)
        for opposite in ((0, 1) if len(orbit) == 3 else (0,)):
            chosen = _forced_pairings(orbit, opposite)
            if chosen is not None:
                stack.append(_smooth_pairings(m, chosen))
        if len(stack) == size:
            raise InvariantViolation("every branch of a triangle was inconsistent")
    return best, leaves


def ak_min_genus(m: CurveMap) -> AKResult:
    """Run the minimal-genus branching over all smallest-face splices.

    The input is a knot projection (its alternating diagram is implied; all
    quantities here are independent of the over/under pattern).

    The main run yields the maximal Euler characteristic.  Whether a
    non-orientable state attains it cannot be read off one run (the faces
    it takes may funnel into the Seifert leaf), so crossings are anchored
    in turn at their disoriented smoothing and the branching maximizes the
    rest; that decides the dichotomy exactly.  No state beats ``chi_max``,
    so the loop stops at the first anchored run that reaches it.
    """
    if components(m) != 1:
        raise MultiComponentError("minimal-genus run needs a knot projection")
    genus = seifert_genus(m)
    circles, leaves = _explore(m)
    chi_max = circles - m.n
    flag = False
    for c in range(m.n):
        anchored = _smooth_pairings(m, {c: 1 - oriented_pairing(m, c)})
        sub_circles, sub_leaves = _explore(anchored)
        leaves += sub_leaves
        if sub_circles > circles:
            raise InvariantViolation("no anchored run beats the main run")
        if sub_circles == circles:
            flag = True
            break
    chi_seifert = 1 - 2 * genus
    if chi_max < chi_seifert or not (flag or chi_max == chi_seifert):
        raise InvariantViolation("branching max must equal the best state")
    crosscap = 1 - chi_max if flag else 2 * genus + 1
    return AKResult(chi_max, flag, crosscap, genus, leaves)


def crosscap_alt(m: CurveMap) -> int:
    """Crosscap number of the alternating knot carried by the projection.

    Zero exactly for projections that are kink-closures of the bare circle
    (the unknot convention); otherwise the minimal-genus run decides.
    """
    if components(m) != 1:
        raise MultiComponentError("crosscap needs a knot projection")
    if reduce_ri(m).n == 0:
        return 0
    return ak_min_genus(m).crosscap
