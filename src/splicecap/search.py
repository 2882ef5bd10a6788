"""Exact splice unknotting counts and the budgeted two-way search.

``u_minus`` is the minimum number of non-kink splices over all full descent
sequences to the simple closed curve; it is computed by shortest path with
0/1 weights over canonical forms (kink removals are free).  ``u_upper``
additionally allows the inverse insertions at zero (kink) or unit (band)
cost, giving an upper bound for the two-way splice count.  Its only proof
of exactness is the class theorem: projections with two-way count 0, 1 and
2 are exactly those with ``u_minus`` 0, 1 and 2, so a descent value of at
most three is exact.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

from .curvemap import (
    CurveMap,
    O_KEY,
    components,
    label_sort_key,
)
from .errors import InvalidMove, MultiComponentError, ParseError, SpliceCapError
from .splices import (
    SmoothingChoice,
    SpliceKind,
    _insert_band,
    _smooth_pairings,
    classify_splice,
    oriented_pairing,
    ri_plus,
    s_plus,
    smooth,
    twist_move,
)

__all__ = [
    "Witness",
    "SearchBudget",
    "SearchStatus",
    "UResult",
    "VerifyResult",
    "u_minus",
    "u_upper",
    "verify_witness",
    "reduce_ri",
    "enumerate_descents",
    "replay",
]


# ---------------------------------------------------------------------------
# Witness scripts


@dataclass(frozen=True)
class Witness:
    """An ordered splice/insertion script certifying an unknotting count.

    Step grammar, one step per entry:
    ``S- <label>`` | ``RI- <label>`` | ``Seifert <label>`` |
    ``RI+ <locator> <L|R>`` | ``S+ <locator> <locator>`` |
    ``TWIST <locator> <locator> <i> <A|B>`` where a locator is
    ``<label>.<slot>`` or ``O`` for a bare circle.
    """

    base_key: bytes
    steps: tuple[str, ...]

    @property
    def s_count(self) -> int:
        return sum(_step_counts(s)[0] for s in self.steps)

    @property
    def ri_count(self) -> int:
        return sum(_step_counts(s)[1] for s in self.steps)


def _step_counts(line: str) -> tuple[int, int]:
    op = line.split()[0]
    if op in ("S-", "S+"):
        return 1, 0
    if op in ("RI-", "RI+"):
        return 0, 1
    if op == "TWIST":
        i = int(line.split()[3])
        return 1, i - 1
    return 0, 0


def _parse_locator(tok: str) -> tuple[str, int] | None:
    if tok == "O":
        return None
    if "." not in tok:
        raise ParseError(f"bad dart locator {tok!r} (want label.slot or O)")
    label, slot = tok.rsplit(".", 1)
    if not slot.isdigit() or not (0 <= int(slot) <= 3):
        raise ParseError(f"bad slot in locator {tok!r}")
    return label, int(slot)


def apply_step(m: CurveMap, line: str) -> CurveMap:
    """Apply one witness step; raises on an illegal step."""
    parts = line.split()
    if not parts:
        raise ParseError("empty witness step")
    op = parts[0]
    if op in ("S-", "RI-"):
        if len(parts) != 2:
            raise ParseError(f"malformed step {line!r}")
        kind = classify_splice(m, parts[1], SmoothingChoice.DISORIENTED)
        want = SpliceKind.S_MINUS if op == "S-" else SpliceKind.RI_MINUS
        if kind is not want:
            raise InvalidMove(
                f"step claims {op} at {parts[1]} but the splice is {kind.value}"
            )
        return smooth(m, parts[1], SmoothingChoice.DISORIENTED)
    if op == "Seifert":
        if len(parts) != 2:
            raise ParseError(f"malformed step {line!r}")
        return smooth(m, parts[1], SmoothingChoice.ORIENTED)
    if op == "RI+":
        if len(parts) != 3:
            raise ParseError(f"malformed step {line!r}")
        return ri_plus(m, _parse_locator(parts[1]), parts[2])
    if op == "S+":
        if len(parts) != 3:
            raise ParseError(f"malformed step {line!r}")
        d1, d2 = _parse_locator(parts[1]), _parse_locator(parts[2])
        if d1 is None or d2 is None:
            raise InvalidMove("band insertion needs two crossing darts")
        return s_plus(m, d1, d2)
    if op == "TWIST":
        if len(parts) != 5:
            raise ParseError(f"malformed step {line!r}")
        d1, d2 = _parse_locator(parts[1]), _parse_locator(parts[2])
        if d1 is None or d2 is None:
            raise InvalidMove("twist region needs two crossing darts")
        if not parts[3].isdecimal() or int(parts[3]) < 1:
            raise ParseError(f"bad twist crossing count in {line!r}")
        return twist_move(m, d1, d2, int(parts[3]), parts[4])
    raise ParseError(f"unknown witness op {op!r}")


def replay(m: CurveMap, steps) -> CurveMap:
    for line in steps:
        m = apply_step(m, line)
    return m


@dataclass(frozen=True)
class VerifyResult:
    valid: bool
    s_count: int
    ri_count: int
    endpoint: bytes
    failed_at: int | None = None
    error: str | None = None


def verify_witness(p: CurveMap, w: Witness) -> VerifyResult:
    """Replay a witness; valid iff every step is legal and the end is the
    simple closed curve."""
    cur = p
    s_total = ri_total = 0
    for i, line in enumerate(w.steps):
        try:
            cur = apply_step(cur, line)
        except SpliceCapError as exc:
            return VerifyResult(
                False, s_total, ri_total, cur.canonical_key, i, str(exc)
            )
        ds, dri = _step_counts(line)
        s_total += ds
        ri_total += dri
    key = cur.canonical_key
    return VerifyResult(key == O_KEY, s_total, ri_total, key)


# ---------------------------------------------------------------------------
# Descent search (exact)


def reduce_ri(m: CurveMap) -> CurveMap:
    """Remove kinks until none remain: each round smooths every current
    monogon crossing at its disoriented pairing."""
    if components(m) != 1:
        raise MultiComponentError("kink reduction needs a knot projection")
    while m.monogon_crossings:
        m = _smooth_pairings(
            m, {c: 1 - oriented_pairing(m, c) for c in m.monogon_crossings}
        )
    return m


def _descents(m: CurveMap):
    """Lazily yield ``(label, cost, successor)`` for every one-crossing
    descent in natural label order; ``cost`` is 0 for a kink removal and 1
    for a band splice."""
    for name in sorted(m.names, key=label_sort_key):
        cost = 0 if m.crossing_index(name) in m.monogon_crossings else 1
        yield name, cost, smooth(m, name, SmoothingChoice.DISORIENTED)


def enumerate_descents(m: CurveMap) -> list[tuple[str, SpliceKind, bytes]]:
    """All one-crossing descents with classification, in label order."""
    if components(m) != 1:
        raise MultiComponentError("descents are defined on knot projections")
    return [
        (
            name,
            SpliceKind.RI_MINUS if cost == 0 else SpliceKind.S_MINUS,
            child.canonical_key,
        )
        for name, cost, child in _descents(m)
    ]


_UMINUS_MEMO: dict[bytes, int] = {O_KEY: 0}


def _u_minus_value(m: CurveMap) -> int:
    key = m.canonical_key
    cached = _UMINUS_MEMO.get(key)
    if cached is not None:
        return cached
    best = m.n  # every descent uses at most n band splices
    # a successor key repeated under another label is a memo hit
    for _, cost, child in _descents(m):
        sub = cost + _u_minus_value(child)
        if sub < best:
            best = sub
    _UMINUS_MEMO[key] = best
    return best


def u_minus(m: CurveMap) -> tuple[int, Witness]:
    """Exact minimum number of non-kink splices over all descents to the
    simple closed curve, with a replayable witness.

    Among minimum-cost descents the witness picks, at every step, the
    smallest crossing label (natural order) that stays optimal.
    """
    if components(m) != 1:
        raise MultiComponentError("unknotting counts need a knot projection")
    value = _u_minus_value(m)
    steps: list[str] = []
    cur = m
    remaining = value
    while cur.n:
        for name, cost, child in _descents(cur):
            if cost + _u_minus_value(child) == remaining:
                break
        else:
            raise AssertionError("optimal descent step must exist")
        cur = child
        steps.append(f"{'RI-' if cost == 0 else 'S-'} {name}")
        remaining -= cost
    assert cur.canonical_key == O_KEY
    return value, Witness(m.canonical_key, tuple(steps))


# ---------------------------------------------------------------------------
# Two-way search (upper bounds for u)


@dataclass(frozen=True)
class SearchBudget:
    """Truncation caps for the two-way search; ``u_upper`` defaults unset ones."""

    max_crossings: int | None = None
    max_cost: int | None = None
    max_nodes: int | None = None

    def __post_init__(self):
        if any(c is not None and c < 1 for c in (self.max_crossings, self.max_nodes)):
            raise InvalidMove("budget caps must be positive")
        if self.max_cost is not None and self.max_cost < 0:
            raise InvalidMove("max_cost must be non-negative")


class SearchStatus(enum.Enum):
    EXACT = "Exact"
    UPPER_BOUND_ONLY = "UpperBoundOnly"
    EXHAUSTED = "Exhausted"


@dataclass(frozen=True)
class UResult:
    value: int | None
    status: SearchStatus
    witness: Witness | None
    nodes_expanded: int = 0


def _insertion_moves(m: CurveMap):
    """Generator of (step line, successor, cost) for kink and band inserts."""
    for c, name in enumerate(m.names):
        for slot in range(4):
            for side in ("L", "R"):
                yield (
                    f"RI+ {name}.{slot} {side}",
                    ri_plus(m, (name, slot), side),
                    0,
                )
    out = m.out_darts
    for orbit in m.face_orbits:
        for i in range(len(orbit)):
            for j in range(i + 1, len(orbit)):
                d1, d2 = orbit[i], orbit[j]
                if out[d1] != out[d2]:
                    continue
                line = f"S+ {m.dart_name(d1)} {m.dart_name(d2)}"
                yield line, _insert_band(m, d1, d2), 1


def u_upper(m: CurveMap, budget: SearchBudget = SearchBudget()) -> UResult:
    """Best two-way splice count found under the budget.

    Kink moves cost nothing, band splices and insertions cost one.  The
    descent optimum seeds the search, so the result never exceeds
    ``u_minus``.  A seed of at most three is ``EXACT`` by the class theorem
    (module docstring).  The search itself never proves a bound: free kink
    insertions carry every state it expands to the crossing cap at no cost,
    so some cheaper path always lies past the cap, and a value it reaches is
    ``UPPER_BOUND_ONLY`` (``EXHAUSTED`` when above ``max_cost``).
    """
    if components(m) != 1:
        raise MultiComponentError("unknotting counts need a knot projection")
    seed_value, seed_witness = u_minus(m)
    max_crossings = m.n + 6 if budget.max_crossings is None else budget.max_crossings
    max_cost = seed_value if budget.max_cost is None else budget.max_cost
    max_nodes = 10**7 if budget.max_nodes is None else budget.max_nodes
    if max_crossings < m.n:
        raise InvalidMove("budget.max_crossings below the input crossing count")
    if seed_value <= 3 and seed_value <= max_cost:
        return UResult(seed_value, SearchStatus.EXACT, seed_witness)

    cap = min(max_cost, seed_value - 1)  # only strict improvements matter
    start = m.canonical_key
    dist: dict[bytes, int] = {start: 0}
    # states are stored compactly; maps are rebuilt on expansion
    specs: dict[bytes, tuple] = {start: (m.opp, m.names, m.free_circles)}
    parent: dict[bytes, tuple[bytes, str]] = {}
    dq: deque[tuple[int, bytes]] = deque([(0, start)])
    goal_dist: int | None = None
    pops = 0
    while dq:
        d, key = dq.popleft()
        if d != dist.get(key):
            continue
        if goal_dist is not None and d >= goal_dist:
            break
        pops += 1
        if pops > max_nodes:
            break
        cur = CurveMap(*specs[key])
        moves = [
            (f"{'RI-' if cost == 0 else 'S-'} {name}", child, cost)
            for name, cost, child in _descents(cur)
        ]
        if cur.n < max_crossings:
            moves.extend(_insertion_moves(cur))
        for line, child, cost in moves:
            nd = d + cost
            if nd > cap:
                continue
            ck = child.canonical_key
            if ck in dist and dist[ck] <= nd:
                continue
            dist[ck] = nd
            specs[ck] = (child.opp, child.names, child.free_circles)
            parent[ck] = (key, line)
            if ck == O_KEY:
                goal_dist = nd
            if cost == 0:
                dq.appendleft((nd, ck))
            else:
                dq.append((nd, ck))

    if goal_dist is not None:
        chain = []
        key = O_KEY
        while key != start:
            key, line = parent[key]
            chain.append(line)
        witness = Witness(start, tuple(reversed(chain)))
        value = goal_dist
    else:
        value, witness = seed_value, seed_witness
    if value > max_cost:
        return UResult(None, SearchStatus.EXHAUSTED, None, pops)
    return UResult(value, SearchStatus.UPPER_BOUND_ONLY, witness, pops)
