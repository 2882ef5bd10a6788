"""Exact splice unknotting counts and the budgeted two-way search.

``u_minus`` is the minimum number of non-kink splices over all full descent
sequences to the simple closed curve.  Kink removals are free, and removing
a kink ``c`` never changes the count: ``u_minus(P) = u_minus(P - c)``.
First, ``u_minus(P) <= u_minus(P - c)``, since a descent of ``P`` may remove
``c`` first at no cost.  Second, ``u_minus(P - c) <= u_minus(P)``: along any
descent of ``P``, ``c`` stays a kink until it is smoothed (its monogon has
no corner elsewhere), and every monogon at another crossing has no corner
at ``c``, so it survives in ``P - c``; dropping the step at ``c`` leaves a
descent of ``P - c`` whose kink removals are still kink removals.  So the
count is computed on ``reduce_ri(P)``, by a memoized descent over kink-free
canonical forms in which every step is a band splice.  Each class is one
closed curve, so the descent runs on traversal tokens, whose least
rotation is the canonical key, and builds no map; so does the witness
walk.  The two crossings of a bigon face splice to the same class, so the
descent splices only the one it visits first.  A value of at most
one needs no search: kink cancellation is free reduction of the word, so
the splice at ``c`` of ``c A c B`` cancels to the circle only when
``B = A``, and the value is 1 exactly on the words ``c A c A``.  So the
descent settles a class at 2 on its first child of value at most one,
read off the word before any child is keyed; otherwise every child is at
least 2, and the first child worth 2 settles the class at 3.  ``u_upper``
bounds the two-way count, which also allows the inverse insertions, by
``k`` band insertions followed by an exact descent, and skips every class
whose crosscap number already rules it out (crosscap <= ``u_minus``).  Its
only proof of exactness is the class theorem: projections with two-way
count 0, 1 and 2 are exactly those with ``u_minus`` 0, 1 and 2, so a
descent value of at most three is exact.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass

from .curvemap import (
    CurveMap,
    O_KEY,
    _curve_tokens,
    _token_key,
    components,
    label_sort_key,
)
from .errors import (
    InvalidMove,
    InvariantViolation,
    MultiComponentError,
    ParseError,
    SpliceCapError,
)
from .splices import (
    SmoothingChoice,
    SpliceKind,
    State,
    _insert_band,
    _kinks,
    classify_splice,
    pairing_for,
    ri_plus,
    s_plus,
    smooth,
    twist_move,
)
from .surfaces import crosscap_alt

__all__ = [
    "Witness",
    "SearchBudget",
    "SearchStatus",
    "UResult",
    "VerifyResult",
    "u_minus",
    "u_upper",
    "verify_witness",
    "enumerate_descents",
    "replay",
    "sigma_from_witness",
    "check_upper_bound",
    "equality_report",
    "EqualityReport",
]


# ---------------------------------------------------------------------------
# Witness scripts


@dataclass(frozen=True, slots=True)
class Witness:
    """An ordered splice/insertion script certifying an unknotting count.

    Step grammar, one step per entry:
    ``S- <label>`` | ``RI- <label>`` | ``RI+ <locator> <L|R>`` |
    ``S+ <locator> <locator>`` |
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


# witness op -> number of arguments after the op name
_STEP_ARITY = {"S-": 1, "RI-": 1, "RI+": 2, "S+": 2, "TWIST": 4}


def _parse_step(line: str) -> tuple[str, list]:
    """Split a witness step into its op and arguments, checking the grammar;
    dart locators come back parsed, as :func:`_parse_locator` gives them."""
    parts = line.split()
    if not parts:
        raise ParseError("empty witness step")
    op, *args = parts
    if op not in _STEP_ARITY:
        raise ParseError(f"unknown witness op {op!r}")
    if len(args) != _STEP_ARITY[op]:
        raise ParseError(f"malformed step {line!r}")
    if op == "TWIST" and not (args[2].isascii() and args[2].isdigit() and int(args[2])):
        raise ParseError(f"bad twist crossing count in {line!r}")
    if op in ("RI+", "S+", "TWIST"):
        k = 1 if op == "RI+" else 2
        args[:k] = map(_parse_locator, args[:k])
    return op, args


def _step_counts(line: str) -> tuple[int, int]:
    op, args = _parse_step(line)
    if op in ("S-", "S+"):
        return 1, 0
    if op in ("RI-", "RI+"):
        return 0, 1
    return 1, int(args[2]) - 1


def _parse_locator(tok: str) -> tuple[str, int] | None:
    if tok == "O":
        return None
    if "." not in tok:
        raise ParseError(f"bad dart locator {tok!r} (want label.slot or O)")
    label, slot = tok.rsplit(".", 1)
    if not (slot.isascii() and slot.isdigit() and int(slot) <= 3):
        raise ParseError(f"bad slot in locator {tok!r}")
    return label, int(slot)


def apply_step(m: CurveMap, line: str) -> CurveMap:
    """Apply one witness step; raises on an illegal step."""
    op, args = _parse_step(line)
    if op in ("S-", "RI-"):
        kind = classify_splice(m, args[0], SmoothingChoice.DISORIENTED)
        want = SpliceKind.S_MINUS if op == "S-" else SpliceKind.RI_MINUS
        if kind is not want:
            raise InvalidMove(
                f"step claims {op} at {args[0]} but the splice is {kind.value}"
            )
        return smooth(m, args[0], SmoothingChoice.DISORIENTED)
    if op == "RI+":
        return ri_plus(m, *args)
    d1, d2 = args[:2]
    if d1 is None or d2 is None:
        raise InvalidMove(f"{op} needs two crossing darts")
    if op == "S+":
        return s_plus(m, d1, d2)
    return twist_move(m, d1, d2, int(args[2]), args[3])


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


_BASE_MISMATCH = "witness base key does not match the projection"


def verify_witness(p: CurveMap, w: Witness) -> VerifyResult:
    """Replay a witness; valid iff its base is ``p``, every step is legal
    and the end is the simple closed curve."""
    if w.base_key != p.canonical_key:
        return VerifyResult(False, 0, 0, p.canonical_key, None, _BASE_MISMATCH)
    cur = p
    for i, line in enumerate(w.steps):
        try:
            cur = apply_step(cur, line)
        except SpliceCapError as exc:
            done = Witness(w.base_key, w.steps[:i])
            return VerifyResult(
                False, done.s_count, done.ri_count, cur.canonical_key, i, str(exc)
            )
    key = cur.canonical_key
    return VerifyResult(key == O_KEY, w.s_count, w.ri_count, key)


# ---------------------------------------------------------------------------
# Descent search (exact)


def enumerate_descents(m: CurveMap) -> list[tuple[str, SpliceKind, bytes]]:
    """All one-crossing descents with classification, in label order."""
    if components(m) != 1:
        raise MultiComponentError("descents are defined on knot projections")
    dis = SmoothingChoice.DISORIENTED
    return [
        (name, classify_splice(m, name, dis), smooth(m, name, dis).canonical_key)
        for name in sorted(m.names, key=label_sort_key)
    ]


_UMINUS_MEMO: dict[bytes, int] = {O_KEY: 0}


def _visits(tokens: list[int]) -> tuple[list[int], list[int]]:
    """The other visit of each visit's crossing, and the crossing's first
    visit, which names it."""
    total = len(tokens)
    partner = [(i + (t >> 1)) % total for i, t in enumerate(tokens)]
    return partner, [i if i < j else j for i, j in enumerate(partner)]


def _bigons(tokens: list[int]):
    """Yield the visits ``(i, i + 1)`` (cyclic) of two crossings that bound
    a bigon face, on the one curve whose traversal tokens are ``tokens``.

    The other visits of the two crossings are consecutive too, so their
    distances are equal (the strands run parallel) or the second is two
    less (antiparallel), and the sense bits differ.  A kink (distance 1)
    is one crossing, not two."""
    total = len(tokens)
    for i, t in enumerate(tokens):
        j = (i + 1) % total
        d, e = t >> 1, tokens[j] >> 1
        if d != 1 and (t ^ tokens[j]) & 1 and (e - d) % total in (0, total - 2):
            yield i, j


def _splice(first: list[int], p: int, q: int, joins: bool) -> tuple[list[int], int]:
    """The visits, in turn, of the curve that the disoriented splice at the
    visits ``p < q`` leaves, and how many of them come from ``A``: the word
    ``c A c B`` becomes ``A B'``, with ``B'`` the reverse of ``B``.
    ``first`` names each visit's crossing by its first visit.  The visits
    of ``B'`` are given below zero where they wrap, so that ``A`` and
    ``B'`` are two ranges.

    With ``joins``, the kinks of ``A B'`` are cancelled too, as
    :func:`_kinks` would cancel them, provided the curve has no kink: then
    equal letters can meet only where ``A``'s end meets ``B'``'s start and
    ``B'``'s end meets ``A``'s start, and they cancel outward from there;
    once one segment is gone whole, the other's two ends meet."""
    a, b = p + 1, q - 1  # A is the visits a, ..., b
    c, d = p - 1, q + 1 - len(first)  # B' is the visits c, c - 1, ..., d
    if joins:
        while a <= b and c >= d and first[b] == first[c]:
            b -= 1
            c -= 1
        while a <= b and c >= d and first[d] == first[a]:
            a += 1
            d += 1
        if a > b:
            while c > d and first[c] == first[d]:
                c -= 1
                d += 1
        elif c < d:
            while a < b and first[a] == first[b]:
                a += 1
                b -= 1
    return [*range(a, b + 1), *range(c, d - 1, -1)], b + 1 - a


def _word_tokens(
    tokens: list[int], partner: list[int], order: list[int], kept: int
) -> list[int]:
    """The traversal tokens of the curve that runs through the visits
    ``order`` of the curve with tokens ``tokens``, in turn, where ``order``
    holds both visits of each of its crossings, and the strand of all but
    its first ``kept`` visits runs reversed.

    Distances are read off the new positions.  A visit's bit says on which
    side the other visit of its crossing leaves.  Reversing a strand moves
    its exit slot by two, which flips the bits of a crossing with one visit
    on each strand; a crossing with both visits on one strand keeps its
    bits.  Removing a kink moves no other exit slot."""
    size = len(order)
    at = [0] * len(tokens)
    for k, i in enumerate(order):
        at[i] = k
    out = []
    for k, i in enumerate(order):
        a = at[partner[i]]
        out.append(
            (((a - k) % size) << 1) | ((tokens[i] & 1) ^ ((k < kept) != (a < kept)))
        )
    return out


def _kink_free(tokens: list[int]) -> list[int]:
    """The tokens of ``reduce_ri`` of the curve with tokens ``tokens``: the
    crossings :func:`_kinks` cancels from its word are removed."""
    partner, first = _visits(tokens)
    gone = set(_kinks(first))
    if not gone:
        return tokens
    order = [i for i, f in enumerate(first) if f not in gone]
    return _word_tokens(tokens, partner, order, len(order))


def _token_children(tokens: list[int]):
    """Yield ``(p, child)`` for the crossings of the kink-free curve whose
    traversal tokens are ``tokens``: ``p`` is the crossing's first visit,
    and ``child`` holds the tokens of ``reduce_ri`` of its disoriented
    splice (:func:`_splice` with the joins cancelled).

    A crossing is skipped when it bounds a bigon face with a crossing of
    earlier first visit (:func:`_bigons`): the two give the same child
    class.  From a skipped crossing such steps lower the first visit each
    time, so they end at a crossing that is yielded, and every child class
    is yielded.
    """
    partner, first = _visits(tokens)
    skip = {max(first[i], first[j]) for i, j in _bigons(tokens)}
    for p, q in enumerate(partner):
        if p < q and p not in skip:
            yield p, _word_tokens(tokens, partner, *_splice(first, p, q, True))


def _low(tokens: list[int]) -> int | None:
    """``u_minus`` of the kink-free curve with traversal tokens ``tokens``
    when it is at most one, read off the word, else ``None``: 0 with no
    crossings, and 1 exactly when every crossing's two visits are ``n``
    apart, the word ``c A c A`` (README "Design notes")."""
    total = len(tokens)
    if not total:
        return 0
    if tokens.count(total) + tokens.count(total + 1) == total:
        return 1
    return None


def _child_classes(tokens: list[int]):
    """The distinct child classes of the kink-free curve with traversal
    tokens ``tokens``, as ``(key, tokens)``; or ``None`` when a child has
    value at most one (:func:`_low`), which settles the curve at 2.  No
    child is keyed before every child is word-tested."""
    children = []
    for _, child in _token_children(tokens):
        if _low(child) is not None:
            return None
        children.append(child)
    kids = {}
    for child in children:
        kids.setdefault(_token_key(child), child)
    return list(kids.items())


def _u_minus_value(tokens: list[int]) -> int:
    """``u_minus`` of the kink-free curve with traversal tokens ``tokens``,
    by a depth-first worklist over the kink-free classes below it (module
    docstring): every step of a kink-free map is a band splice, so a class
    is one more than its least child.  A class is held as the tokens of one
    of its maps, and its children come from those tokens
    (:func:`_token_children`).

    A value of at most one is read off the word (:func:`_low`), so a class
    with such a child is 2.  Otherwise every child is at least 2, and the
    children are evaluated one at a time until one is 2: the class is then
    3.  A stack entry holds a class's key, its children, the index of the
    next one and the least child value so far."""
    low = _low(tokens)
    if low is not None:
        return low
    memo = _UMINUS_MEMO
    root = _token_key(tokens)
    if root in memo:
        return memo[root]
    stack = [[root, _child_classes(tokens), 0, sys.maxsize]]
    while stack:
        key, kids, i, least = frame = stack[-1]
        while kids and i < len(kids) and least > 2:
            child, child_tokens = kids[i]
            value = memo.get(child)
            if value is None:
                break
            least = min(least, value)
            i += 1
        else:
            memo[key] = 2 if kids is None else 1 + least
            stack.pop()
            continue
        frame[2:] = i, least
        stack.append([child, _child_classes(child_tokens), 0, sys.maxsize])
    return memo[root]


def u_minus(m: CurveMap) -> tuple[int, Witness]:
    """Exact minimum number of non-kink splices over all descents to the
    simple closed curve, with a replayable witness.

    Among minimum-cost descents the witness picks, at every step, the
    smallest crossing label (natural order) that stays optimal.  The walk
    runs on the traversal tokens of ``m`` with the label of each visit: a
    crossing whose two visits are adjacent is a kink, removed at no cost,
    and any other crossing is an ``S-`` step when one plus the value of
    its kink-free child is the count left.  A step's child takes its
    labels in the order of the splice's visits.
    """
    if components(m) != 1:
        raise MultiComponentError("unknotting counts need a knot projection")
    orbit = m.curve_components[0] if m.n else ()
    tokens = _curve_tokens(orbit)
    labels = [m.names[d >> 2] for d in orbit]
    value = remaining = _u_minus_value(_kink_free(tokens))
    steps: list[str] = []
    while tokens:
        total = len(tokens)
        partner, first = _visits(tokens)
        crossings = [p for p, q in enumerate(partner) if p < q]
        for p in sorted(crossings, key=lambda p: label_sort_key(labels[p])):
            q = partner[p]
            order, kept = _splice(first, p, q, False)
            child = _word_tokens(tokens, partner, order, kept)
            if q - p in (1, total - 1):
                kind = SpliceKind.RI_MINUS
                break
            if 1 + _u_minus_value(_kink_free(child)) == remaining:
                kind = SpliceKind.S_MINUS
                remaining -= 1
                break
        else:
            raise InvariantViolation("optimal descent step must exist")
        steps.append(sys.intern(f"{kind.value} {labels[p]}"))
        tokens, labels = child, [labels[i] for i in order]
    return value, Witness(m.canonical_key, tuple(steps))


# ---------------------------------------------------------------------------
# Two-way search (upper bounds for u)


# classes ``u_upper`` checks when the budget sets no ``max_nodes``; each layer
# it keeps grows with this, so the default bounds the memory of a call
_DEFAULT_MAX_NODES = 20000


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
    """A two-way bound; ``nodes_expanded`` counts the classes checked."""

    value: int | None
    status: SearchStatus
    witness: Witness | None
    nodes_expanded: int = 0


def _band_insertions(m: CurveMap):
    """Lazily yield ``(step, successor)`` for every ``S+`` on ``m``."""
    out = m.out_darts
    for orbit in m.face_orbits:
        for i, d1 in enumerate(orbit):
            for d2 in orbit[i + 1 :]:
                if out[d1] == out[d2]:  # else the band cuts the curve in two
                    line = f"S+ {m.dart_name(d1)} {m.dart_name(d2)}"
                    yield line, _insert_band(m, d1, d2)


def _band_layers(m: CurveMap, max_crossings: int):
    """Lazily yield ``(k, q, steps)`` for the distinct classes reached from
    ``m`` by ``k`` ``S+`` steps, layer by layer up to ``max_crossings``;
    ``q`` is the first map found in its class and ``steps`` replay it."""
    layer = [(m, ())]
    k = 0
    while layer and m.n + k < max_crossings:
        k += 1
        seen: set[bytes] = set()
        nxt = []
        for cur, prefix in layer:
            for line, q in _band_insertions(cur):
                if q.canonical_key not in seen:
                    seen.add(q.canonical_key)
                    steps = prefix + (line,)
                    nxt.append((q, steps))
                    yield k, q, steps
        layer = nxt


def u_upper(m: CurveMap, budget: SearchBudget = SearchBudget()) -> UResult:
    """Best two-way splice count found under the budget.

    The descent optimum seeds the bound, so the result never exceeds
    ``u_minus``, and a seed of at most three is ``EXACT`` by the class
    theorem (module docstring).  Otherwise the search checks, layer by
    layer, the classes ``q`` reached by ``k`` band insertions; each bounds
    the count by ``k + u_minus(q)``.  Since crosscap <= ``u_minus``, a class
    with ``k + crosscap_alt(q)`` no better than the best value so far (or
    above ``max_cost``) is skipped; skipped classes still grow the next
    layer.  ``max_nodes`` caps the classes checked (20,000 unless set),
    ``max_crossings`` the size of every class, and the layers end where
    ``k`` alone reaches the bound.  The search never proves its value
    minimal: the value is ``UPPER_BOUND_ONLY`` (``EXHAUSTED`` when above
    ``max_cost``).
    """
    if components(m) != 1:
        raise MultiComponentError("unknotting counts need a knot projection")
    max_crossings = m.n + 6 if budget.max_crossings is None else budget.max_crossings
    if max_crossings < m.n:
        raise InvalidMove("budget.max_crossings below the input crossing count")
    value, witness = u_minus(m)
    max_cost = value if budget.max_cost is None else budget.max_cost
    max_nodes = _DEFAULT_MAX_NODES if budget.max_nodes is None else budget.max_nodes
    if value <= 3 and value <= max_cost:
        return UResult(value, SearchStatus.EXACT, witness)

    checked = 0
    for k, q, steps in _band_layers(m, max_crossings):
        bound = min(value, max_cost + 1)  # a useful value lies below this
        if k >= bound or checked == max_nodes:
            break
        checked += 1
        if k + crosscap_alt(q) < bound:
            q_value, q_witness = u_minus(q)
            if k + q_value < value:
                value = k + q_value
                witness = Witness(m.canonical_key, steps + q_witness.steps)
    if value > max_cost:
        return UResult(None, SearchStatus.EXHAUSTED, None, checked)
    return UResult(value, SearchStatus.UPPER_BOUND_ONLY, witness, checked)


# ---------------------------------------------------------------------------
# Certificates linking the descent count to state surfaces


def sigma_from_witness(p: CurveMap, w: Witness) -> State:
    """The state a pure-descent witness induces on its base projection.

    Crossings consumed by band splices keep that disoriented smoothing;
    crossings consumed by kink removals take the other (oriented) smoothing.
    The resulting circle count is one plus the witness's kink-removal count.
    """
    if w.base_key != p.canonical_key:
        raise InvalidMove(_BASE_MISMATCH)
    pair_by_name: dict[str, int] = {}
    cur = p
    for line in w.steps:
        op, (name, *_) = _parse_step(line)
        if op not in ("S-", "RI-"):
            raise InvalidMove(f"not a pure-descent step: {line!r}")
        nxt = apply_step(cur, line)
        dis = pairing_for(cur, cur.crossing_index(name), SmoothingChoice.DISORIENTED)
        pair_by_name[name] = dis if op == "S-" else 1 - dis
        cur = nxt
    if cur.canonical_key != O_KEY:
        raise InvalidMove("witness does not end at the simple closed curve")
    if set(pair_by_name) != set(p.names):
        raise InvalidMove("witness does not consume every crossing of the base")
    return State(p, tuple(pair_by_name[nm] for nm in p.names))


@dataclass(frozen=True)
class EqualityReport:
    crosscap: int
    u_minus: int

    @property
    def equal(self) -> bool:
        return self.crosscap == self.u_minus


def check_upper_bound(m: CurveMap) -> bool:
    """Self-test: the crosscap number never exceeds the splice unknotting
    count."""
    return crosscap_alt(m) <= u_minus(m)[0]


def equality_report(m: CurveMap) -> EqualityReport:
    return EqualityReport(crosscap_alt(m), u_minus(m)[0])
