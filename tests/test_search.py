import re
from random import Random

import pytest

from splicecap import (
    CurveMap,
    InvalidMove,
    InvariantViolation,
    MultiComponentError,
    ParseError,
    SearchBudget,
    SearchStatus,
    SignedGaussCode,
    SmoothingChoice,
    SpliceKind,
    VerifyResult,
    Witness,
    build_map,
    connected_sum,
    enumerate_descents,
    equivalent,
    extract_code,
    gen_rational,
    gen_torus,
    parse_code,
    reduce_ri,
    ri_plus,
    sigma_from_witness,
    smooth,
    u_minus,
    u_upper,
    verify_witness,
    O_KEY,
    O_MAP,
)
from conftest import (
    SPLITTING_CODE,
    exhaustive_u_minus,
    family_members,
    round_wise_reduce_ri,
)


def test_u_minus_base_cases(kink):
    assert u_minus(O_MAP)[0] == 0
    assert u_minus(kink)[0] == 0


def test_u_minus_trefoil(trefoil):
    value, witness = u_minus(trefoil)
    assert value == 1
    assert witness.steps == ("S- 1", "RI- 2", "RI- 3")
    assert witness.s_count == 1 and witness.ri_count == 2
    # a name of non-ASCII digits sorts as text, after the numeric names
    value, witness = u_minus(CurveMap(trefoil.opp, ("²", "1", "2")))
    assert (value, witness.steps) == (1, ("S- 1", "RI- 2", "RI- ²"))


def test_u_minus_table_anchors(table_maps):
    assert u_minus(table_maps["1_1"])[0] == 0
    assert u_minus(table_maps["3_1"])[0] == 1
    assert u_minus(table_maps["6_2"])[0] == 2
    assert u_minus(table_maps["7_4"])[0] == 3


def test_u_minus_zero_iff_kink_closure(table):
    """u_minus vanishes exactly on kink-closures of the simple circle."""
    for entry in table:
        value, _ = u_minus(entry.map)
        reduced_to_o = reduce_ri(entry.map).canonical_key == O_KEY
        assert (value == 0) == reduced_to_o


def test_u_minus_multi_component(trefoil):
    with pytest.raises(MultiComponentError):
        u_minus(smooth(trefoil, "1", SmoothingChoice.ORIENTED))


def test_u_minus_missing_optimal_step_fails_loudly(table_maps, monkeypatch, tmp_path):
    """A memo value no descent step realizes is an internal invariant
    violation, also under ``python -O``: the CLI exits with code 2.  The
    poisoned class is ``4_1`` (value 2): a value of at most one is read off
    the word and never from the memo."""
    import splicecap.cli
    import splicecap.search

    figure_eight = table_maps["4_1"]
    monkeypatch.setitem(splicecap.search._UMINUS_MEMO, figure_eight.canonical_key, 0)
    with pytest.raises(InvariantViolation, match="optimal descent step"):
        u_minus(figure_eight)
    record = tmp_path / "figure_eight.gauss"
    record.write_text("4_1: 3- 4- 1+ 2+ 4- 3- 2+ 1+\n")
    assert splicecap.cli.main(["u-minus", str(record)]) == 2


def test_witness_soundness(table):
    """Every produced witness replays to the circle with matching band count
    and exactly n steps (descents shrink by one crossing per step)."""
    for entry in table:
        value, witness = u_minus(entry.map)
        assert len(witness.steps) == entry.n
        result = verify_witness(entry.map, witness)
        assert result.valid
        assert result.s_count == value
        assert result.endpoint == O_KEY


def test_witness_determinism(trefoil):
    a = u_minus(trefoil)[1]
    b = u_minus(build_map(parse_code("1+ 2+ 3+ 1+ 2+ 3+")))[1]
    assert a.steps == b.steps


def test_reduce_ri(kink, double_kink, trefoil):
    assert reduce_ri(kink).canonical_key == O_KEY
    assert reduce_ri(double_kink).canonical_key == O_KEY
    grown = ri_plus(trefoil, ("2", 1), "R")
    assert equivalent(reduce_ri(grown), trefoil)


def test_reduce_ri_matches_round_wise_oracle(table_maps):
    """The one-pass reduction against the round-wise loop, on kink-grown
    maps whose later kinks sit on the newest kink (so kinks nest) and on
    one-splice children of twist columns (a chain of nested kinks)."""
    rng = Random(5)
    cases = []
    for m in table_maps.values():
        grown = ri_plus(m, (m.names[0], rng.randrange(4)), rng.choice("LR"))
        for _ in range(3):
            dart = (grown.names[-1], rng.randrange(4))
            grown = ri_plus(grown, dart, rng.choice("LR"))
            cases.append(grown)
    for l in range(5, 31):
        t = gen_torus(l)
        for name in (t.names[0], t.names[l]):
            cases.append(smooth(t, name, SmoothingChoice.DISORIENTED))
    # every rotation of a few Gauss words, so that the walk also starts
    # inside nested kinks and they close across its two ends
    for m in cases[:9] + cases[-2:]:
        (word,) = extract_code(m).components
        for k in range(len(word)):
            cases.append(build_map(SignedGaussCode((word[k:] + word[:k],))))
    for m in cases:
        got, want = reduce_ri(m), round_wise_reduce_ri(m)
        for attr in ("opp", "names", "free_circles", "canonical_key"):
            assert getattr(got, attr) == getattr(want, attr), (attr, m)
    # a word that cancels nothing leaves the map itself
    kink_free = [m for m in table_maps.values() if not m.monogon_crossings]
    assert len(kink_free) == 44
    assert all(reduce_ri(m) is m for m in kink_free)
    assert reduce_ri(O_MAP) is O_MAP


def test_reduction_order_independence(table):
    """All maximal kink-reduction orders end at equivalent maps (exhaustive
    over reduction sequences of kinked variants of small entries)."""
    seeds = [e.map for e in table if e.n <= 4]
    kinked = []
    for m in seeds:
        for slot in (0, 2):
            for side in "LR":
                one = ri_plus(m, (m.names[0], slot), side)
                kinked.append(one)
                new = next(nm for nm in one.names if nm not in m.names)
                kinked.append(ri_plus(one, (new, 1), side))

    def endpoints(m):
        mono = [m.names[c] for c in m.monogon_crossings]
        if not mono:
            return {m.canonical_key}
        out = set()
        for name in mono:
            out |= endpoints(smooth(m, name, SmoothingChoice.DISORIENTED))
        return out

    for m in kinked:
        assert len(endpoints(m)) == 1


def test_enumerate_descents(trefoil, kink):
    tre = enumerate_descents(trefoil)
    assert [name for name, _, _ in tre] == ["1", "2", "3"]
    assert all(kind is SpliceKind.S_MINUS for _, kind, _ in tre)
    assert len({key for _, _, key in tre}) == 1
    assert enumerate_descents(kink) == [
        ("1", SpliceKind.RI_MINUS, O_KEY)
    ]
    assert enumerate_descents(O_MAP) == []


def test_verify_witness_rejects(trefoil):
    bad = Witness(trefoil.canonical_key, ("RI- 1",))
    result = verify_witness(trefoil, bad)
    assert not result.valid and result.failed_at == 0
    short = Witness(trefoil.canonical_key, ("S- 1",))
    result = verify_witness(trefoil, short)
    assert not result.valid and result.failed_at is None
    assert result.endpoint != O_KEY
    assert result.error == "replay ends with 2 crossing(s) left"


def test_verify_witness_checks_base(table_maps):
    """A witness replays only on the projection it was built on: the
    6_3 descent also unknots 6_2, but it certifies 3 bands, not 6_2's 2."""
    witness = u_minus(table_maps["6_3"])[1]
    result = verify_witness(table_maps["6_2"], witness)
    assert not result.valid and result.failed_at is None
    assert result.error == "witness base key does not match the projection"
    assert (result.s_count, result.ri_count) == (0, 0)
    with pytest.raises(InvalidMove, match="witness base key"):
        sigma_from_witness(table_maps["6_2"], witness)
    assert verify_witness(table_maps["6_3"], witness).valid


def test_verify_witness_rejects_bad_twist_count(trefoil):
    for count in ("x", "0", "-2", "1.5"):
        step = f"TWIST 1.0 2.1 {count} A"
        result = verify_witness(trefoil, Witness(trefoil.canonical_key, (step,)))
        assert not result.valid and result.failed_at == 0, count
        assert "twist crossing count" in result.error


@pytest.mark.parametrize(
    "step, error",
    [
        ("", "empty witness step"),
        ("FOO 1", "unknown witness op 'FOO'"),
        ("S-", "malformed step 'S-'"),
        ("RI- 1 2", "malformed step 'RI- 1 2'"),
        ("Seifert 1", "unknown witness op 'Seifert'"),
        ("RI+ 1.0", "malformed step 'RI+ 1.0'"),
        ("S+ 1.0 2.1 3", "malformed step 'S+ 1.0 2.1 3'"),
        ("TWIST 1.0 2.1 1", "malformed step 'TWIST 1.0 2.1 1'"),
        ("TWIST 1.0 2.1 0 A", "bad twist crossing count in 'TWIST 1.0 2.1 0 A'"),
        ("TWIST 1.0 2.1 x A", "bad twist crossing count in 'TWIST 1.0 2.1 x A'"),
        ("TWIST 1.0 2.1 ١ A", "bad twist crossing count in 'TWIST 1.0 2.1 ١ A'"),
        ("S+ 1.² 2.1", "bad slot in locator '1.²'"),
        ("RI+ 1.³ L", "bad slot in locator '1.³'"),
    ],
)
def test_witness_step_grammar(trefoil, step, error):
    """Replay and the step counts read a step through the same grammar;
    replay counts only the steps it applied."""
    w = Witness(trefoil.canonical_key, ("RI+ 1.0 L", step))
    result = verify_witness(trefoil, w)
    assert not result.valid and result.failed_at == 1
    assert result.error == error
    assert (result.s_count, result.ri_count) == (0, 1)
    with pytest.raises(ParseError, match=re.escape(error)):
        w.s_count


def test_verify_witness_rejects_seifert_steps(trefoil):
    """An oriented splice belongs to neither count, so no witness holds one:
    this script cut the trefoil in two and joined it again for 0 bands."""
    w = Witness(trefoil.canonical_key, ("Seifert 1", "Seifert 2", "RI- 3"))
    result = verify_witness(trefoil, w)
    assert not result.valid and result.failed_at == 0
    assert result.error == "unknown witness op 'Seifert'"
    assert (result.s_count, result.ri_count) == (0, 0)


def test_verify_witness_fuzz(table_maps):
    """Seeded junk scripts: replay always answers with a ``VerifyResult``,
    and a valid one ends at the simple closed curve with at least the bands
    the class theorem asks for."""
    from splicecap.search import _STEP_ARITY

    ops = [*_STEP_ARITY, "Seifert", "FOO"]
    tokens = "1 2 3 9 1.0 2.3 3.1 O 1.² ² ١ 1.00 L R A B 0 2".split()
    rng = Random(19)
    valid = 0
    for name in ("1_1", "3_1", "4_1"):
        m = table_maps[name]
        need = min(u_minus(m)[0], 3)
        for _ in range(1500):
            steps = []
            for _ in range(rng.randint(1, 4)):
                op = rng.choice(ops)
                arity = _STEP_ARITY.get(op, 1) if rng.random() < 0.9 else rng.randrange(5)
                steps.append(" ".join([op, *rng.choices(tokens, k=arity)]))
            result = verify_witness(m, Witness(m.canonical_key, tuple(steps)))
            assert type(result) is VerifyResult, steps
            if result.valid:
                valid += 1
                assert result.endpoint == O_KEY and result.s_count >= need, steps
    assert valid


def test_verify_witness_propagates_internal_errors(trefoil, monkeypatch):
    """Only input errors make an invalid witness; an internal bug, an
    ``InvariantViolation`` included, propagates."""
    import splicecap.search

    for error in (KeyError("internal bug"), InvariantViolation("internal bug")):

        def broken(m, line):
            raise error

        monkeypatch.setattr(splicecap.search, "apply_step", broken)
        with pytest.raises(type(error)):
            verify_witness(trefoil, Witness(trefoil.canonical_key, ("S- 1",)))


def test_verify_witness_empty_on_circle():
    result = verify_witness(O_MAP, Witness(O_KEY, ()))
    assert result.valid and result.s_count == 0


def test_verify_witness_with_insertions(trefoil):
    steps = ("RI+ 1.0 L", "RI- 4", "S- 1", "RI- 2", "RI- 3")
    result = verify_witness(trefoil, Witness(trefoil.canonical_key, steps))
    assert result.valid
    assert result.s_count == 1 and result.ri_count == 4


def test_u_upper_exact_small(trefoil, kink, table_maps):
    for m, expect in ((O_MAP, 0), (kink, 0), (trefoil, 1)):
        result = u_upper(m)
        assert result.value == expect
        assert result.status is SearchStatus.EXACT
    r = u_upper(table_maps["6_2"])
    assert (r.value, r.status) == (2, SearchStatus.EXACT)
    r = u_upper(table_maps["7_4"])
    assert (r.value, r.status) == (3, SearchStatus.EXACT)


def test_u_upper_dominance(table):
    for entry in table:
        if entry.n > 6:
            continue
        value, _ = u_minus(entry.map)
        budget = SearchBudget(entry.n + 2, value, 50)
        result = u_upper(entry.map, budget)
        assert result.value is not None and result.value <= value


def test_u_upper_budget_validation(trefoil):
    from splicecap import InvalidMove

    with pytest.raises(InvalidMove):
        u_upper(trefoil, SearchBudget(max_crossings=2))


def test_u_upper_checks_crossing_cap_before_descent(monkeypatch, table_maps):
    """A crossing cap below the input's size is refused before the seed
    descent runs, so the descent memo is left as it was."""
    import splicecap.search
    from splicecap import InvalidMove

    memo = {O_KEY: 0}
    monkeypatch.setattr(splicecap.search, "_UMINUS_MEMO", memo)
    with pytest.raises(InvalidMove, match="max_crossings below"):
        u_upper(table_maps["7_4"], SearchBudget(max_crossings=5))
    assert memo == {O_KEY: 0}


def test_u_upper_witness_replays(table_maps):
    m = table_maps["8x1"]  # a band count of four: past the exact shortcut
    result = u_upper(m, SearchBudget(m.n + 2, 4, 30))
    assert result.value == 4
    assert result.status is SearchStatus.UPPER_BOUND_ONLY
    check = verify_witness(m, result.witness)
    assert check.valid and check.s_count == result.value


def test_u_upper_unset_caps_take_defaults(table_maps):
    """An unset cap means n + 6 crossings and the descent value as cost, so
    a budget naming only the node cap runs the same search as the explicit
    one, and past the shortcut the search only bounds the count."""
    m = table_maps["8x1"]
    explicit = u_upper(m, SearchBudget(m.n + 6, 4, 40))
    assert u_upper(m, SearchBudget(max_nodes=40)) == explicit
    assert explicit.status is SearchStatus.UPPER_BOUND_ONLY


def test_u_upper_node_cap_counts_classes_checked(table_maps):
    """A run the node budget cuts reports exactly the classes it checked."""
    result = u_upper(table_maps["8x1"], SearchBudget(max_nodes=40))
    assert result.nodes_expanded == 40


def test_u_minus_additive_on_family_sums(trefoil):
    r = gen_rational(1, 2)
    s = connected_sum(trefoil, None, r, None)
    assert u_minus(s)[0] == u_minus(trefoil)[0] + u_minus(r)[0]


def test_move_consistency(kink, trefoil):
    """Chains of twist moves from kink-closures of the circle keep the band
    count at most the number of moves, with equality in the small classes."""
    from splicecap import twist_move

    bigon = next(o for o in kink.face_orbits if len(o) == 2)
    locs = [(kink.names[d >> 2], d & 3) for d in bigon]
    one_move = twist_move(kink, locs[0], locs[1], 2, "A")  # torus(2)
    assert u_minus(one_move)[0] == 1
    # a second move on a bigon of the torus: stays within count two
    m = one_move
    bigon = next(o for o in m.face_orbits if len(o) == 2)
    locs = [(m.names[d >> 2], d & 3) for d in bigon]
    two_moves = twist_move(m, locs[0], locs[1], 2, "A")
    assert u_minus(two_moves)[0] <= 2


def _naive_u_minus(m):
    """Exhaustive descent minimum without canonical-form collapsing; an
    independent oracle for the memoized search."""
    if m.n == 0:
        return 0
    best = None
    for name in m.names:
        cost = 0 if m.crossing_index(name) in m.monogon_crossings else 1
        sub = cost + _naive_u_minus(smooth(m, name, SmoothingChoice.DISORIENTED))
        if best is None or sub < best:
            best = sub
    return best


def test_u_minus_against_naive_oracle(table):
    """The canonical-form search equals the uncollapsed exhaustive minimum
    on every table entry with at most seven crossings."""
    for entry in table:
        if entry.n > 7:
            continue
        assert u_minus(entry.map)[0] == _naive_u_minus(entry.map), entry.name


def test_u_minus_kink_quotient_against_exhaustive_oracle(table_maps):
    """``u_minus`` runs on kink-free classes only; the memoized descent over
    every class, kinks included, gives the same values on the table,
    kink-grown maps, 11-crossing sums, twist-family members up to 14
    crossings and a 9-crossing record."""
    rng = Random(2024)
    cases = list(table_maps.items())
    for name, m in table_maps.items():
        grown = m
        for _ in range(2):
            dart = (rng.choice(grown.names), rng.randrange(4))
            grown = ri_plus(grown, dart, rng.choice("LR"))
        cases.append((f"{name} RI+", grown))
    for a, b in (("3_1", "8x1"), ("4_1", "7_4"), ("5_2", "6_2")):
        s = connected_sum(table_maps[a], None, table_maps[b], None)
        cases.append((f"{a}#{b}", s))
    cases += [(n, m) for n, m in family_members(14) if not n.startswith("torus")]
    cases.append(("splitting", build_map(parse_code(SPLITTING_CODE))))
    for name, m in cases:
        assert u_minus(m)[0] == exhaustive_u_minus(m), name
