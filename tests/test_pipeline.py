import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

from splicecap import (
    ExternalCrosscapRow,
    ParseError,
    SpliceCapError,
    bundled_external_path,
    bundled_table_path,
    emit_report,
    ingest_external,
    ingest_table,
    verify_observation,
)
from splicecap.cli import main
from splicecap.curvemap import extract_code, render_code
from splicecap.families import gen_pretzel, gen_rational, gen_torus
from splicecap.pipeline import render_report


def test_bundled_table_loads(table):
    assert len(table) == 45
    by_n = {}
    for e in table:
        by_n[e.n] = by_n.get(e.n, 0) + 1
    assert by_n == {1: 1, 3: 1, 4: 1, 5: 2, 6: 3, 7: 10, 8: 27}
    assert all(e.prime for e in table)


def test_enumeration_tool_keeps_record_lines(tmp_path, table):
    """Regenerating into an existing table keeps each class's record line:
    re-running the curation tool renames nothing, and it skips an indented
    comment line as ``ingest_table`` does.  Its growth by ``RI+`` and
    ``S+`` reaches every spherical curve: the class counts per crossing
    number are the published ones (OEIS A008989)."""
    tool = Path(__file__).resolve().parent.parent / "tools" / "enumerate_projections.py"
    out = tmp_path / "table.gauss"
    out.write_text(bundled_table_path().read_text() + "  # an indented note\n")
    assert len(ingest_table(out)) == len(table)
    res = subprocess.run(
        [sys.executable, str(tool), str(out), "7"], capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    classes = [
        int(line.split()[1]) for line in res.stdout.splitlines() if line.startswith("n=")
    ]
    assert classes == [1, 2, 6, 19, 76, 376, 2194]

    def records(path):
        return [
            line
            for line in path.read_text().splitlines()
            if not line.startswith("#") and len(line.split(":")[1].split()) <= 14
        ]

    assert records(out) == records(bundled_table_path())
    header = out.read_text().splitlines()[0]
    assert header == "# Prime knot projections with up to seven double points,"


def test_table_contains_family_members(table_maps):
    """Completeness spot check: every generated family member with at most
    eight crossings appears in the table."""
    from conftest import family_members

    keys = {m.canonical_key for m in table_maps.values()}
    for name, m in family_members(8):
        assert m.canonical_key in keys, name


def test_ingest_errors(tmp_path):
    bad = tmp_path / "bad.gauss"
    bad.write_text("X: 1+ 2+ 1+\n")
    with pytest.raises(ParseError) as err:
        ingest_table(bad)
    assert "bad.gauss:1" in str(err.value)
    dup = tmp_path / "dup.gauss"
    dup.write_text("A: 1+ 1+\nA: 1+ 1+\n")
    with pytest.raises(ParseError):
        ingest_table(dup)
    empty = tmp_path / "empty.gauss"
    empty.write_text("# nothing here\n\n")
    assert ingest_table(empty) == []


def test_ingest_external(tmp_path):
    rows = ingest_external(bundled_external_path())
    values = {r.name: r.crosscap for r in rows}
    assert values["3_1"] == 1
    assert values["7_4"] == 3
    assert values["4_1"] == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("name,crosscap\n3_1,x\n")
    with pytest.raises(ParseError):
        ingest_external(bad)
    bad2 = tmp_path / "bad2.csv"
    bad2.write_text("knot,value\n3_1,1\n")
    with pytest.raises(ParseError):
        ingest_external(bad2)


def test_verify_observation_small(table, external_rows):
    small = [e for e in table if e.n <= 6]
    rows, summary = verify_observation(small, external_rows, search_nodes=10)
    assert summary["mismatches"] == 0
    assert summary["external_mismatches"] == 0
    assert summary["rows"] == len(small)
    for row in rows:
        assert row.all_equal
        assert row.u_minus == row.crosscap_alt == row.u_upper_value


def test_verify_observation_counts_external_mismatch(table, external_rows):
    """The summary's counts come from the rows: one wrong external value is
    one external mismatch, and the internal check still holds."""
    small = [e for e in table if e.n <= 6]
    wrong = [
        ExternalCrosscapRow(r.name, r.crosscap + (r.name == "5_2"))
        for r in external_rows
    ]
    rows, summary = verify_observation(small, wrong, search_nodes=10)
    names = {e.name for e in small}
    assert summary == {
        "rows": len(small),
        "mismatches": 0,
        "external_rows_joined": sum(1 for r in wrong if r.name in names),
        "external_mismatches": 1,
    }
    (bad,) = [r for r in rows if r.external_crosscap not in (None, r.crosscap_alt)]
    assert bad.name == "5_2" and bad.all_equal


def test_verify_observation_without_prime_entries():
    """No prime entry leaves nothing to verify: the library raises, naming
    how many records it skipped."""
    composite = ingest_table(bundled_table_path().parent / "sum_74.gauss")
    for entries in (composite, composite + composite, []):
        message = f"no prime record to verify ({len(entries)} non-prime record(s)"
        with pytest.raises(SpliceCapError, match=re.escape(message)):
            verify_observation(entries)


def test_emit_report_deterministic(tmp_path, table, external_rows):
    small = [e for e in table if e.n <= 5]
    rows, _ = verify_observation(small, external_rows, search_nodes=10)
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    emit_report(rows, out1)
    rows2, _ = verify_observation(small, external_rows, search_nodes=10)
    emit_report(rows2, out2)
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text().splitlines()
    assert text[0].startswith("name,n,u_minus,")
    assert len(text) == len(small) + 1


def test_emit_report_empty(tmp_path):
    out = tmp_path / "empty.csv"
    emit_report([], out)
    assert out.read_text().strip() == (
        "name,n,u_minus,u_upper_value,u_upper_status,crosscap_alt,"
        "genus,class_label,external_crosscap,all_equal"
    )


def test_render_report_one_row(table, external_rows):
    one = [e for e in table if e.name == "3_1"]
    rows, _ = verify_observation(one, external_rows, search_nodes=10)
    text = render_report(rows)
    assert "3_1,3,1,1,Exact,1,1,U1(Torus(2)),1,true" in text


# ---------------------------------------------------------------------------
# CLI


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "splicecap.cli", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def record_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "records.gauss"
    path.write_text(
        "3_1: 1+ 2+ 3+ 1+ 2+ 3+\n"
        "ring: O\n"
        "4_1: 3- 4- 1+ 2+ 4- 3- 2+ 1+\n"
    )
    return path


def test_cli_u_minus(record_file, tmp_path):
    witness_out = tmp_path / "w.txt"
    res = run_cli("u-minus", str(record_file), "--witness", str(witness_out))
    assert res.returncode == 0
    assert "3_1: u- = 1" in res.stdout
    assert "ring: u- = 0" in res.stdout
    assert "4_1: u- = 2" in res.stdout
    text = witness_out.read_text()
    assert "BASE 3_1" in text and "S- " in text


def test_cli_crosscap_and_genus(record_file):
    res = run_cli("crosscap", str(record_file))
    assert res.returncode == 0
    assert "name,n,chi_max,nonorientable_at_max,crosscap,genus" in res.stdout
    assert "3_1,3,0,true,1,1" in res.stdout
    assert "4_1,4,-1,true,2,1" in res.stdout
    genus = run_cli("genus", str(record_file))
    assert genus.stdout == res.stdout


def test_cli_classify_canon_u_upper(record_file):
    res = run_cli("classify", str(record_file))
    assert res.returncode == 0
    assert "3_1: U1(Torus(2))" in res.stdout
    assert "ring: U0" in res.stdout
    res = run_cli("canon", str(record_file))
    assert res.returncode == 0
    res = run_cli("u-upper", str(record_file), "--max-nodes", "10")
    assert res.returncode == 0
    assert "3_1: u <= 1 (Exact)" in res.stdout


def test_cli_u_upper_max_cost(tmp_path):
    """A cost cap below the descent count (u_minus = 4 here) leaves no
    value to report when the node budget finds nothing cheaper."""
    one = tmp_path / "one.gauss"
    one.write_text("8x1: 3+ 4+ 8+ 6- 7- 8+ 5+ 2+ 1+ 7- 6- 5+ 4+ 3+ 2+ 1+\n")
    res = run_cli("u-upper", str(one), "--max-nodes", "40", "--max-cost", "3")
    assert res.returncode == 0, res.stderr
    assert res.stdout == "8x1: u <= - (Exhausted)\n"


def test_cli_gen_and_sum(record_file, tmp_path):
    res = run_cli("gen", "torus", "3")
    assert res.returncode == 0 and res.stdout.startswith("torus_3:")
    res = run_cli("gen", "pretzel", "1", "1", "2")
    assert res.returncode == 0
    res = run_cli("sum", f"{record_file}:3_1", f"{record_file}:4_1")
    assert res.returncode == 0
    label, code = res.stdout.split(":", 1)
    assert label == "3_1_sum_4_1"
    assert len(code.split()) == 14
    # ``sum`` is the one connected-sum command; ``gen`` only emits families
    res = run_cli("gen", "sum", f"{record_file}:3_1", f"{record_file}:3_1")
    assert res.returncode != 0 and "invalid choice: 'sum'" in res.stderr


def test_cli_gen_builds_family_members(capsys):
    """``gen`` names each record after its family and parameters and prints
    the family generator's code; a wrong parameter count prints the usage."""
    cases = [
        (["torus", "3"], "torus_3", gen_torus(3)),
        (["rational", "1", "2"], "rational_1_2", gen_rational(1, 2)),
        (["pretzel", "1", "1", "2"], "pretzel_1_1_2", gen_pretzel(1, 1, 2)),
    ]
    for params, name, m in cases:
        assert main(["gen", *params]) == 0
        assert capsys.readouterr().out == f"{name}: {render_code(extract_code(m))}\n"
    usages = {
        "torus": "gen torus <l>",
        "rational": "gen rational <m> <n>",
        "pretzel": "gen pretzel <p> <q> <r>",
    }
    for family, usage in usages.items():
        assert main(["gen", family, "1", "1", "1", "1"]) == 1
        assert capsys.readouterr().err == f"error: usage: {usage}\n"
    assert main(["gen", "torus", "1"]) == 1
    assert "torus family needs l >= 2" in capsys.readouterr().err


def test_cli_verify_witness(record_file, tmp_path):
    script = tmp_path / "script.txt"
    script.write_text("BASE 3_1\nS- 1\nRI- 2\nRI- 3\n")
    res = run_cli("verify-witness", f"{record_file}:3_1", str(script))
    assert res.returncode == 0
    assert "valid=true s_count=1 ri_count=2" in res.stdout
    bad = tmp_path / "bad.txt"
    bad.write_text("RI- 1\n")
    res = run_cli("verify-witness", f"{record_file}:3_1", str(bad))
    assert res.returncode == 1


def test_cli_verify_witness_replays_u_minus_output(record_file, tmp_path):
    """``verify-witness`` picks the block of its record from the file that
    ``u-minus --witness`` writes, also when that block is not the first."""
    witness_out = tmp_path / "w.txt"
    res = run_cli("u-minus", str(record_file), "--witness", str(witness_out))
    assert res.returncode == 0, res.stderr
    for name, counts in (("4_1", "s_count=2"), ("3_1", "s_count=1")):
        res = run_cli("verify-witness", f"{record_file}:{name}", str(witness_out))
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith(f"{name}: valid=true {counts} ")
    other = tmp_path / "other.gauss"
    other.write_text("5_1: 1+ 2+ 3+ 4+ 5+ 1+ 2+ 3+ 4+ 5+\n")
    res = run_cli("verify-witness", f"{other}:5_1", str(witness_out))
    assert res.returncode == 1
    assert res.stdout == ""
    assert "no witness block" in res.stderr


def test_cli_crosscap_bad_record_prints_no_csv(tmp_path):
    """A record the crosscap run rejects leaves stdout empty: no partial CSV."""
    bad = tmp_path / "bad.gauss"
    bad.write_text("3_1: 1+ 2+ 3+ 1+ 2+ 3+\nx: 1+ 1+ | 2+ 2+\n")
    res = run_cli("crosscap", str(bad))
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.startswith("error: ")


@pytest.mark.parametrize(
    "command, expected",
    [
        ("u-minus", "deep: u- = 1\n"),
        (
            "crosscap",
            "name,n,chi_max,nonorientable_at_max,crosscap,genus\n"
            "deep,199,0,true,1,99\n",
        ),
    ],
    ids=["u-minus", "crosscap"],
)
def test_cli_deep_input_answers(command, expected, tmp_path, capsys):
    """A record with more crossings than the recursion limit allows frames:
    both searches run from worklists, so each command answers."""
    path = tmp_path / "torus.gauss"
    path.write_text(f"deep: {render_code(extract_code(gen_torus(100)))}\n")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 30)
    try:
        code = main([command, str(path)])
    finally:
        sys.setrecursionlimit(limit)
    assert (code, *capsys.readouterr()) == (0, expected, "")


@pytest.mark.parametrize(
    "argv", [["gen", "sum", "a:x", "b:y"], ["u-minus"], ["no-such-command"], []]
)
def test_cli_usage_error_exits_1(argv, capsys):
    """A usage error is an input error (exit 1); 2 stays reserved for an
    internal invariant violation."""
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err


_BROKEN_PARITY = """
import sys
import splicecap
from splicecap import cli, splices
from splicecap.curvemap import CurveMap

real = splices._smooth_pairings

def one_circle_too_many(m, chosen):
    out = real(m, chosen)
    if len(chosen) == m.n:
        out = CurveMap._of(out.opp, out.names, out.free_circles + 1)
    return out

splices._smooth_pairings = one_circle_too_many
try:
    splicecap.seifert_genus(splicecap.gen_torus(2))
except splicecap.InvariantViolation as exc:
    print(sys.flags.optimize, isinstance(exc, splicecap.SpliceCapError), exc)
sys.exit(cli.main(["crosscap", sys.argv[1]]))
"""


def test_invariant_violation_under_optimize(record_file):
    """A broken invariant raises ``InvariantViolation`` under ``python -O``
    too, which is no input error, and the CLI exits 2."""
    res = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_PARITY, str(record_file)],
        capture_output=True,
        text=True,
    )
    assert res.stdout.startswith(
        "1 False parity violation in Seifert circle count\n"
    ), res.stdout
    assert res.returncode == 2
    assert res.stderr == (
        "internal invariant violation: parity violation in Seifert circle count\n"
    )


def test_cli_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert main(["u-minus", "--help"]) == 0
    assert "usage: splicecap" in capsys.readouterr().out


def test_cli_verify_witness_bare_base(record_file, tmp_path):
    """A ``BASE`` line without a record name is an input error, not a crash."""
    script = tmp_path / "bare.txt"
    script.write_text("BASE\nS- 1\n")
    res = run_cli("verify-witness", f"{record_file}:3_1", str(script))
    assert res.returncode == 1
    assert res.stderr.startswith("error: ")


def test_cli_verify_witness_band_across_curves(tmp_path):
    """No witness step leaves one curve: the oriented smoothings that would
    cut the trefoil in two and join it again for free are no witness op,
    so the script fails at its first step (exit 1)."""
    record = tmp_path / "t.gauss"
    record.write_text("t: 1+ 2+ 3+ 1+ 2+ 3+\n")
    script = tmp_path / "seifert.txt"
    script.write_text("Seifert 1\nSeifert 2\nRI- 3\n")
    res = run_cli("verify-witness", f"{record}:t", str(script))
    assert res.returncode == 1, res.stderr
    assert "t: valid=false s_count=0 ri_count=0" in res.stdout
    assert "failed at step 0: unknown witness op 'Seifert'" in res.stdout


def test_cli_u_upper_zero_caps(record_file):
    """An explicit 0 reaches the budget check instead of meaning "unset"."""
    for flag in ("--max-nodes", "--max-crossings"):
        res = run_cli("u-upper", str(record_file), flag, "0")
        assert res.returncode == 1
        assert "budget caps must be positive" in res.stderr


def test_cli_u_upper_checks_caps_before_records(tmp_path):
    """A bad cap is reported on a file with no record too."""
    empty = tmp_path / "empty.gauss"
    empty.write_text("# no records\n")
    res = run_cli("u-upper", str(empty), "--max-nodes", "0")
    assert res.returncode == 1
    assert "budget caps must be positive" in res.stderr


def test_cli_verify_table(tmp_path):
    out = tmp_path / "report.csv"
    small = tmp_path / "small.gauss"
    lines = [
        line
        for line in bundled_table_path().read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]
    small_lines = [l for l in lines if len(l.split(":")[1].split()) <= 12]
    # one composite record, which the check skips
    composite = bundled_table_path().parent / "sum_74.gauss"
    small_lines += [
        l for l in composite.read_text().splitlines() if not l.startswith("#")
    ]
    small.write_text("\n".join(small_lines) + "\n")
    res = run_cli(
        "verify-table",
        "--projections",
        str(small),
        "--external",
        str(bundled_external_path()),
        "--report",
        str(out),
    )
    assert res.returncode == 0, res.stderr
    assert "0 mismatches" in res.stdout
    rows = out.read_text().splitlines()[1:]
    exact = sum(1 for r in rows if ",Exact," in r)
    assert res.stdout.endswith(
        f", 1 non-prime record(s) skipped; u_upper: {exact} Exact, "
        f"{len(rows) - exact} UpperBoundOnly, 0 Exhausted\n"
    )


def test_cli_verify_table_default_budget(tmp_path):
    """The whole bundled table at the default search budget finishes."""
    out = tmp_path / "report.csv"
    res = run_cli(
        "verify-table",
        "--projections",
        str(bundled_table_path()),
        "--external",
        str(bundled_external_path()),
        "--report",
        str(out),
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("45 rows, 0 mismatches,")
    assert res.stdout.endswith(
        "; u_upper: 35 Exact, 10 UpperBoundOnly, 0 Exhausted\n"
    )
    assert len(out.read_text().splitlines()) == 46


def test_cli_verify_table_rejects_records_beyond_scope(tmp_path, capsys):
    """Records with more double points than the observation covers are an
    input error, raised before any row is computed, not rows skipped in
    silence."""
    nine = bundled_table_path().parent / "projections_9.gauss"
    out = tmp_path / "report.csv"
    code = main(["verify-table", "--projections", str(nine), "--report", str(out)])
    assert code == 1
    assert capsys.readouterr() == (
        "",
        "error: 101 prime record(s) have more than 8 double points; "
        "the observation covers at most 8\n",
    )
    assert not out.exists()


def test_cli_verify_table_without_prime_records(tmp_path, capsys):
    """A record file with no prime record leaves nothing to verify: an input
    error that says how many records were skipped, not an empty pass."""
    composite = bundled_table_path().parent / "sum_74.gauss"
    out = tmp_path / "report.csv"
    code = main(["verify-table", "--projections", str(composite), "--report", str(out)])
    assert code == 1
    assert capsys.readouterr() == (
        "",
        "error: no prime record to verify (1 non-prime record(s) skipped)\n",
    )
    assert not out.exists()


def test_cli_input_error(tmp_path):
    missing = tmp_path / "missing.gauss"
    res = run_cli("u-minus", str(missing))
    assert res.returncode == 1
    bad = tmp_path / "bad.gauss"
    bad.write_text("X: 1+ 2+ 1+\n")
    res = run_cli("u-minus", str(bad))
    assert res.returncode == 1


def test_cli_bundled_witness_loop(tmp_path):
    """Full command-line loop: rebuild the doubled 7_4 record with `sum` and
    replay the bundled five-band witness against it."""
    from splicecap import bundled_witness_path

    table = bundled_table_path()
    res = run_cli("sum", f"{table}:7_4", f"{table}:7_4")
    assert res.returncode == 0
    bundled = bundled_table_path().parent / "sum_74.gauss"
    bundled_record = [
        ln for ln in bundled.read_text().splitlines() if not ln.startswith("#")
    ][0]
    assert res.stdout.strip() == bundled_record
    out = tmp_path / "sum.gauss"
    out.write_text(res.stdout)
    res = run_cli(
        "verify-witness", f"{out}:7_4_sum_7_4", str(bundled_witness_path())
    )
    assert res.returncode == 0, res.stderr
    assert "valid=true s_count=5 ri_count=11" in res.stdout
