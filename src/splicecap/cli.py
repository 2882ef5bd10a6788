"""Command-line interface.

Projection inputs are Gauss-code record files (``name: tokens`` per line);
``<file>:<name>`` picks one record.  Exit codes: 0 success, 1 input or
usage error, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

from . import __version__
from .curvemap import CurveMap, extract_code, render_code
from .errors import ParseError, SpliceCapError
from .families import (
    Pretzel,
    Rational,
    Torus,
    classify_projection,
    connected_sum,
    gen_family,
)
from .pipeline import (
    emit_report,
    ingest_external,
    ingest_table,
    verify_observation,
)
from .search import (
    SearchBudget,
    SearchStatus,
    Witness,
    u_minus,
    u_upper,
    verify_witness,
)
from .splices import reduce_ri
from .surfaces import ak_min_genus


def _load_one(spec: str) -> tuple[str, CurveMap]:
    if ":" not in spec:
        raise SpliceCapError(f"expected <file>:<name>, got {spec!r}")
    path, name = spec.rsplit(":", 1)
    for entry in ingest_table(path):
        if entry.name == name:
            return name, entry.map
    raise SpliceCapError(f"no record named {name!r} in {path}")


def _emit_record(name: str, m: CurveMap) -> None:
    print(f"{name}: {render_code(extract_code(m))}")


def cmd_canon(args) -> None:
    for entry in ingest_table(args.file):
        print(f"{entry.name}: {entry.map.canonical_key.decode()}")


def cmd_u_minus(args) -> None:
    blocks = []
    for entry in ingest_table(args.file):
        value, witness = u_minus(entry.map)
        print(f"{entry.name}: u- = {value}")
        blocks.append((entry.name, witness))
    if args.witness:
        lines = []
        for name, witness in blocks:
            lines.append(f"BASE {name}")
            lines.extend(witness.steps)
        Path(args.witness).write_text("\n".join(lines) + "\n")


def cmd_u_upper(args) -> None:
    budget = SearchBudget(args.max_crossings, args.max_cost, args.max_nodes)
    for entry in ingest_table(args.file):
        result = u_upper(entry.map, budget)
        shown = "-" if result.value is None else result.value
        print(f"{entry.name}: u <= {shown} ({result.status.value})")


def _surface_csv(args) -> None:
    lines = ["name,n,chi_max,nonorientable_at_max,crosscap,genus"]
    for entry in ingest_table(args.file):
        r = ak_min_genus(entry.map)
        # crosscap_alt's value without running the branching a second time
        crosscap = 0 if reduce_ri(entry.map).n == 0 else r.crosscap
        lines.append(
            f"{entry.name},{entry.n},{r.chi_max},"
            f"{str(r.nonorientable_at_max).lower()},{crosscap},{r.genus}"
        )
    print("\n".join(lines))  # all rows or nothing: a bad record prints no CSV


def cmd_classify(args) -> None:
    for entry in ingest_table(args.file):
        print(f"{entry.name}: {classify_projection(entry.map)}")


# family name -> (spec class, usage text); the spec takes one ASCII decimal per field
_FAMILIES = {
    "torus": (Torus, "gen torus <l>"),
    "rational": (Rational, "gen rational <m> <n>"),
    "pretzel": (Pretzel, "gen pretzel <p> <q> <r>"),
}


def cmd_gen(args) -> None:
    spec, usage = _FAMILIES[args.family]
    _require(args.params, len(fields(spec)), usage)
    m = gen_family(spec(*(int(x) for x in args.params)))
    _emit_record("_".join([args.family, *args.params]), m)


def _require(params, count, usage) -> None:
    if len(params) != count or not all(x.isascii() and x.isdigit() for x in params):
        raise SpliceCapError(f"usage: {usage}")


def cmd_sum(args) -> None:
    n1, m1 = _load_one(args.left)
    n2, m2 = _load_one(args.right)
    _emit_record(f"{n1}_sum_{n2}", connected_sum(m1, None, m2, None))


def _witness_blocks(path) -> list[tuple[str | None, list[str]]]:
    """Split a witness file into ``(base, steps)`` blocks, one per ``BASE``
    line; steps before any ``BASE`` line form a block with base ``None``."""
    blocks: list[tuple[str | None, list[str]]] = [(None, [])]
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.split()[0] == "BASE":
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise ParseError(f"BASE line names no record: {line!r}")
            blocks.append((parts[1].strip(), []))
        else:
            blocks[-1][1].append(line)
    if len(blocks) > 1 and blocks[0][1]:
        raise ParseError("witness steps before the first BASE line")
    return blocks if len(blocks) == 1 else blocks[1:]


def cmd_verify_witness(args) -> None:
    name, m = _load_one(args.projection)
    blocks = _witness_blocks(args.script)
    bases = (None, name, m.canonical_key.decode())
    steps = next((steps for base, steps in blocks if base in bases), None)
    if steps is None:
        raise SpliceCapError(f"no witness block in {args.script} has BASE {name!r}")
    witness = Witness(m.canonical_key, tuple(steps))
    result = verify_witness(m, witness)
    print(
        f"{name}: valid={str(result.valid).lower()} "
        f"s_count={result.s_count} ri_count={result.ri_count}"
    )
    if not result.valid:
        at = "" if result.failed_at is None else f"failed at step {result.failed_at}: "
        print(f"  {at}{result.error}")
        raise SpliceCapError("witness rejected")


def cmd_verify_table(args) -> None:
    # a report that cannot be written fails before any row is computed
    report = Path(args.report)
    if report.is_dir():
        raise SpliceCapError(f"--report {args.report} is a directory")
    if not report.parent.is_dir():
        raise SpliceCapError(f"--report {args.report}: no directory {report.parent}")
    entries = ingest_table(args.projections)
    external = ingest_external(args.external) if args.external else None
    rows, summary = verify_observation(entries, external)
    emit_report(rows, args.report)
    statuses = Counter(r.u_upper_status for r in rows)
    print(
        f"{summary['rows']} rows, {summary['mismatches']} mismatches, "
        f"{summary['external_rows_joined']} external rows joined, "
        f"{summary['external_mismatches']} external mismatches, "
        f"{len(entries) - summary['rows']} non-prime record(s) skipped; u_upper: "
        + ", ".join(f"{statuses[s.value]} {s.value}" for s in SearchStatus)
    )
    if summary["mismatches"] or summary["external_mismatches"]:
        raise SpliceCapError("verification found mismatches")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splicecap",
        description="Splice unknotting counts and crosscap numbers "
        "of knot projections.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("canon", help="canonical keys of records")
    p.add_argument("file")
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("u-minus", help="exact splice unknotting counts")
    p.add_argument("file")
    p.add_argument("--witness", help="write witness scripts to this file")
    p.set_defaults(func=cmd_u_minus)

    p = sub.add_parser("u-upper", help="bounded two-way search upper bounds")
    p.add_argument("file")
    p.add_argument("--max-crossings", type=int)
    p.add_argument("--max-cost", type=int)
    p.add_argument("--max-nodes", type=int)
    p.set_defaults(func=cmd_u_upper)

    p = sub.add_parser(
        "crosscap", aliases=["genus"], help="state-surface crosscap and genus CSV"
    )
    p.add_argument("file")
    p.set_defaults(func=_surface_csv)

    p = sub.add_parser("classify", help="small splice-count classes")
    p.add_argument("file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("gen", help="emit a family projection record")
    p.add_argument("family", choices=list(_FAMILIES))
    p.add_argument("params", nargs="*")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("sum", help="connected sum of two records")
    p.add_argument("left", metavar="file:name")
    p.add_argument("right", metavar="file:name")
    p.set_defaults(func=cmd_sum)

    p = sub.add_parser("verify-witness", help="replay a witness script")
    p.add_argument("projection", metavar="file:name")
    p.add_argument("script")
    p.set_defaults(func=cmd_verify_witness)

    p = sub.add_parser("verify-table", help="recompute the table invariants")
    p.add_argument("--projections", required=True)
    p.add_argument("--external")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_verify_table)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error
        return 1 if exc.code else 0
    try:
        args.func(args)
    except (SpliceCapError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
