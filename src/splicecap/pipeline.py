"""Table ingestion, the prime-table verification harness, and CSV reports.

Every prime projection with at most eight double points satisfies
``u_minus = crosscap = u_upper_value``; the harness recomputes the three
numbers for each table entry, joins an external crosscap snapshot by name
when one is supplied, and counts mismatches (expected zero).
"""

from __future__ import annotations

import csv
import io
import sys
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

from .curvemap import CurveMap, SignedGaussCode, build_map, parse_record
from .errors import ParseError, SpliceCapError
from .families import classify_projection, decompose_prime
from .search import SearchBudget, u_minus, u_upper
from .splices import seifert_genus
from .surfaces import crosscap_alt

__all__ = [
    "TableEntry",
    "ExternalCrosscapRow",
    "ReportRow",
    "ingest_table",
    "ingest_external",
    "bundled_table_path",
    "bundled_external_path",
    "bundled_witness_path",
    "verify_observation",
    "emit_report",
]

_MAX_N = 8  # the observation covers projections with at most 8 double points


@dataclass(frozen=True)
class TableEntry:
    name: str
    code: SignedGaussCode
    map: CurveMap
    prime: bool

    @property
    def n(self) -> int:
        return self.map.n


@dataclass(frozen=True)
class ExternalCrosscapRow:
    name: str
    crosscap: int


@dataclass(frozen=True, slots=True)
class ReportRow:
    """One report line; slotted, since a report holds one per table entry."""

    name: str
    n: int
    u_minus: int
    u_upper_value: int | None
    u_upper_status: str
    crosscap_alt: int
    genus: int
    class_label: str
    external_crosscap: int | None
    all_equal: bool


COLUMNS = [f.name for f in fields(ReportRow)]


def bundled_table_path() -> Path:
    return Path(str(resources.files("splicecap") / "data" / "projections_le8.gauss"))


def bundled_external_path() -> Path:
    return Path(str(resources.files("splicecap") / "data" / "knotinfo_crosscap.csv"))


def bundled_witness_path() -> Path:
    """The five-band script for the default self-sum of the table's 7_4."""
    return Path(str(resources.files("splicecap") / "data" / "witness_74_sum.witness"))


def ingest_table(path) -> list[TableEntry]:
    """Parse, realize and primality-check a Gauss-code record file."""
    entries: list[TableEntry] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            name, code = parse_record(line)
            m = build_map(code)
        except SpliceCapError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if name in seen:
            raise ParseError(f"{path}:{lineno}: duplicate name {name!r}")
        seen.add(name)
        prime = (
            m.n > 0
            and len(m.curve_components) == 1
            and m.free_circles == 0
            and len(decompose_prime(m)) == 1
        )
        entries.append(TableEntry(name, code, m, prime))
    return entries


def ingest_external(path) -> list[ExternalCrosscapRow]:
    """Parse a two-column ``name,crosscap`` CSV snapshot."""
    rows: list[ExternalCrosscapRow] = []
    seen: set[str] = set()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["name", "crosscap"]:
            raise ParseError(f"{path}: expected header 'name,crosscap'")
        for i, record in enumerate(reader, start=2):
            name = (record["name"] or "").strip()
            raw = (record["crosscap"] or "").strip()
            if not name or name in seen:
                raise ParseError(f"{path}:{i}: bad or duplicate name {name!r}")
            seen.add(name)
            try:
                value = int(raw)
            except ValueError as exc:
                raise ParseError(f"{path}:{i}: non-integer crosscap {raw!r}") from exc
            if value < 0:
                raise ParseError(f"{path}:{i}: negative crosscap")
            rows.append(ExternalCrosscapRow(name, value))
    return rows


def verify_observation(
    entries: list[TableEntry],
    external: list[ExternalCrosscapRow] | None = None,
    search_nodes: int | None = None,
) -> tuple[list[ReportRow], dict]:
    """Check ``u_minus = crosscap = u_upper_value`` on every prime entry.

    Returns the report rows and a summary with mismatch counts.  The value
    comparison for the two-way count accepts any search status (the number
    never exceeds the descent count, and equality pins it).  ``search_nodes``
    unset takes ``u_upper``'s default.  Non-prime entries are skipped; no
    prime entry at all, or a prime entry beyond the observation's scope,
    raises before any row is computed.
    """
    if not any(e.prime for e in entries):
        raise SpliceCapError(
            f"no prime record to verify ({len(entries)} non-prime record(s) skipped)"
        )
    beyond = sum(1 for e in entries if e.prime and e.n > _MAX_N)
    if beyond:
        raise SpliceCapError(
            f"{beyond} prime record(s) have more than {_MAX_N} double points; "
            f"the observation covers at most {_MAX_N}"
        )
    lookup = {row.name: row.crosscap for row in external or []}
    rows: list[ReportRow] = []
    for entry in entries:
        if not entry.prime:
            continue
        m = entry.map
        value, _ = u_minus(m)
        upper = u_upper(m, SearchBudget(max_nodes=search_nodes))
        cc = crosscap_alt(m)
        ext = lookup.get(entry.name)
        rows.append(
            ReportRow(
                name=entry.name,
                n=entry.n,
                u_minus=value,
                u_upper_value=upper.value,
                u_upper_status=upper.status.value,
                crosscap_alt=cc,
                genus=seifert_genus(m),
                # few labels repeat over many rows, so rows share one string
                class_label=sys.intern(str(classify_projection(m))),
                external_crosscap=ext,
                all_equal=value == cc and upper.value == value,
            )
        )
    rows.sort(key=lambda r: (r.n, r.name))
    joined = [r for r in rows if r.external_crosscap is not None]
    summary = {
        "rows": len(rows),
        "mismatches": sum(1 for r in rows if not r.all_equal),
        "external_rows_joined": len(joined),
        "external_mismatches": sum(
            1 for r in joined if r.external_crosscap != r.crosscap_alt
        ),
    }
    return rows, summary


def render_report(rows: list[ReportRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    for r in sorted(rows, key=lambda r: (r.n, r.name)):
        writer.writerow([_cell(getattr(r, c)) for c in COLUMNS])
    return buf.getvalue()


def _cell(value):
    """CSV text of a report field: empty for ``None``, lower-case booleans."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    return value


def emit_report(rows: list[ReportRow], path) -> None:
    """Write the CSV report (deterministic row order by crossing count, name)."""
    Path(path).write_text(render_report(rows))
