#!/usr/bin/env python3
"""Curation tool: enumerate all prime kink-free knot projections with up to
``n_max`` double points (eight by default) and write the bundled table.

The projections are grown from the simple closed curve, one crossing per
layer: layer n holds the distinct classes reached from layer n - 1 by an
``RI+`` on every dart and side and by every ``S+``.  That is exhaustive.
The disoriented smoothing at any crossing of a knot projection keeps one
curve, so it leaves a knot projection with one crossing fewer, and the
``RI+`` (at a kink) or ``S+`` (elsewhere) placed at that crossing undoes
it; by induction every projection with n crossings lies in layer n.  Layer
n's table classes are its prime kink-free classes.  Per n the tool prints
the number of classes (1, 2, 6, 19, 76, 376, 2194, 14614 for n = 1..8, the
counts of spherical curves), the number of table classes, and the seconds
taken.  The number of prime alternating knots (1, 1, 2, 3, 7, 18 for
n = 3..8) is a lower bound on the latter, since every such knot has at
least one reduced prime projection.

When the output file already exists, every class it holds keeps its record
line (name and code), in its order; classes new to it follow, named by key
order after the highest ``<n>x<i>`` index already in use.  Re-running the
tool therefore leaves the bundled names, which witnesses and reports refer
to, unchanged.

Not a shipped feature; run from the repository root, with ``n_max`` as an
optional second argument:

    python3 tools/enumerate_projections.py src/splicecap/data/projections_le8.gauss
"""

from __future__ import annotations

import re
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from splicecap.curvemap import (  # noqa: E402
    O_MAP,
    CurveMap,
    build_map,
    equivalent,
    extract_code,
    parse_record,
    render_code,
)
from splicecap.families import (  # noqa: E402
    _pretzel_columns,
    gen_pretzel,
    gen_rational,
    gen_torus,
    is_prime,
)
from splicecap.search import _band_insertions  # noqa: E402
from splicecap.splices import ri_plus  # noqa: E402


def insertions(m: CurveMap):
    """Every projection one ``RI+`` or ``S+`` above the knot projection ``m``."""
    if m.n == 0:
        yield ri_plus(m, None, "L")
    for d in range(4 * m.n):
        for side in "LR":
            yield ri_plus(m, (m.names[d >> 2], d & 3), side)
    for _, q in _band_insertions(m):
        yield q


# Rolfsen-style names for classes pinned by twist-column continued fractions
# (and, for n <= 6, by the forced bijection with the alternating knots of
# that crossing number).
ALIASES = [
    ("3_1", lambda: gen_torus(2)),
    ("4_1", lambda: gen_pretzel(1, 1, 1)),
    ("5_1", lambda: gen_torus(3)),
    ("5_2", lambda: gen_rational(1, 2)),
    ("6_1", lambda: gen_pretzel(2, 1, 1)),
    ("6_2", lambda: gen_pretzel(1, 1, 2)),
    ("7_1", lambda: gen_torus(4)),
    ("7_4", lambda: _pretzel_columns((3, 1, 3))),
]


def _number_word(n: int) -> str:
    words = "zero one two three four five six seven eight nine".split()
    return words[n] if n < len(words) else str(n)


def existing_records(path: Path) -> dict[bytes, str]:
    """Record lines of an existing table by class key, in file order."""
    records: dict[bytes, str] = {}
    if path.exists():
        for raw in path.read_text().splitlines():
            line = raw.strip()  # as ingest_table reads it
            if line and not line.startswith("#"):
                records[build_map(parse_record(line)[1]).canonical_key] = line
    return records


def main(out_path: str, n_max: int = 8) -> None:
    old = existing_records(Path(out_path))
    by_key: dict[bytes, CurveMap] = {}
    counts: dict[int, int] = {}
    layer = [O_MAP]
    for n in range(1, n_max + 1):
        t0 = time.time()
        seen: set[bytes] = set()
        grown = []
        for m in layer:
            for q in insertions(m):
                if q.canonical_key not in seen:
                    seen.add(q.canonical_key)
                    # the last layer grows nothing; keep only its candidates
                    if n < n_max or not q.monogon_crossings:
                        grown.append(q)
        layer = grown
        found = {
            q.canonical_key: q for q in layer if not q.monogon_crossings and is_prime(q)
        }
        if n >= 3:  # no kink-free projection has fewer crossings
            counts[n] = len(found)
        by_key.update(found)
        print(
            f"n={n}: {len(seen)} classes, {len(found)} prime kink-free "
            f"({time.time()-t0:.1f}s)"
        )

    alias_of: dict[bytes, str] = {}
    for name, gen in ALIASES:
        m = gen()
        if m.n > n_max:
            continue
        key = m.canonical_key
        assert key in by_key, f"alias {name} missing from the enumeration"
        alias_of[key] = name
    # 6_3 by elimination: three 6-crossing classes, three alternating knots
    if n_max >= 6 and counts[6] == 3:
        rest = [
            m
            for m in by_key.values()
            if m.n == 6 and m.canonical_key not in alias_of
        ]
        assert len(rest) == 1
        alias_of[rest[0].canonical_key] = "6_3"

    lines = [
        f"# Prime knot projections with up to {_number_word(n_max)} double points,",
        "# one record per equivalence class (sphere homeomorphism + mirror).",
        "# Generated by tools/enumerate_projections.py; counts per n: "
        + ", ".join(f"{n}: {counts[n]}" for n in sorted(counts)),
        "1_1: 1+ 1+",
    ]
    for n in sorted(counts):
        held = [line for key, line in old.items() if key in by_key and by_key[key].n == n]
        lines.extend(held)
        idx = 0
        for line in held:
            numbered = re.match(rf"{n}x(\d+):", line)
            if numbered:
                idx = max(idx, int(numbered[1]))
        maps = sorted(
            (m for m in by_key.values() if m.n == n and m.canonical_key not in old),
            key=lambda m: m.canonical_key,
        )
        for m in maps:
            name = alias_of.get(m.canonical_key)
            if name is None:
                idx += 1
                name = f"{n}x{idx}"
            code = render_code(extract_code(m))
            rebuilt = build_map(extract_code(m))
            assert equivalent(rebuilt, m)
            lines.append(f"{name}: {code}")
    Path(out_path).write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 3} records to {out_path}")


if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else "src/splicecap/data/projections_le8.gauss"
    n_max = int(sys.argv[2]) if len(sys.argv) > 2 else 8
    main(out, n_max)
