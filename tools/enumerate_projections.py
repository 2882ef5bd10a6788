#!/usr/bin/env python3
"""Curation tool: enumerate all prime kink-free knot projections with up to
eight double points and write the bundled table.

Every projection has a Gauss word in first-occurrence normal form, so
enumerating those words (with cheap pruning), testing realizability over
sign vectors, and deduplicating by canonical key is exhaustive by
construction.  Counts per crossing number are printed; the number of prime
alternating knots (1, 1, 2, 3, 7, 18 for n = 3..8) is a lower bound since
every such knot has at least one reduced prime projection.

When the output file already exists, every class it holds keeps its record
line (name and code), in its order; classes new to it follow, named by key
order after the highest ``<n>x<i>`` index already in use.  Re-running the
tool therefore leaves the bundled names, which witnesses and reports refer
to, unchanged.

Not a shipped feature; run from the repository root:

    python3 tools/enumerate_projections.py src/splicecap/data/projections_le8.gauss
"""

from __future__ import annotations

import re
import sys
import time
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from splicecap.curvemap import (  # noqa: E402
    CurveMap,
    SignedGaussCode,
    build_map,
    equivalent,
    extract_code,
    parse_record,
    render_code,
)
from splicecap.errors import NotRealizable  # noqa: E402
from splicecap.families import (  # noqa: E402
    _pretzel_columns,
    closing_stretch,
    gen_pretzel,
    gen_rational,
    gen_torus,
)


def normal_form_words(n: int):
    """Double-occurrence words on n labels, first occurrences in order,
    without cyclically adjacent equal letters."""
    total = 2 * n
    word = [0] * total
    counts = [0] * (n + 1)

    def rec(pos: int, next_label: int):
        if pos == total:
            if word[-1] != word[0]:
                yield tuple(word)
            return
        prev = word[pos - 1] if pos else 0
        if next_label <= n:
            lab = next_label
            if lab != prev:
                word[pos] = lab
                counts[lab] += 1
                yield from rec(pos + 1, next_label + 1)
                counts[lab] -= 1
        for lab in range(1, next_label):
            if counts[lab] == 1 and lab != prev:
                word[pos] = lab
                counts[lab] += 1
                yield from rec(pos + 1, next_label)
                counts[lab] -= 1

    yield from rec(0, 1)


def parity_ok(word: tuple[int, ...]) -> bool:
    """Between the two visits of a crossing, an even number of once-seen
    letters (necessary for any spherical realization)."""
    first: dict[int, int] = {}
    for i, lab in enumerate(word):
        if lab not in first:
            first[lab] = i
        else:
            if (i - first[lab]) % 2 == 0:
                return False
    return True


def spherical_realizations(word: tuple[int, ...]):
    """All spherical maps for the word over sign vectors (first sign +)."""
    n = max(word)
    for rest in product((1, -1), repeat=n - 1):
        signs = (1,) + rest
        comps = (tuple((str(lab), signs[lab - 1]) for lab in word),)
        try:
            yield build_map(SignedGaussCode(comps))
        except NotRealizable:
            continue


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


def existing_records(path: Path) -> dict[bytes, str]:
    """Record lines of an existing table by class key, in file order."""
    records: dict[bytes, str] = {}
    if path.exists():
        for line in path.read_text().splitlines():
            if line.strip() and not line.startswith("#"):
                records[build_map(parse_record(line)[1]).canonical_key] = line
    return records


def main(out_path: str, n_max: int = 8) -> None:
    old = existing_records(Path(out_path))
    by_key: dict[bytes, CurveMap] = {}
    counts: dict[int, int] = {}
    for n in range(3, n_max + 1):
        t0 = time.time()
        found: dict[bytes, CurveMap] = {}
        scanned = kept = 0
        for word in normal_form_words(n):
            scanned += 1
            if not parity_ok(word) or closing_stretch(word) is not None:
                continue
            for m in spherical_realizations(word):
                kept += 1
                found.setdefault(m.canonical_key, m)
        counts[n] = len(found)
        by_key.update(found)
        print(
            f"n={n}: {scanned} words scanned, {kept} spherical builds, "
            f"{len(found)} distinct prime projections ({time.time()-t0:.1f}s)"
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
        "# Prime knot projections with up to eight double points,",
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
