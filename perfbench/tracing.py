"""In-memory spans around the calls the benchmark makes into each module.

A traced run replaces a few module attributes with wrappers that open a
span (name, start, end, parent, op id) around each call.  Wrapping the name
a module looks up (``pipeline.u_minus``, ``search.u_minus``, ...) puts the
calls that ``verify_observation`` and ``u_upper`` make into child spans of
their caller, without any change to the package's source.  Spans stay in
memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, note]
        self._stack: list[int] = []
        self.op: int | None = None
        self.enabled = False

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.op, None]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, note=None):
        """``fn`` with a span around each call; ``note(result)`` is kept on
        the span for counts (nodes expanded, values)."""

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if rec is not None and note is not None:
                    rec[5] = note(out)
                return out

        traced.__wrapped__ = fn
        return traced

    def mark(self) -> int:
        return len(self.spans)

    def self_times(self, start: int = 0, end: int | None = None) -> dict[str, tuple[float, int]]:
        """Per span name: total self time (duration minus the time its
        direct children cover) and call count, over ``spans[start:end]``."""
        spans = self.spans[start:end]
        child_time = defaultdict(float)
        for rec in spans:
            if rec[3] is not None:
                child_time[rec[3]] += rec[2] - rec[1]
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for i, rec in enumerate(spans, start):
            agg = out[rec[0]]
            agg[0] += rec[2] - rec[1] - child_time[i]
            agg[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def notes(self, name: str, start: int = 0) -> list:
        return [rec[5] for rec in self.spans[start:] if rec[0] == name]

    def children(self, index: int) -> list[list]:
        return [rec for rec in self.spans if rec[3] == index]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, op, note) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": t0, "end": t1,
                    "parent": parent, "op": op, "note": note,
                }, default=str) + "\n")


def install(tracer: Tracer, api) -> list[tuple[object, str, object]]:
    """Wrap the calls each layer makes into the next one.  Returns the
    replaced attributes so that ``uninstall`` can restore them."""
    from splicecap import pipeline, search, surfaces

    def upper_note(r):
        return {"nodes": r.nodes_expanded, "value": r.value,
                "status": r.status.value}

    def minus_note(r):
        return {"value": r[0]}

    def ak_note(r):
        return {"leaves": r.branch_count}

    plan = [
        (pipeline, "u_minus", "search.u_minus", minus_note),
        (pipeline, "u_upper", "search.u_upper", upper_note),
        (pipeline, "crosscap_alt", "surfaces.crosscap_alt", None),
        (pipeline, "seifert_genus", "splices.seifert_genus", None),
        (pipeline, "classify_projection", "families.classify_projection", None),
        (pipeline, "decompose_prime", "families.decompose_prime", None),
        (search, "u_minus", "search.u_minus", minus_note),
        (surfaces, "ak_min_genus", "surfaces.ak_min_genus", ak_note),
        (api, "u_minus", "search.u_minus", minus_note),
        (api, "crosscap_alt", "surfaces.crosscap_alt", None),
        (api, "verify_observation", "pipeline.verify_observation", None),
        (api, "emit_report", "pipeline.emit_report", None),
        (api, "ingest_table", "pipeline.ingest_table", None),
    ]
    saved = []
    for owner, attr, name, note in plan:
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, note))
    return saved


def uninstall(saved) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
