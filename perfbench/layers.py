"""Spans and per-layer attribution for the traced run.

A span covers one call at a layer boundary: a name, a start, an end, a
parent span, and the id of the operation it belongs to. The library
workloads record spans here, around the benchmark's own calls into each
layer's public functions. The server workload reads the spans the
program's tracer already emits (``repro.obs.spans``), plus the spans
this module's wrappers add inside the server through that tracer.

Spans stay in memory until the run ends. A layer's self time is a
span's duration minus the part its child spans cover; ``unattributed``
is the end-to-end time per operation that no layer accounts for.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time

from repro.obs import spans as program_spans

#: span name -> the ``src/repro`` module (layer) whose work it times.
#: Names are the benchmark's own spans and the program's existing ones.
LAYER_OF = {
    "sql.parse": "sql",
    "server.parse": "sql",
    "qgm.bind": "qgm",
    "db.bind": "qgm",
    "qgm.fingerprint": "qgm",
    "rewrite": "rewrite",
    "db.rewrite": "rewrite",
    "matching": "matching",
    "engine.execute": "engine",
    "db.execute": "engine",
    "executor.run": "engine",
    "client.request": "server",
    "client.attempt": "server",
    "server.request": "server",
    "cache.lookup": "server",
    "admission.wait": "server",
    "wal.stage": "replication",
    "wal.fsync": "replication",
    "wal.checkpoint": "replication",
    "repl.ack_wait": "replication",
    "asts.maintain": "asts",
    "op": "benchmark",
}

#: layers with spans of their own; ``resources`` (the spill path) runs
#: inside ``engine`` spans and is reported by its counters
LAYERS = ("sql", "qgm", "rewrite", "matching", "engine", "server",
          "replication", "asts", "other")

#: containment slack: program spans stamp starts with ``time.time()``
#: and durations with ``perf_counter``, which differ by microseconds
_EPS = 20e-6


class Recorder:
    """In-memory spans recorded by the benchmark on the calling thread."""

    def __init__(self):
        self.spans: list[tuple] = []  # (op, span_id, parent_id, name, start, end)
        #: wrapper spans inside a program trace, same tuple shape with
        #: the trace id as ``op`` and ``time.time()`` stamps
        self.joined: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def active(self) -> bool:
        return bool(getattr(self._local, "stack", None))

    def span(self, name: str, op=None) -> "_Open":
        """A context manager timing one call; ``op`` starts an operation
        (its root span), otherwise the span nests under the open one."""
        return _Open(self, name, op)

    def add(self, name: str, start: float, end: float) -> None:
        """A finished child of the innermost open span (wrappers)."""
        op, parent = self._local.stack[-1]
        self.spans.append((op, next(self._ids), parent, name, start, end))

    def join(self, name: str, start: float, end: float) -> None:
        """A finished child of the program tracer's active span on this
        thread (server threads), if there is one."""
        parent = program_spans.active()
        if parent is not None:
            wall = time.time()
            self.joined.append((parent.trace_id, next(self._ids),
                                parent.span_id, name, wall - (end - start), wall))

    def normalized(self, joined: bool = False) -> list[dict]:
        return [
            {"op": op, "id": sid, "parent": parent, "name": name,
             "start": start, "end": end}
            for op, sid, parent, name, start, end
            in (self.joined if joined else self.spans)
        ]


class _Open:
    __slots__ = ("rec", "name", "op", "sid", "parent", "start")

    def __init__(self, rec: Recorder, name: str, op):
        self.rec, self.name, self.op = rec, name, op

    def __enter__(self) -> "_Open":
        stack = getattr(self.rec._local, "stack", None)
        if stack is None:
            stack = self.rec._local.stack = []
        if self.op is None:
            self.op, self.parent = stack[-1]
        else:
            self.parent = None
        self.sid = next(self.rec._ids)
        stack.append((self.op, self.sid))
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        end = time.perf_counter()
        self.rec._local.stack.pop()
        self.rec.spans.append(
            (self.op, self.sid, self.parent, self.name, self.start, end)
        )
        return False


def wrap(owner, attr: str, name: str, recorder: Recorder, on_result=None):
    """Replace ``owner.attr`` with a timed wrapper; returns an undo
    callable, or None when the program no longer has that attribute.

    On a thread where the recorder has an open operation the span nests
    under it; elsewhere (server threads) it joins the request's trace as
    a child of the program tracer's active span.
    """
    original = getattr(owner, attr, None)
    if original is None:
        return None

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            result = original(*args, **kwargs)
        finally:
            if recorder.active():
                recorder.add(name, start, time.perf_counter())
            else:
                recorder.join(name, start, time.perf_counter())
        if on_result is not None:
            on_result(result)
        return result

    setattr(owner, attr, timed)
    return lambda: setattr(owner, attr, original)


def program_span_dicts(raw: list[dict]) -> list[dict]:
    """The program tracer's span dicts in this module's shape."""
    return [
        {"op": s["trace_id"], "id": s["span_id"], "parent": s["parent_id"],
         "name": s["name"], "start": s["start_ts"],
         "end": s["start_ts"] + s["duration_ms"] / 1e3,
         "attrs": s.get("attrs", {})}
        for s in raw
    ]


def self_times(spans: list[dict]) -> dict:
    """``{op: {layer: self seconds}}``. A span's parent is its recorded
    parent, or the smallest sibling whose interval contains it (the
    program records some spans retroactively beside the one they
    nest in, e.g. ``executor.run`` beside ``db.execute``)."""
    by_op: dict = {}
    for span in spans:
        by_op.setdefault(span["op"], []).append(span)
    out = {}
    for op, group in by_op.items():
        ids = {s["id"] for s in group}
        children: dict = {}
        for span in group:
            parent = span["parent"] if span["parent"] in ids else None
            children.setdefault(parent, []).append(span)
        parent_of = {}
        for parent, kids in children.items():
            for kid in kids:
                holders = [other for other in kids if other is not kid
                           and _duration(other) > _duration(kid)
                           and _contains(other, kid)]
                best = min(holders, key=_duration, default=None)
                parent_of[kid["id"]] = best["id"] if best else parent
        covered: dict = {}
        for span in group:
            parent = parent_of[span["id"]]
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + _duration(span)
        layers: dict = {}
        for span in group:
            layer = LAYER_OF.get(span["name"], "other")
            own = max(0.0, _duration(span) - covered.get(span["id"], 0.0))
            layers[layer] = layers.get(layer, 0.0) + own
        out[op] = layers
    return out


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _contains(outer: dict, inner: dict) -> bool:
    return (outer["start"] <= inner["start"] + _EPS
            and inner["end"] <= outer["end"] + _EPS)


def call_ms(spans: list[dict], *names: str) -> list[float]:
    """Durations, in ms, of every span with one of ``names``."""
    return [_duration(s) * 1e3 for s in spans if s["name"] in names]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def write_spans(path, spans: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(spans, handle)
