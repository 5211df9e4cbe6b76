"""Traced runs: spans around the calls into each stripehouse module.

``install`` replaces module and class attributes of the program with
wrappers that record one span per call: id, parent span, operation, name,
start, end and an optional count taken from the return value. Spans stay
in memory and are written out once, when the run ends. Nothing here is
imported by an untraced run except ``op_scope``.

The clock is ``time.perf_counter`` (CLOCK_MONOTONIC on Linux), which the
server child shares, so server spans can be placed in the client's
measurement window.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import statistics
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import NamedTuple

_SPAN = contextvars.ContextVar("span", default=None)  # id of the enclosing span
_OP = contextvars.ContextVar("op", default=None)      # (operation id, class)


@contextmanager
def op_scope(op):
    """Mark calls made inside as belonging to operation ``op`` = (id, class)."""
    token = _OP.set(op)
    try:
        yield
    finally:
        _OP.reset(token)


class Span(NamedTuple):
    id: int
    parent: int | None
    op: tuple | None
    name: str
    t0: float
    t1: float
    count: object  # bytes read, (pruned, total), QueryMetrics counts, or None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper; ``count(result)`` is kept."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = _SPAN.get()
            token = _SPAN.set(sid)
            result = None
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                _SPAN.reset(token)
                self.spans.append(Span(sid, parent, _OP.get(), name, t0, t1,
                                       None if count is None or result is None
                                       else count(result)))

        setattr(owner, attr, traced)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump([s._asdict() for s in self.spans], f)


class _TimedScan:
    """A row-text scan whose every iteration step is a span."""

    def __init__(self, tracer: Tracer, inner):
        self._tracer = tracer
        self._inner = inner

    @property
    def stats(self):
        return self._inner.stats

    def __iter__(self):
        it = iter(self._inner)
        tracer = self._tracer
        while True:
            sid = next(tracer._ids)
            t0 = time.perf_counter()
            try:
                item = next(it)
            except StopIteration:
                tracer.spans.append(Span(sid, _SPAN.get(), _OP.get(), "rowtext.scan", t0,
                                         time.perf_counter(), self._inner.stats.bytes_read))
                return
            tracer.spans.append(Span(sid, _SPAN.get(), _OP.get(), "rowtext.scan", t0,
                                     time.perf_counter(), None))
            yield item


class _ContextPool(ThreadPoolExecutor):
    """Pool whose tasks run in the submitter's context, so spans keep their parent."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _plan_count(p):
    return (p.stripes_pruned, p.stripes_total)


def _exec_count(out):
    m = out[1]
    return (m.rows_read, m.shuffle_rows, m.peak_group_count)


def install(tracer: Tracer, classify=None) -> None:
    """Wrap the program's entry points; with ``classify`` also the server's query handler."""
    from stripehouse import columns, datagen, engine, ingest, planner, service, sql, stripefile

    tracer.wrap(datagen, "generate", "datagen.generate")
    tracer.wrap(ingest, "ingest_csv", "ingest.ingest")
    tracer.wrap(stripefile.StripeWriter, "append_columns", "stripefile.write")
    tracer.wrap(stripefile.StripeWriter, "close", "stripefile.write")
    tracer.wrap(stripefile, "read_stripe_columns", "stripefile.read", lambda out: out[1])
    tracer.wrap(stripefile, "read_footer", "stripefile.footer_read")
    tracer.wrap(columns, "predicate_mask", "columns.predicate")
    tracer.wrap(columns, "take", "columns.take")
    # the service imported these two by name
    for mod in (sql, service):
        tracer.wrap(mod, "compile_text", "sql.compile")
    for mod in (planner, service):
        tracer.wrap(mod, "plan", "planner.plan", _plan_count)
    tracer.wrap(engine.Engine, "execute", "engine.execute", _exec_count)
    tracer.wrap(service.AuditLog, "append", "service.audit_append")

    scan = engine.scan_rowtext_columnar
    engine.scan_rowtext_columnar = lambda *a, **kw: _TimedScan(tracer, scan(*a, **kw))
    engine.ThreadPoolExecutor = _ContextPool

    if classify is not None:
        tracer.wrap(service._Handler, "_query", "service.request")
        query = service._Handler._query
        ids = itertools.count(1)

        def with_op(self, server, sock, eng, user, req, t0):
            try:
                cls = classify(req.get("sql", ""), int(req.get("executors", 8)))
            except (TypeError, ValueError):
                cls = "invalid"
            with op_scope((f"s{next(ids)}", cls)):
                return query(self, server, sock, eng, user, req, t0)

        service._Handler._query = with_op


# --- per-layer report ---

SETUP_LAYERS = ("datagen.generate", "ingest.ingest", "stripefile.write")
BUSY_LAYERS = ("stripefile.read", "stripefile.footer_read", "rowtext.scan",
               "columns.predicate", "columns.take", "sql.compile", "planner.plan",
               "engine.execute", "service.audit_append")
# called from pool threads, so busy time can exceed wall time
WALL_LAYERS = ("stripefile.read", "rowtext.scan", "columns.predicate", "columns.take")
LEAF_LAYERS = ("stripefile.read", "stripefile.footer_read", "rowtext.scan",
               "columns.predicate", "columns.take")
SERVER_SIDE = ("sql.compile", "planner.plan", "engine.execute", "service.audit_append")
QUERY_CLASSES = ("complex", "complex_serial", "scan_agg", "join_agg", "distinct",
                 "count", "pruned_count", "pruned_agg")


def _union(intervals) -> float:
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def busy_by_layer(spans: list[Span]) -> dict[str, float]:
    """Seconds spent in each set-up layer."""
    return {f"{name}_s": sum(s.t1 - s.t0 for s in spans if s.name == name)
            for name in SETUP_LAYERS}


def layer_metrics(spans: list[Span], window: tuple[float, float], rounds: int,
                  wire_rtt_s: float) -> dict[str, float]:
    """Per-layer figures of the query phase, per round.

    ``wire_rtt_s`` is the summed client round trip of the query requests in
    the window (0 in-process).
    """
    out: dict[str, float] = {}
    lo, hi = window
    live = [s for s in spans if lo <= s.t0 <= hi]
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in live:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def busy(name):
        return sum(s.t1 - s.t0 for s in by_name[name])

    for name in BUSY_LAYERS:
        out[f"{name}_s"] = busy(name) / rounds
    for name in WALL_LAYERS:
        out[f"{name}_wall_s"] = _union((s.t0, s.t1) for s in by_name[name]) / rounds
    out["stripefile.footer_reads"] = len(by_name["stripefile.footer_read"]) / rounds
    out["stripefile.bytes_read"] = sum(s.count for s in by_name["stripefile.read"]) / rounds
    out["rowtext.bytes_read"] = sum(s.count or 0 for s in by_name["rowtext.scan"]) / rounds
    pruned = sum(s.count[0] for s in by_name["planner.plan"])
    total = sum(s.count[1] for s in by_name["planner.plan"])
    out["planner.stripes_pruned_ratio"] = pruned / total if total else 0.0

    execs = [s for s in by_name["engine.execute"] if s.count is not None]
    out["engine.rows_read"] = sum(s.count[0] for s in execs) / rounds
    out["engine.shuffle_rows"] = sum(s.count[1] for s in execs) / rounds
    out["engine.peak_group_count"] = max((s.count[2] for s in execs), default=0)

    def leaf_intervals(sid, t0, t1):
        for c in children.get(sid, ()):
            if c.name in LEAF_LAYERS:
                yield max(c.t0, t0), min(c.t1, t1)
            else:
                yield from leaf_intervals(c.id, t0, t1)

    out["engine.self_s"] = sum(
        (s.t1 - s.t0) - _union(leaf_intervals(s.id, s.t0, s.t1)) for s in execs
    ) / rounds
    for cls in QUERY_CLASSES:
        d = [s.t1 - s.t0 for s in execs if s.op and s.op[1] == cls]
        out[f"engine.execute_s.{cls}"] = statistics.median(d) if d else 0.0

    out["service.audit_records"] = len(by_name["service.audit_append"]) / rounds
    # the wire's share: client round trips less the query handler's own spans
    # (the audit also records hellos, which carry no operation)
    server = sum(s.t1 - s.t0 for name in SERVER_SIDE for s in by_name[name] if s.op)
    out["service.wire_s"] = (wire_rtt_s - server) / rounds if wire_rtt_s else 0.0
    return out
