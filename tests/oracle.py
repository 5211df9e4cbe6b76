"""The reference evaluator the tests compare the engine against: one
thread, per-row Python over raw row tuples, no shared code with the
engine's kernels."""

import bisect
import math
import operator
from fractions import Fraction

from stripehouse.engine import ResultTable, result_types
from stripehouse.sql import ResolvedQuery

OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def row_passes(conjuncts, row) -> bool:
    for c in conjuncts:
        v = row[c.col]
        if v is None:
            return False
        if not OPS[c.op](v, c.value):
            return False
    return True


def brute_force(query: ResolvedQuery, tables: dict[str, list[tuple]]) -> ResultTable:
    """Single-threaded reference evaluator over raw row tuples.

    ``tables`` maps table name -> full row list. Filter, nested hash join,
    bucket, aggregate; same output ordering contract as execute().
    """
    names = query.table_names
    filtered = []
    for pos, name in enumerate(names):
        rows = tables[name]
        cs = query.conjuncts[pos]
        filtered.append([r for r in rows if row_passes(cs, r)] if cs else list(rows))

    if query.join_cols is not None:
        left_key, right_key = query.join_cols
        # NULL and NaN keys equal nothing (a dict would match one NaN object)
        build: dict = {}
        for r in filtered[1]:
            k = r[right_key.index]
            if k is None or k != k:
                continue
            build.setdefault(k, []).append(r)
        joined = []
        for r in filtered[0]:
            k = r[left_key.index]
            if k is None or k != k:
                continue
            for rr in build.get(k, ()):
                joined.append((r, rr))

        def get(col):
            def g(pair):
                return pair[col.table_pos][col.index]
            return g
    else:
        joined = filtered[0]

        def get(col):
            def g(row):
                return row[col.index]
            return g

    k_groups = None
    edges = None
    if query.bucket:
        edges = [float(e) for e in query.bucket.edges]
        k_groups = len(edges) - 1
        bucket_get = get(query.bucket.column)

    def group_of(item):
        if query.bucket is None:
            return 0
        v = bucket_get(item)
        if v is None:
            return None
        v = float(v)
        if math.isnan(v) or v < edges[0] or v >= edges[-1]:
            return None
        return bisect.bisect_right(edges, v) - 1

    groups: dict[int, list] = {}
    for item in joined:
        g = group_of(item)
        if g is None:
            continue
        groups.setdefault(g, []).append(item)
    if query.bucket is None and not groups:
        groups[0] = []

    getters = [None if a.column is None else get(a.column) for a in query.aggregates]
    out_rows = []
    for g in sorted(groups):
        items = groups[g]
        finals = []
        for agg, getter in zip(query.aggregates, getters):
            if agg.kind == "count_star":
                finals.append(len(items))
                continue
            vals = [getter(it) for it in items]
            vals = [v for v in vals if v is not None]
            if agg.kind == "count_distinct":
                seen = set()
                for v in vals:
                    if isinstance(v, float) and math.isnan(v):
                        seen.add("__nan__")
                    else:
                        seen.add(v)
                finals.append(len(seen))
            elif agg.kind in ("sum", "avg"):
                if not vals:
                    finals.append(None)
                else:
                    finals.append(_oracle_sum([float(v) for v in vals], agg.kind == "avg"))
            else:
                nn = [v for v in vals if not (isinstance(v, float) and math.isnan(v))]
                if not nn:
                    finals.append(None)
                else:
                    finals.append(min(nn) if agg.kind == "min" else max(nn))
        row = []
        agg_i = 0
        for is_bucket in query.select_is_bucket:
            if is_bucket:
                row.append(g)
            else:
                row.append(finals[agg_i])
                agg_i += 1
        out_rows.append(tuple(row))
    return ResultTable(
        columns=query.select_labels,
        types=result_types(query),
        rows=out_rows,
    )


def _oracle_sum(vals: list[float], avg: bool) -> float:
    """IEEE special values first, then the finite values summed exactly;
    AVG is the rounded sum over the count, or, for a sum past the float
    range, the exact sum over the count rounded once."""
    if any(math.isnan(v) for v in vals) or (math.inf in vals and -math.inf in vals):
        return math.nan
    for inf in (math.inf, -math.inf):
        if inf in vals:
            return inf
    try:
        total = math.fsum(vals)
    except OverflowError:
        exact = sum(map(Fraction, vals), Fraction(0))
        try:
            total = float(exact)
        except OverflowError:
            if avg:
                return float(exact / len(vals))
            return math.inf if exact > 0 else -math.inf
    return total / len(vals) if avg else total
