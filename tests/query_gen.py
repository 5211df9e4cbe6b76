"""Randomized query text generator over the encounter/lab_procedure schemas."""

import random

NUM_COLS = {
    "lab_procedure": [("lab_id", (0, 100_000)), ("encounter_id", (0, 10_000)),
                      ("result_value", (0.0, 200.0))],
    "encounter": [("encounter_id", (0, 10_000)), ("patient_id", (0, 1_000)),
                  ("hospital_id", (0, 750)), ("los_days", (0, 30))],
}
STR_COLS = {"lab_procedure": ["lab_code"], "encounter": []}
DATE_COLS = {"lab_procedure": [], "encounter": ["admit_date"]}
CODES = [f"LC{i:02d}" for i in range(20)] + ["LC99"]
OPS = ["=", "!=", "<", "<=", ">", ">="]


def _literal(rng, lo, hi):
    if isinstance(lo, float):
        return repr(round(rng.uniform(lo, hi * 1.1), 3))
    return str(rng.randrange(int(lo), int(hi * 1.1) + 1))


def _predicate(rng, table, alias):
    kind = rng.random()
    if kind < 0.25 and STR_COLS[table]:
        col = rng.choice(STR_COLS[table])
        return f"{alias}.{col} {rng.choice(['=', '!='])} '{rng.choice(CODES)}'"
    if kind < 0.4 and DATE_COLS[table]:
        col = rng.choice(DATE_COLS[table])
        y, m, d = rng.randrange(1999, 2021), rng.randrange(1, 13), rng.randrange(1, 29)
        return f"{alias}.{col} {rng.choice(OPS)} '{y:04d}-{m:02d}-{d:02d}'"
    col, (lo, hi) = rng.choice(NUM_COLS[table])
    return f"{alias}.{col} {rng.choice(OPS)} {_literal(rng, lo, hi)}"


def _aggregates(rng, scope):
    out = []
    for _ in range(rng.randrange(1, 4)):
        roll = rng.random()
        alias, table = rng.choice(scope)
        if roll < 0.3:
            out.append("COUNT(*)")
        elif roll < 0.5:
            cols = ([c for c, _ in NUM_COLS[table]] + STR_COLS[table]
                    + DATE_COLS[table])
            out.append(f"COUNT(DISTINCT {alias}.{rng.choice(cols)})")
        else:
            fn = rng.choice(["SUM", "AVG", "MIN", "MAX"])
            cols = [c for c, _ in NUM_COLS[table]] + DATE_COLS[table]
            out.append(f"{fn}({alias}.{rng.choice(cols)})")
    # dedupe while keeping order; identical labels are legal but noisy
    seen, uniq = set(), []
    for item in out:
        if item not in seen:
            seen.add(item)
            uniq.append(item)
    return uniq


def random_query(rng: random.Random) -> str:
    join = rng.random() < 0.5
    if join:
        scope = [("l", "lab_procedure"), ("e", "encounter")]
        # encounter_id is unique on the build side; hospital_id repeats, so
        # each matching probe row meets a run of build rows
        build_key = rng.choice(["encounter_id", "hospital_id"])
        from_clause = ("FROM lab_procedure l "
                       f"JOIN encounter e ON l.encounter_id = e.{build_key}")
    else:
        alias, table = rng.choice([("l", "lab_procedure"), ("e", "encounter")])
        scope = [(alias, table)]
        from_clause = f"FROM {table} {alias}"

    items = _aggregates(rng, scope)
    group = ""
    if rng.random() < 0.5:
        alias, table = rng.choice(scope)
        col, (lo, hi) = rng.choice(
            [(c, b) for c, b in NUM_COLS[table]]
        )
        n_edges = rng.randrange(2, 6)
        lo_f = float(lo) if isinstance(lo, float) else lo
        width = (hi - lo) or 1
        raw = sorted({round(lo_f + rng.uniform(-0.2, 1.2) * width, 2)
                      for _ in range(n_edges)})
        if len(raw) >= 2:
            edges = ", ".join(repr(e) if isinstance(e, float) else str(e)
                              for e in raw)
            items.insert(0, f"BUCKET({alias}.{col}, {edges}) AS cat")
            group = " GROUP BY cat"

    where = ""
    n_preds = rng.randrange(0, 3)
    if n_preds:
        preds = [_predicate(rng, table, alias) for alias, table in
                 [rng.choice(scope) for _ in range(n_preds)]]
        where = " WHERE " + " AND ".join(preds)

    return f"SELECT {', '.join(items)} {from_clause}{where}{group}"
