"""Expected answers, computed from the generated CSVs without stripehouse.

Parsing uses the csv module, the join a dict, COUNT DISTINCT a Python set,
SUM and AVG math.fsum, and BUCKET explicit edge comparisons. The result is
written as JSON (floats round-trip exactly) so that it can be made in a
child process, outside every timed region and outside the measured
process's peak RSS.

    python3 perfbench/reference.py <gen dir> <out.json>
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

from workload import (
    COMPLEX_CODE,
    COMPLEX_EDGES,
    COMPLEX_QUERY,
    DISTINCT,
    JOIN_AGG,
    JOIN_EDGES,
    N_LAB_CODES,
    SCAN_AGG,
    SHORT_THRESHOLD,
    short_sql,
)


def bucket(value, edges) -> int | None:
    """Index i with edges[i] <= value < edges[i+1]; None outside or NULL."""
    if value is None:
        return None
    for i in range(len(edges) - 1):
        if edges[i] <= value < edges[i + 1]:
            return i
    return None


ENC_HEADER = ["encounter_id", "patient_id", "hospital_id", "admit_date", "los_days"]
LAB_HEADER = ["lab_id", "encounter_id", "lab_code", "result_value"]


def _expect_header(got: list[str], want: list[str]) -> None:
    # the field positions below depend on this column order
    if got != want:
        raise ValueError(f"CSV header {got} is not {want}")


def load(gen_dir: Path):
    with open(gen_dir / "encounter.csv", newline="", encoding="utf-8") as f:
        rows = csv.reader(f)
        _expect_header(next(rows), ENC_HEADER)
        # encounter_id -> (patient_id, los_days)
        enc = {int(r[0]): (int(r[1]), int(r[4])) for r in rows}
    labs = []
    with open(gen_dir / "lab_procedure.csv", newline="", encoding="utf-8") as f:
        rows = csv.reader(f)
        _expect_header(next(rows), LAB_HEADER)
        for r in rows:
            labs.append((int(r[1]), r[2], float(r[3]) if r[3] != "" else None))
    return enc, labs


def expected(enc: dict, labs: list) -> dict:
    """sql -> result rows, for every query a workload sends."""
    out: dict[str, list] = {}

    values = [v for _, _, v in labs if v is not None]
    total = math.fsum(values)
    out[SCAN_AGG] = [[total, total / len(values)]]

    out[DISTINCT] = [[len({e for e, _, _ in labs})]]

    patients: dict[int, set] = {}
    join_count: dict[int, int] = {}
    join_vals: dict[int, list] = {}
    for e, code, v in labs:
        hit = enc.get(e)
        if hit is None:
            continue
        patient, los = hit
        b = bucket(los, JOIN_EDGES)
        if b is not None:
            join_count[b] = join_count.get(b, 0) + 1
            if v is not None:
                join_vals.setdefault(b, []).append(v)
        if code == COMPLEX_CODE:
            c = bucket(v, COMPLEX_EDGES)
            if c is not None:
                patients.setdefault(c, set()).add(patient)
    out[COMPLEX_QUERY] = [[b, len(patients[b])] for b in sorted(patients)]
    out[JOIN_AGG] = [
        [b, join_count[b],
         math.fsum(join_vals[b]) / len(join_vals[b]) if join_vals.get(b) else None]
        for b in sorted(join_count)
    ]

    out[short_sql("count", "")] = [[len(labs)]]
    by_code: dict[str, list] = {}
    for _, code, v in labs:
        by_code.setdefault(code, []).append(v)
    for k in range(N_LAB_CODES):
        code = f"LC{k:02d}"
        vals = by_code.get(code, [])
        out[short_sql("pruned_count", code)] = [[len(vals)]]
        sel = [v for v in vals if v is not None and v >= SHORT_THRESHOLD]
        out[short_sql("pruned_agg", code)] = [[
            len(sel),
            math.fsum(sel) if sel else None,
            min(sel) if sel else None,
            max(sel) if sel else None,
        ]]
    return out


def main(argv: list[str]) -> int:
    gen_dir, out_path = Path(argv[0]), Path(argv[1])
    enc, labs = load(gen_dir)
    doc = {
        "rows": {"lab_procedure": len(labs), "encounter": len(enc)},
        "results": expected(enc, labs),
    }
    out_path.write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
