"""Generate one workload's CSVs and ingest them, in a process of its own.

    python3 perfbench/prepare.py --src src --workload service-mixed --seed 1 --dir D [--trace 1]

Set-up runs apart from the process that runs the queries, so that the
queries' peak RSS does not depend on what generation and ingest left in
the heap. Prints one JSON line: the set-up seconds, the
catalog's row counts, the bytes of the table files and, traced, the
set-up layers' seconds.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import spans
from workload import PARTITIONS, STRIPE_SIZE, WORKLOADS


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    from stripehouse import bench, datagen, ingest
    from stripehouse.schema import Catalog, StorageFormat

    w = WORKLOADS[args.workload]
    d = Path(args.dir)
    fmt = StorageFormat(w.fmt)
    t0 = time.perf_counter()
    enc_csv, lab_csv = datagen.generate(bench.spec_for_size(w.n_labs, args.seed), d / "gen")
    cat = Catalog(d / "db")
    cat.create_table(datagen.lab_schema(), fmt)
    cat.create_table(datagen.encounter_schema(), fmt)
    ingest.ingest_csv(cat, "lab_procedure", lab_csv, partitions=PARTITIONS,
                      stripe_size=STRIPE_SIZE, sort_by="lab_code")
    ingest.ingest_csv(cat, "encounter", enc_csv, partitions=PARTITIONS,
                      stripe_size=STRIPE_SIZE)
    t1 = time.perf_counter()
    print(json.dumps({
        "setup_s": t1 - t0,
        "rows": {t: cat.get_table(t).row_count for t in ("lab_procedure", "encounter")},
        "stored_bytes": sum(p.stat().st_size for p in (d / "db" / "tables").rglob("*")
                            if p.is_file()),
        "layers": spans.busy_by_layer(tracer.spans) if tracer else {},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
