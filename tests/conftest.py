import csv
import os
from collections import OrderedDict

import pytest

from stripehouse import stripefile
from stripehouse.datagen import GenSpec, encounter_schema, generate, lab_schema
from stripehouse.ingest import ingest_csv
from stripehouse.schema import Catalog, ColumnType, StorageFormat, TableSchema
from stripehouse.values import iso_to_days

from rows import write_file

SEED_SPEC = GenSpec(seed=42, n_patients=1000, n_encounters=10000, n_labs=100000)


def load_csv_rows(path, kinds):
    """Parse a generated CSV into row tuples. kinds: i/f/s/d per column."""
    out = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        next(reader)
        for row in reader:
            vals = []
            for text, kind in zip(row, kinds):
                if text == "":
                    vals.append(None)
                elif kind == "i":
                    vals.append(int(text))
                elif kind == "f":
                    vals.append(float(text))
                elif kind == "d":
                    vals.append(iso_to_days(text))
                else:
                    vals.append(text)
            out.append(tuple(vals))
    return out


@pytest.fixture(scope="session")
def seed_data(tmp_path_factory):
    """Seed-42 CSVs (1e5 labs / 1e4 encounters) plus raw row tuples."""
    gen_dir = tmp_path_factory.mktemp("gen42")
    enc_csv, lab_csv = generate(SEED_SPEC, gen_dir)
    raw = {
        "encounter": load_csv_rows(enc_csv, "iiidi"),
        "lab_procedure": load_csv_rows(lab_csv, "iisf"),
    }
    return {"enc_csv": enc_csv, "lab_csv": lab_csv, "raw": raw, "spec": SEED_SPEC}


@pytest.fixture(scope="session")
def both_catalogs(seed_data, tmp_path_factory):
    """Seed-42 tables ingested in both formats; lab clustered on lab_code."""
    out = {}
    for fmt in (StorageFormat.STRIPE, StorageFormat.ROWTEXT):
        root = tmp_path_factory.mktemp(f"cat_{fmt.value}")
        cat = Catalog(root)
        cat.create_table(lab_schema(), fmt)
        cat.create_table(encounter_schema(), fmt)
        ingest_csv(cat, "lab_procedure", seed_data["lab_csv"], partitions=8,
                   stripe_size=10_000, sort_by="lab_code")
        ingest_csv(cat, "encounter", seed_data["enc_csv"], partitions=8,
                   stripe_size=10_000)
        out[fmt] = cat
    return out


@pytest.fixture()
def footer_parses(monkeypatch):
    """An empty footer cache, and the paths ``read_footer`` parsed since."""
    monkeypatch.setattr(stripefile, "_footer_cache", OrderedDict())
    monkeypatch.setattr(stripefile, "_footer_cache_bytes", 0)
    calls = []
    read = stripefile.read_footer

    def counting(path):
        calls.append(os.fspath(path))
        return read(path)

    monkeypatch.setattr(stripefile, "read_footer", counting)
    return calls


@pytest.fixture()
def mismatched_catalog(tmp_path):
    """Stripe tables ``t`` and ``u`` of ``(a INT64, b STRING)``; ``u``'s file
    holds that schema, ``t``'s holds ``(a FLOAT64)``."""
    cat = Catalog(tmp_path / "db")
    catalog_schema = [("a", ColumnType.INT64, True), ("b", ColumnType.STRING, True)]
    files = {"t": ([("a", ColumnType.FLOAT64, True)], [(2.5,), (1.0,)]),
             "u": (catalog_schema, [(1, "x"), (3, "y")])}
    for name, (file_schema, rows) in files.items():
        cat.create_table(TableSchema.create(name, catalog_schema), StorageFormat.STRIPE)
        cat.register_partition(name, write_file(rows, TableSchema.create(name, file_schema),
                                                tmp_path / f"{name}.stp"))
    return cat
