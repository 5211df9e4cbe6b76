"""Deterministic synthetic encounter / lab data.

Stands in for the proprietary clinical source at desk scale. A SplitMix64
stream drives every draw, so (seed, spec) fully determines both output
files byte-for-byte on any platform. Draw order is fixed: row-major,
encounters first, fields in declared column order.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import IoFailure
from .schema import ColumnType, TableSchema
from .values import iso_to_days

GOLDEN = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1

DATE_LO_DAYS = iso_to_days("2000-01-01")
DATE_SPAN_DAYS = iso_to_days("2018-12-31") - DATE_LO_DAYS + 1
LOS_SPAN = 31           # stay lengths 0..30 inclusive
NULL_ONE_IN = 50        # lab result null odds
RESULT_SCALE = 200.0

ENCOUNTER_HEADER = "encounter_id,patient_id,hospital_id,admit_date,los_days"
LAB_HEADER = "lab_id,encounter_id,lab_code,result_value"

DRAWS_PER_ENCOUNTER = 4  # patient, hospital, admit_date, los
DRAWS_PER_LAB = 4        # encounter, code, value, null flag


def encounter_schema() -> TableSchema:
    return TableSchema.create("encounter", [
        ("encounter_id", ColumnType.INT64, False),
        ("patient_id", ColumnType.INT64, False),
        ("hospital_id", ColumnType.INT64, False),
        ("admit_date", ColumnType.DATE, False),
        ("los_days", ColumnType.INT64, False),
    ])


def lab_schema() -> TableSchema:
    return TableSchema.create("lab_procedure", [
        ("lab_id", ColumnType.INT64, False),
        ("encounter_id", ColumnType.INT64, False),
        ("lab_code", ColumnType.STRING, False),
        ("result_value", ColumnType.FLOAT64, True),
    ])


class Rng:
    """SplitMix64: 64-bit state, identical stream on every platform. The
    scalar reference that the vectorized draws (``_mix_vector``) reproduce."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)


def _mix_vector(seed: int, start: int, count: int) -> np.ndarray:
    """Draws ``start+1 .. start+count`` of the SplitMix64 stream, vectorized."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = np.uint64(seed) + idx * np.uint64(GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _below_vector(u: np.ndarray, k: int) -> np.ndarray:
    """Vectorized multiply-shift: high 64 bits of u*k for k < 2**32."""
    assert 0 < k < (1 << 32)
    kk = np.uint64(k)
    hi = u >> np.uint64(32)
    lo = u & np.uint64(0xFFFFFFFF)
    return ((hi * kk + ((lo * kk) >> np.uint64(32))) >> np.uint64(32)).astype(np.int64)


def _float_vector(u: np.ndarray) -> np.ndarray:
    return (u >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


@dataclass(frozen=True)
class GenSpec:
    seed: int
    n_patients: int
    n_encounters: int
    n_labs: int
    n_hospitals: int = 750
    n_lab_codes: int = 20

    def __post_init__(self):
        if min(self.n_patients, self.n_encounters, self.n_labs) <= 0:
            raise ValueError("n_patients, n_encounters, n_labs must be positive")
        if self.n_labs >= 1 and self.n_encounters < 1:
            raise ValueError("labs require at least one encounter")
        if self.n_hospitals <= 0 or self.n_lab_codes <= 0:
            raise ValueError("n_hospitals and n_lab_codes must be positive")
        if self.n_lab_codes > 100:
            raise ValueError("lab codes are two digits: n_lab_codes <= 100")


_CHUNK = 1 << 18


def generate(spec: GenSpec, out_dir) -> tuple[Path, Path]:
    """Write encounter.csv and lab_procedure.csv; returns the two paths."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        enc_path = out_dir / "encounter.csv"
        lab_path = out_dir / "lab_procedure.csv"
        draw_pos = 0
        with open(enc_path, "w", encoding="utf-8", newline="") as f:
            f.write(ENCOUNTER_HEADER + "\n")
            for base in range(0, spec.n_encounters, _CHUNK):
                n = min(_CHUNK, spec.n_encounters - base)
                u = _mix_vector(spec.seed, draw_pos, n * DRAWS_PER_ENCOUNTER)
                draw_pos += n * DRAWS_PER_ENCOUNTER
                u = u.reshape(n, DRAWS_PER_ENCOUNTER)
                patient = _below_vector(u[:, 0], spec.n_patients)
                hospital = _below_vector(u[:, 1], spec.n_hospitals)
                day = _below_vector(u[:, 2], DATE_SPAN_DAYS) + DATE_LO_DAYS
                los = _below_vector(u[:, 3], LOS_SPAN)
                dates = day.astype("datetime64[D]")
                lines = [
                    f"{base + i},{patient[i]},{hospital[i]},{dates[i]},{los[i]}\n"
                    for i in range(n)
                ]
                f.write("".join(lines))
        with open(lab_path, "w", encoding="utf-8", newline="") as f:
            f.write(LAB_HEADER + "\n")
            codes = [f"LC{i:02d}" for i in range(spec.n_lab_codes)]
            for base in range(0, spec.n_labs, _CHUNK):
                n = min(_CHUNK, spec.n_labs - base)
                u = _mix_vector(spec.seed, draw_pos, n * DRAWS_PER_LAB)
                draw_pos += n * DRAWS_PER_LAB
                u = u.reshape(n, DRAWS_PER_LAB)
                enc = _below_vector(u[:, 0], spec.n_encounters)
                code = _below_vector(u[:, 1], spec.n_lab_codes)
                value = _float_vector(u[:, 2]) * RESULT_SCALE
                is_null = _below_vector(u[:, 3], NULL_ONE_IN) == 0
                lines = [
                    f"{base + i},{enc[i]},{codes[code[i]]},"
                    f"{'' if is_null[i] else repr(value[i].item())}\n"
                    for i in range(n)
                ]
                f.write("".join(lines))
    except OSError as e:
        raise IoFailure(f"cannot write generated data under {out_dir}: {e}") from e
    return enc_path, lab_path
