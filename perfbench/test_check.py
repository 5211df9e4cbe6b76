"""Self-test of the benchmark's checker and reference.

    python3 -m pytest -q perfbench/test_check.py
"""

import math

from checks import mismatch
from reference import expected
from workload import COMPLEX_QUERY, DISTINCT, JOIN_AGG, SCAN_AGG, short_sql

GOOD = [[0, 3, 50.25], [1, 2, None]]


def test_equal_result_passes():
    assert mismatch(GOOD, [tuple(r) for r in GOOD]) is None


def test_perturbed_results_are_flagged():
    one_ulp = [[0, 3, math.nextafter(50.25, math.inf)], [1, 2, None]]
    float_count = [[0, 3.0, 50.25], [1, 2, None]]
    null_value = [[0, 3, 50.25], [1, 2, 0.0]]
    for bad in (one_ulp, float_count, null_value, GOOD[:1], GOOD + [[2, 1, 1.0]], None):
        assert mismatch(GOOD, bad) is not None, bad


def test_reference_on_hand_made_data():
    enc = {1: (10, 5), 2: (11, 25), 3: (10, 12)}   # encounter -> (patient, los_days)
    labs = [                                        # (encounter, code, value)
        (1, "LC03", 60.0),
        (3, "LC03", 70.0),
        (2, "LC03", None),
        (2, "LC01", 150.0),
        (1, "LC01", 120.0),
    ]
    want = expected(enc, labs)
    assert want[COMPLEX_QUERY] == [[1, 1]]               # patient 10 twice in [50, 100)
    assert want[SCAN_AGG] == [[400.0, 100.0]]
    assert want[DISTINCT] == [[3]]
    assert want[JOIN_AGG] == [[0, 2, 90.0], [1, 1, 70.0], [2, 2, 150.0]]
    assert want[short_sql("count", "")] == [[5]]
    assert want[short_sql("pruned_count", "LC03")] == [[3]]
    assert want[short_sql("pruned_agg", "LC01")] == [[2, 270.0, 120.0, 150.0]]
    assert want[short_sql("pruned_agg", "LC03")] == [[0, None, None, None]]
