"""What each workload runs: data make-up, query classes and the short-request mix.

A run of any workload is a number of whole rounds. One round is the same
list of steps every time. A step is

* one analytic query, from a single client (over the wire, a session of
  its own): each analytic class runs ``reps`` times a round, its
  executions spread over the round;
* then one short-request block: the workload's ``clients`` (at most
  ``CLIENTS``) in a closed loop, each sending ``block`` short queries (and,
  over the wire, one ``hello``).

A shared virtual machine can change speed from one second to the next,
so each metric's samples are spread over the whole run rather than taken
in one burst, and a speed probe (``speed.probe``) runs before each
analytic query and each short block. Before the measured rounds comes a
warm-up: the round's analytic steps without short blocks, then one short
block of ``WARMUP_BLOCK`` queries per client.

Only the access path and the data differ between workloads.
"""

from __future__ import annotations

from dataclasses import dataclass

# the paper's join / categorize / distribution query; kept equal to
# stripehouse.bench.COMPLEX_QUERY by a check in run.py
COMPLEX_QUERY = (
    "SELECT BUCKET(l.result_value, 0, 50, 100, 200) AS cat, "
    "COUNT(DISTINCT e.patient_id) "
    "FROM lab_procedure l JOIN encounter e ON l.encounter_id = e.encounter_id "
    "WHERE l.lab_code = 'LC03' GROUP BY cat"
)
SCAN_AGG = "SELECT SUM(result_value), AVG(result_value) FROM lab_procedure"
JOIN_AGG = (
    "SELECT BUCKET(e.los_days,0,10,20,31) AS b, COUNT(*), AVG(l.result_value) "
    "FROM lab_procedure l JOIN encounter e ON l.encounter_id = e.encounter_id "
    "GROUP BY b"
)
DISTINCT = "SELECT COUNT(DISTINCT encounter_id) FROM lab_procedure"

# the literals of the two queries above, for the reference computation
COMPLEX_CODE = "LC03"
COMPLEX_EDGES = (0.0, 50.0, 100.0, 200.0)
JOIN_EDGES = (0, 10, 20, 31)

DEFAULT_EXEC = (8, 3)   # executors x cores: what the CLI and the service use
SERIAL_EXEC = (1, 1)

# (metric stem, sql, (executors, cores))
ANALYTIC = (
    ("complex", COMPLEX_QUERY, DEFAULT_EXEC),
    ("complex_serial", COMPLEX_QUERY, SERIAL_EXEC),
    ("scan_agg", SCAN_AGG, DEFAULT_EXEC),
    ("join_agg", JOIN_AGG, DEFAULT_EXEC),
    ("distinct", DISTINCT, DEFAULT_EXEC),
)

SHORT_THRESHOLD = 100.0
N_LAB_CODES = 20
CLIENTS = 2   # nproc on the reference machine; never more connections than cores


def short_sql(shape: str, code: str) -> str:
    if shape == "count":
        return "SELECT COUNT(*) FROM lab_procedure"
    if shape == "pruned_count":
        return f"SELECT COUNT(*) FROM lab_procedure WHERE lab_code = '{code}'"
    return (
        "SELECT COUNT(*), SUM(result_value), MIN(result_value), MAX(result_value) "
        f"FROM lab_procedure WHERE lab_code = '{code}' "
        f"AND result_value >= {SHORT_THRESHOLD!r}"
    )


SHORT_SHAPES = ("count", "pruned_count", "pruned_agg")


def analytic_steps(reps: tuple[int, ...]) -> list[tuple[str, str, tuple[int, int]]]:
    """The round's analytic queries: the classes in turn, each ``reps`` times."""
    return [cls for k in range(max(reps)) for cls, n in zip(ANALYTIC, reps) if n > k]


def short_requests(client: int, start: int, block: int) -> list[tuple[str, str]]:
    """(shape, sql) for requests start..start+block-1 of a client's round."""
    out = []
    for i in range(start, start + block):
        shape = SHORT_SHAPES[i % 3]
        out.append((shape, short_sql(shape, f"LC{(i // 3 + 10 * client) % N_LAB_CODES:02d}")))
    return out


def classify(sql: str, executors: int) -> str:
    """Query class of a request, as the traced server labels its spans."""
    if sql == COMPLEX_QUERY:
        return "complex_serial" if executors == SERIAL_EXEC[0] else "complex"
    for stem, text, _ in ANALYTIC:
        if sql == text:
            return stem
    if "WHERE" not in sql:
        return "count"
    return "pruned_agg" if "SUM(" in sql else "pruned_count"


@dataclass(frozen=True)
class Workload:
    name: str
    fmt: str            # stripe | rowtext
    n_labs: int         # lab rows; bench.spec_for_size gives n/10 encounters, n/100 patients
    wire: bool          # through a `stripehouse serve` child, else in-process
    clients: int        # short-request clients, at most CLIENTS
    block: int          # short requests per client after each analytic step
    reps: tuple[int, ...]  # executions per round of each ANALYTIC class


PARTITIONS = 8
STRIPE_SIZE = 10_000
SETUPS = 3          # set-ups per run; setup_s is their median
MIN_ROUNDS = 2      # measured rounds even when --seconds is short
WARMUP_BLOCK = len(SHORT_SHAPES)  # one short query of each shape per client

WORKLOADS = {
    w.name: w
    for w in (
        # a short request here is a whole text scan, about as long as an
        # analytic query, so a block is one query from one client; at 10^5
        # rows a run holds about ten rounds, so ten samples of each class
        Workload("rowtext-analytics", "rowtext", 100_000, False, 1, 1, (1, 1, 1, 1, 1)),
        # the short requests are what this workload is for: 160 a round
        # (8 steps x 2 clients x 10), 2500 or more a run; at 3x10^5 rows a
        # round takes about 2 s, so each analytic class has 16 or more samples
        Workload("service-mixed", "stripe", 300_000, True, 2, 10, (2, 2, 2, 1, 1)),
    )
}
