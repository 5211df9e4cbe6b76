import json
import random
import re
import shutil
import socket
import struct
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from stripehouse import service, stripefile
from stripehouse.engine import Engine
from stripehouse.ingest import ingest_csv
from stripehouse.service import (
    ALLOW,
    ALLOWED,
    DENIED,
    DENY,
    AccessRule,
    AuditLog,
    Client,
    ServiceConfig,
    StripehouseServer,
    authorize,
    decode_frame,
    encode_frame,
    recv_frame,
)
from stripehouse.errors import IoFailure
from stripehouse.schema import Catalog, ColumnType, StorageFormat, TableSchema
from stripehouse.values import days_to_iso

from rows import write_file


# --- framing ---

def test_golden_frame_bytes():
    frame = encode_frame({"type": "ping"})
    assert frame[:4] == bytes.fromhex("0000000F")
    assert frame[4:] == b'{"type":"ping"}'
    assert len(frame) == 19


def test_frame_round_trip():
    body = {"type": "query", "sql": "SELECT COUNT(*) FROM t", "executors": 4}
    assert decode_frame(encode_frame(body)) == body


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(
    st.text(max_size=8),
    st.one_of(st.integers(), st.text(max_size=64), st.none(), st.booleans(),
              st.lists(st.integers(), max_size=4)),
    max_size=6,
))
def test_property_frame_codec_identity(body):
    assert decode_frame(encode_frame(body)) == body


def test_frame_size_limit():
    with pytest.raises(ValueError):
        encode_frame({"pad": "x" * (16 * 1024 * 1024)})


# --- authorization ---

def test_default_deny():
    assert authorize("u", ["encounter"], []) == DENIED


def test_simple_allow():
    rules = [AccessRule("u", "encounter", effect=ALLOW)]
    assert authorize("u", ["encounter"], rules) == ALLOWED
    assert authorize("u", ["lab_procedure"], rules) == DENIED
    assert authorize("other", ["encounter"], rules) == DENIED


def test_deny_overrides_wildcard_allow():
    rules = [
        AccessRule("u", "*", effect=ALLOW),
        AccessRule("u", "lab_procedure", effect=DENY),
    ]
    # join touches both tables; the single DENY wins
    assert authorize("u", ["encounter", "lab_procedure"], rules) == DENIED
    assert authorize("u", ["encounter"], rules) == ALLOWED


def test_deny_overrides_is_order_independent():
    rules = [
        AccessRule("u", "*", effect=ALLOW),
        AccessRule("u", "lab_procedure", effect=DENY),
        AccessRule("u", "encounter", effect=ALLOW),
        AccessRule("v", "encounter", effect=ALLOW),
        AccessRule("u", "audit", effect=DENY),
    ]
    cases = [
        ("u", ["encounter"]),
        ("u", ["lab_procedure"]),
        ("u", ["encounter", "lab_procedure"]),
        ("u", ["audit"]),
        ("v", ["encounter"]),
        ("v", ["lab_procedure"]),
    ]
    expected = [authorize(u, t, rules) for u, t in cases]
    rng = random.Random(7)
    for _ in range(100):
        shuffled = rules[:]
        rng.shuffle(shuffled)
        got = [authorize(u, t, shuffled) for u, t in cases]
        assert got == expected


def test_unknown_effect_denies():
    # a lower-case "deny" is no ALLOW, so it cannot grant
    rules = [
        AccessRule("bob", "*", effect=ALLOW),
        AccessRule("bob", "encounter", effect="deny"),
    ]
    assert authorize("bob", ["encounter"], rules) == DENIED
    assert authorize("bob", ["lab_procedure"], rules) == ALLOWED


# --- service config ---

def test_service_config_reads_typed_fields(tmp_path):
    path = tmp_path / "service.json"
    path.write_text(json.dumps({"data_root": str(tmp_path / "db"), "port": 0,
                                "host": "localhost", "audit_file": str(tmp_path / "a.log")}))
    config = ServiceConfig.from_file(path)
    assert (config.port, config.host) == (0, "localhost")
    assert config.audit_file == tmp_path / "a.log"
    assert config.users_file == tmp_path / "db" / "users.json"
    path.write_text("{}")
    assert ServiceConfig.from_file(path).port == 7878


# --- live server ---

@pytest.fixture()
def server(tmp_path, both_catalogs):
    data_root = both_catalogs[StorageFormat.STRIPE].data_root
    users = [
        {"user": "alice", "token": "s3cret", "role": "ADMIN"},
        {"user": "bob", "token": "hunter2", "role": "ANALYST"},
    ]
    (tmp_path / "users.json").write_text(json.dumps(users))
    rules = [
        {"user": "alice", "table": "*", "action": "SELECT", "effect": "ALLOW"},
        {"user": "bob", "table": "lab_procedure", "action": "SELECT",
         "effect": "ALLOW"},
    ]
    (tmp_path / "rules.json").write_text(json.dumps(rules))
    config = ServiceConfig(
        data_root=data_root,
        port=0,
        users_file=tmp_path / "users.json",
        rules_file=tmp_path / "rules.json",
        audit_file=tmp_path / "audit.log",
    )
    srv = StripehouseServer(config)
    srv.start()
    yield srv
    srv.shutdown()


def connect(server):
    host, port = server.address
    return Client(host, port)


def test_ping_ok(server):
    c = connect(server)
    assert c.ping() == {"type": "ok"}
    c.close()


def test_hello_and_query(server):
    c = connect(server)
    resp = c.hello("alice", "s3cret")
    assert resp["type"] == "ok" and resp["role"] == "ADMIN"
    resp = c.query("SELECT COUNT(*) FROM lab_procedure", executors=2, cores=2)
    assert resp["type"] == "result"
    assert resp["rows"] == [[100_000]]
    assert resp["metrics"]["rows_read"] == 0  # metadata count
    c.close()


def test_date_results_are_iso_strings(server, seed_data):
    c = connect(server)
    c.hello("alice", "s3cret")
    resp = c.query("SELECT MIN(admit_date), MAX(admit_date) FROM encounter")
    c.close()
    days = [r[3] for r in seed_data["raw"]["encounter"]]
    assert resp["rows"] == [[days_to_iso(min(days)), days_to_iso(max(days))]]
    assert all(re.fullmatch(r"\d{4}-\d\d-\d\d", v) for v in resp["rows"][0])


def test_query_before_hello(server):
    c = connect(server)
    resp = c.query("SELECT COUNT(*) FROM lab_procedure")
    assert resp["type"] == "error" and resp["code"] == "AUTH"
    c.close()


def test_bad_token(server):
    c = connect(server)
    resp = c.hello("alice", "wrong")
    assert resp["type"] == "error" and resp["code"] == "AUTH"
    c.close()


def test_denied_table(server):
    c = connect(server)
    c.hello("bob", "hunter2")
    resp = c.query("SELECT COUNT(*) FROM encounter")
    assert resp["type"] == "error" and resp["code"] == "DENIED"
    # the join is denied too: encounter has no ALLOW for bob
    resp = c.query(
        "SELECT COUNT(*) FROM lab_procedure l JOIN encounter e "
        "ON l.encounter_id = e.encounter_id")
    assert resp["code"] == "DENIED"
    resp = c.query("SELECT COUNT(*) FROM lab_procedure")
    assert resp["type"] == "result"
    c.close()


def test_grant_requires_admin_and_hot_reloads(server):
    bob = connect(server)
    bob.hello("bob", "hunter2")
    resp = bob.grant("bob", "encounter")
    assert resp["type"] == "error" and resp["code"] == "DENIED"

    alice = connect(server)
    alice.hello("alice", "s3cret")
    assert alice.grant("bob", "encounter")["type"] == "ok"
    resp = bob.query("SELECT COUNT(*) FROM encounter")
    assert resp["type"] == "result"

    assert alice.deny("bob", "encounter")["type"] == "ok"
    resp = bob.query("SELECT COUNT(*) FROM encounter")
    assert resp["type"] == "error" and resp["code"] == "DENIED"
    # rules were persisted
    rules = json.loads(server.config.rules_file.read_text())
    assert {"user": "bob", "table": "encounter", "action": "SELECT",
            "effect": "DENY"} in rules
    bob.close()
    alice.close()


def test_grant_unsaved_is_typed_error_and_not_in_force(server):
    # a rules file in a missing directory cannot be written
    server.config.rules_file = server.config.rules_file.parent / "missing" / "rules.json"
    before = server.rules()
    c = connect(server)
    c.hello("alice", "s3cret")
    resp = c.grant("bob", "encounter")
    assert resp["type"] == "error" and resp["code"] == "SERVER", resp
    assert server.rules() == before
    last = json.loads(server.config.audit_file.read_text().splitlines()[-1])
    assert (last["action"], last["decision"], last["user"]) == ("GRANT", "ERROR", "alice")
    assert c.ping() == {"type": "ok"}
    c.close()


def test_query_error_audited_not_fatal(server):
    c = connect(server)
    c.hello("alice", "s3cret")
    resp = c.query("SELECT COUNT(*) FROM missing_table")
    assert resp["type"] == "error" and resp["code"] == "QUERY"
    resp = c.query("SELECT COUNT(*) FROM")
    assert resp["type"] == "error" and resp["code"] == "QUERY"
    # session still usable
    assert c.query("SELECT COUNT(*) FROM lab_procedure")["type"] == "result"
    c.close()


def test_non_decimal_digit_is_typed_query_error(server):
    audit = server.config.audit_file
    c = connect(server)
    c.hello("alice", "s3cret")
    before = len(audit.read_text().splitlines())
    resp = c.query("SELECT COUNT(*) FROM lab_procedure WHERE encounter_id = \u00b2")
    assert resp["type"] == "error" and resp["code"] == "QUERY", resp
    assert resp["message"].startswith("LexError")
    records = [json.loads(line) for line in audit.read_text().splitlines()[before:]]
    assert [(r["action"], r["decision"]) for r in records] == [("QUERY", "ERROR")]
    assert c.ping() == {"type": "ok"}
    c.close()


def test_audit_bijection_and_fields(server):
    audit_path = server.config.audit_file
    before = len(audit_path.read_text().splitlines()) if audit_path.exists() else 0
    c = connect(server)
    requests = 0
    c.ping(); requests += 1
    c.hello("alice", "s3cret"); requests += 1
    c.query("SELECT COUNT(*) FROM lab_procedure"); requests += 1
    c.query("SELECT COUNT(*) FROM nope"); requests += 1
    c.grant("bob", "audit_t"); requests += 1
    c.close()
    lines = audit_path.read_text().splitlines()
    assert len(lines) - before == requests
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {"ts", "user", "action", "detail", "decision",
                            "duration_s"}
        assert rec["ts"].endswith("Z")
    denied = json.loads(lines[-2])
    assert denied["action"] == "QUERY" and denied["decision"] == "ERROR"


def test_denied_query_audited_with_text(server):
    c = connect(server)
    c.hello("bob", "hunter2")
    sql = "SELECT COUNT(*) FROM encounter"
    c.query(sql)
    c.close()
    lines = server.config.audit_file.read_text().splitlines()
    rec = json.loads(lines[-1])
    assert rec["action"] == "QUERY"
    assert rec["decision"] == "DENIED"
    assert rec["detail"] == sql


def test_concurrent_sessions_identical_results(server):
    sql = ("SELECT BUCKET(l.result_value,0,50,100,200) AS cat, "
           "COUNT(DISTINCT e.patient_id) FROM lab_procedure l "
           "JOIN encounter e ON l.encounter_id = e.encounter_id "
           "WHERE l.lab_code = 'LC03' GROUP BY cat")
    results = [None, None]

    def worker(i):
        c = connect(server)
        c.hello("alice", "s3cret")
        results[i] = c.query(sql, executors=2, cores=2)
        c.close()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results[0]["type"] == "result"
    assert results[0]["rows"] == results[1]["rows"] == [[0, 683], [1, 705], [2, 889]]


def test_unknown_request_type_closes_connection(server):
    c = connect(server)
    resp = c.request({"type": "teleport"})
    assert resp["type"] == "error" and resp["code"] == "BAD_REQUEST"
    c.close()


def test_bad_exec_options_rejected(server):
    c = connect(server)
    c.hello("alice", "s3cret")
    resp = c.query("SELECT COUNT(*) FROM lab_procedure", executors=0)
    assert resp["type"] == "error" and resp["code"] == "BAD_REQUEST"
    # session still alive
    assert c.query("SELECT COUNT(*) FROM lab_procedure")["type"] == "result"
    c.close()


@pytest.mark.parametrize("opts", [
    {"executors": 100_000, "cores": 100_000},
    {"executors": 22, "cores": 3},  # 66 slots
    {"mem_rows": 10**12},
    {"executors": True},
    {"executors": 2.5},
    {"executors": "3"},
    {"cores": None},
    {"mem_rows": 1e6},
    {"prune": "false"},
    {"prune": 0},
])
def test_unbounded_or_mistyped_exec_options_rejected(server, monkeypatch, opts):
    def fail(self, plan, config):
        raise AssertionError("a refused request reached the engine")

    monkeypatch.setattr(Engine, "execute", fail)
    c = connect(server)
    c.hello("alice", "s3cret")
    resp = c.query("SELECT COUNT(*) FROM lab_procedure", **opts)
    assert resp["type"] == "error" and resp["code"] == "BAD_REQUEST", resp
    c.close()
    last = json.loads(server.config.audit_file.read_text().splitlines()[-1])
    assert (last["action"], last["decision"]) == ("QUERY", "ERROR")


def test_bounded_exec_options_answer(server):
    c = connect(server)
    c.hello("alice", "s3cret")
    sql = "SELECT COUNT(*) FROM lab_procedure WHERE lab_code = 'LC03'"
    answers = [c.query(sql, executors=e, cores=k, mem_rows=m, prune=p)
               for e, k, m, p in ((8, 3, 1_000_000, True), (1, 1, 1, False),
                                  (16, 4, 1_000_000, True))]
    assert [a["type"] for a in answers] == ["result"] * 3
    assert answers[0]["rows"] == answers[1]["rows"] == answers[2]["rows"]
    c.close()


def test_internal_error_audited_session_survives(server, monkeypatch):
    def fail(self, plan, config):
        raise RuntimeError("boom")

    monkeypatch.setattr(Engine, "execute", fail)
    c = connect(server)
    c.hello("alice", "s3cret")
    resp = c.query("SELECT COUNT(*) FROM lab_procedure")
    assert resp == {"type": "error", "code": "QUERY", "message": "RuntimeError: boom"}
    assert c.ping() == {"type": "ok"}
    c.close()
    records = [json.loads(line) for line in server.config.audit_file.read_text().splitlines()]
    assert [(r["action"], r["decision"]) for r in records[-2:]] == [
        ("QUERY", "ERROR"), ("PING", ALLOWED)]


def test_unanswered_fault_is_audited_server_error(server, monkeypatch, capsys):
    # compile_text raising other than StripehouseError escapes _query's own answers
    def fail(text, catalog):
        raise RuntimeError("boom")

    monkeypatch.setattr(service, "compile_text", fail)
    audit = server.config.audit_file
    c = connect(server)
    c.hello("alice", "s3cret")
    before = len(audit.read_text().splitlines())
    resp = c.query("SELECT COUNT(*) FROM lab_procedure")
    assert resp == {"type": "error", "code": "SERVER", "message": "RuntimeError: boom"}
    records = [json.loads(line) for line in audit.read_text().splitlines()[before:]]
    assert [(r["action"], r["decision"]) for r in records] == [("QUERY", "ERROR")]
    assert c.ping() == {"type": "ok"}
    c.close()
    assert "RuntimeError: boom" in capsys.readouterr().err


def test_ingest_while_serving_is_visible(tmp_path):
    root = tmp_path / "db"
    cat = Catalog(root)
    cat.create_table(TableSchema.create("t", [("a", ColumnType.INT64, True)]),
                     StorageFormat.STRIPE)
    csv_file = tmp_path / "t.csv"
    csv_file.write_text("a\n" + "".join(f"{i}\n" for i in range(1000)))
    ingest_csv(cat, "t", csv_file, partitions=2)
    (tmp_path / "users.json").write_text(json.dumps(
        [{"user": "alice", "token": "s3cret", "role": "ADMIN"}]))
    (tmp_path / "rules.json").write_text(json.dumps(
        [{"user": "alice", "table": "*", "effect": "ALLOW"}]))
    srv = StripehouseServer(ServiceConfig(
        data_root=root, port=0, users_file=tmp_path / "users.json",
        rules_file=tmp_path / "rules.json", audit_file=tmp_path / "audit.log"))
    srv.start()
    try:
        c = connect(srv)
        c.hello("alice", "s3cret")
        assert c.query("SELECT COUNT(*) FROM t")["rows"] == [[1000]]
        # a second ingest, as by another process with its own catalog object
        ingest_csv(Catalog(root), "t", csv_file, partitions=2)
        assert c.query("SELECT COUNT(*) FROM t")["rows"] == [[2000]]
        assert c.query("SELECT SUM(a) FROM t")["rows"] == [[2 * sum(range(1000))]]
        c.close()
    finally:
        srv.shutdown()


def test_partition_rewritten_in_place_is_visible(tmp_path):
    root = tmp_path / "db"
    cat = Catalog(root)
    schema = TableSchema.create("t", [("a", ColumnType.INT64, True)])
    cat.create_table(schema, StorageFormat.STRIPE)
    csv_file = tmp_path / "t.csv"
    csv_file.write_text("a\n" + "".join(f"{i}\n" for i in range(1000)))
    entry = ingest_csv(cat, "t", csv_file, partitions=2, stripe_size=100)
    part = entry.partitions[0].path
    # another valid stripe file, to be copied over partition 0 at its path
    write_file([(10_000 + i,) for i in range(300)], schema, tmp_path / "new.stp",
               stripe_size=100)
    (tmp_path / "users.json").write_text(json.dumps(
        [{"user": "alice", "token": "s3cret", "role": "ADMIN"}]))
    (tmp_path / "rules.json").write_text(json.dumps(
        [{"user": "alice", "table": "*", "effect": "ALLOW"}]))
    srv = StripehouseServer(ServiceConfig(
        data_root=root, port=0, users_file=tmp_path / "users.json",
        rules_file=tmp_path / "rules.json", audit_file=tmp_path / "audit.log"))
    srv.start()
    pruned = "SELECT COUNT(*), SUM(a) FROM t WHERE a >= 10000"

    def settle():  # past the racy window, so the footers are cached
        time.sleep(stripefile.RACY_NS / 1e9 + 0.02)

    try:
        c = connect(srv)
        c.hello("alice", "s3cret")
        settle()
        for _ in range(2):
            assert c.query("SELECT COUNT(*) FROM t")["rows"] == [[1000]]
            assert c.query(pruned)["rows"] == [[0, None]]
        shutil.copyfile(tmp_path / "new.stp", part)  # same path, same inode
        settle()
        assert c.query("SELECT COUNT(*) FROM t")["rows"] == [[800]]
        assert c.query(pruned)["rows"] == [[300, sum(range(10_000, 10_300))]]
        c.close()
    finally:
        srv.shutdown()


def test_file_of_other_schema_is_audited_query_error(tmp_path, mismatched_catalog):
    (tmp_path / "users.json").write_text(json.dumps(
        [{"user": "alice", "token": "s3cret", "role": "ADMIN"}]))
    (tmp_path / "rules.json").write_text(json.dumps(
        [{"user": "alice", "table": "*", "effect": "ALLOW"}]))
    srv = StripehouseServer(ServiceConfig(
        data_root=mismatched_catalog.data_root, port=0, users_file=tmp_path / "users.json",
        rules_file=tmp_path / "rules.json", audit_file=tmp_path / "audit.log"))
    bad = ["SELECT MAX(a) FROM t", "SELECT COUNT(*) FROM t WHERE b = 'x'", "SELECT COUNT(*) FROM t"]
    srv.start()
    try:
        c = connect(srv)
        c.hello("alice", "s3cret")
        for sql in bad:
            resp = c.query(sql)
            assert resp["type"] == "error" and resp["code"] == "QUERY"
            assert resp["message"].startswith("TypeMismatch: ")
        assert c.query("SELECT MAX(a) FROM u")["rows"] == [[3]]
        c.close()
    finally:
        srv.shutdown()
    records = [json.loads(line) for line in (tmp_path / "audit.log").read_text().splitlines()]
    assert [(r["action"], r["decision"], r["detail"]) for r in records[-4:]] == [
        *(("QUERY", "ERROR", sql) for sql in bad), ("QUERY", ALLOWED, "SELECT MAX(a) FROM u")]


def _case(name, hello, body, code="BAD_REQUEST"):
    """A frame of ``body`` (bytes, or a request to encode), sent after an
    optional hello, and the error code it must get."""
    blob = body if isinstance(body, bytes) else json.dumps(body).encode()
    return pytest.param(hello, struct.pack(">I", len(blob)) + blob, code, id=name)


ALICE = {"type": "hello", "user": "alice", "token": "s3cret"}


@pytest.mark.parametrize("hello, frame, code", [
    # unreadable frames, each answered before the session ends
    _case("list-body", False, b"[1, 2]"),
    _case("number-body", True, b"7"),
    _case("bad-json", False, b"{"),
    _case("bad-utf8", True, b'{"type": "ping", "x": "\xff"}'),
    _case("deep-nesting", False, b"[" * 100_000),
    pytest.param(True, struct.pack(">I", 16 * 1024 * 1024 + 1), "BAD_REQUEST", id="oversized"),
    # fields of the wrong JSON type, and rule fields missing
    _case("type-list", True, {"type": ["query"], "sql": "SELECT COUNT(*) FROM t"}),
    _case("sql-number", True, {"type": "query", "sql": 123}),
    _case("sql-null", True, {"type": "query", "sql": None}),
    _case("hello-user-list", False, {"type": "hello", "user": ["alice"], "token": "s3cret"}),
    _case("hello-token-number", False, {"type": "hello", "user": "alice", "token": 1234}),
    _case("hello-token-non-ascii", False, {**ALICE, "token": "s3cr\u00e9t"}, "AUTH"),
    _case("grant-rule-list", True, {"type": "grant", "rule": ["x"]}),
    _case("grant-user-list", True, {"type": "grant", "rule": {"user": ["x"], "table": "t"}}),
    _case("deny-table-number", True, {"type": "deny", "rule": {"user": "bob", "table": 5}}),
    _case("grant-missing-table", True, {"type": "grant", "rule": {"user": "bob"}}),
])
def test_malformed_frame_gets_one_record_and_typed_error(server, hello, frame, code):
    audit, rules = server.config.audit_file, server.config.rules_file
    before, rules_before = audit.read_text().splitlines(), rules.read_text()
    with socket.create_connection(server.address, timeout=30) as sock:
        if hello:
            sock.sendall(encode_frame(ALICE))
            assert recv_frame(sock)["type"] == "ok"
        sock.sendall(frame)
        resp = recv_frame(sock)
    assert resp["type"] == "error" and resp["code"] == code, resp
    assert set(resp) == {"type", "code", "message"}
    records = [json.loads(line) for line in audit.read_text().splitlines()[len(before):]]
    assert len(records) == 1 + hello
    last = records[-1]
    assert set(last) == set(AuditLog.FIELDS)
    assert last["decision"] == ("DENIED" if code == "AUTH" else "ERROR")
    assert last["user"] == ("alice" if hello or code == "AUTH" else "-")
    assert rules.read_text() == rules_before
    # the server still answers a fresh session
    c = connect(server)
    assert c.hello("alice", "s3cret")["type"] == "ok"
    assert c.query("SELECT COUNT(*) FROM lab_procedure")["rows"] == [[100_000]]
    c.close()


def test_audit_failure_fails_closed(server, monkeypatch):
    c = connect(server)
    assert c.hello("alice", "s3cret")["type"] == "ok"

    def fail(self, **record):
        raise IoFailure("audit append failed: disk full")

    monkeypatch.setattr(AuditLog, "append", fail)
    with pytest.raises(IoFailure, match="connection closed by server"):
        c.query("SELECT COUNT(*) FROM lab_procedure")
    c.close()
