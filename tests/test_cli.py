import json
import os
import re
import select
import subprocess
import sys
from pathlib import Path

import pytest

import stripehouse
from stripehouse.cli import main
from stripehouse.service import Client


def test_cli_end_to_end(tmp_path, capsys):
    gen = tmp_path / "gen"
    root = tmp_path / "data" / "stripe"
    assert main(["gen", "--seed", "5", "--patients", "50", "--encounters", "400",
                 "--labs", "2000", "--out", str(gen)]) == 0
    assert main(["ingest", "--table", "lab_procedure", "--format", "stripe",
                 "--partitions", "4", "--csv", str(gen / "lab_procedure.csv"),
                 "--root", str(root), "--stripe-size", "250",
                 "--sort-by", "lab_code"]) == 0
    assert main(["ingest", "--table", "encounter", "--format", "stripe",
                 "--partitions", "4", "--csv", str(gen / "encounter.csv"),
                 "--root", str(root), "--stripe-size", "250"]) == 0
    capsys.readouterr()

    assert main(["query", "-e", "SELECT COUNT(*) FROM lab_procedure",
                 "--root", str(root), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rows"] == [[2000]]
    assert out["metrics"]["rows_read"] == 0
    assert out["metrics"]["spill_events"] == 0

    assert main(["query", "-e",
                 "SELECT BUCKET(l.result_value,0,50,100,200) AS cat, "
                 "COUNT(DISTINCT e.patient_id) FROM lab_procedure l "
                 "JOIN encounter e ON l.encounter_id = e.encounter_id "
                 "WHERE l.lab_code = 'LC03' GROUP BY cat",
                 "--root", str(root), "--executors", "2", "--cores", "2"]) == 0
    text = capsys.readouterr().out
    assert "cat" in text and "count(distinct patient_id)" in text

    assert main(["explain", "-e", "SELECT COUNT(*) FROM lab_procedure "
                 "WHERE lab_code = 'LC03'", "--root", str(root)]) == 0
    text = capsys.readouterr().out
    assert "stages (3):" in text
    assert "stripes pruned" in text
    assert " 32 " in text  # cost table sweeps to E=32

    part = root / "tables" / "lab_procedure" / "part-00000.stp"
    assert main(["inspect", str(part)]) == 0
    text = capsys.readouterr().out
    assert "lab_code" in text and "min=" in text


def test_cli_create_custom_table(tmp_path, capsys):
    root = tmp_path / "root"
    assert main(["create", "--table", "vitals",
                 "--columns", "id:int64,name:string:null,bp:float64:null",
                 "--format", "rowtext", "--root", str(root)]) == 0
    csv_file = tmp_path / "v.csv"
    csv_file.write_text("id,name,bp\n1,a,120.5\n2,,\n")
    assert main(["ingest", "--table", "vitals", "--format", "rowtext",
                 "--partitions", "2", "--csv", str(csv_file),
                 "--root", str(root)]) == 0
    capsys.readouterr()
    assert main(["query", "-e", "SELECT COUNT(*), AVG(bp) FROM vitals",
                 "--root", str(root), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rows"] == [[2, 120.5]]


def test_cli_error_exit_code(tmp_path, capsys):
    assert main(["query", "-e", "SELECT COUNT(*) FROM missing",
                 "--root", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "UnknownTable" in err


def test_cli_format_selects_subroot(tmp_path, capsys):
    gen = tmp_path / "gen"
    main(["gen", "--seed", "5", "--patients", "10", "--encounters", "50",
          "--labs", "200", "--out", str(gen)])
    for fmt in ("stripe", "rowtext"):
        main(["ingest", "--table", "lab_procedure", "--format", fmt,
              "--partitions", "2", "--csv", str(gen / "lab_procedure.csv"),
              "--root", str(tmp_path / "data" / fmt)])
    capsys.readouterr()
    for fmt in ("stripe", "rowtext"):
        assert main(["query", "-e", "SELECT COUNT(*) FROM lab_procedure",
                     "--root", str(tmp_path / "data"), "--format", fmt,
                     "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rows"] == [[200]]


@pytest.mark.parametrize("fmt", ["stripe", "rowtext"])
def test_cli_formats_extreme_dates(tmp_path, capsys, fmt):
    root = tmp_path / "root"
    assert main(["create", "--table", "t", "--columns", "d:date:null",
                 "--format", fmt, "--root", str(root)]) == 0
    csv_file = tmp_path / "t.csv"
    csv_file.write_text('d\n9999-12-31\n""\n0001-01-01\n2001-01-01\n')
    assert main(["ingest", "--table", "t", "--format", fmt, "--csv", str(csv_file),
                 "--root", str(root)]) == 0
    capsys.readouterr()
    assert main(["query", "-e", "SELECT MIN(d), MAX(d) FROM t",
                 "--root", str(root), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == [["0001-01-01", "9999-12-31"]]


def test_cli_serve_port_zero(tmp_path):
    # without --config, --port 0 binds a free port rather than 7878
    (tmp_path / "users.json").write_text("[]")
    env = dict(os.environ, PYTHONPATH=str(Path(stripehouse.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)  # the address line must be flushed by the program
    proc = subprocess.Popen(
        [sys.executable, "-m", "stripehouse.cli", "serve", "--port", "0",
         "--root", str(tmp_path)],
        stdout=subprocess.PIPE, text=True, env=env)
    try:
        assert select.select([proc.stdout], [], [], 30)[0], "no address line in 30 s"
        line = proc.stdout.readline()
        m = re.search(r"serving on ([\d.]+):(\d+) ", line)
        assert m, line
        port = int(m.group(2))
        assert port not in (0, 7878)
        client = Client(m.group(1), port)
        try:
            assert client.ping() == {"type": "ok"}
        finally:
            client.close()
    finally:
        proc.terminate()
        proc.wait(timeout=30)
        proc.stdout.close()


@pytest.mark.parametrize("users", [None, "{", '[{"user": "a"}]'])
def test_cli_serve_without_valid_users_file(tmp_path, capsys, users):
    # fails while loading users.json, before any socket or server thread exists
    if users is not None:
        (tmp_path / "users.json").write_text(users)
    assert main(["serve", "--port", "0", "--root", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidConfig: cannot load users from ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("name, text", [
    ("rules.json", "{"), ("rules.json", '[{"user": "a"}]'),
    ("rules.json", '[{"user": "bob", "table": "encounter", "effect": "deny"}]'),
    ("service.json", None), ("service.json", "[]"),
])
def test_cli_serve_without_valid_rules_or_config(tmp_path, capsys, name, text):
    # fails while loading --config or rules.json, before any socket or server thread exists
    (tmp_path / "users.json").write_text("[]")
    if text is not None:
        (tmp_path / name).write_text(text)
    args = ["serve", "--port", "0", "--root", str(tmp_path)]
    if name == "service.json":
        args += ["--config", str(tmp_path / name)]
    assert main(args) == 1
    err = capsys.readouterr().err
    what = "rules" if name == "rules.json" else "service config"
    assert err.startswith(f"error: InvalidConfig: cannot load {what} from ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("sql", ["SELECT COUNT(*) FROM t", "SELECT SUM(a) FROM t",
                                 "SELECT COUNT(*) FROM t WHERE b = 'c'"])
def test_cli_invalid_utf8_is_malformed_record(tmp_path, capsys, sql):
    root = tmp_path / "root"
    assert main(["create", "--table", "t", "--columns", "a:int64,b:string",
                 "--format", "rowtext", "--root", str(root)]) == 0
    csv_file = tmp_path / "t.csv"
    csv_file.write_text("a,b\n1,ok\n")
    assert main(["ingest", "--table", "t", "--format", "rowtext", "--csv", str(csv_file),
                 "--root", str(root)]) == 0
    part = next(root.rglob("*.rtx"))
    part.write_bytes(part.read_bytes() + b"2|c\xff\n")
    capsys.readouterr()
    assert main(["query", "-e", sql, "--root", str(root)]) == 1
    assert capsys.readouterr().err.startswith("error: MalformedRecord: invalid UTF-8")
