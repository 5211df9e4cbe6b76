"""Run one benchmark workload and print its metrics as the last line of stdout.

    python3 perfbench/run.py --workload service-mixed --seed 1 --seconds 25 --trace 0

Run it from the root of a stripehouse source tree: the program is imported
from ./src and driven only through its public surface (datagen.generate,
ingest.ingest_csv, sql.compile_text, planner.plan, engine.Engine.execute,
and a `stripehouse serve` child over the wire protocol with service.Client).
Data goes to ./.bench_work and is removed at the end; traced runs leave
their span dumps and report in ./.bench_out.

The last line is {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with --trace 1
its per_layer list. A wrong answer counts as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from pathlib import Path

import checks
import spans
import speed
from workload import (
    ANALYTIC,
    CLIENTS,
    COMPLEX_QUERY,
    DEFAULT_EXEC,
    MIN_ROUNDS,
    SETUPS,
    WARMUP_BLOCK,
    WORKLOADS,
    analytic_steps,
    short_requests,
)

HERE = Path(__file__).resolve().parent
SERVER_START_TIMEOUT_S = 60
TOKEN = "bench-token"


def wire_errors() -> tuple[type[Exception], ...]:
    """What a request over the wire raises when it fails: a refused or reset
    connection, one closed by the server (IoFailure) or a garbled frame."""
    from stripehouse.errors import StripehouseError

    return OSError, ValueError, StripehouseError


def sync_files(d: Path) -> None:
    """fsync every file under d."""
    for path in d.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def peak_rss_kb(pid: int) -> int:
    """The process's peak resident set (VmHWM), in KiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for process {pid}")


# analyst0 runs the analytic pass; analyst1..CLIENTS the short-request clients
USERS = [f"analyst{i}" for i in range(CLIENTS + 1)]


class Run:
    def __init__(self, workload, seed: int, seconds: float, trace: bool, root: Path):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.root = root
        self.src = root / "src"
        self.work = root / ".bench_work" / f"{workload.name}-{seed}-{os.getpid()}"
        self.out_dir = root / ".bench_out"
        self.reference = self.work / "reference.json"
        self.tracer = spans.Tracer() if trace else None
        self.attempted = 0
        self.failures: list[str] = []
        self.server = None      # (Popen, host, port, spans path)
        self.catalog = None
        self.expected: dict = {}
        self.requests_sent = 0  # query requests over the wire
        self.hellos_sent = 0
        # measured timings, each with the round it belongs to
        self.samples: dict[str, list[tuple[int, float]]] = {stem: [] for stem, _, _ in ANALYTIC}
        self.latencies: list[tuple[int, float]] = []
        self.short_time: dict[int, float] = {}  # summed wall time of a round's short blocks
        # speed.probe() seconds, each with its round (0: the warm-up)
        self.probes: list[tuple[int, float]] = []
        self.wire_rtt = 0.0

    # --- bookkeeping ---

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"FAILED: {what}", file=sys.stderr)

    def check(self, what: str, sql_text: str, rows) -> None:
        why = checks.mismatch(self.expected[sql_text], rows)
        if why is not None:
            self.fail(f"{what}: {why}")

    # --- set-up ---

    def setup_once(self, k: int) -> dict:
        """Generate and ingest in a child, then (wire) start the server."""
        d = self.work / f"setup{k}"
        cmd = [sys.executable, str(HERE / "prepare.py"), "--src", str(self.src),
               "--workload", self.w.name, "--seed", str(self.seed), "--dir", str(d),
               "--trace", "1" if self.tracer else "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, timeout=170)
        prep = json.loads(out.stdout.strip().splitlines()[-1])
        prep["dir"] = d
        if self.w.wire:
            t0 = time.perf_counter()
            self.start_server(d)
            prep["setup_s"] += time.perf_counter() - t0
        return prep

    def start_server(self, d: Path) -> None:
        (d / "users.json").write_text(json.dumps(
            [{"user": u, "token": TOKEN, "role": "ANALYST"} for u in USERS]), encoding="utf-8")
        (d / "rules.json").write_text(json.dumps(
            [{"user": u, "table": "*", "effect": "ALLOW"} for u in USERS]), encoding="utf-8")
        config = d / "service.json"
        config.write_text(json.dumps({
            "data_root": str(d / "db"), "port": 0,
            "users_file": str(d / "users.json"), "rules_file": str(d / "rules.json"),
            "audit_file": str(d / "audit.log"),
        }), encoding="utf-8")
        cmd = [sys.executable, "-u", str(HERE / "serve.py"), "--src", str(self.src),
               "--config", str(config)]
        dump = None
        if self.tracer is not None:
            dump = d / "server-spans.json"
            cmd += ["--trace-out", str(dump)]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=self.root)
        self.server = (proc, None, None, dump)
        ready, _, _ = select.select([proc.stdout], [], [], SERVER_START_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        m = re.search(r"serving on ([0-9.]+):([0-9]+)", line)
        if m is None:
            raise RuntimeError(f"server did not report its address: {line!r}")
        self.server = (proc, m.group(1), int(m.group(2)), dump)

    def stop_server(self) -> None:
        proc = self.server[0]
        self.server = None
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
        try:
            proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()

    def load_reference(self, gen_dir: Path) -> dict:
        subprocess.run([sys.executable, str(HERE / "reference.py"), str(gen_dir),
                        str(self.reference)], check=True, timeout=170)
        return json.loads(self.reference.read_text(encoding="utf-8"))

    # --- operations ---

    def run_local(self, engine, sql_text: str, execs: tuple[int, int], op):
        """compile + plan + execute in this process; (rows or None, seconds)."""
        from stripehouse import planner, sql
        from stripehouse.planner import ExecConfig

        cfg = ExecConfig(executors=execs[0], cores_per_executor=execs[1])
        with spans.op_scope(op):
            t0 = time.perf_counter()
            try:
                query = sql.compile_text(sql_text, self.catalog)
                result, _ = engine.execute(planner.plan(query, self.catalog, cfg), cfg)
            except Exception:  # a failed operation; the run goes on
                traceback.print_exc()
                return None, time.perf_counter() - t0
            return result.rows, time.perf_counter() - t0

    def connect(self, user: str):
        """A session: connect and hello; (client or None, whether hello was answered ok)."""
        from stripehouse.service import Client

        _, host, port, _ = self.server
        client = None
        try:
            client = Client(host, port)
            return client, client.hello(user, TOKEN).get("type") == "ok"
        except wire_errors():
            traceback.print_exc()
            if client is not None:
                client.close()
            return None, False

    def hello_checked(self, user: str, ok: bool) -> None:
        self.hellos_sent += 1
        self.attempted += 1
        if not ok:
            self.fail(f"hello as {user} was not answered ok")

    @staticmethod
    def run_wire(client, sql_text: str, execs: tuple[int, int]):
        t0 = time.perf_counter()
        try:
            reply = client.query(sql_text, executors=execs[0], cores=execs[1])
        except wire_errors():  # a failed operation; the run goes on
            traceback.print_exc()
            return None, time.perf_counter() - t0
        dt = time.perf_counter() - t0
        if reply.get("type") != "result":
            print(f"reply to {sql_text!r}: {reply}", file=sys.stderr)
            return None, dt
        return reply["rows"], dt

    def analytic_op(self, engine, sql_text: str, execs: tuple[int, int], op):
        """One analytic query: in process, or over the wire as a session of its
        own, so that no more than CLIENTS connections are ever open."""
        if engine is not None:
            return self.run_local(engine, sql_text, execs, op)
        client, ok = self.connect(USERS[0])
        self.hello_checked(USERS[0], ok)
        if client is None:
            return None, None
        try:
            self.requests_sent += 1
            return self.run_wire(client, sql_text, execs)
        finally:
            client.close()

    def short_block(self, measured: bool, r: int, step: int, block: int) -> None:
        from stripehouse.engine import Engine

        clients = self.w.clients
        done: list[list] = [[] for _ in range(clients)]
        hellos: list[bool | None] = [None] * clients

        # each thread writes only its own slots; the counting happens after join
        def client_loop(i: int) -> None:
            reqs = short_requests(i, step * block, block)
            if self.w.wire:
                client, hellos[i] = self.connect(USERS[i + 1])
                if client is None:
                    return
                try:
                    for _, sql_text in reqs:
                        done[i].append((sql_text,)
                                       + self.run_wire(client, sql_text, DEFAULT_EXEC))
                finally:
                    client.close()
            else:
                engine = Engine(self.catalog.data_root)
                for k, (shape, sql_text) in enumerate(reqs):
                    done[i].append((sql_text,) + self.run_local(
                        engine, sql_text, DEFAULT_EXEC, (f"r{r}.s{step}.c{i}.{k}", shape)))

        threads = [threading.Thread(target=client_loop, args=(i,)) for i in range(clients)]
        self.probes.append((r, speed.probe()))
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        for i in range(clients):
            if self.w.wire:
                self.hello_checked(USERS[i + 1], bool(hellos[i]))
            for sql_text, rows, dt in done[i]:
                self.attempted += 1
                self.check(f"round {r} step {step} client {i} {sql_text!r}", sql_text, rows)
                if measured:
                    self.latencies.append((r, dt))
                    if self.w.wire:
                        self.wire_rtt += dt
            for _ in range(block - len(done[i])):
                self.attempted += 1
                self.fail(f"round {r} step {step} client {i}: request not sent")
        if self.w.wire:
            self.requests_sent += sum(len(x) for x in done)
        if measured:
            self.short_time[r] = self.short_time.get(r, 0.0) + wall

    def round(self, measured: bool, r: int, block: int) -> None:
        """Each analytic step, with a short-request block after it (none if block is 0)."""
        from stripehouse.engine import Engine

        engine = None if self.w.wire else Engine(self.catalog.data_root)
        by_stem = {}
        for k, (stem, sql_text, execs) in enumerate(analytic_steps(self.w.reps)):
            self.probes.append((r, speed.probe()))
            rows, dt = self.analytic_op(engine, sql_text, execs, (f"r{r}.{k}", stem))
            self.attempted += 1
            self.check(f"round {r} {stem}", sql_text, rows)
            by_stem[stem] = rows
            if measured and dt is not None:
                self.samples[stem].append((r, dt))
                if self.w.wire:
                    self.wire_rtt += dt
            if block:
                self.short_block(measured, r, k, block)
        # 8x3 must equal 1x1
        self.attempted += 1
        why = checks.mismatch([list(x) for x in by_stem["complex_serial"] or []],
                              by_stem["complex"])
        if why is not None:
            self.fail(f"round {r}: complex at 8x3 differs from 1x1: {why}")

    def timings(self, setups: list[dict], f: dict, f_setup: float) -> dict:
        """The timing metrics, each sample multiplied by the factor of its
        round (f[r]); the set-ups by f_setup."""
        out = {"setup_s": statistics.median(s["setup_s"] for s in setups) * f_setup}
        for stem, vals in self.samples.items():
            out[f"{stem}_s"] = statistics.median(dt * f[r] for r, dt in vals)
        out["requests_per_s"] = len(self.latencies) / sum(
            t * f[r] for r, t in self.short_time.items())
        out["request_p50_ms"] = statistics.median(dt * f[r] for r, dt in self.latencies) * 1e3
        return out

    def check_audit(self, audit: Path) -> None:
        self.attempted += 1
        records = [json.loads(ln) for ln in audit.read_text(encoding="utf-8").splitlines()]
        queries = sum(1 for x in records if x["action"] == "QUERY" and x["decision"] == "ALLOWED")
        hellos = sum(1 for x in records if x["action"] == "AUTH" and x["decision"] == "ALLOWED")
        if (queries, hellos, len(records)) != (self.requests_sent, self.hellos_sent,
                                               self.requests_sent + self.hellos_sent):
            self.fail(f"audit log has {queries} ALLOWED queries and {hellos} hellos of "
                      f"{len(records)} records; sent {self.requests_sent} and "
                      f"{self.hellos_sent}")

    # --- the run ---

    def go(self) -> dict:
        from stripehouse import bench
        from stripehouse.schema import Catalog

        if bench.COMPLEX_QUERY != COMPLEX_QUERY:
            raise RuntimeError("stripehouse.bench.COMPLEX_QUERY changed; update workload.py")
        if self.tracer is not None:
            spans.install(self.tracer)
        self.work.mkdir(parents=True, exist_ok=True)

        setups = []
        for k in range(SETUPS):
            s = self.setup_once(k)
            setups.append(s)
            if k < SETUPS - 1:
                if self.w.wire:
                    self.stop_server()
                shutil.rmtree(s["dir"], ignore_errors=True)
        last = setups[-1]
        self.catalog = Catalog(last["dir"] / "db")

        ref = self.load_reference(last["dir"] / "gen")
        self.expected = ref["results"]
        # the kernel would write the set-up's files back some 30 s later, in
        # the middle of the measured rounds: drop the CSVs, sync the tables
        shutil.rmtree(last["dir"] / "gen")
        sync_files(last["dir"] / "db")
        for k, s in enumerate(setups):
            self.attempted += 1
            if s["rows"] != ref["rows"]:
                self.fail(f"set-up {k}: catalog rows {s['rows']}, CSV data lines {ref['rows']}")

        # warm-up, checked but not timed: the analytic steps one at a time,
        # then one short block
        r = 0
        self.round(measured=False, r=r, block=0)
        # the process that runs the queries is a fresh one (set-up and the
        # reference ran in children) that has now run each analytic query;
        # the short blocks' concurrent scans are left out of the peak, because
        # how they overlap changes from run to run
        peak_kb = peak_rss_kb(self.server[0].pid if self.w.wire else os.getpid())
        self.short_block(measured=False, r=r, step=0, block=WARMUP_BLOCK)
        t_lo = time.perf_counter()
        while r < MIN_ROUNDS or time.perf_counter() - t_lo < self.seconds:
            r += 1
            self.round(measured=True, r=r, block=self.w.block)
        t_hi = time.perf_counter()
        rounds = r

        dump = None
        if self.w.wire:
            self.check_audit(last["dir"] / "audit.log")
            dump = self.server[3]
            self.stop_server()

        n_rows = sum(ref["rows"].values())
        # every timing twice: as measured, and at the reference speed, where
        # each is scaled by the probes of its own round and the rounds on
        # either side, and set-up by all of the run's probes
        by_round = defaultdict(list)
        for r, dt in self.probes:
            by_round[r].append(dt)
        run_scale = speed.scale([dt for _, dt in self.probes])
        measured = self.timings(setups, defaultdict(lambda: 1.0), 1.0)
        end_to_end = self.timings(
            setups, {r: speed.scale(by_round[r - 1] + by_round[r] + by_round[r + 1])
                     for r in range(1, rounds + 1)}, run_scale)
        end_to_end["peak_rss_mb"] = peak_kb / 1024.0
        end_to_end["stored_bytes_per_row"] = last["stored_bytes"] / n_rows

        report = {"end_to_end": end_to_end, "measured": measured,
                  "scale": run_scale,
                  "probes": len(self.probes), "rounds": rounds,
                  "short_requests": len(self.latencies)}
        if self.tracer is not None:
            all_spans = list(self.tracer.spans)
            if dump is not None:
                all_spans += [spans.Span(**d) for d in json.loads(dump.read_text())]
            report["per_layer"] = spans.layer_metrics(all_spans, (t_lo, t_hi), rounds,
                                                      self.wire_rtt)
            report["per_layer"]["machine.probe_s"] = statistics.median(
                dt for _, dt in self.probes)
            for name in setups[0]["layers"]:
                report["per_layer"][name] = statistics.median(s["layers"][name] for s in setups)
            self.out_dir.mkdir(exist_ok=True)
            stem = f"{self.w.name}-seed{self.seed}"
            self.tracer.dump(self.out_dir / f"{stem}-spans.json")
            if dump is not None:
                shutil.copyfile(dump, self.out_dir / f"{stem}-server-spans.json")
            (self.out_dir / f"{stem}-traced.json").write_text(
                json.dumps(report, indent=1), encoding="utf-8")
        return report

    def close(self) -> None:
        if self.server is not None:
            self.stop_server()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    spec_file = root / "BENCHMARK.json"
    if not (root / "src" / "stripehouse" / "__init__.py").is_file() or not spec_file.is_file():
        print("run.py: run from the root of a stripehouse source tree "
              "(needs ./src/stripehouse and ./BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    spec = json.loads(spec_file.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), root)
    try:
        report = run.go()
    finally:
        run.close()
    values = report["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"{args.workload} seed {args.seed}: {report['rounds']} rounds, "
          f"{report['short_requests']} short requests, {report['probes']} probes, "
          f"scale {report['scale']:.4f}; as measured: "
          + json.dumps({k: round(v, 6) for k, v in report["measured"].items()}),
          file=sys.stderr)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
