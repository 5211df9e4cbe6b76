"""Multi-user query service.

Wire protocol: each frame is a 4-byte big-endian unsigned length followed
by a UTF-8 JSON body, 16 MiB max. Request types: ``hello`` (user/token),
``ping``, ``query``, ``grant``, ``deny``. Responses: ``ok``, ``result``,
``error{code,message}``.

Authorization is per-table allow/deny with deny-overrides and default
deny: a query runs only when every referenced table has a matching ALLOW
and no matching DENY. ``*`` matches any table. A rules file whose effect is
not exactly ``ALLOW`` or ``DENY`` is rejected.

Each query request stats ``catalog.json`` once and re-reads it when its
mtime or size changed, so partitions ingested while the server runs are
visible to the next query.

Every request appends one audit record (newline-delimited JSON, flushed
and fsynced) before its response is sent; if the audit write fails the
request fails closed.
"""

from __future__ import annotations

import hmac
import json
import os
import socket
import socketserver
import struct
import threading
import time
import traceback
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .engine import Engine
from .errors import InvalidConfig, IoFailure, StripehouseError
from .planner import ExecConfig, plan
from .schema import Catalog, resolve_data_root
from .sql import compile_text

FRAME_MAX = 16 * 1024 * 1024
ALLOW, DENY = "ALLOW", "DENY"
ALLOWED, DENIED = "ALLOWED", "DENIED"


# --- framing ---

def encode_frame(body: dict) -> bytes:
    blob = json.dumps(body, separators=(",", ":")).encode("utf-8")
    if len(blob) > FRAME_MAX:
        raise ValueError(f"frame body of {len(blob)} bytes exceeds {FRAME_MAX}")
    return struct.pack(">I", len(blob)) + blob


def decode_frame(data: bytes) -> dict:
    if len(data) < 4:
        raise ValueError("short frame")
    n = struct.unpack(">I", data[:4])[0]
    if n > FRAME_MAX:
        raise ValueError("frame too large")
    if len(data) != 4 + n:
        raise ValueError("frame length mismatch")
    return json.loads(data[4:].decode("utf-8"))


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf += chunk
    return buf


def recv_frame(sock: socket.socket) -> dict | None:
    head = _recv_exact(sock, 4)
    if head is None:
        return None
    n = struct.unpack(">I", head)[0]
    if n > FRAME_MAX:
        raise ValueError("frame too large")
    body = _recv_exact(sock, n)
    if body is None:
        return None
    return json.loads(body.decode("utf-8"))


def send_frame(sock: socket.socket, body: dict) -> None:
    sock.sendall(encode_frame(body))


# --- access rules ---

@dataclass(frozen=True)
class AccessRule:
    user: str
    table: str  # identifier or '*'
    action: str = "SELECT"
    effect: str = ALLOW

    def matches(self, user: str, table: str) -> bool:
        return self.user == user and self.table in (table, "*")


def authorize(user: str, tables, rules) -> str:
    """ALLOWED iff every table has a matching ALLOW and no matching DENY;
    a matching rule with any effect but ALLOW denies."""
    for table in tables:
        allowed = False
        for rule in rules:
            if not rule.matches(user, table):
                continue
            if rule.effect != ALLOW:
                return DENIED
            allowed = True
        if not allowed:
            return DENIED
    return ALLOWED


def load_rules(path) -> list[AccessRule]:
    path = Path(path)
    if not path.exists():
        return []
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
        rules = [
            AccessRule(
                user=r["user"],
                table=r["table"],
                action=r.get("action", "SELECT"),
                effect=r["effect"],
            )
            for r in raw
        ]
        for r in rules:
            if r.effect not in (ALLOW, DENY):
                raise ValueError(f"effect {r.effect!r} is not {ALLOW} or {DENY}")
        return rules
    except (OSError, ValueError, TypeError, KeyError) as e:
        raise InvalidConfig(f"cannot load rules from {path}: {type(e).__name__}: {e}") from e


def save_rules(path, rules: list[AccessRule]) -> None:
    doc = [
        {"user": r.user, "table": r.table, "action": r.action, "effect": r.effect}
        for r in rules
    ]
    tmp = Path(str(path) + ".tmp")
    tmp.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    os.replace(tmp, path)


@dataclass(frozen=True)
class Credential:
    user: str
    token: str
    role: str  # ADMIN | ANALYST


def load_users(path) -> dict[str, Credential]:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        return {u["user"]: Credential(u["user"], u["token"], u.get("role", "ANALYST"))
                for u in raw}
    except (OSError, ValueError, TypeError, KeyError) as e:
        raise InvalidConfig(f"cannot load users from {path}: {type(e).__name__}: {e}") from e


# --- audit ---

class AuditLog:
    """Append-only newline-delimited JSON, one record per protocol request."""

    FIELDS = ("ts", "user", "action", "detail", "decision", "duration_s")

    def __init__(self, path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._f = open(self.path, "a", encoding="utf-8")

    def append(self, *, user: str, action: str, detail: str, decision: str,
               duration_s: float) -> dict:
        record = {
            "ts": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%f")[:-3] + "Z",
            "user": user,
            "action": action,
            "detail": detail,
            "decision": decision,
            "duration_s": round(duration_s, 6),
        }
        line = json.dumps(record, separators=(",", ":")) + "\n"
        try:
            with self._lock:
                self._f.write(line)
                self._f.flush()
                os.fsync(self._f.fileno())
        except OSError as e:
            raise IoFailure(f"audit append failed: {e}") from e
        return record

    def close(self):
        self._f.close()


@dataclass
class ServiceConfig:
    data_root: Path
    port: int = 7878
    host: str = "127.0.0.1"
    users_file: Path = None
    rules_file: Path = None
    audit_file: Path = None

    @staticmethod
    def from_file(path) -> "ServiceConfig":
        """Config from a JSON object; an absent key takes the field's default."""
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
            if not isinstance(doc, dict):
                raise ValueError("not a JSON object")
        except (OSError, ValueError) as e:
            raise InvalidConfig(f"cannot load service config from {path}: "
                                f"{type(e).__name__}: {e}") from e
        return ServiceConfig(
            data_root=resolve_data_root(doc.get("data_root")),
            port=doc.get("port", 7878),
            host=doc.get("host", "127.0.0.1"),
            users_file=doc.get("users_file"),
            rules_file=doc.get("rules_file"),
            audit_file=doc.get("audit_file"),
        )

    def __post_init__(self):
        self.data_root = Path(self.data_root)
        self.users_file = Path(self.users_file if self.users_file is not None
                               else self.data_root / "users.json")
        self.rules_file = Path(self.rules_file if self.rules_file is not None
                               else self.data_root / "rules.json")
        self.audit_file = Path(self.audit_file if self.audit_file is not None
                               else self.data_root / "audit.log")


class _Handler(socketserver.BaseRequestHandler):
    def handle(self):
        server: StripehouseServer = self.server.owner
        user: str | None = None
        role: str | None = None
        engine = Engine(server.config.data_root)
        sock = self.request
        while True:
            try:
                req = recv_frame(sock)
            except (ValueError, json.JSONDecodeError, OSError):
                self._safe_error(sock, "BAD_REQUEST", "unreadable frame")
                return
            if req is None:
                return
            t0 = time.perf_counter()
            rtype = req.get("type")
            try:
                if rtype == "ping":
                    server.audit.append(user=user or "-", action="PING", detail="ping",
                                        decision=ALLOWED, duration_s=time.perf_counter() - t0)
                    send_frame(sock, {"type": "ok"})
                elif rtype == "hello":
                    user, role = self._hello(server, sock, req, t0)
                    if user is None:
                        return
                elif rtype == "query":
                    if user is None:
                        self._auth_fail(server, sock, "-", "query before hello", t0)
                        return
                    self._query(server, sock, engine, user, req, t0)
                elif rtype in ("grant", "deny"):
                    if user is None:
                        self._auth_fail(server, sock, "-", f"{rtype} before hello", t0)
                        return
                    self._grant_deny(server, sock, user, role, rtype, req, t0)
                else:
                    server.audit.append(user=user or "-", action="ERROR",
                                        detail=f"unknown request type {rtype!r}",
                                        decision="ERROR",
                                        duration_s=time.perf_counter() - t0)
                    send_frame(sock, {"type": "error", "code": "BAD_REQUEST",
                                      "message": f"unknown request type {rtype!r}"})
                    return
            except IoFailure:
                # fail closed: no audit record, no response
                return
            except OSError:
                return

    def _safe_error(self, sock, code, message):
        try:
            send_frame(sock, {"type": "error", "code": code, "message": message})
        except OSError:
            pass

    def _auth_fail(self, server, sock, user, detail, t0):
        server.audit.append(user=user, action="AUTH_FAIL", detail=detail,
                            decision=DENIED, duration_s=time.perf_counter() - t0)
        send_frame(sock, {"type": "error", "code": "AUTH", "message": detail})

    def _hello(self, server, sock, req, t0):
        user = req.get("user", "")
        token = req.get("token", "")
        cred = server.users.get(user)
        ok = cred is not None and hmac.compare_digest(cred.token, str(token))
        if not ok:
            self._auth_fail(server, sock, user or "-", "bad credentials", t0)
            return None, None
        server.audit.append(user=user, action="AUTH", detail="hello",
                            decision=ALLOWED, duration_s=time.perf_counter() - t0)
        send_frame(sock, {"type": "ok", "role": cred.role})
        return user, cred.role

    def _query(self, server, sock, engine, user, req, t0):
        sql = req.get("sql", "")
        try:
            catalog = server.catalog()
            query = compile_text(sql, catalog)
        except StripehouseError as e:
            server.audit.append(user=user, action="QUERY", detail=sql,
                                decision="ERROR", duration_s=time.perf_counter() - t0)
            send_frame(sock, {"type": "error", "code": "QUERY",
                              "message": f"{type(e).__name__}: {e}"})
            return
        decision = authorize(user, query.table_names, server.rules())
        if decision != ALLOWED:
            server.audit.append(user=user, action="QUERY", detail=sql,
                                decision=DENIED, duration_s=time.perf_counter() - t0)
            send_frame(sock, {"type": "error", "code": "DENIED",
                              "message": f"access denied on {'/'.join(query.table_names)}"})
            return
        try:
            cfg = ExecConfig(
                executors=int(req.get("executors", 8)),
                executor_mem_rows=int(req.get("mem_rows", 1_000_000)),
                cores_per_executor=int(req.get("cores", 3)),
            )
        except (TypeError, ValueError) as e:
            server.audit.append(user=user, action="QUERY", detail=sql,
                                decision="ERROR", duration_s=time.perf_counter() - t0)
            send_frame(sock, {"type": "error", "code": "BAD_REQUEST",
                              "message": f"bad execution options: {e}"})
            return
        try:
            p = plan(query, catalog, cfg, prune=bool(req.get("prune", True)))
            result, metrics = engine.execute(p, cfg)
        except Exception as e:  # the session outlives any one query's failure
            if not isinstance(e, StripehouseError):
                traceback.print_exc()
            server.audit.append(user=user, action="QUERY", detail=sql,
                                decision="ERROR", duration_s=time.perf_counter() - t0)
            send_frame(sock, {"type": "error", "code": "QUERY",
                              "message": f"{type(e).__name__}: {e}"})
            return
        server.audit.append(user=user, action="QUERY", detail=sql,
                            decision=ALLOWED, duration_s=time.perf_counter() - t0)
        send_frame(sock, {
            "type": "result",
            "columns": list(result.columns),
            "rows": result.json_rows(),
            "metrics": metrics.to_dict(),
        })

    def _grant_deny(self, server, sock, user, role, rtype, req, t0):
        action = rtype.upper()
        rule_doc = req.get("rule", {})
        detail = json.dumps(rule_doc, separators=(",", ":"), sort_keys=True)
        if role != "ADMIN":
            server.audit.append(user=user, action=action, detail=detail,
                                decision=DENIED, duration_s=time.perf_counter() - t0)
            send_frame(sock, {"type": "error", "code": "DENIED",
                              "message": "ADMIN role required"})
            return
        try:
            rule = AccessRule(
                user=rule_doc["user"],
                table=rule_doc["table"],
                action=rule_doc.get("action", "SELECT"),
                effect=ALLOW if rtype == "grant" else DENY,
            )
        except KeyError as e:
            server.audit.append(user=user, action=action, detail=detail,
                                decision="ERROR", duration_s=time.perf_counter() - t0)
            send_frame(sock, {"type": "error", "code": "BAD_REQUEST",
                              "message": f"rule missing field {e}"})
            return
        server.add_rule(rule)
        server.audit.append(user=user, action=action, detail=detail,
                            decision=ALLOWED, duration_s=time.perf_counter() - t0)
        send_frame(sock, {"type": "ok"})


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class StripehouseServer:
    """Long-running listener; sessions are handled concurrently."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self._catalog_lock = threading.Lock()
        self._catalog_stamp = self._catalog_stat()
        self._catalog = Catalog(config.data_root)
        self.users = load_users(config.users_file)
        self._rules = load_rules(config.rules_file)
        self._rules_lock = threading.Lock()
        self.audit = AuditLog(config.audit_file)
        self._server = _TCPServer((config.host, config.port), _Handler)
        self._server.owner = self
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address

    def _catalog_stat(self):
        try:
            st = (self.config.data_root / "catalog.json").stat()
        except FileNotFoundError:
            return None
        except OSError as e:
            raise IoFailure(f"cannot stat catalog: {e}") from e
        return st.st_mtime_ns, st.st_size

    def catalog(self) -> Catalog:
        """The catalog, re-read when ``catalog.json`` changed on disk."""
        # stat before reading, so a write between the two is seen next time
        stamp = self._catalog_stat()
        with self._catalog_lock:
            if stamp != self._catalog_stamp:
                self._catalog = Catalog(self.config.data_root)
                self._catalog_stamp = stamp
            return self._catalog

    def rules(self) -> list[AccessRule]:
        with self._rules_lock:
            return list(self._rules)

    def add_rule(self, rule: AccessRule) -> None:
        with self._rules_lock:
            self._rules = self._rules + [rule]
            save_rules(self.config.rules_file, self._rules)

    def serve_forever(self) -> None:
        self._server.serve_forever()

    def start(self) -> tuple[str, int]:
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self.address

    def shutdown(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self.audit.close()


class Client:
    """Blocking protocol client."""

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=60)

    def request(self, body: dict) -> dict:
        send_frame(self.sock, body)
        resp = recv_frame(self.sock)
        if resp is None:
            raise IoFailure("connection closed by server")
        return resp

    def ping(self) -> dict:
        return self.request({"type": "ping"})

    def hello(self, user: str, token: str) -> dict:
        return self.request({"type": "hello", "user": user, "token": token})

    def query(self, sql: str, **opts) -> dict:
        body = {"type": "query", "sql": sql}
        body.update(opts)
        return self.request(body)

    def grant(self, user: str, table: str) -> dict:
        return self.request({"type": "grant", "rule": {"user": user, "table": table}})

    def deny(self, user: str, table: str) -> dict:
        return self.request({"type": "deny", "rule": {"user": user, "table": table}})

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass
