"""Multi-user query service.

Wire protocol: each frame is a 4-byte big-endian unsigned length followed
by a UTF-8 JSON body, 16 MiB max. Request types: ``hello`` (user/token),
``ping``, ``query``, ``grant``, ``deny``. Responses: ``ok``, ``result``,
``error{code,message}``. ``recv_frame`` is the one frame decoder;
``decode_frame`` reads a frame held in memory through it.

Authorization is per-table allow/deny with deny-overrides and default
deny: a query runs only when every referenced table has a matching ALLOW
and no matching DENY. ``*`` matches any table. A rules file whose effect is
not exactly ``ALLOW`` or ``DENY``, or any of whose fields is not a JSON
string, is rejected, and so is a users file with a non-string field. A
grant or deny is saved to the rules file before it is put in force; when
the save fails, the request is answered with a ``SERVER`` error and the
rules in force stay as they were.

Each query request stats ``catalog.json`` once and re-reads it when its
mtime or size changed, so partitions ingested while the server runs are
visible to the next query. Stripe footers come from
``stripefile.cached_footer``, shared by every session, which parses a
footer again whenever its file's stamp changed.

A request field of the wrong JSON type (``typed_field``; a bool is no
integer) is refused with ``BAD_REQUEST``, and so is a query request whose
``executors`` x ``cores`` exceeds ``MAX_SLOTS`` or whose ``mem_rows``
exceeds ``MAX_MEM_ROWS``, before the query is planned.

One record per frame: every frame, unreadable ones included, gets one
audit record (newline-delimited JSON, flushed and fsynced) and then one
response, ``ok``, ``result`` or a typed ``error``. If the audit write fails
the request fails closed: no response, and the session ends. A session
also ends after answering an unreadable frame (or a body that is not a
JSON object), an unknown type, a query or grant before ``hello``, and bad
credentials.
"""

from __future__ import annotations

import hmac
import io
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
from types import SimpleNamespace

from .engine import Engine
from .errors import InvalidConfig, IoFailure, StripehouseError
from .planner import ExecConfig, plan
from .schema import Catalog, resolve_data_root
from .sql import compile_text

FRAME_MAX = 16 * 1024 * 1024
ALLOW, DENY = "ALLOW", "DENY"
ALLOWED, DENIED = "ALLOWED", "DENIED"
# the most one query request may ask for
MAX_SLOTS = 64
MAX_MEM_ROWS = ExecConfig().executor_mem_rows


# --- framing ---

def encode_frame(body: dict) -> bytes:
    blob = json.dumps(body, separators=(",", ":")).encode("utf-8")
    if len(blob) > FRAME_MAX:
        raise ValueError(f"frame body of {len(blob)} bytes exceeds {FRAME_MAX}")
    return struct.pack(">I", len(blob)) + blob


def decode_frame(data: bytes) -> dict:
    """The body of the one whole frame ``data``, read by ``recv_frame``."""
    rest = io.BytesIO(data)
    body = recv_frame(SimpleNamespace(recv=rest.read))
    if body is None or rest.read(1):
        raise ValueError("frame length mismatch")
    return body


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


# --- typed requests ---

_JSON_TYPES = {type(None): "null", bool: "a boolean", int: "an integer", float: "a float",
               str: "a string", list: "an array", dict: "an object"}


class Refusal(Exception):
    """A request answered with ``error{code, message}`` and audited with
    ``decision``; ``user``, when set, is the audit record's user."""

    def __init__(self, code: str, decision: str, message: str, user: str | None = None):
        super().__init__(message)
        self.code, self.decision, self.message, self.user = code, decision, message, user


def typed_field(doc: dict, name: str, kind: type, default=None):
    """``doc[name]``, or ``default`` when absent (refused when there is no
    default); refuses a value whose JSON type is not exactly ``kind``, so a
    boolean is no integer."""
    if name not in doc:
        if default is None:
            raise Refusal("BAD_REQUEST", "ERROR", f"missing field {name!r}")
        return default
    v = doc[name]
    if type(v) is not kind:
        raise Refusal("BAD_REQUEST", "ERROR",
                      f"{name} must be {_JSON_TYPES[kind]}, not {_JSON_TYPES[type(v)]}")
    return v


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
        rules = [AccessRule(typed_field(r, "user", str), typed_field(r, "table", str),
                            typed_field(r, "action", str, "SELECT"), typed_field(r, "effect", str))
                 for r in raw]
        for r in rules:
            if r.effect not in (ALLOW, DENY):
                raise ValueError(f"effect {r.effect!r} is not {ALLOW} or {DENY}")
        return rules
    except (OSError, ValueError, TypeError, Refusal) as e:
        raise InvalidConfig(f"cannot load rules from {path}: {type(e).__name__}: {e}") from e


def save_rules(path, rules: list[AccessRule]) -> None:
    doc = [
        {"user": r.user, "table": r.table, "action": r.action, "effect": r.effect}
        for r in rules
    ]
    tmp = Path(str(path) + ".tmp")
    try:
        tmp.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        os.replace(tmp, path)
    except OSError as e:
        raise IoFailure(f"cannot save rules to {path}: {e}") from e


@dataclass(frozen=True)
class Credential:
    user: str
    token: str
    role: str  # ADMIN | ANALYST


def load_users(path) -> dict[str, Credential]:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        creds = [Credential(typed_field(u, "user", str), typed_field(u, "token", str),
                            typed_field(u, "role", str, "ANALYST")) for u in raw]
        return {c.user: c for c in creds}
    except (OSError, ValueError, TypeError, Refusal) as e:
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
        """Config from a JSON object; an absent key takes the field's default,
        and a key of another JSON type than the field's is refused."""
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
            if not isinstance(doc, dict):
                raise ValueError("not a JSON object")
            paths = {name: typed_field(doc, name, str) for name in
                     ("data_root", "users_file", "rules_file", "audit_file") if name in doc}
            return ServiceConfig(
                data_root=resolve_data_root(paths.pop("data_root", None)),
                port=typed_field(doc, "port", int, 7878),
                host=typed_field(doc, "host", str, "127.0.0.1"),
                **paths,
            )
        except (OSError, ValueError, Refusal) as e:
            raise InvalidConfig(f"cannot load service config from {path}: "
                                f"{type(e).__name__}: {e}") from e

    def __post_init__(self):
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port {self.port} is not in 0-65535")
        self.data_root = Path(self.data_root)
        self.users_file = Path(self.users_file if self.users_file is not None
                               else self.data_root / "users.json")
        self.rules_file = Path(self.rules_file if self.rules_file is not None
                               else self.data_root / "rules.json")
        self.audit_file = Path(self.audit_file if self.audit_file is not None
                               else self.data_root / "audit.log")


def exec_options(req: dict) -> tuple[ExecConfig, bool]:
    """The execution config and prune flag a query request asks for; refuses
    an option of the wrong JSON type or out of bounds."""
    d = ExecConfig()
    try:
        cfg = ExecConfig(
            executors=typed_field(req, "executors", int, d.executors),
            cores_per_executor=typed_field(req, "cores", int, d.cores_per_executor),
            executor_mem_rows=typed_field(req, "mem_rows", int, d.executor_mem_rows))
    except ValueError as e:  # an option below 1
        raise Refusal("BAD_REQUEST", "ERROR", str(e)) from None
    prune = typed_field(req, "prune", bool, True)
    if cfg.slots > MAX_SLOTS:
        raise Refusal("BAD_REQUEST", "ERROR", f"executors x cores = {cfg.slots} exceeds {MAX_SLOTS}")
    if cfg.executor_mem_rows > MAX_MEM_ROWS:
        raise Refusal("BAD_REQUEST", "ERROR",
                      f"mem_rows {cfg.executor_mem_rows} exceeds {MAX_MEM_ROWS}")
    return cfg, prune


def _sql_detail(req: dict) -> str:
    sql = req.get("sql", "")
    return sql if isinstance(sql, str) else json.dumps(sql)


def _rule_detail(req: dict) -> str:
    return json.dumps(req.get("rule", {}), separators=(",", ":"), sort_keys=True)


# request type: audit action, the request's audit detail, handler method, needs hello
_ROUTES = {
    "ping": ("PING", lambda req: "ping", "_ping", False),
    "hello": ("AUTH", lambda req: "hello", "_hello", False),
    "query": ("QUERY", _sql_detail, "_query", True),
    "grant": ("GRANT", _rule_detail, "_grant", True),
    "deny": ("DENY", _rule_detail, "_grant", True),
}


class _Handler(socketserver.BaseRequestHandler):
    """One session. ``handle`` routes each frame by its ``type`` to a handler
    that returns the response body or raises ``Refusal``, then appends the
    frame's one audit record and sends its one response. A handler takes the
    session's server, socket, engine and user, the request and its arrival
    time: perfbench's tracer wraps ``_query`` by that signature."""

    def handle(self):
        server: StripehouseServer = self.server.owner
        engine = Engine(server.config.data_root)
        sock = self.request
        self.user = self.role = None
        while True:
            try:
                req = recv_frame(sock)
                if req is None:
                    return
            except (ValueError, RecursionError):  # a bad length, UTF-8 or JSON body
                req = None
            except OSError:
                return
            t0 = time.perf_counter()
            action, detail, user, last = "ERROR", None, self.user, True
            try:
                if not isinstance(req, dict):
                    raise Refusal("BAD_REQUEST", "ERROR", "unreadable frame")
                rtype = req.get("type")
                if not isinstance(rtype, str) or rtype not in _ROUTES:
                    raise Refusal("BAD_REQUEST", "ERROR", f"unknown request type {rtype!r}")
                action, detail_of, method, needs_hello = _ROUTES[rtype]
                detail = detail_of(req)
                if needs_hello and user is None:
                    raise Refusal("AUTH", DENIED, f"{rtype} before hello")
                last = False
                body = getattr(self, method)(server, sock, engine, user, req, t0)
                decision, user = ALLOWED, self.user
            except Refusal as e:
                if e.code == "AUTH":  # a failed or missing hello ends the session
                    action, detail, last = "AUTH_FAIL", e.message, True
                elif detail is None:  # refused before routing
                    detail = e.message
                decision, user = e.decision, e.user or user
                body = {"type": "error", "code": e.code, "message": e.message}
            try:
                server.audit.append(user=user or "-", action=action, detail=detail,
                                    decision=decision, duration_s=time.perf_counter() - t0)
                send_frame(sock, body)
            except (IoFailure, OSError):
                return  # fail closed: a request the audit missed gets no response
            if last:
                return

    def _ping(self, server, sock, engine, user, req, t0):
        return {"type": "ok"}

    def _hello(self, server, sock, engine, user, req, t0):
        name = typed_field(req, "user", str, "")
        token = typed_field(req, "token", str, "")
        cred = server.users.get(name)
        if cred is None or not hmac.compare_digest(cred.token.encode(), token.encode()):
            raise Refusal("AUTH", DENIED, "bad credentials", user=name or "-")
        self.user, self.role = name, cred.role
        return {"type": "ok", "role": cred.role}

    def _query(self, server, sock, engine, user, req, t0):
        sql = typed_field(req, "sql", str, "")
        try:
            catalog = server.catalog()
            query = compile_text(sql, catalog)
        except StripehouseError as e:
            raise Refusal("QUERY", "ERROR", f"{type(e).__name__}: {e}") from None
        if authorize(user, query.table_names, server.rules()) != ALLOWED:
            raise Refusal("DENIED", DENIED, f"access denied on {'/'.join(query.table_names)}")
        cfg, prune = exec_options(req)
        try:
            p = plan(query, catalog, cfg, prune=prune)
            result, metrics = engine.execute(p, cfg)
        except Exception as e:  # the session outlives any one query's failure
            if not isinstance(e, StripehouseError):
                traceback.print_exc()
            raise Refusal("QUERY", "ERROR", f"{type(e).__name__}: {e}") from None
        return {"type": "result", "columns": list(result.columns),
                "rows": result.json_rows(), "metrics": metrics.to_dict()}

    def _grant(self, server, sock, engine, user, req, t0):
        if self.role != "ADMIN":
            raise Refusal("DENIED", DENIED, "ADMIN role required")
        doc = typed_field(req, "rule", dict, {})
        rule = AccessRule(typed_field(doc, "user", str), typed_field(doc, "table", str),
                          typed_field(doc, "action", str, "SELECT"),
                          ALLOW if req["type"] == "grant" else DENY)
        try:
            server.add_rule(rule)
        except IoFailure as e:
            raise Refusal("SERVER", "ERROR", f"{type(e).__name__}: {e}") from None
        return {"type": "ok"}


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
        """Save the rules with ``rule`` added, then put it in force; a failed
        save raises ``IoFailure`` and leaves the rules in force as they were."""
        with self._rules_lock:
            rules = self._rules + [rule]
            save_rules(self.config.rules_file, rules)
            self._rules = rules

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
