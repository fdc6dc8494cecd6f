"""The served workload: the whole stack through a child server.

``python -m repro.serve serve --shards 2 --durability wal`` runs as a
child process; the load generator is one process holding ``conns`` pipelined
connections.  The ops are 80% ``get`` and 20% replacing ``put`` over a
few thousand preloaded keys, uniform.  Connection ``c`` only touches
keys whose index is ``c`` modulo ``conns``: the server executes one
connection's requests in arrival order, so the model knows the exact
value every ``get`` must return.

Phase B (open loop at the fixed ``rate``) runs before phase A (closed
loop with ``window`` requests in flight per connection), so the
server-side latency histograms read right after phase B cover phase B
alone.  Latency in phase B is timed from each request's due time.
Both phases run in rounds that each start from an idle server, with
the load generator, the server and its shard workers pinned to one CPU
(the next round to the next CPU), and report their figures over the
quiet rounds (``common.Rounds``).  A request then never waits for a
process on another CPU to be woken, which on a shared host costs a
varying share of the latency.

The pipelined loops speak the wire protocol through
``repro.serve.protocol`` (``encode_frame``/``FrameDecoder``) because
``Client.result`` blocks on one request id and cannot say when each of
several pipelined responses arrived; set-up, STAT and the read-back use
``repro.serve.Client``.
"""

from __future__ import annotations

import os
import random
import selectors
import signal
import socket
import subprocess
import sys

from common import (
    ROOT,
    CpuRotation,
    Failures,
    Rounds,
    child_env,
    dir_bytes,
    fresh_dir,
    make_keys,
    make_value,
    median,
    pc,
    quantile,
)
from ledger import delta, flat_served
from layers import ENTRY_POINTS, Profile, SpanLog, install, uninstall

HERE = os.path.dirname(os.path.abspath(__file__))
#: set-up load and read-back move keys in BATCH frames of this many ops
BATCH = 500
#: unmeasured closed-loop traffic before the phases
WARMUP_S = 0.5
#: share of the run given to phase A; phase B gets the rest, enough for
#: a thousand put latencies in its quiet rounds at the offered rate
PHASE_A_SHARE = 0.3
#: responses per round of phase A (a few dozen milliseconds)
A_ROUND = 256
#: requests per round of phase B, by due time
B_ROUND = 125


def start_server(db_dir: str, p: dict, spans_dir: str | None):
    argv = [
        "serve", os.path.join(db_dir, "db"), "--port", "0",
        "--shards", str(p["shards"]), "--durability", "wal", "--bsize", str(p["bsize"]),
    ]
    if spans_dir is None:
        cmd = [sys.executable, "-m", "repro.serve", *argv]
    else:
        cmd = [sys.executable, os.path.join(HERE, "serve_launcher.py"), spans_dir, *argv]
    stderr = open(db_dir + ".log", "wb")  # beside the table, out of space_amp
    try:
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=stderr, env=child_env(), cwd=ROOT
        )
    finally:
        stderr.close()
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=60):
                raise RuntimeError("server did not report LISTENING within 60 s")
        line = proc.stdout.readline().decode()
        if not line.startswith("LISTENING"):
            raise RuntimeError(f"server failed to start: {line!r}")
        port = int(line.split()[1].split("=")[1])
    except BaseException:
        stop_server(proc)
        raise
    return proc, port


def stop_server(proc) -> None:
    """Graceful shutdown (drain, checkpoint, close), then reap."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()


class Conn:
    """One pipelined connection and the model of the keys it owns."""

    def __init__(self, port: int, index: int, keys: list[bytes], values: list[bytes],
                 rng: random.Random, p: dict, fails: Failures, proto) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.index = index
        self.keys = keys
        self.model = values
        self.rng = rng
        self.get_share = p["getpct"] / 100.0
        self.vlen = p["value"]
        self.fails = fails
        self.proto = proto
        self.decoder = proto.FrameDecoder()
        self.rid = 0
        self.version = 0
        #: rid -> (is_get, key index, expected value or None, due time)
        self.pending: dict = {}

    def send_next(self, due: float) -> None:
        proto = self.proto
        k = self.rng.randrange(len(self.keys))
        self.rid += 1
        if self.rng.random() < self.get_share:
            frame = proto.encode_frame(proto.OP_GET, self.rid, self.keys[k])
            self.pending[self.rid] = (True, k, self.model[k], due)
        else:
            self.version += 1
            value = make_value(self.vlen, self.index, self.version)
            frame = proto.encode_frame(
                proto.OP_PUT, self.rid, proto.encode_put(self.keys[k], value)
            )
            self.pending[self.rid] = (False, k, None, due)
            self.model[k] = value
        self.sock.sendall(frame)

    def receive(self):
        """Read what has arrived; yields ``(is_get, due)`` per response."""
        data = self.sock.recv(65536)
        if not data:
            raise ConnectionError("server closed the connection")
        proto = self.proto
        for status, rid, payload in self.decoder.feed(data):
            is_get, k, want, due = self.pending.pop(rid)
            if is_get:
                ok = status == proto.ST_OK and payload == want
            else:
                ok = status == proto.ST_OK and payload == b"\x01"
            self.fails.check(
                ok, lambda: f"{'get' if is_get else 'put'} {self.keys[k]!r}: "
                            f"status 0x{status:02X} payload {payload[:40]!r}"
            )
            yield is_get, due

    def close(self) -> None:
        self.sock.close()


def server_threads(pid: int) -> list[int]:
    """Thread ids of the server ``pid`` and of its direct children (the
    shard workers), from ``/proc``."""
    tids = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            if int(name) == pid or ppid == pid:
                tids += [int(t) for t in os.listdir(f"/proc/{name}/task")]
        except OSError:  # exited meanwhile
            continue
    return tids


def server_cpu(pid: int) -> tuple[float, float]:
    """User and system CPU seconds of the server ``pid`` and its direct
    children (the shard workers) so far, from ``/proc``."""
    ticks = os.sysconf("SC_CLK_TCK")
    user = sys_ = 0
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:  # exited meanwhile
            continue
        if int(name) == pid or int(fields[1]) == pid:
            user += int(fields[11])
            sys_ += int(fields[12])
    return user / ticks, sys_ / ticks


def _drain(sel, conns: list[Conn], on_response) -> None:
    """Receive until no request is pending, calling ``on_response`` with
    the connection and ``(is_get, due)`` of each response."""
    while any(c.pending for c in conns):
        events = sel.select(timeout=60)
        if not events:
            raise TimeoutError("no response from the server for 60 s")
        for key, _ in events:
            for response in key.data.receive():
                on_response(key.data, response)


def closed_loop(conns: list[Conn], seconds: float, window: int, rounds=None, pid=None) -> int:
    """Rounds of ``A_ROUND`` requests with ``window`` in flight per
    connection, until ``seconds`` have passed; returns the responses.

    Each round ends when all its responses have arrived, so the next
    starts from an idle server.  With ``rounds``, each round runs with
    the whole stack -- this process, the server ``pid`` and its shard
    workers -- pinned to one CPU, the next round on the next CPU, and is
    recorded with the CPU the server and its workers spent on it.
    """
    done = 0
    cpus = CpuRotation()
    tids = server_threads(pid) if rounds is not None else []
    with selectors.DefaultSelector() as sel:
        for c in conns:
            sel.register(c.sock, selectors.EVENT_READ, c)
        deadline = pc() + seconds
        while pc() < deadline:
            if rounds is not None:
                cpus.next(tids)
            cpu0 = server_cpu(pid) if rounds is not None else None
            t0 = pc()
            sent = 0
            for c in conns:
                for _ in range(window):
                    c.send_next(0.0)
                    sent += 1

            def on_response(c, response):
                nonlocal sent
                if sent < A_ROUND:
                    c.send_next(0.0)
                    sent += 1

            _drain(sel, conns, on_response)
            seconds_round = pc() - t0
            done += sent
            if rounds is not None:
                cpu1 = server_cpu(pid)
                rounds.add(0, seconds_round, seconds_round, sent,
                           (cpu1[0] - cpu0[0], cpu1[1] - cpu0[1]), {})
    if rounds is not None:
        cpus.restore(tids)
    return done


def open_loop(conns: list[Conn], seconds: float, rate: float, rounds: Rounds, pid: int):
    """Rounds of ``B_ROUND`` requests sent at ``rate`` ops/s regardless
    of responses, alternating connections, for about ``seconds``.

    Each round holds its get and put latencies, from each request's due
    time.  Between rounds the generator waits until every response has
    arrived, and the next round's schedule starts after that: a backlog
    built up in a slow spell of the host stays in the round it began
    in.  Each round runs with the whole stack pinned to one CPU, as in
    ``closed_loop``.  Returns how late each request was sent.
    """
    late = []
    n = len(conns)
    cpus = CpuRotation()
    tids = server_threads(pid)
    with selectors.DefaultSelector() as sel:
        for c in conns:
            sel.register(c.sock, selectors.EVENT_READ, c)
        for w in range(max(1, int(seconds * rate) // B_ROUND)):
            lat = {"get": [], "put": []}

            def on_response(c, response):
                is_get, due = response
                lat["get" if is_get else "put"].append(pc() - due)

            cpus.next(tids)
            t0 = pc()
            i = 0
            while i < B_ROUND:
                now = pc()
                while i < B_ROUND and t0 + i / rate <= now:
                    due = t0 + i / rate
                    conns[(w * B_ROUND + i) % n].send_next(due)
                    late.append(pc() - due)
                    i += 1
                timeout = max(0.0, t0 + i / rate - pc())
                for key, _ in sel.select(timeout=timeout):
                    for response in key.data.receive():
                        on_response(key.data, response)
            _drain(sel, conns, on_response)
            # the key is the mean: a stall of the host delays every request
            # queued behind it, which moves the mean and not the median
            both = lat["get"] + lat["put"]
            rounds.add(0, sum(both) / len(both), B_ROUND / rate, B_ROUND, (0.0, 0.0), lat)
    cpus.restore(tids)
    return late


def served_mixed(p: dict, seed: int, seconds: float, *, setups: int, spans_dir=None,
                 latencies: bool = True) -> dict:
    from repro.serve import protocol as proto
    from repro.serve.client import Client

    rng = random.Random(seed)
    n, klen, vlen, nconn = p["keys"], p["key"], p["value"], p["conns"]
    keys = make_keys(rng, n, klen)
    values = [make_value(vlen, nconn + 1, i) for i in range(n)]
    fails = Failures()
    setup_times = []
    proc = None
    try:
        for i in range(setups):
            if proc is not None:
                stop_server(proc)
            db_dir = fresh_dir("served", str(i))
            t0 = pc()
            proc, port = start_server(db_dir, p, spans_dir)
            with Client(port=port) as client:
                for s in range(0, n, BATCH):
                    client.batch([("put", k, v) for k, v in zip(keys[s: s + BATCH], values[s: s + BATCH])])
            setup_times.append(pc() - t0)
        conns = [
            Conn(port, c, keys[c::nconn], values[c::nconn], random.Random(f"{seed}/{c}"),
                 p, fails, proto)
            for c in range(nconn)
        ]
        client = Client(port=port)
        closed_loop(conns, WARMUP_S, p["window"])
        log = SpanLog() if spans_dir is not None else None
        undo = install(log, [e for e in ENTRY_POINTS if e[0] == "repro.serve.protocol"]) if log else None
        served_before = fails.attempted
        stat0 = client.stat()
        t_window = pc()
        rounds_b, rounds_a = Rounds(p["quiet"]), Rounds(p["quiet"])
        late = open_loop(conns, seconds * (1 - PHASE_A_SHARE), p["rate"], rounds_b, proc.pid)
        stat_b = client.stat()
        done_a = closed_loop(conns, seconds * PHASE_A_SHARE, p["window"], rounds_a, proc.pid)
        traffic_ops = fails.attempted
        window_ops = traffic_ops - served_before
        stat1 = client.stat()
        t_window_end = pc()
        if undo is not None:
            uninstall(undo)
        for c in conns:
            c.close()
        for s in range(0, n, BATCH):  # full read-back
            got = client.batch([("get", k) for k in keys[s: s + BATCH]])
            for j, value in enumerate(got):
                k = s + j
                want = conns[k % nconn].model[k // nconn]
                fails.check(value == want, lambda: f"read-back {keys[k]!r} returned {value!r}")
        final = client.stat()
        client.close()
        errors = final["server"]["errors"]
        fails.check(errors == 0, f"server counted {errors} errors")
    finally:
        if proc is not None:
            stop_server(proc)
    space = dir_bytes(db_dir) / (n * (klen + vlen))
    late.sort()
    # ops_s and the server's CPU per op from phase A, latencies from phase B
    fig_a = rounds_a.figures(())
    e2e = {
        "setup_s": median(setup_times),
        "ops_s": fig_a["ops_s"],
        "space_amp": space,
        "user_us_per_op": fig_a["user_us_per_op"],
        "sys_us_per_op": fig_a["sys_us_per_op"],
        "rounds_a": fig_a["rounds"],
        "quiet_rounds_a": fig_a["quiet_rounds"],
    }
    if latencies:
        fig_b = rounds_b.figures(("get", "put"))
        e2e.update({k: v for k, v in fig_b.items() if k.startswith(("get_", "put_"))})
        e2e["quiet_rounds_b"] = fig_b["quiet_rounds"]
        # the server commits each put run to the shard logs before the ack
        e2e["commit_p50_us"] = e2e["put_p50_us"]
        e2e["commit_p99_us"] = e2e["put_p99_us"]
    c0, c1 = flat_served(stat0), flat_served(stat1)
    run = {
        "e2e": e2e,
        "fails": fails,
        "window": {
            "ops": window_ops,
            "gets": c1["gets"] - c0["gets"],
            "puts": c1["puts"] - c0["puts"],
            "put_bytes": (c1["puts"] - c0["puts"]) * (klen + vlen),
            "counters": delta(c1, c0),
            "freelist_before": c0["freelist_pages"],
            "freelist_after": c1["freelist_pages"],
        },
        "exact": None,
        "served": {
            "server_get_p50_us": stat_b["server"]["latency"]["get"]["p50"] * 1e3,
            "server_put_p50_us": stat_b["server"]["latency"]["put"]["p50"] * 1e3,
            "server_errors": errors,
            "shard_respawns": final["db"]["sharding"]["router"]["respawns"],
            "late_p99_us": quantile(late, 0.99) * 1e6,
        },
        "context": {
            "keys": n, "key_bytes": klen, "value_bytes": vlen, "shards": p["shards"],
            "bsize": p["bsize"], "buffer_pool_bytes": "package default (64 KiB) per shard",
            "connections": nconn, "window": p["window"], "get_pct": p["getpct"],
            "phase_b_offered_ops_s": p["rate"], "phase_b_sent": len(late),
            "file_bytes": dir_bytes(db_dir),
            "flush_policy": "durability=wal: each put run committed to the shard logs "
                            "before the ack, never fsynced",
            "phase_a_completed": done_a,
        },
    }
    if spans_dir is not None:
        log.dump(os.path.join(spans_dir, "loadgen.spans"))
        prof = Profile()
        for name in os.listdir(spans_dir):
            if name.endswith(".spans") and name != "loadgen.spans":
                prof.add_file(os.path.join(spans_dir, name), window=(t_window, t_window_end))
        client_prof = Profile()
        client_prof.add_log(log)
        run["profile"], run["client_profile"] = prof, client_prof
    return run
