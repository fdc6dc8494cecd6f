"""The per-layer ledger: counters the program exports, spans the
benchmark recorded, and the per-layer metrics derived from both.

Each per-layer metric is listed in ``LAYER_TARGETS`` with the
end-to-end metric it should move and the workload where it should move
it.  A layer that a workload bypasses reports 0 for its metrics there.
"""

from __future__ import annotations

#: per-layer metric -> (end-to-end metrics it should move, workload)
LAYER_TARGETS = {
    "access.self_us_per_op": ("ops_s, get_p50_us", "embed-read-zipf"),
    "core.table.self_us_per_get": ("get_p50_us", "embed-read-zipf"),
    "core.table.buffer_gets_per_get": ("get_p50_us", "embed-read-zipf"),
    "core.table.self_us_per_put": ("commit_p50_us, commit_p99_us", "embed-churn-wal"),
    "core.table.splits_per_kop": ("commit_p50_us, commit_p99_us, space_amp", "embed-churn-wal"),
    "core.table.merges_per_kop": ("commit_p50_us, commit_p99_us, space_amp", "embed-churn-wal"),
    "core.buffer.hit_ratio": ("get_p99_us, sys_us_per_op", "embed-read-zipf"),
    "core.buffer.evictions_per_op": ("get_p99_us, sys_us_per_op", "embed-read-zipf"),
    "core.buffer.writebacks_per_op": ("get_p99_us, sys_us_per_op", "embed-read-zipf"),
    "core.buffer.self_us_per_get": ("get_p99_us", "embed-read-zipf"),
    "storage.page_reads_per_op": ("get_p99_us, sys_us_per_op", "embed-read-zipf"),
    "storage.read_us": ("get_p99_us, sys_us_per_op", "embed-read-zipf"),
    "storage.page_writes_per_op": ("commit_p50_us, space_amp", "embed-churn-wal"),
    "storage.syscalls_per_op": ("commit_p50_us", "embed-churn-wal"),
    "storage.write_amp": ("commit_p50_us, space_amp", "embed-churn-wal"),
    "storage.freelist_reuse_ratio": ("space_amp", "embed-churn-wal"),
    "core.wal.bytes_per_commit": ("commit_p50_us; put_p50_us", "embed-churn-wal; served-mixed-sharded"),
    "core.wal.frames_per_commit": ("commit_p50_us; put_p50_us", "embed-churn-wal; served-mixed-sharded"),
    "core.wal.append_us_per_commit": ("commit_p50_us; put_p50_us", "embed-churn-wal; served-mixed-sharded"),
    "core.wal.checkpoints_per_kop": ("commit_p99_us", "embed-churn-wal"),
    "core.wal.checkpoint_us": ("commit_p99_us", "embed-churn-wal"),
    "serve.protocol.wire_bytes_per_op": ("ops_s", "served-mixed-sharded"),
    "serve.protocol.codec_us_per_op": ("ops_s", "served-mixed-sharded"),
    "serve.batching.ops_per_batch": ("ops_s, put_p99_us", "served-mixed-sharded"),
    "serve.batching.batches_per_kop": ("ops_s, put_p99_us", "served-mixed-sharded"),
    "serve.server.get_p50_us": ("get_p50_us", "served-mixed-sharded"),
    "serve.server.put_p50_us": ("put_p50_us", "served-mixed-sharded"),
    "serve.server.errors": ("fail_ratio", "served-mixed-sharded"),
    "shard.dispatches_per_op": ("ops_s, put_p50_us", "served-mixed-sharded"),
    "shard.fanout_mean": ("ops_s, put_p50_us", "served-mixed-sharded"),
    "shard.respawns": ("ops_s, fail_ratio", "served-mixed-sharded"),
    "loadgen.late_p99_us": ("nothing: shows phase B ran on schedule", "served-mixed-sharded"),
    "trace.overhead_pct": ("nothing: traced against untraced ops_s", "every workload"),
}

#: exact counters over the first ``exact_ops`` ops of the in-process
#: workloads: per-layer metric -> flat counter name
EXACT_COUNTERS = {
    "storage.page_reads": "page_reads",
    "storage.page_writes": "page_writes",
    "core.buffer.hits": "buffer_hits",
    "core.buffer.misses": "buffer_misses",
    "core.table.splits": "splits",
    "core.table.merges": "merges",
    "core.wal.frames": "wal_frames",
    "core.wal.bytes": "wal_bytes",
    "core.wal.checkpoints": "wal_checkpoints",
}
MISMATCH_METRIC = "loadgen.counter_mismatches"


def flat_stat(s: dict) -> dict:
    """The counters of one ``db.stat()`` tree (or a served STAT's ``db``
    subtree, which already sums the shards) as one flat dict."""
    counts = s["ops"]["counts"]
    buf, io, method, space = s["buffer"], s["io"], s["method"], s["space"]
    wal = s.get("wal", {})
    wio = wal.get("io", {})
    return {
        "gets": counts["gets"],
        "puts": counts["puts"],
        "deletes": counts["deletes"],
        "splits": counts["splits"],
        "merges": method["merges"],
        "pages_freed": method["pages_freed"],
        "freelist_pages": space["freelist_pages"],
        "buffer_hits": buf["hits"],
        "buffer_misses": buf["misses"],
        "buffer_evictions": buf["evictions"],
        "buffer_writebacks": buf["writebacks"],
        "page_reads": io["page_reads"],
        "page_writes": io["page_writes"],
        "syscalls": io["syscalls"],
        "bytes_written": io["bytes_written"],
        "wal_commits": wal.get("commits", 0),
        "wal_frames": wal.get("frames", 0),
        "wal_checkpoints": wal.get("checkpoints", 0),
        "wal_bytes": wio.get("bytes_written", 0),
        "wal_page_reads": wio.get("page_reads", 0),
        "wal_syscalls": wio.get("syscalls", 0),
    }


def flat_served(stat: dict) -> dict:
    """:func:`flat_stat` of a served STAT reply plus the server's and
    the shard router's counters."""
    flat = flat_stat(stat["db"])
    srv = stat["server"]
    router = stat["db"]["sharding"]["router"]
    flat.update(
        server_batches=srv["batch"]["batches"],
        server_batch_ops=srv["batch"]["ops"],
        server_errors=srv["errors"],
        shard_dispatches=router["dispatches"],
        shard_fanout_count=router["fanout"]["count"],
        shard_fanout_total=router["fanout"]["total"],
        shard_respawns=router["respawns"],
    )
    return flat


def delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before[k] for k in after}


def _per(x: float, n: float, scale: float = 1.0) -> float:
    return x / n * scale if n else 0.0


def layer_metrics(window: dict, prof, *, client_prof=None, served: dict | None = None) -> dict:
    """Every per-layer metric of one traced window.

    ``window`` holds the load generator's op counts (``ops``, ``gets``,
    ``puts``, ``put_bytes``), the counter deltas over the window
    (``counters``) and the freelist size at both ends; ``prof`` is the
    :class:`~layers.Profile` of the program's spans in the window;
    ``client_prof`` the load generator's own codec spans and ``served`` the
    server-side figures of the served workload.
    """
    c = window["counters"]
    ops, gets, puts = window["ops"], window["gets"], window["puts"]
    commits = c["wal_commits"]
    table_get = ("core.table.get", "core.table.get_many")
    table_put = ("core.table.put", "core.table.put_many")
    buffer_gets_in_gets = sum(prof.children[(t, "core.buffer.get")] for t in table_get)
    freed = c["pages_freed"]
    reused = freed - (window["freelist_after"] - window["freelist_before"])
    m = {
        "access.self_us_per_op": _per(prof.sum_self(*prof.with_prefix("access.")), ops, 1e6),
        "core.table.self_us_per_get": _per(prof.sum_self(*table_get), gets, 1e6),
        "core.table.buffer_gets_per_get": _per(buffer_gets_in_gets, gets),
        "core.table.self_us_per_put": _per(prof.sum_self(*table_put), puts, 1e6),
        "core.table.splits_per_kop": _per(c["splits"], ops, 1e3),
        "core.table.merges_per_kop": _per(c["merges"], ops, 1e3),
        "core.buffer.hit_ratio": _per(c["buffer_hits"], c["buffer_hits"] + c["buffer_misses"]),
        "core.buffer.evictions_per_op": _per(c["buffer_evictions"], ops),
        "core.buffer.writebacks_per_op": _per(c["buffer_writebacks"], ops),
        "core.buffer.self_us_per_get": _per(
            prof.self_time["core.buffer.get"], prof.calls["core.buffer.get"], 1e6
        ),
        "storage.page_reads_per_op": _per(c["page_reads"] + c["wal_page_reads"], ops),
        "storage.read_us": _per(
            prof.total["storage.read_page"], prof.calls["storage.read_page"], 1e6
        ),
        "storage.page_writes_per_op": _per(c["page_writes"], ops),
        "storage.syscalls_per_op": _per(c["syscalls"] + c["wal_syscalls"], ops),
        "storage.write_amp": _per(c["bytes_written"] + c["wal_bytes"], window["put_bytes"]),
        "storage.freelist_reuse_ratio": _per(reused, freed),
        "core.wal.bytes_per_commit": _per(c["wal_bytes"], commits),
        "core.wal.frames_per_commit": _per(c["wal_frames"], commits),
        "core.wal.append_us_per_commit": _per(prof.total["core.wal.append_pages"], commits, 1e6),
        "core.wal.checkpoints_per_kop": _per(c["wal_checkpoints"], ops, 1e3),
        "core.wal.checkpoint_us": _per(
            prof.total["core.wal.checkpoint"], prof.calls["core.wal.checkpoint"], 1e6
        ),
        "serve.protocol.wire_bytes_per_op": 0.0,
        "serve.protocol.codec_us_per_op": 0.0,
        "serve.batching.ops_per_batch": 0.0,
        "serve.batching.batches_per_kop": 0.0,
        "serve.server.get_p50_us": 0.0,
        "serve.server.put_p50_us": 0.0,
        "serve.server.errors": 0,
        "shard.dispatches_per_op": 0.0,
        "shard.fanout_mean": 0.0,
        "shard.respawns": 0,
        "loadgen.late_p99_us": 0.0,
    }
    if served is not None:
        codec = ("serve.protocol.encode_frame", "serve.protocol.feed")
        m.update({
            "serve.protocol.wire_bytes_per_op": _per(
                client_prof.size[codec[0]] + client_prof.size[codec[1]], ops
            ),
            "serve.protocol.codec_us_per_op": _per(
                prof.sum_total(*codec) + client_prof.sum_total(*codec), ops, 1e6
            ),
            "serve.batching.ops_per_batch": _per(c["server_batch_ops"], c["server_batches"]),
            "serve.batching.batches_per_kop": _per(c["server_batches"], ops, 1e3),
            "serve.server.get_p50_us": served["server_get_p50_us"],
            "serve.server.put_p50_us": served["server_put_p50_us"],
            "serve.server.errors": served["server_errors"],
            "shard.dispatches_per_op": _per(c["shard_dispatches"], ops),
            "shard.fanout_mean": _per(c["shard_fanout_total"], c["shard_fanout_count"]),
            "shard.respawns": served["shard_respawns"],
            "loadgen.late_p99_us": served["late_p99_us"],
        })
    return m
