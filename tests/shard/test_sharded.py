"""Integration tests for ShardedTable: the db(3)+batch+cursor surface,
aggregated stat(), cross-process tracing, and the repro.open wiring."""

import os

import pytest

import repro
from repro.core.errors import (
    ClosedError,
    InvalidParameterError,
    ReadOnlyError,
    ShardError,
    TransactionError,
)
from repro.shard import ShardManifest, ShardedTable, is_manifest

N = 300


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    """One 4-shard table shared by the read-mostly tests (workers are
    processes; spawning per test would dominate the suite's runtime)."""
    path = tmp_path_factory.mktemp("shard") / "shared.db"
    t = ShardedTable.create(path, shards=4, nelem=N)
    t.put_many([(b"k%d" % i, b"v%d" % i) for i in range(N)])
    yield t
    t.close()


class TestBasicOps:
    def test_get_put_delete(self, tmp_path):
        t = ShardedTable.create(tmp_path / "t.db", shards=2)
        try:
            assert t.put(b"a", b"1") == 0
            assert t.get(b"a") == b"1"
            assert t.put(b"a", b"2", replace=False) == 1  # R_NOOVERWRITE
            assert t.get(b"a") == b"1"
            assert t.delete(b"a") == 0
            assert t.delete(b"a") == 1
            assert t.get(b"a") is None
        finally:
            t.close()

    def test_batches_cross_shards(self, table):
        got = table.get_many([b"k%d" % i for i in range(N)])
        assert got == [b"v%d" % i for i in range(N)]

    def test_get_many_default_and_duplicates(self, table):
        got = table.get_many([b"k1", b"missing", b"k1"], default=b"?")
        assert got == [b"v1", b"?", b"v1"]

    def test_len_sums_shards(self, table):
        assert len(table) == N

    def test_mapping_facade(self, table):
        assert table[b"k7"] == b"v7"
        assert b"k7" in table and b"nope" not in table

    def test_keys_spread_over_all_shards(self, table):
        used = {table.shard_of(b"k%d" % i) for i in range(N)}
        assert used == {0, 1, 2, 3}

    def test_cursor_full_scan(self, table):
        pairs = dict(table.cursor())
        assert pairs == {b"k%d" % i: b"v%d" % i for i in range(N)}

    def test_cursor_restarts_with_first(self, table):
        cur = table.cursor()
        cur.next()
        cur.next()
        seen = 0
        item = cur.first()
        while item is not None:
            seen += 1
            item = cur.next()
        assert seen == N

    def test_cursor_rejects_ordered_ops(self, table):
        cur = table.cursor()
        for op in (cur.last, cur.prev, lambda: cur.seek(b"k")):
            with pytest.raises(ValueError):
                op()

    def test_check_invariants_broadcasts(self, table):
        table.check_invariants()

    def test_bulk_load(self, tmp_path):
        t = ShardedTable.create(tmp_path / "bl.db", shards=2)
        try:
            n = t.bulk_load(
                [(b"b%d" % i, b"w") for i in range(500)], nelem=500
            )
            assert n == 500
            assert len(t) == 500
            assert t.get(b"b123") == b"w"
        finally:
            t.close()


class TestLifecycle:
    def test_close_idempotent_then_typed_error(self, tmp_path):
        t = ShardedTable.create(tmp_path / "c.db", shards=1)
        t.put(b"x", b"y")
        t.close()
        t.close()
        assert t.closed
        with pytest.raises(ClosedError):
            t.get(b"x")

    def test_reopen_preserves_data(self, tmp_path):
        p = tmp_path / "r.db"
        t = ShardedTable.create(p, shards=2, hashfn="sdbm")
        t.put_many([(b"x%d" % i, b"y") for i in range(50)])
        t.close()
        t2 = ShardedTable.open_file(p)
        try:
            assert len(t2) == 50
            assert t2.manifest.hashfn == "sdbm"
        finally:
            t2.close()

    def test_readonly(self, tmp_path):
        p = tmp_path / "ro.db"
        ShardedTable.create(p, shards=2).close()
        t = ShardedTable.open_file(p, readonly=True)
        try:
            with pytest.raises(ReadOnlyError):
                t.put(b"a", b"b")
            with pytest.raises(ReadOnlyError):
                t.delete_many([b"a"])
        finally:
            t.close()


class TestCreationErrors:
    def test_bad_shard_counts(self, tmp_path):
        for bad in (0, 3, 6, 257, -2):
            with pytest.raises(ShardError):
                ShardedTable.create(tmp_path / f"bad{bad}.db", shards=bad)

    def test_unnamed_hashfn_rejected(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="named"):
            ShardedTable.create(tmp_path / "fn.db", shards=2, hashfn=len)

    def test_mismatched_shards_on_reopen(self, tmp_path):
        p = tmp_path / "m.db"
        ShardedTable.create(p, shards=4).close()
        with pytest.raises(ShardError, match="4 shard"):
            ShardedTable.open_file(p, shards=8)

    def test_mismatched_hashfn_on_reopen(self, tmp_path):
        p = tmp_path / "h.db"
        ShardedTable.create(p, shards=2, hashfn="sdbm").close()
        with pytest.raises(ShardError, match="sdbm"):
            ShardedTable.open_file(p, hashfn="fnv1a")

    def test_in_memory_rejected(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            ShardedTable.create(tmp_path / "im.db", shards=2, in_memory=True)

    def test_manifest_sniff(self, tmp_path):
        p = tmp_path / "s.db"
        ShardedTable.create(p, shards=2).close()
        assert is_manifest(p)
        m = ShardManifest.read(p)
        assert m.nshards == 2
        for sp in m.shard_paths():
            assert os.path.exists(sp)
        assert not is_manifest(m.shard_path(0))  # a table file, not a manifest


class TestRepoOpenWiring:
    def test_create_and_sniffed_reopen(self, tmp_path):
        p = tmp_path / "o.db"
        db = repro.open(p, "c", shards=2)
        assert isinstance(db, ShardedTable)
        db[b"k"] = b"v"
        db.close()
        db2 = repro.open(p, "w")  # no shards=: manifest sniff routes it
        assert isinstance(db2, ShardedTable)
        assert db2[b"k"] == b"v"
        db2.close()

    def test_recreate_over_manifest_requires_shards(self, tmp_path):
        """flag='n' (always create) on a manifest path must re-specify N
        -- recreating with a silently guessed count would be a trap."""
        p = tmp_path / "x.db"
        repro.open(p, "c", shards=2).close()
        with pytest.raises(InvalidParameterError, match="shards=N"):
            repro.open(p, "n")
        db = repro.open(tmp_path / "plain.db", "c")  # no shards=: plain table
        assert not isinstance(db, ShardedTable)
        db.close()

    def test_shards_with_btree_rejected(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            repro.open(tmp_path / "b.db", "c", type="btree", shards=2)

    def test_shards_in_memory_rejected(self):
        with pytest.raises(InvalidParameterError):
            repro.open(None, "c", shards=2)


class TestTransactions:
    def test_requires_durability(self, tmp_path):
        t = ShardedTable.create(tmp_path / "nd.db", shards=2)
        try:
            with pytest.raises(TransactionError):
                t.begin()
        finally:
            t.close()

    def test_commit_and_abort_broadcast(self, tmp_path):
        t = ShardedTable.create(tmp_path / "tx.db", shards=2, durability="wal")
        try:
            with t.transaction():
                t.put_many([(b"t%d" % i, b"v") for i in range(40)])
            assert len(t) == 40
            t.begin()
            assert t.in_transaction
            t.delete_many([b"t%d" % i for i in range(40)])
            assert len(t) == 0
            t.abort()
            assert len(t) == 40  # rolled back on every shard
            with pytest.raises(TransactionError):
                t.commit()  # no txn open
            assert t.checkpoint() >= 0
        finally:
            t.close()

    def test_durability_property_drives_batcher(self, tmp_path):
        t = ShardedTable.create(tmp_path / "d.db", shards=2, durability="wal")
        try:
            assert t.durability == "wal"  # serve's Batcher keys off this
        finally:
            t.close()


class TestAggregatedStat:
    def test_merged_tree_shape(self, tmp_path):
        t = ShardedTable.create(tmp_path / "st.db", shards=4, durability="wal")
        try:
            t.put_many([(b"s%d" % i, b"v") for i in range(100)])
            t.get_many([b"s%d" % i for i in range(100)])
            st = t.stat()
            assert st["type"] == "hash"
            assert st["nkeys"] == 100
            assert st["ops"]["counts"]["puts"] == 100
            assert st["ops"]["counts"]["gets"] == 100
            assert "wal" in st
            sh = st["sharding"]
            assert sh["nshards"] == 4
            assert len(sh["per_shard"]) == 4
            assert sum(s["nkeys"] for s in sh["per_shard"]) == 100
            assert sh["router"]["dispatches"] > 0
            # latency histograms merged, not summed: the per-shard single-op
            # samples combine into one distribution
            for i in range(8):
                t.get(b"s%d" % i)
            assert t.stat()["ops"]["latency"]["get"]["count"] == 8
        finally:
            t.close()

    def test_shard_stats_raw(self, table):
        trees = table.shard_stats()
        assert len(trees) == 4
        assert sum(t["nkeys"] for t in trees) == N


class TestTracing:
    def test_one_trace_across_processes(self, tmp_path):
        t = ShardedTable.create(tmp_path / "tr.db", shards=2)
        try:
            tracer = t.enable_tracing()
            t.put_many([(b"p%d" % i, b"v") for i in range(20)])
            t.get(b"p3")
            events = tracer.recorder.events()
            ids = {e["id"] for e in events}
            assert len(ids) == len(events), "grafted ids collide"
            routers = [e for e in events if e.get("cat") == "router"]
            shard_roots = [e for e in events if e.get("cat") == "shard"]
            assert routers and shard_roots
            # every worker root span is parented on a router span: the
            # trace crosses the process boundary in one tree
            router_ids = {e["id"] for e in routers}
            for rec in shard_roots:
                assert rec["parent"] in router_ids
                assert rec["attrs"]["shard"] in (0, 1)
            # engine spans (cat op/io/...) came along, timestamps rebased
            assert any(e.get("cat") not in ("router", "shard") for e in events)
            assert all(e["ts"] >= 0 for e in events)
            # per-shard synthetic tids keep lanes apart in the export
            tids = {e["tid"] for e in shard_roots}
            assert len(tids) == 2
        finally:
            t.close()

    def test_failing_routed_op_marks_span_and_dumps(self, tmp_path):
        t = ShardedTable.create(tmp_path / "te.db", shards=2)
        try:
            tracer = t.enable_tracing()
            with pytest.raises(TypeError):
                t.put(b"k", 12)  # the worker rejects the non-bytes value
            routers = [
                e for e in tracer.recorder.events() if e.get("cat") == "router"
            ]
            assert [(e["name"], e["attrs"]) for e in routers] == [
                ("shard.put", {"error": "TypeError"})
            ]
            assert tracer.recorder.auto_dumped == "exception:TypeError"
            assert (tmp_path / "te.db.flight.json").exists()
        finally:
            t.close()

    def test_disable_tracing(self, tmp_path):
        t = ShardedTable.create(tmp_path / "td.db", shards=1)
        try:
            t.enable_tracing()
            t.disable_tracing()
            t.put(b"a", b"b")
            assert t.tracer.enabled is False
        finally:
            t.close()
