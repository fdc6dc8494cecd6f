"""Tests for causal span tracing: Tracer/Span/FlightRecorder mechanics,
the engine integration (root op spans with hook events as children), and
the crash flight dump."""

from __future__ import annotations

import json
import threading

import pytest

import repro
from repro.baselines.dbm import DbmFile
from repro.baselines.gdbm import Gdbm
from repro.baselines.sdbm import Sdbm
from repro.core.errors import ReadOnlyError
from repro.core.table import HashTable
from repro.obs.export import to_chrome_trace
from repro.obs.trace import FlightRecorder, Tracer
from repro.storage.faulty import CrashPoint, FaultyPager


class TestTracer:
    def test_nesting_and_parent_ids(self):
        tr = Tracer()
        outer = tr.start("outer")
        inner = tr.start("inner")
        assert inner.parent_id == outer.id
        tr.end(inner)
        tr.end(outer)
        recs = tr.recorder.events()
        assert [r["name"] for r in recs] == ["inner", "outer"]  # close order
        by_name = {r["name"]: r for r in recs}
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["outer"]["parent"] is None
        assert by_name["outer"]["dur"] >= by_name["inner"]["dur"] >= 0.0

    def test_instant_attaches_to_current_span(self):
        tr = Tracer()
        with tr.span("op") as span:
            tr.instant("hit", "buffer", {"pageno": 3})
        recs = tr.recorder.events()
        event = next(r for r in recs if r["type"] == "event")
        assert event["parent"] == span.id
        assert event["attrs"] == {"pageno": 3}
        # with no span open, events are roots, not errors
        tr.instant("stray")
        assert tr.recorder.events()[-1]["parent"] is None

    def test_out_of_order_close_pops_through(self):
        tr = Tracer()
        outer = tr.start("outer")
        tr.start("leaked")  # never explicitly ended
        tr.end(outer)
        assert tr.current_span() is None
        child = tr.start("next")
        assert child.parent_id is None
        tr.end(child)

    def test_span_context_records_error_attr(self):
        tr = Tracer()
        with pytest.raises(KeyError):
            with tr.span("op"):
                raise KeyError("boom")
        rec = tr.recorder.events()[-1]
        assert rec["attrs"]["error"] == "KeyError"

    def test_complete_is_epoch_relative(self):
        tr = Tracer()
        t0 = tr.epoch + 0.5
        tr.complete("lock_wait", t0, 0.25, "lock", {"mode": "read"})
        rec = tr.recorder.events()[-1]
        assert rec["ts"] == pytest.approx(0.5)
        assert rec["dur"] == pytest.approx(0.25)

    def test_ids_are_unique_across_threads(self):
        tr = Tracer()
        ids = []
        barrier = threading.Barrier(4)  # overlap, so idents aren't reused

        def worker():
            barrier.wait()
            for _ in range(200):
                s = tr.start("op")
                tr.end(s)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        ids = [r["id"] for r in tr.recorder.events()]
        assert len(ids) == len(set(ids)) == 800
        tids = {r["tid"] for r in tr.recorder.events()}
        assert len(tids) == 4


class TestFlightRecorder:
    def test_ring_bounds_and_dropped(self):
        rec = FlightRecorder(capacity=10)
        for i in range(25):
            rec.record({"i": i})
        assert len(rec) == 10
        assert rec.recorded == 25
        assert rec.dropped == 15
        assert [r["i"] for r in rec.events()] == list(range(15, 25))

    def test_unbounded_keeps_everything(self):
        rec = FlightRecorder(capacity=None)
        for i in range(5000):
            rec.record({"i": i})
        assert len(rec) == 5000 and rec.dropped == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_dump_and_clear(self, tmp_path):
        rec = FlightRecorder(capacity=4)
        for i in range(6):
            rec.record({"i": i, "blob": b"\xff\x00"})
        path = rec.dump(tmp_path / "d.json", reason="test")
        payload = json.loads(open(path).read())
        assert payload["reason"] == "test"
        assert payload["recorded"] == 6 and payload["dropped"] == 2
        assert len(payload["events"]) == 4
        rec.clear()
        assert len(rec) == 0 and rec.recorded == 0

    def test_dump_without_path_raises(self):
        with pytest.raises(ValueError):
            FlightRecorder().dump()

    def test_auto_dump_fires_once(self, tmp_path):
        rec = FlightRecorder()
        rec.record({"i": 1})
        assert rec.auto_dump("crash") is None  # no path configured: no-op
        rec.dump_path = str(tmp_path / "auto.json")
        first = rec.auto_dump("crash")
        assert first is not None
        rec.record({"i": 2})
        assert rec.auto_dump("later") is None  # second call is a no-op
        payload = json.loads(open(first).read())
        assert payload["reason"] == "crash"
        assert len(payload["events"]) == 1


class TestEngineTracing:
    def _chained_table(self):
        # A constant hash puts every key in bucket 0: the bucket grows an
        # overflow chain, so a get of the last key walks every hop.
        t = HashTable.create(
            None, in_memory=True, bsize=64, ffactor=100, hashfn=lambda k: 0
        )
        for i in range(12):
            t.put(f"k{i}".encode(), b"v" * 8)
        return t

    def test_get_span_with_buffer_and_hop_children(self):
        t = self._chained_table()
        try:
            t.enable_tracing()
            assert t.get(b"k11") == b"v" * 8
            recs = t.flight_recorder.events()
            roots = [r for r in recs if r["type"] == "span" and r["parent"] is None]
            assert [r["name"] for r in roots] == ["get"]
            root_id = roots[0]["id"]
            children = [r for r in recs if r["parent"] == root_id]
            assert any(r["name"].startswith("buffer_") for r in children)
            hops = [r for r in children if r["name"] == "overflow_hop"]
            assert hops, "a chained get must record its overflow hops"
            assert [h["attrs"]["depth"] for h in hops] == list(
                range(1, len(hops) + 1)
            )
            # the Chrome rendering of the same records is structurally valid
            chrome = to_chrome_trace(recs)
            json.dumps(chrome)  # round-trippable
            for ev in chrome:
                assert {"ph", "ts", "pid", "tid", "name", "args"} <= ev.keys()
                assert ev["ph"] in ("X", "i")
                if ev["ph"] == "X":
                    assert ev["dur"] >= 0.0
        finally:
            t.close()

    # The access methods through repro.open: hash batches are native (one
    # aggregate span each), btree/recno batches loop over single ops.
    _SINGLE = ["put", "get", "delete"]
    _LOOPED = ["put", "put", "get", "get", "delete"]
    _TAIL = ["cursor_first", "cursor_next", "sync", "compact"]
    ROOTS = {
        "hash": ["bulk_load"] + _SINGLE
        + ["put_many", "get_many", "delete_many"] + _TAIL,
        "btree": _SINGLE + _LOOPED + _TAIL,
        "recno": _SINGLE + _LOOPED + _TAIL,
        "dbm": ["put", "get", "delete", "sync"],
        "sdbm": ["put", "get", "delete", "sync"],
        "gdbm": ["put", "get", "delete", "sync"],
    }
    BASELINES = {"dbm": DbmFile, "sdbm": Sdbm, "gdbm": Gdbm}

    @classmethod
    def _run_ops(cls, kind, path, traced):
        """Open a fresh ``kind`` database, drive every public op once and
        return the names of the root spans it recorded."""
        if kind in cls.BASELINES:
            db = cls.BASELINES[kind](path, "n")
        else:
            db = repro.open(path, "n", type=kind)
        try:
            if traced:
                db.enable_tracing()
            if kind in cls.BASELINES:
                db.store(b"a", b"1")
                db.fetch(b"a")
                db.delete(b"a")
                db.sync()
            else:
                if kind == "recno":
                    k1, k2 = b"\0" * 7 + b"\1", b"\0" * 7 + b"\2"
                else:
                    k1, k2 = b"a", b"b"
                if kind == "hash":
                    db.bulk_load([(k2, b"2")])
                db.put(k1, b"1")
                db.get(k1)
                db.delete(k1)
                db.put_many([(k1, b"1"), (k2, b"2")])
                db.get_many([k1, k2])
                db.delete_many([k2])
                c = db.cursor()
                c.first()
                c.next()
                db.sync()
                db.compact()
            return [
                r["name"]
                for r in db.flight_recorder.events()
                if r["type"] == "span" and r["parent"] is None
            ]
        finally:
            db.close()

    @pytest.mark.parametrize("kind", list(ROOTS))
    def test_every_public_op_opens_a_root_span(self, kind, tmp_path):
        assert self._run_ops(kind, tmp_path / "off", traced=False) == []
        assert self._run_ops(kind, tmp_path / "on", traced=True) == self.ROOTS[kind]

    def test_tracing_at_open_records_open_span(self, tmp_path):
        t = HashTable.create(tmp_path / "t.db", tracing=True)
        try:
            t.put(b"a", b"1")
            recs = t.flight_recorder.events()
            assert recs[0]["name"] == "open"
            assert recs[0]["ts"] == 0.0
            assert recs[0]["attrs"]["how"] == "create"
        finally:
            t.close()

    def test_disable_tracing_unsubscribes(self):
        t = HashTable.create(None, in_memory=True)
        try:
            t.enable_tracing()
            assert any(getattr(t.hooks, e) for e in t.hooks.EVENTS)
            old = t.flight_recorder
            t.put(b"a", b"1")
            assert len(old) > 0
            t.disable_tracing()
            assert not any(getattr(t.hooks, e) for e in t.hooks.EVENTS)
            before = len(old)
            t.put(b"b", b"2")
            assert len(old) == before  # old recorder no longer fed
            assert not t.tracer.enabled
        finally:
            t.close()

    def test_enable_tracing_is_idempotent(self):
        t = HashTable.create(None, in_memory=True)
        try:
            tr = t.enable_tracing()
            assert t.enable_tracing() is tr
            n_subs = sum(len(getattr(t.hooks, e)) for e in t.hooks.EVENTS)
            t.enable_tracing()
            assert sum(len(getattr(t.hooks, e)) for e in t.hooks.EVENTS) == n_subs
        finally:
            t.close()

    def test_lock_wait_child_under_contention(self):
        t = HashTable.create(None, in_memory=True, concurrent=True)
        try:
            t.enable_tracing()
            done = threading.Event()

            def reader():
                t.get(b"x")
                done.set()

            with t._wr:
                th = threading.Thread(target=reader)
                th.start()
                # let the reader reach the blocked acquire
                import time

                time.sleep(0.08)
            th.join()
            assert done.is_set()
            recs = t.flight_recorder.events()
            waits = [r for r in recs if r["name"] == "lock_wait"]
            assert waits, "a blocked reader must record a lock_wait span"
            wait = waits[-1]
            assert wait["attrs"]["mode"] == "read"
            get_span = next(r for r in recs if r["name"] == "get")
            assert wait["parent"] == get_span["id"]
            assert wait["dur"] > 0.0
        finally:
            t.close()


class TestOpGate:
    """Every public op runs through ``TraceSupport._op``: tracing on or
    off, a failing op counts in its latency histogram, and a failing batch
    op marks its span and dumps the flight recorder like a single op."""

    @staticmethod
    def _readonly(path):
        if not path.exists():
            HashTable.create(path).close()
        return HashTable.open_file(path, readonly=True)

    def test_failing_puts_count_the_same_traced_and_untraced(self, tmp_path):
        counts = []
        for traced in (False, True):
            t = self._readonly(tmp_path / "ro.db")
            try:
                if traced:
                    t.enable_tracing()
                for _ in range(3):
                    with pytest.raises(ReadOnlyError):
                        t.put(b"k", b"v")
                counts.append(t.stat()["ops"]["latency"]["put"]["count"])
            finally:
                t.close()
        assert counts == [3, 3]

    def test_failing_put_many_marks_span_and_dumps(self, tmp_path):
        t = self._readonly(tmp_path / "ro.db")
        try:
            t.enable_tracing()
            with pytest.raises(ReadOnlyError):
                t.put_many([(b"k", b"v")])
            spans = [
                r for r in t.flight_recorder.events()
                if r["type"] == "span" and r["name"] == "put_many"
            ]
            assert [s["attrs"] for s in spans] == [
                {"n": 1, "groups": 1, "error": "ReadOnlyError"}
            ]
            assert t.flight_recorder.auto_dumped == "exception:ReadOnlyError"
            assert (tmp_path / "ro.db.flight.json").exists()
        finally:
            t.close()

    @pytest.mark.parametrize("kind", ["hash", "btree"])
    def test_failing_compact_marks_span_and_dumps(self, kind, tmp_path):
        db = repro.open(tmp_path / "c.db", "n", type=kind)
        engine = db.table if kind == "hash" else db
        try:
            db.put(b"a", b"1")
            db.enable_tracing()

            def boom():
                raise OSError("disk full")

            engine._compact_impl = boom
            with pytest.raises(OSError):
                db.compact()
            spans = [
                r for r in db.flight_recorder.events()
                if r["type"] == "span" and r["name"] == "compact"
            ]
            assert [s["attrs"] for s in spans] == [{"error": "OSError"}]
            assert db.flight_recorder.auto_dumped == "exception:OSError"
        finally:
            del engine._compact_impl
            db.close()


class TestCrashFlightDump:
    def test_crash_during_write_sweep_leaves_dump(self, tmp_path):
        path = tmp_path / "crash.db"
        t = HashTable.create(
            path,
            cachesize=0,
            tracing=True,
            file_wrapper=lambda inner: FaultyPager(inner, fail_after=40, mode="crash"),
        )
        issued = []
        with pytest.raises(CrashPoint):
            for i in range(10_000):
                issued.append(f"k{i}".encode())
                t.put(issued[-1], b"v" * 64)
        dump_file = str(path) + ".flight.json"
        payload = json.loads(open(dump_file).read())
        assert payload["reason"] == "exception:CrashPoint"
        events = payload["events"]
        # the tail of the dump matches the ops actually issued: every root
        # span is one of our puts (plus the open backfill), in issue order
        put_spans = [
            e for e in events
            if e["type"] == "span" and e["parent"] is None and e["name"] == "put"
        ]
        assert put_spans, "the dump must contain the failing sweep"
        assert put_spans == sorted(put_spans, key=lambda e: e["ts"])
        assert len(put_spans) <= len(issued)
        # the last span is the put the fault killed, marked and preceded by
        # the injection event
        last = put_spans[-1]
        assert last["attrs"]["error"] == "CrashPoint"
        names = [e["name"] for e in events]
        assert "fault_injected" in names
        assert names.index("fault_injected") < len(names) - 1

    def test_check_failure_auto_dumps(self, tmp_path):
        import struct

        from repro.core.check import verify_table

        path = tmp_path / "c.db"
        t = HashTable.create(path)
        t.put(b"a", b"1")
        t.close()
        # lie about nkeys in the header (offset 44, same as the verifier's
        # own corruption tests), then check under tracing
        with open(path, "r+b") as fh:
            fh.seek(44)
            fh.write(struct.pack(">Q", 9999))
        t = HashTable.open_file(path, tracing=True)
        try:
            report = verify_table(t)
            assert not report.ok
            assert t.flight_recorder.auto_dumped == "check_failure"
            assert (tmp_path / "c.db.flight.json").exists()
        finally:
            t.close()
