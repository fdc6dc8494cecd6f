"""`ShardedTable`: N single-writer worker processes behind one handle.

BENCH_concurrency.json is the motivation: 4 threads deliver *less* than
one (the GIL serializes every byte of real work, and the rwlock adds 27%
on top).  The escape is processes.  Linear hashing partitions its
keyspace on the low hash bits -- the split-order address -- so a sharded
table routes ``hash(key) & (nshards - 1)`` to one of N worker processes,
each owning a private table file with its own buffer pool, freelist and
write-ahead log.  No page, lock or log is ever shared across processes:
every shard has exactly one writer, which is also the scale-out story (N
shards on one box today is N nodes tomorrow).

The router (this class) lives in the parent and speaks the db(3) +
batch + cursor API of :class:`~repro.access.api.AccessMethod`:

- **batches fan out**: ``put_many``/``get_many``/``delete_many`` hash
  every key up front, split the batch into per-shard runs (the same
  run-splitting shape as :mod:`repro.serve.batching`), dispatch them to
  all touched workers before collecting any reply -- so shards execute
  concurrently -- and reassemble results in input order;
- **cursors walk shards sequentially** in chunks, with the worker-side
  cursors' existing snapshot checks (a concurrent split inside a shard
  raises :class:`~repro.core.errors.ConcurrentModificationError` through
  the pipe, exactly as it would in-process);
- **stat() aggregates**: per-shard metric trees merge through
  :func:`repro.obs.merge.merge_stat_trees` into one tree, plus a
  ``sharding`` section with per-shard occupancy and respawn counts;
- **traces cross the process boundary**: with tracing enabled, each
  dispatch opens a router span, workers return their span records in
  the reply, and the router grafts them (ids remapped, timestamps
  rebased onto the router's clock) under the dispatching span -- one
  trace from router to per-shard ``wal_fsync``;
- **worker death is a typed, recoverable error**: a dead worker is
  respawned immediately -- reopening a shard file replays its WAL -- and
  the interrupted call raises :class:`~repro.core.errors.ShardError`.
  Acknowledged writes are committed to the shard's log before the reply
  is sent, so none are lost.

Transactions span all shards but commit per shard: ``begin``/``commit``
broadcast, giving ack-follows-commit semantics on every shard, but a
crash between two shard commits is not atomic across the table (there is
no cross-shard two-phase commit; see docs/SHARDING.md).
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading

from repro.access.api import DB_HASH, AccessMethod, Cursor, _to_bytes
from repro.core import errors as _errors
from repro.core.errors import (
    InvalidParameterError,
    ShardError,
    TransactionError,
)
from repro.core.hashfuncs import HASH_FUNCTIONS
from repro.obs.merge import merge_stat_trees
from repro.obs.registry import Registry
from repro.obs.trace import FlightRecorder, Tracer
from repro.shard.manifest import MAX_SHARDS, ShardManifest, shard_bits_of
from repro.shard.worker import worker_main

__all__ = ["ShardedTable", "ShardedCursor"]

#: pairs fetched per scan round-trip
SCAN_CHUNK = 512

#: create-time HashTable parameters a worker accepts (all picklable)
_CREATE_KEYS = (
    "bsize", "ffactor", "cachesize", "split_policy", "buffer_policy",
    "observability", "durability", "wal_checkpoint_bytes", "wal_audit",
    "min_fill",
)

#: open-time HashTable parameters a worker accepts
_OPEN_KEYS = (
    "cachesize", "readonly", "observability", "durability",
    "wal_checkpoint_bytes", "wal_audit", "min_fill",
)

#: builtin exception types a worker may relay by name
_BUILTIN_ERRORS = {
    "KeyError": KeyError,
    "ValueError": ValueError,
    "TypeError": TypeError,
    "OSError": OSError,
    "RuntimeError": RuntimeError,
    "NotImplementedError": NotImplementedError,
}


def _resolve_error(type_name: str, message: str, shard: int) -> Exception:
    """Rebuild a worker-relayed exception as its package type when known,
    else as a :class:`ShardError` carrying the original name."""
    cls = getattr(_errors, type_name, None)
    if isinstance(cls, type) and issubclass(cls, Exception):
        return cls(message)
    cls = _BUILTIN_ERRORS.get(type_name)
    if cls is not None:
        return cls(message)
    return ShardError(f"shard {shard}: {type_name}: {message}", shard=shard)


class _Shard:
    """Router-side state of one worker: process, pipe, pipe mutex."""

    __slots__ = ("index", "path", "proc", "conn", "lock", "trace_epoch",
                 "respawns")

    def __init__(self, index: int, path: str) -> None:
        self.index = index
        self.path = path
        self.proc = None
        self.conn = None
        self.lock = threading.Lock()
        #: the worker tracer's perf_counter origin (set when tracing is on)
        self.trace_epoch: float | None = None
        self.respawns = 0


class ShardedCursor(Cursor):
    """Forward-only scan over every shard, one shard at a time.

    Order is shard 0's pairs (in its bucket order), then shard 1's, ...
    -- unordered, like any hash scan.  Worker-side cursors keep the
    engine's snapshot semantics: a structural change inside a shard
    during the scan raises ``ConcurrentModificationError`` and the scan
    restarts with :meth:`first`.
    """

    _ids = itertools.count(1)

    def __init__(self, table: "ShardedTable") -> None:
        self._table = table
        self._id = next(self._ids)
        self._shard = 0
        self._buffer: list = []
        self._pos = 0
        self._shard_done = True  # not positioned yet
        self._done = False
        self._started = False

    def first(self):
        self._shard = 0
        self._buffer = []
        self._pos = 0
        self._shard_done = True
        self._done = False
        self._started = True
        return self.next()

    def next(self):
        if not self._started:
            return self.first()
        if self._done:
            return None
        while True:
            if self._pos < len(self._buffer):
                pair = self._buffer[self._pos]
                self._pos += 1
                return pair
            if not self._shard_done:
                pairs, done = self._table._call(
                    self._shard, "scan_next", (self._id, SCAN_CHUNK)
                )
            else:
                if self._shard >= self._table.nshards:
                    self._done = True
                    return None
                pairs, done = self._table._call(
                    self._shard, "scan_start", (self._id, SCAN_CHUNK)
                )
            self._buffer, self._pos, self._shard_done = pairs, 0, done
            if done:
                self._shard += 1

    def _unsupported(self):
        raise ValueError(
            "the hash access method supports only R_FIRST/R_NEXT "
            "(4.4BSD hash had no ordered or backward scans)"
        )

    def last(self):
        self._unsupported()

    def prev(self):
        self._unsupported()

    def seek(self, key: bytes):
        self._unsupported()

    def close(self) -> None:
        if not self._done and not self._shard_done:
            try:
                self._table._call(self._shard, "scan_close", (self._id,))
            except ShardError:
                pass  # the respawned worker has no cursors to release
        self._done = True


class ShardedTable(AccessMethod):
    """The multi-process hash table (see module docstring)."""

    type = DB_HASH

    def __init__(
        self,
        manifest: ShardManifest,
        *,
        create: bool = False,
        create_kwargs: dict | None = None,
        open_kwargs: dict | None = None,
        nelem: int = 1,
    ) -> None:
        self.manifest = manifest
        self.nshards = manifest.nshards
        self._mask = manifest.nshards - 1
        self._bits = manifest.shard_bits
        self._fn = HASH_FUNCTIONS[manifest.hashfn]
        self._open_kwargs = dict(open_kwargs or {})
        self._durability = (create_kwargs or self._open_kwargs).get(
            "durability", "none"
        )
        self._readonly = bool(self._open_kwargs.get("readonly", False))
        self._closed = False
        self._in_txn = False
        self._tracing = False
        self.tracer = Tracer(enabled=False)
        self.registry = Registry("sharded").make_threadsafe()
        self._c_dispatches = self.registry.counter("dispatches")
        self._c_respawns = self.registry.counter("respawns")
        self._h_fanout = self.registry.histogram("fanout", unit="shards")
        self._ctx = multiprocessing.get_context()
        self._shards = [
            _Shard(i, manifest.shard_path(i)) for i in range(self.nshards)
        ]
        per_shard_nelem = max(1, -(-nelem // self.nshards))
        for shard in self._shards:
            kwargs = dict(create_kwargs or {})
            if create:
                kwargs["nelem"] = per_shard_nelem
            self._spawn(shard, create=create, open_kwargs=(
                kwargs if create else dict(self._open_kwargs)
            ))

    # -- construction ------------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str | os.PathLike,
        *,
        shards: int,
        hashfn: str | None = None,
        nelem: int = 1,
        **params,
    ) -> "ShardedTable":
        """Create a sharded table: a manifest at ``path`` plus ``shards``
        worker-owned table files next to it.

        ``shards`` must be a power of two in [1, 256] and is recorded in
        the manifest -- reopening with a different count raises
        :class:`ShardError` rather than silently misrouting every key.
        ``hashfn`` must be a *named* function (the manifest must be able
        to record it); ``nelem`` presizes each shard at nelem/shards.
        Other ``params`` forward to every shard's
        :meth:`~repro.core.table.HashTable.create`.
        """
        cls._reject_unshardable(params)
        if hashfn is not None and not isinstance(hashfn, str):
            raise InvalidParameterError(
                "sharded tables need a *named* hash function (the manifest "
                "records the name for reopen); pass one of "
                f"{sorted(HASH_FUNCTIONS)}"
            )
        if hashfn is not None and hashfn not in HASH_FUNCTIONS:
            raise KeyError(
                f"unknown hash function {hashfn!r}; provided functions: "
                f"{sorted(HASH_FUNCTIONS)}"
            )
        tracing = params.pop("tracing", False)
        create_kwargs = {k: params[k] for k in _CREATE_KEYS if k in params}
        leftover = set(params) - set(create_kwargs) - {"concurrent"}
        if leftover:
            raise InvalidParameterError(
                f"parameters not supported by sharded tables: {sorted(leftover)}"
            )
        manifest = ShardManifest(os.fspath(path), shards, hashfn or "default")
        manifest.write()
        open_kwargs = {
            k: create_kwargs[k] for k in _OPEN_KEYS if k in create_kwargs
        }
        table = cls(
            manifest,
            create=True,
            create_kwargs=create_kwargs,
            open_kwargs=open_kwargs,
            nelem=nelem,
        )
        if tracing:
            table.enable_tracing()
        return table

    @classmethod
    def open_file(
        cls,
        path: str | os.PathLike,
        *,
        shards: int | None = None,
        hashfn: str | None = None,
        readonly: bool = False,
        **params,
    ) -> "ShardedTable":
        """Open an existing sharded table from its manifest.

        ``shards`` is optional -- the manifest knows -- but when given it
        must match the recorded count (``ShardError`` otherwise: the
        routing function is part of the on-disk format).  Reopening a
        shard file whose WAL holds committed-but-unapplied transactions
        replays them in the worker before it serves (crash recovery is
        per shard, exactly as for a single table).
        """
        cls._reject_unshardable(params)
        manifest = ShardManifest.read(path)
        if shards is not None and shards != manifest.nshards:
            raise ShardError(
                f"{os.fspath(path)} was created with {manifest.nshards} "
                f"shard(s); reopening with shards={shards} would misroute "
                "every key (the shard count is part of the on-disk format)"
            )
        if hashfn is not None and hashfn != manifest.hashfn:
            raise ShardError(
                f"{os.fspath(path)} was created with hashfn="
                f"{manifest.hashfn!r}, not {hashfn!r}"
            )
        tracing = params.pop("tracing", False)
        open_kwargs = {k: params[k] for k in _OPEN_KEYS if k in params}
        open_kwargs["readonly"] = readonly
        leftover = set(params) - set(open_kwargs) - {"concurrent"}
        if leftover:
            raise InvalidParameterError(
                f"parameters not supported by sharded tables: {sorted(leftover)}"
            )
        table = cls(manifest, create=False, open_kwargs=open_kwargs)
        if tracing:
            table.enable_tracing()
        return table

    @staticmethod
    def _reject_unshardable(params: dict) -> None:
        for key in ("in_memory", "file_wrapper", "wal_wrapper"):
            if params.get(key):
                raise InvalidParameterError(
                    f"{key} is not supported by sharded tables (workers own "
                    "their files in separate processes)"
                )
            params.pop(key, None)

    # -- worker lifecycle --------------------------------------------------------

    def _spawn(self, shard: _Shard, *, create: bool, open_kwargs: dict) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=worker_main,
            args=(
                child_conn,
                shard.index,
                self._bits,
                self.manifest.hashfn,
                shard.path,
                create,
                open_kwargs,
            ),
            name=f"repro-shard-{shard.index}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        try:
            status, value = parent_conn.recv()
        except (EOFError, OSError):
            proc.join(timeout=5)
            raise ShardError(
                f"shard {shard.index} worker died during startup",
                shard=shard.index,
            ) from None
        if status != "ready":
            proc.join(timeout=5)
            type_name, message = value
            raise _resolve_error(type_name, message, shard.index)
        shard.proc, shard.conn = proc, parent_conn

    def _respawn(self, shard: _Shard) -> None:
        """Bring a dead worker back: reopen its file (WAL replay happens
        in :meth:`HashTable.open_file`) and rewire tracing."""
        try:
            shard.conn.close()
        except OSError:
            pass
        if shard.proc is not None:
            shard.proc.join(timeout=5)
        kwargs = dict(self._open_kwargs)
        kwargs.setdefault("readonly", self._readonly)
        self._spawn(shard, create=False, open_kwargs=kwargs)
        shard.respawns += 1
        self._c_respawns.inc()
        if self._tracing:
            # _respawn runs inside the caller's `with shard.lock` (we got
            # here from a failed _send/_recv), so do NOT re-take it: the
            # pipe is fresh and only this thread knows about it yet
            self._enable_worker_tracing(shard)

    def _dead(self, shard: _Shard, cmd: str) -> ShardError:
        """A worker died mid-call: respawn it, return the typed error the
        interrupted call must raise.  The respawned worker replayed its
        WAL, so committed writes -- everything already acknowledged to the
        caller -- are intact; only the interrupted call is in doubt."""
        self._respawn(shard)
        return ShardError(
            f"shard {shard.index} worker died during {cmd!r} and was "
            "respawned after WAL replay; the interrupted operation may or "
            "may not have committed",
            shard=shard.index,
        )

    # -- dispatch ----------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise _errors.ClosedError("operation on closed ShardedTable")

    def _send(self, shard: _Shard, cmd: str, args: tuple) -> None:
        try:
            shard.conn.send((cmd, args))
        except (BrokenPipeError, OSError):
            raise self._dead(shard, cmd) from None

    def _recv(self, shard: _Shard, cmd: str, span=None):
        try:
            reply = shard.conn.recv()
        except (EOFError, OSError):
            raise self._dead(shard, cmd) from None
        status, value, records = reply
        if records:
            self._graft_records(shard, records, span)
        if status == "err":
            raise _resolve_error(value[0], value[1], shard.index)
        return value

    def _call(self, index: int, cmd: str, args: tuple = (), span=None):
        """One command on one shard: send, await, remap errors."""
        self._check_open()
        shard = self._shards[index]
        self._c_dispatches.inc()
        with shard.lock:
            self._send(shard, cmd, args)
            return self._recv(shard, cmd, span)

    def _call_many(self, calls: list[tuple[int, str, tuple]], span=None) -> dict:
        """Dispatch to several shards concurrently: send every request
        before collecting any reply, so workers overlap.  Locks are taken
        in shard order (no deadlock against other threads doing the
        same); a dead worker is respawned and the first failure re-raised
        after every shard has answered (no pipe is left desynced)."""
        self._check_open()
        calls = sorted(calls, key=lambda c: c[0])
        shards = [self._shards[i] for i, _, _ in calls]
        self._c_dispatches.inc(len(calls))
        self._h_fanout.observe(len(calls))
        acquired = []
        results: dict = {}
        first_error: Exception | None = None
        try:
            for shard in shards:
                shard.lock.acquire()
                acquired.append(shard)
            sent = []
            for shard, (_, cmd, args) in zip(shards, calls):
                try:
                    self._send(shard, cmd, args)
                    sent.append((shard, cmd))
                except ShardError as exc:
                    if first_error is None:
                        first_error = exc
            for shard, cmd in sent:
                try:
                    results[shard.index] = self._recv(shard, cmd, span)
                except Exception as exc:  # noqa: BLE001 - re-raised below
                    if first_error is None:
                        first_error = exc
        finally:
            for shard in acquired:
                shard.lock.release()
        if first_error is not None:
            raise first_error
        return results

    def _broadcast(self, cmd: str, args: tuple = (), span=None) -> dict:
        return self._call_many(
            [(i, cmd, args) for i in range(self.nshards)], span
        )

    # -- routing -----------------------------------------------------------------

    def shard_of(self, key) -> int:
        """The shard index ``key`` routes to: the low ``shard_bits`` of
        the table's named hash -- a pure function of (key, manifest), so
        the assignment is stable across splits, contractions, compaction
        and reopen."""
        return self._fn(_to_bytes(key)) & self._mask

    def _split_keys(self, keys: list) -> dict[int, list[int]]:
        """key positions grouped by shard, preserving input order."""
        groups: dict[int, list[int]] = {}
        fn, mask = self._fn, self._mask
        for pos, key in enumerate(keys):
            groups.setdefault(fn(key) & mask, []).append(pos)
        return groups

    # -- tracing -----------------------------------------------------------------

    def enable_tracing(
        self,
        *,
        ring_capacity: int | None = FlightRecorder.DEFAULT_CAPACITY,
        dump_path: str | os.PathLike | None = None,
    ) -> Tracer:
        """Span tracing across the process boundary: router ops open
        ``shard.<op>`` spans, and every worker's engine spans are grafted
        under the dispatching span with rebased timestamps.  Idempotent."""
        if self.tracer.enabled:
            return self.tracer
        recorder = FlightRecorder(capacity=ring_capacity).make_threadsafe()
        if dump_path is None:
            dump_path = self.manifest.path + ".flight.json"
        recorder.dump_path = os.fspath(dump_path)
        self.tracer = Tracer(enabled=True, recorder=recorder)
        self._tracing = True
        for shard in self._shards:
            with shard.lock:
                self._enable_worker_tracing(shard)
        return self.tracer

    def _enable_worker_tracing(self, shard: _Shard) -> None:
        """Turn tracing on in one worker and record its tracer epoch.
        Caller must hold ``shard.lock`` (or be mid-respawn, where the
        lock is already held by the failing call)."""
        self._send(shard, "enable_tracing", ())
        shard.trace_epoch = self._recv(shard, "enable_tracing")

    def disable_tracing(self) -> None:
        self._tracing = False
        self.tracer = Tracer(enabled=False)
        if not self._closed:
            for shard in self._shards:
                try:
                    self._call(shard.index, "disable_tracing", ())
                except ShardError:
                    pass  # respawned workers come back with tracing off

    @property
    def flight_recorder(self) -> FlightRecorder:
        return self.tracer.recorder

    def _graft_records(self, shard: _Shard, records: list[dict], span) -> None:
        """Merge one worker's drained trace records into the router's
        recorder: fresh ids (the worker numbers its own), parents of the
        worker's root spans rewired to the dispatching router span, and
        timestamps rebased from the worker's tracer epoch to the
        router's (``perf_counter`` is system-wide monotonic)."""
        tracer = self.tracer
        if not tracer.enabled:
            return
        delta = (shard.trace_epoch or 0.0) - tracer.epoch
        idmap = {rec["id"]: tracer._alloc_id() for rec in records}
        parent_id = span.id if span is not None else None
        tid_base = (shard.index + 1) * 1000
        for rec in records:
            new = dict(rec)
            new["id"] = idmap[rec["id"]]
            par = rec.get("parent")
            new["parent"] = idmap[par] if par in idmap else parent_id
            new["ts"] = rec["ts"] + delta
            new["tid"] = tid_base + rec.get("tid", 0)
            if rec.get("links"):
                new["links"] = [idmap[x] for x in rec["links"] if x in idmap]
            attrs = dict(new.get("attrs") or {})
            attrs.setdefault("shard", shard.index)
            new["attrs"] = attrs
            tracer.recorder.record(new)

    def _routed(self, name: str, attrs: dict | None, dispatch, *args):
        """Run ``dispatch(*args)`` (:meth:`_call`, :meth:`_call_many` or
        :meth:`_broadcast`) as one router op.  With tracing on it runs
        inside a ``shard.<name>`` span handed down as ``span=`` so worker
        records graft under it; a raising dispatch marks the span
        ``error`` and auto-dumps the router's recorder once -- the
        router's side of the engines' op gate, minus lock and histogram
        (the router has neither)."""
        tracer = self.tracer
        if not tracer.enabled:
            return dispatch(*args)
        span = tracer.start("shard." + name, "router", attrs)
        try:
            result = dispatch(*args, span=span)
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            tracer.end(span)
            tracer.recorder.auto_dump(f"exception:{type(exc).__name__}")
            raise
        tracer.end(span)
        return result

    # -- db(3) single ops --------------------------------------------------------

    def get(self, key: bytes) -> bytes | None:
        key = _to_bytes(key)
        return self._routed("get", None, self._call, self.shard_of(key), "get", (key,))

    def _put(self, key: bytes, data: bytes, replace: bool) -> int:
        self._check_writable()
        stored = self._routed(
            "put", None, self._call, self.shard_of(key), "put",
            (key, data, replace, self._implicit_txn()),
        )
        return 0 if stored else 1

    def delete(self, key: bytes) -> int:
        key = _to_bytes(key)
        self._check_writable()
        found = self._routed(
            "delete", None, self._call, self.shard_of(key), "delete",
            (key, self._implicit_txn()),
        )
        return 0 if found else 1

    def _check_writable(self) -> None:
        self._check_open()
        if self._readonly:
            raise _errors.ReadOnlyError("table is read-only")

    # -- batch ops: hash up front, fan out, reassemble in order ------------------

    def put_many(self, items, *, replace: bool = True) -> int:
        self._check_writable()
        pairs = [(_to_bytes(k), _to_bytes(v)) for k, v in items]
        if not pairs:
            return 0
        groups = self._split_keys([k for k, _ in pairs])
        txn = self._implicit_txn()
        calls = [
            (idx, "put_many", ([pairs[p] for p in positions], replace, txn))
            for idx, positions in groups.items()
        ]
        attrs = {"ops": len(pairs), "shards": len(groups)}
        return sum(self._routed("put_many", attrs, self._call_many, calls).values())

    def get_many(self, keys, default: bytes | None = None) -> list:
        self._check_open()
        keys = [_to_bytes(k) for k in keys]
        if not keys:
            return []
        groups = self._split_keys(keys)
        calls = [
            (idx, "get_many", ([keys[p] for p in positions], default))
            for idx, positions in groups.items()
        ]
        attrs = {"ops": len(keys), "shards": len(groups)}
        results = self._routed("get_many", attrs, self._call_many, calls)
        out = [default] * len(keys)
        for idx, positions in groups.items():
            for pos, value in zip(positions, results[idx]):
                out[pos] = value
        return out

    def delete_many(self, keys) -> int:
        self._check_writable()
        keys = [_to_bytes(k) for k in keys]
        if not keys:
            return 0
        groups = self._split_keys(keys)
        txn = self._implicit_txn()
        calls = [
            (idx, "delete_many", ([keys[p] for p in positions], txn))
            for idx, positions in groups.items()
        ]
        attrs = {"ops": len(keys), "shards": len(groups)}
        return sum(self._routed("delete_many", attrs, self._call_many, calls).values())

    def bulk_load(self, items, *, nelem: int | None = None) -> int:
        """Presized, zero-split load fanned out to every shard (each
        worker runs the native single-pass loader on its sub-list)."""
        self._check_writable()
        pairs = [(_to_bytes(k), _to_bytes(v)) for k, v in items]
        groups = self._split_keys([k for k, _ in pairs])
        per_shard = (
            max(1, -(-nelem // self.nshards)) if nelem is not None else None
        )
        calls = [
            (idx, "bulk_load", ([pairs[p] for p in positions], per_shard))
            for idx, positions in groups.items()
        ]
        attrs = {"ops": len(pairs)}
        return sum(self._routed("bulk_load", attrs, self._call_many, calls).values())

    def _implicit_txn(self) -> bool:
        """Should a worker wrap this batch in its own transaction?  Yes
        on WAL-backed shards outside an explicit transaction: the reply
        then means *committed*, which is what the serving layer acks."""
        return (
            self._durability in ("wal", "wal+fsync") and not self._in_txn
        )

    # -- transactions: broadcast, per-shard commit -------------------------------

    def begin(self) -> None:
        """Open a transaction on every shard.  Commit/abort broadcast
        too; each shard's sub-transaction is atomic, but there is no
        cross-shard two-phase commit -- a crash between shard commits can
        apply the transaction on some shards only (docs/SHARDING.md)."""
        self._check_open()
        if self._durability not in ("wal", "wal+fsync"):
            raise TransactionError(
                "the sharded handle was opened without durability=; "
                "transactions require durability='wal' or 'wal+fsync'"
            )
        if self._in_txn:
            raise TransactionError("a transaction is already open")
        self._broadcast("begin")
        self._in_txn = True

    def commit(self) -> None:
        self._check_open()
        if not self._in_txn:
            raise TransactionError("no transaction is open")
        try:
            self._broadcast("commit")
        finally:
            self._in_txn = False

    def abort(self) -> None:
        self._check_open()
        if not self._in_txn:
            raise TransactionError("no transaction is open")
        try:
            self._broadcast("abort")
        finally:
            self._in_txn = False

    def checkpoint(self) -> int:
        self._check_open()
        if self._in_txn:
            raise TransactionError("checkpoint() inside an open transaction")
        return sum(self._broadcast("checkpoint").values())

    @property
    def in_transaction(self) -> bool:
        return self._in_txn

    @property
    def durability(self) -> str:
        return self._durability

    # -- scans -------------------------------------------------------------------

    def cursor(self) -> ShardedCursor:
        self._check_open()
        return ShardedCursor(self)

    # -- maintenance -------------------------------------------------------------

    def sync(self) -> None:
        self._check_open()
        self._broadcast("sync")

    def compact(self) -> dict:
        """Compact every shard (each worker runs the online rebuild on
        its own file); returns the summed report."""
        self._check_open()
        if self._in_txn:
            raise TransactionError("compact() inside an open transaction")
        reports = self._routed("compact", None, self._broadcast, "compact")
        merged = {
            "before": {"pages": 0, "bytes": 0},
            "after": {"pages": 0, "bytes": 0},
            "pages_reclaimed": 0,
            "nkeys": 0,
        }
        for rep in reports.values():
            for side in ("before", "after"):
                merged[side]["pages"] += rep[side]["pages"]
                merged[side]["bytes"] += rep[side]["bytes"]
            merged["pages_reclaimed"] += rep["pages_reclaimed"]
            merged["nkeys"] += rep["nkeys"]
        return merged

    def check_invariants(self) -> None:
        self._check_open()
        self._broadcast("check")

    def __len__(self) -> int:
        self._check_open()
        return sum(self._broadcast("len").values())

    # -- aggregated observability ------------------------------------------------

    def stat(self) -> dict:
        """One metric tree for the whole table: the per-shard trees
        merged (counters summed, histograms bucket-merged, extrema
        min/maxed -- :func:`repro.obs.merge.merge_stat_trees`) plus a
        ``sharding`` section with the router's own counters and a
        per-shard occupancy summary."""
        trees = self._routed("stat", None, self._broadcast, "stat")
        ordered = [trees[i] for i in range(self.nshards)]
        merged = merge_stat_trees(ordered)
        merged["type"] = "hash"
        merged["sharding"] = {
            "nshards": self.nshards,
            "hashfn": self.manifest.hashfn,
            "router": self.registry.as_dict(),
            "respawns": [s.respawns for s in self._shards],
            "per_shard": [
                {
                    "nkeys": t.get("nkeys", 0),
                    "nbuckets": t.get("method", {}).get("nbuckets", 0),
                    "file_pages": t.get("space", {}).get("file_pages", 0),
                }
                for t in ordered
            ],
        }
        return merged

    def shard_stats(self) -> list[dict]:
        """The raw per-shard stat trees, unmerged (shard order)."""
        trees = self._broadcast("stat")
        return [trees[i] for i in range(self.nshards)]

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            with shard.lock:
                try:
                    shard.conn.send(("close", ()))
                    shard.conn.recv()
                except (EOFError, OSError):
                    pass
                try:
                    shard.conn.close()
                except OSError:
                    pass
        for shard in self._shards:
            if shard.proc is not None:
                shard.proc.join(timeout=10)
                if shard.proc.is_alive():  # pragma: no cover - stuck worker
                    shard.proc.terminate()
                    shard.proc.join(timeout=5)

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (
            f"<ShardedTable {self.manifest.path!r} nshards={self.nshards} "
            f"{state}>"
        )


# re-exported for callers that sanity-check shard counts
assert MAX_SHARDS >= 1
