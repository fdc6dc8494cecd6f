"""Layer tracing from outside the program.

:func:`install` replaces the public entry points of each layer with a
wrapper that records one span per call -- name, start, end, the
enclosing span and a size (ops in a batch call, bytes for the codec) --
into per-thread buffers in memory.  :meth:`SpanLog.dump` writes them
out at exit; :class:`Profile` reads them back and derives per-name call
counts, total and self time (a span's duration minus its children's)
and parent -> child call counts.

Spans are named ``<layer>.<entry point>``, with the layers named after
the program's modules.
"""

from __future__ import annotations

import functools
import json
import os
import threading
from array import array
from collections import Counter, defaultdict
from time import perf_counter


def _many(args, kwargs) -> int:
    items = args[1]  # a generator cannot be counted without consuming it
    return len(items) if hasattr(items, "__len__") else 0


def _arg_bytes(args, kwargs) -> int:
    return len(args[1])


#: (module, class or None, attribute, span name, size rule)
#: size rule: None = 1 per call, "many" = items in the batch argument,
#: "arg" = bytes of the data argument, "result" = bytes returned
ENTRY_POINTS = [
    ("repro.access.hash_adapter", "HashAccess", "get", "access.get", None),
    ("repro.access.hash_adapter", "HashAccess", "put", "access.put", None),
    ("repro.access.hash_adapter", "HashAccess", "delete", "access.delete", None),
    ("repro.access.hash_adapter", "HashAccess", "get_many", "access.get_many", "many"),
    ("repro.access.hash_adapter", "HashAccess", "put_many", "access.put_many", "many"),
    ("repro.access.hash_adapter", "HashAccess", "delete_many", "access.delete_many", "many"),
    ("repro.access.hash_adapter", "HashAccess", "begin", "access.begin", None),
    ("repro.access.hash_adapter", "HashAccess", "commit", "access.commit", None),
    ("repro.core.table", "HashTable", "get", "core.table.get", None),
    ("repro.core.table", "HashTable", "put", "core.table.put", None),
    ("repro.core.table", "HashTable", "delete", "core.table.delete", None),
    ("repro.core.table", "HashTable", "get_many", "core.table.get_many", "many"),
    ("repro.core.table", "HashTable", "put_many", "core.table.put_many", "many"),
    ("repro.core.table", "HashTable", "delete_many", "core.table.delete_many", "many"),
    ("repro.core.table", "HashTable", "begin", "core.table.begin", None),
    ("repro.core.table", "HashTable", "commit", "core.table.commit", None),
    ("repro.core.buffer", "BufferPool", "get", "core.buffer.get", None),
    ("repro.storage.pagedfile", "PagedFile", "read_page", "storage.read_page", None),
    ("repro.storage.pagedfile", "PagedFile", "write_page", "storage.write_page", None),
    ("repro.storage.pagedfile", "PagedFile", "write_pages", "storage.write_pages", None),
    ("repro.core.wal", "WriteAheadLog", "append_pages", "core.wal.append_pages", None),
    ("repro.core.wal", "WriteAheadLog", "sync", "core.wal.sync", None),
    ("repro.core.wal", "TransactionManager", "checkpoint_locked", "core.wal.checkpoint", None),
    ("repro.shard.sharded", "ShardedTable", "get", "shard.get", None),
    ("repro.shard.sharded", "ShardedTable", "put", "shard.put", None),
    ("repro.shard.sharded", "ShardedTable", "delete", "shard.delete", None),
    ("repro.shard.sharded", "ShardedTable", "get_many", "shard.get_many", "many"),
    ("repro.shard.sharded", "ShardedTable", "put_many", "shard.put_many", "many"),
    ("repro.shard.sharded", "ShardedTable", "delete_many", "shard.delete_many", "many"),
    ("repro.shard.sharded", "ShardedTable", "begin", "shard.begin", None),
    ("repro.shard.sharded", "ShardedTable", "commit", "shard.commit", None),
    ("repro.serve.protocol", None, "encode_frame", "serve.protocol.encode_frame", "result"),
    ("repro.serve.protocol", "FrameDecoder", "feed", "serve.protocol.feed", "arg"),
]


class _Buffer:
    """One thread's spans, as parallel arrays (id = index)."""

    __slots__ = ("t0", "t1", "parent", "name", "size", "stack")

    def __init__(self) -> None:
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("q")
        self.name = array("i")
        self.size = array("q")
        self.stack: list[int] = []


class SpanLog:
    """Spans of one process, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.reset()

    def reset(self) -> None:
        """Forget every span (a forked child starts its own log)."""
        self._tls = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()

    def _buffer(self) -> _Buffer:
        buf = getattr(self._tls, "buf", None)
        if buf is None:
            buf = self._tls.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str, size_rule):
        log = self
        name_id = self._name_id(name)
        size_of = {"many": _many, "arg": _arg_bytes}.get(size_rule)
        size_result = size_rule == "result"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = log._buffer()
            sid = len(buf.t0)
            stack = buf.stack
            buf.parent.append(stack[-1] if stack else -1)
            buf.name.append(name_id)
            buf.size.append(size_of(args, kwargs) if size_of is not None else 1)
            buf.t0.append(0.0)
            buf.t1.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                buf.t0[sid] = t0
                buf.t1[sid] = t1
            if size_result:
                buf.size[sid] = len(result)
            return result

        return traced

    def dump(self, path: str) -> None:
        """Write every span: one JSON header line, then the arrays."""
        bufs = [b for b in self._buffers if len(b.t0)]
        header = {"pid": os.getpid(), "names": self.names, "lengths": [len(b.t0) for b in bufs]}
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for b in bufs:
                for arr in (b.t0, b.t1, b.parent, b.name, b.size):
                    arr.tofile(f)
        os.replace(tmp, path)


def install(log: SpanLog, entry_points=ENTRY_POINTS):
    """Wrap every entry point; returns the undo list for :func:`uninstall`."""
    import importlib

    undo = []
    for modname, clsname, attr, name, size_rule in entry_points:
        module = importlib.import_module(modname)
        owner = getattr(module, clsname) if clsname else module
        own = attr in vars(owner)
        original = getattr(owner, attr)
        setattr(owner, attr, log.wrap(original, name, size_rule))
        undo.append((owner, attr, original if own else None))
    return undo


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        if original is None:
            delattr(owner, attr)  # the attribute was inherited
        else:
            setattr(owner, attr, original)


class Profile:
    """Per-span-name aggregates over one or more span logs."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.size: Counter = Counter()
        #: (parent span name, child span name) -> calls
        self.children: Counter = Counter()

    def add_log(self, log: SpanLog, window=None) -> None:
        for b in log._buffers:
            self._add(log.names, b.t0, b.t1, b.parent, b.name, b.size, window)

    def add_file(self, path: str, window=None) -> None:
        with open(path, "rb") as f:
            header = json.loads(f.readline())
            for n in header["lengths"]:
                arrs = []
                for code in ("d", "d", "q", "i", "q"):
                    a = array(code)
                    a.fromfile(f, n)
                    arrs.append(a)
                self._add(header["names"], *arrs, window)

    def _add(self, names, t0, t1, parent, name, size, window) -> None:
        n = len(t0)
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += t1[i] - t0[i]
        lo, hi = window if window is not None else (float("-inf"), float("inf"))
        for i in range(n):
            if not lo <= t0[i] <= hi:
                continue
            nm = names[name[i]]
            dur = t1[i] - t0[i]
            self.calls[nm] += 1
            self.total[nm] += dur
            self.self_time[nm] += dur - child[i]
            self.size[nm] += size[i]
            p = parent[i]
            if p >= 0:
                self.children[(names[name[p]], nm)] += 1

    def sum_self(self, *names: str) -> float:
        return sum(self.self_time[n] for n in names)

    def sum_total(self, *names: str) -> float:
        return sum(self.total[n] for n in names)

    def with_prefix(self, prefix: str) -> list[str]:
        return [n for n in self.calls if n.startswith(prefix)]
