"""sdbm: Larson's 1978 dynamic hashing over a linearized radix trie.

"The sdbm library is based on a simplified implementation of Larson's 1978
dynamic hashing algorithm including the refinements and variations of
section 5 ... Using a single radix trie to avoid the first hash function,
replacing the pseudo-random number generator with a well designed,
bit-randomizing hash function, and using the portion of the hash value
exposed during the trie traversal as a direct bucket address results in an
access function that works very similar to Thompson's algorithm" -- the
paper's traversal:

.. code-block:: c

    for (mask = 0; isbitset(tbit); mask = (mask << 1) + 1)
        if (hash & (1 << hbit++))
            tbit = 2 * tbit + 2;    /* right son  */
        else
            tbit = 2 * tbit + 1;    /* left son   */
    bucket = hash & mask;

The trie is stored as a bit array in the ``.dir`` file (bit set = internal/
split node); data blocks live in the sparse ``.pag`` file, one page read
per access (single-block cache), exactly like dbm.  The hash is sdbm's
65599 polynomial.  Interface-compatible with ndbm, "but internal details of
the access function ... make the two incompatible at the database level."
"""

from __future__ import annotations

import os
import time
from typing import Callable, Iterator

from repro.baselines.dbm.bitmap import DirBitmap
from repro.core.constants import PAGE_HDR_SIZE
from repro.core.hashfuncs import sdbm_hash
from repro.core.locking import NULL_GUARD, RWLock
from repro.core.pages import PageFullError, PageView, empty_page, pair_bytes_needed
from repro.obs.hooks import TraceHooks
from repro.obs.trace import TraceSupport
from repro.storage.pager import open_pager

#: sdbm's historical PBLKSIZ.
DEFAULT_BLOCK_SIZE = 1024

MAX_SPLIT_DEPTH = 32


class SdbmError(Exception):
    """An sdbm failure the original library also produced."""


class Sdbm(TraceSupport):
    """One sdbm database: sparse ``.pag`` data blocks plus a ``.dir``
    linearized-radix-trie bitmap."""

    def __init__(
        self,
        name: str | os.PathLike,
        flags: str = "c",
        *,
        block_size: int = DEFAULT_BLOCK_SIZE,
        hashfn: Callable[[bytes], int] | None = None,
        concurrent: bool = False,
        tracing: bool = False,
        file_wrapper=None,
    ) -> None:
        t_open = time.perf_counter()
        if flags not in ("r", "w", "c", "n"):
            raise ValueError(f"flags must be 'r', 'w', 'c' or 'n', got {flags!r}")
        base = os.fspath(name)
        self.pag_path = base + ".pag"
        self.dir_path = base + ".dir"
        self.readonly = flags == "r"
        self._hash = hashfn or sdbm_hash
        exists = os.path.exists(self.pag_path)
        create = flags == "n" or (flags == "c" and not exists)
        if create or not os.path.exists(self.dir_path):
            self.trie = DirBitmap()
            self.trie.block_size = block_size
        else:
            self.trie = DirBitmap.load(self.dir_path)
        # The stored block size wins on reopen (compile-time constant in C).
        self.block_size = self.trie.block_size or block_size
        # Crash detection: a .pag without its .dir, or a .dir whose dirty
        # flag was never cleared, is the wreck of an unclean shutdown.
        self._was_unclean = self.trie.dirty or (
            not create and exists and not os.path.exists(self.dir_path)
        )
        if not self.readonly:
            # Mark the whole write session dirty up front; close() clears
            # the flag only after the data fsync.
            self.trie.dirty = True
            self.trie.save(self.dir_path)
        # e.g. SimulatedDisk for modelled I/O time or FaultyPager for
        # crash injection
        self.pag = open_pager(self.pag_path, pagesize=self.block_size,
                              create=create, readonly=self.readonly,
                              wrapper=file_wrapper)
        self._closed = False
        self._cached_blkno: int | None = None
        self._cached_page: bytearray | None = None
        self._cached_dirty = False
        self.hooks = TraceHooks()
        self.concurrent = concurrent
        self._file = self.pag  # the mixin's handle for the default dump path
        self._init_tracing()
        self.pag.on_page_io = self._page_io_event
        if hasattr(self.pag, "on_fault"):
            self.pag.on_fault = self._fault_event
        #: ``concurrent=True`` serializes every operation exclusively:
        #: sdbm's single-block cache makes even a fetch a mutation, so
        #: there is no shared-reader mode to offer.  The same write-side
        #: RWLock as the new package, so the race harness can observe it.
        self._lock = RWLock() if concurrent else None
        self._guard = self._lock.writer if concurrent else NULL_GUARD
        if concurrent:
            self.pag.stats.make_threadsafe()
            self._lock.wait_hook = self._lock_wait_event
        if tracing:
            self._trace_open(t_open, "create" if create else "open")

    def _page_io_event(self, kind: str, pageno: int, nbytes: int) -> None:
        hooks = self.hooks
        if hooks.on_page_io:
            hooks.emit(
                "on_page_io", {"kind": kind, "pageno": pageno, "nbytes": nbytes}
            )

    # -- trie traversal -----------------------------------------------------------

    def _access(self, h: int) -> tuple[int, int, int, int]:
        """Walk the linearized trie; returns ``(bucket, mask, nbits, tbit)``
        where ``tbit`` is the external node reached."""
        tbit = 0
        hbit = 0
        mask = 0
        while self.trie.is_set(tbit):
            if h & (1 << hbit):
                tbit = 2 * tbit + 2  # right son
            else:
                tbit = 2 * tbit + 1  # left son
            hbit += 1
            mask = (mask << 1) + 1
        return h & mask, mask, hbit, tbit

    # -- block cache (same single-buffer scheme as dbm) ------------------------------

    def _read_block(self, blkno: int) -> bytearray:
        hooks = self.hooks
        if blkno == self._cached_blkno:
            if hooks.on_buffer:
                hooks.emit("on_buffer", {"kind": "hit", "key": blkno, "pageno": blkno})
            return self._cached_page
        if hooks.on_buffer:
            hooks.emit("on_buffer", {"kind": "miss", "key": blkno, "pageno": blkno})
        self._flush_block()
        page = bytearray(self.pag.read_page(blkno))
        view = PageView(page)
        if view.looks_uninitialized():
            view.initialize()
        self._cached_blkno = blkno
        self._cached_page = page
        self._cached_dirty = False
        return page

    def _flush_block(self) -> None:
        if self._cached_dirty and self._cached_blkno is not None:
            self.pag.write_page(self._cached_blkno, bytes(self._cached_page))
            self._cached_dirty = False

    # -- operations -------------------------------------------------------------------

    def fetch(self, key: bytes) -> bytes | None:
        return self._op("get", None, self._guard, self._fetch_impl, key)

    def _fetch_impl(self, key: bytes) -> bytes | None:
        self._check_open()
        bucket, _mask, _nbits, _tbit = self._access(self._hash(key))
        view = PageView(self._read_block(bucket))
        i = view.find_inline(key)
        if i < 0:
            return None
        return view.get_pair(i)[1]

    def store(self, key: bytes, data: bytes, *, replace: bool = True) -> bool:
        return self._op("put", None, self._guard, self._store_impl, key, data, replace)

    def _store_impl(self, key: bytes, data: bytes, replace: bool) -> bool:
        self._check_writable()
        if pair_bytes_needed(len(key), len(data)) + PAGE_HDR_SIZE > self.block_size:
            raise SdbmError(
                f"sdbm: key+data of {len(key) + len(data)} bytes exceed the "
                f"{self.block_size}-byte block size"
            )
        h = self._hash(key)
        for _attempt in range(MAX_SPLIT_DEPTH + 1):
            bucket, _mask, nbits, tbit = self._access(h)
            page = self._read_block(bucket)
            view = PageView(page)
            i = view.find_inline(key)
            if i >= 0:
                if not replace:
                    return False
                view.delete_slot(i)
            try:
                view.add_pair(key, data)
            except PageFullError:
                if nbits >= MAX_SPLIT_DEPTH:
                    break
                self._split(bucket, nbits, tbit)
                continue
            self._cached_dirty = True
            if bucket > self.trie.maxbuck:
                self.trie.maxbuck = bucket
            return True
        raise SdbmError(
            "sdbm: cannot store -- colliding keys exceed block size "
            "(trie depth exhausted)"
        )

    def _split(self, bucket: int, nbits: int, tbit: int) -> None:
        """Make external node ``tbit`` internal and redistribute its bucket
        on hash bit ``nbits``."""
        self.trie.set(tbit)
        new_bit = 1 << nbits
        buddy = bucket | new_bit
        old_page = self._read_block(bucket)
        view = PageView(old_page)
        stay = empty_page(self.block_size)
        move = empty_page(self.block_size)
        stay_view = PageView(stay)
        move_view = PageView(move)
        for i in range(view.nslots):
            k, d = view.get_pair(i)
            dest = move_view if self._hash(k) & new_bit else stay_view
            dest.add_pair(k, d)
        self._cached_page = stay
        self._cached_dirty = True
        self.pag.write_page(buddy, bytes(move))
        if buddy > self.trie.maxbuck:
            self.trie.maxbuck = buddy

    def delete(self, key: bytes) -> bool:
        return self._op("delete", None, self._guard, self._delete_impl, key)

    def _delete_impl(self, key: bytes) -> bool:
        self._check_writable()
        bucket, _mask, _nbits, _tbit = self._access(self._hash(key))
        view = PageView(self._read_block(bucket))
        i = view.find_inline(key)
        if i < 0:
            return False
        view.delete_slot(i)
        self._cached_dirty = True
        return True

    # -- sequential access -----------------------------------------------------------

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """Scan blocks 0..maxbuck in order; concurrent handles materialize
        the scan under the lock (stable snapshot)."""
        if self._lock is None:
            return self._iter_items()
        with self._guard:
            return iter(list(self._iter_items()))

    def _iter_items(self) -> Iterator[tuple[bytes, bytes]]:
        self._check_open()
        for blkno in range(self.trie.maxbuck + 1):
            view = PageView(self._read_block(blkno))
            for i in range(view.nslots):
                yield view.get_pair(i)

    def keys(self) -> Iterator[bytes]:
        for k, _d in self.items():
            yield k

    def firstkey(self) -> bytes | None:
        self._iter = self.keys()
        return next(self._iter, None)

    def nextkey(self) -> bytes | None:
        if not hasattr(self, "_iter"):
            return self.firstkey()
        return next(self._iter, None)

    # -- maintenance --------------------------------------------------------------------

    def sync(self) -> None:
        """Flush-before-sync: dirty block, then the ``.dir`` trie, then one
        fsync of the ``.pag`` file (the ordering shared by every disk
        format in this repo)."""
        self._op("sync", None, self._guard, self._sync_impl)

    def _sync_impl(self) -> None:
        self._check_open()
        self._flush_block()
        if not self.readonly:
            self.trie.save(self.dir_path)
        self.pag.sync()

    def close(self) -> None:
        """Idempotent; syncs (same ordering as :meth:`sync`) before closing
        unless read-only, then clears the .dir dirty flag -- the commit
        record a crash leaves set."""
        with self._guard:
            if self._closed:
                return
            if not self.readonly:
                self._sync_impl()
                self.trie.dirty = False
                self.trie.save(self.dir_path)
            self._closed = True
            self.pag.close()

    def check(self) -> list[str]:
        """Consistency walk mirroring :meth:`DbmFile.check`: every key must
        land in its own block under the trie traversal; pages must parse.
        Returns problems found (empty = clean); raises on structurally
        corrupt blocks."""
        with self._guard:
            return self._check_impl()

    def _check_impl(self) -> list[str]:
        self._check_open()
        problems: list[str] = []
        if self._was_unclean:
            problems.append(
                "unclean shutdown: the .dir dirty flag was never cleared "
                "(blocks may contain torn writes)"
            )
        for blkno in range(self.trie.maxbuck + 1):
            view = PageView(self._read_block(blkno))
            for i in range(view.nslots):
                k, _d = view.get_pair(i)
                bucket, _mask, _nbits, _tbit = self._access(self._hash(k))
                if bucket != blkno:
                    problems.append(
                        f"block {blkno}: key {k!r} belongs in bucket {bucket}"
                    )
        return problems

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError("operation on closed Sdbm")

    def _check_writable(self) -> None:
        self._check_open()
        if self.readonly:
            raise ValueError("sdbm database is read-only")

    def __enter__(self) -> "Sdbm":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def io_stats(self):
        return self.pag.stats
