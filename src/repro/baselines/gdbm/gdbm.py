"""gdbm: extendible hashing with a doubling directory.

"The gdbm library is based on extensible hashing, a dynamic hashing
algorithm by Fagin et al.  This algorithm ... uses a directory that is a
collapsed representation of the radix search trie used by sdbm. ... a
directory consists of a search trie of depth n, containing 2^n bucket
addresses ... multiple entries of this directory may contain the same
bucket address as a result of directory doubling during bucket splitting."

Reproduced structure (one non-sparse file):

- a fixed header (magic, geometry, directory location, avail list);
- the directory: ``2**depth`` 8-byte bucket offsets (kept in memory,
  written through; superseded directories are freed to the avail list);
- buckets: fixed-size arrays of elements ``(hash32, key_size, data_size,
  record_offset)`` plus a per-bucket depth -- the paper's ``nb``, which
  appears in the directory ``2**(n - nb)`` times;
- records: ``key || data`` byte extents anywhere in the file (gdbm
  "allows for arbitrary-length data");
- the avail list: freed extents reused first-fit
  (:mod:`repro.baselines.gdbm.allocator`).

Splitting follows the paper's code fragment: a full bucket gets a buddy at
depth+1; the directory doubles only "any time a bucket's depth exceeds the
depth of the directory".
"""

from __future__ import annotations

import os
import struct
import time
from typing import Callable, Iterator

from repro.baselines.gdbm.allocator import AVAIL_MAX, ExtentAllocator
from repro.core.hashfuncs import fnv1a_hash
from repro.core.locking import NULL_GUARD, RWLock
from repro.obs.hooks import TraceHooks
from repro.obs.registry import Counter, Registry
from repro.obs.trace import TraceSupport
from repro.storage.bytefile import ByteFile

GDBM_MAGIC = 0x47444D31  # "GDM1"

#: header: magic, block_size, dir_offset, dir_depth, bucket_elems,
#: watermark, navail  -- then navail (offset,size) pairs.
_HDR = struct.Struct(">IIQIIQI")
_AVAIL_ENTRY = struct.Struct(">QQ")
_HEADER_SIZE = _HDR.size + AVAIL_MAX * _AVAIL_ENTRY.size

#: bucket element: hash32, key_size, data_size, record_offset
_ELEM = struct.Struct(">IIIQ")
_BUCKET_HDR = struct.Struct(">II")  # depth, count

DEFAULT_BLOCK_SIZE = 1024

#: Practical ceiling on directory depth.  The C library's directory lives
#: on disk and may deepen to 31 bits; this reproduction keeps the directory
#: in memory, so it caps the depth at 2**24 entries (128 MiB) by default.
#: Splitting a bucket of identical hashes hits this cap instead of
#: exhausting memory -- the same "colliding keys are fatal" failure class
#: the dbm family has.
DEFAULT_MAX_DIR_DEPTH = 24


class GdbmError(Exception):
    """A gdbm-level failure (corrupt file, bad usage)."""


class _Bucket:
    """In-memory form of one bucket page."""

    __slots__ = ("offset", "depth", "elems")

    def __init__(self, offset: int, depth: int, elems: list) -> None:
        self.offset = offset
        self.depth = depth
        #: list of (hash, key_size, data_size, record_offset)
        self.elems = elems


class Gdbm(TraceSupport):
    """One gdbm database file."""

    def __init__(
        self,
        path: str | os.PathLike,
        flags: str = "c",
        *,
        block_size: int = DEFAULT_BLOCK_SIZE,
        hashfn: Callable[[bytes], int] | None = None,
        max_dir_depth: int = DEFAULT_MAX_DIR_DEPTH,
        observability: bool = True,
        concurrent: bool = False,
        tracing: bool = False,
        file_wrapper=None,
    ) -> None:
        t_open = time.perf_counter()
        if flags not in ("r", "w", "c", "n"):
            raise ValueError(f"flags must be 'r', 'w', 'c' or 'n', got {flags!r}")
        if not 1 <= max_dir_depth <= 31:
            raise ValueError(f"max_dir_depth must be in [1, 31], got {max_dir_depth}")
        self.max_dir_depth = max_dir_depth
        self.path = os.fspath(path)
        self.readonly = flags == "r"
        self._hash = hashfn or fnv1a_hash
        exists = os.path.exists(self.path)
        create = flags == "n" or (flags == "c" and not exists)
        self.file = ByteFile(self.path, create=create, readonly=self.readonly)
        if file_wrapper is not None:
            # e.g. FaultyPager for crash injection (byte-granular wrapping)
            self.file = file_wrapper(self.file)
        self._closed = False
        self.obs = Registry("gdbm", enabled=observability)
        self.hooks = TraceHooks()
        self.concurrent = concurrent
        self._file = self.file  # the mixin's handle for the default dump path
        self._init_tracing()
        self._c_splits = self.obs.attach(Counter("splits"))
        self._c_dir_doubles = self.obs.attach(Counter("dir_doubles"))
        # single-bucket cache (gdbm reads one bucket per access)
        self._cached: _Bucket | None = None
        if create:
            self.block_size = block_size
            self.bucket_elems = (block_size - _BUCKET_HDR.size) // _ELEM.size
            if self.bucket_elems < 2:
                raise ValueError(f"block_size {block_size} too small for gdbm buckets")
            self.alloc = ExtentAllocator(_HEADER_SIZE)
            first = self.alloc.alloc(self._bucket_size())
            self._write_bucket(_Bucket(first, 0, []))
            self.dir_depth = 0
            self.dir_offset = self.alloc.alloc(8)
            self.directory = [first]
            self._write_directory()
            self._write_header()
        else:
            self._read_header()
        # Byte-granular I/O surfaces as on_page_io events at block
        # granularity, so gdbm shows up in the same traces as the paged
        # formats (installed after bootstrap I/O so block_size is known).
        self.file.on_io = self._io_event
        if hasattr(self.file, "on_fault"):
            self.file.on_fault = self._fault_event
        #: ``concurrent=True`` serializes every operation exclusively:
        #: gdbm's single-bucket cache makes even a fetch a mutation, so
        #: there is no shared-reader mode to offer.  The same write-side
        #: RWLock as the new package, so the race harness can observe it.
        self._lock = RWLock() if concurrent else None
        self._guard = self._lock.writer if concurrent else NULL_GUARD
        if concurrent:
            self.file.stats.make_threadsafe()
            self.obs.make_threadsafe()
            self._lock.wait_hook = self._lock_wait_event
        if tracing:
            self._trace_open(t_open, "create" if create else "open")

    def _io_event(self, kind: str, offset: int, nbytes: int) -> None:
        hooks = self.hooks
        if hooks.on_page_io:
            hooks.emit(
                "on_page_io",
                {"kind": kind, "pageno": offset // self.block_size, "nbytes": nbytes},
            )

    # -- geometry ------------------------------------------------------------

    def _bucket_size(self) -> int:
        return _BUCKET_HDR.size + self.bucket_elems * _ELEM.size

    def _dir_index(self, h: int) -> int:
        """Extendible hashing uses the top ``depth`` bits of the hash."""
        if self.dir_depth == 0:
            return 0
        return h >> (32 - self.dir_depth)

    # -- header / directory I/O ------------------------------------------------

    def _write_header(self) -> None:
        avail = self.alloc.avail[:AVAIL_MAX]
        out = [
            _HDR.pack(
                GDBM_MAGIC,
                self.block_size,
                self.dir_offset,
                self.dir_depth,
                self.bucket_elems,
                self.alloc.watermark,
                len(avail),
            )
        ]
        for off, size in avail:
            out.append(_AVAIL_ENTRY.pack(off, size))
        out.append(b"\0" * (AVAIL_MAX - len(avail)) * _AVAIL_ENTRY.size)
        self.file.write_at(0, b"".join(out))

    def _read_header(self) -> None:
        """Load and validate the header; every field is range-checked so a
        torn or truncated file raises :class:`GdbmError` instead of, say,
        allocating a ``2**garbage``-entry directory."""
        try:
            raw = self.file.read_at(0, _HEADER_SIZE)
        except EOFError as exc:
            raise GdbmError(f"{self.path}: truncated gdbm header") from exc
        magic, block_size, dir_offset, dir_depth, bucket_elems, watermark, navail = (
            _HDR.unpack_from(raw, 0)
        )
        if magic != GDBM_MAGIC:
            raise GdbmError(f"{self.path}: not a gdbm file (bad magic {magic:#x})")
        if dir_depth > 31:
            raise GdbmError(f"{self.path}: corrupt header (dir_depth {dir_depth})")
        if bucket_elems < 2 or _BUCKET_HDR.size + bucket_elems * _ELEM.size > block_size:
            raise GdbmError(
                f"{self.path}: corrupt header (bucket_elems {bucket_elems} "
                f"for block_size {block_size})"
            )
        if navail > AVAIL_MAX:
            raise GdbmError(f"{self.path}: corrupt header (navail {navail})")
        file_size = self.file.size()
        if dir_offset + 8 * (1 << dir_depth) > file_size:
            raise GdbmError(
                f"{self.path}: corrupt header (directory at {dir_offset} "
                f"past EOF {file_size})"
            )
        self.block_size = block_size
        self.bucket_elems = bucket_elems
        self.dir_offset = dir_offset
        self.dir_depth = dir_depth
        self.alloc = ExtentAllocator(watermark)
        for i in range(navail):
            off, size = _AVAIL_ENTRY.unpack_from(raw, _HDR.size + i * _AVAIL_ENTRY.size)
            self.alloc.avail.append((off, size))
        raw_dir = self.file.read_at(self.dir_offset, 8 * (1 << dir_depth))
        self.directory = list(struct.unpack(f">{1 << dir_depth}Q", raw_dir))

    def _write_directory(self) -> None:
        self.file.write_at(
            self.dir_offset, struct.pack(f">{len(self.directory)}Q", *self.directory)
        )

    # -- bucket I/O ---------------------------------------------------------------

    def _read_bucket(self, offset: int) -> _Bucket:
        hooks = self.hooks
        if self._cached is not None and self._cached.offset == offset:
            if hooks.on_buffer:
                hooks.emit(
                    "on_buffer",
                    {"kind": "hit", "key": offset,
                     "pageno": offset // self.block_size},
                )
            return self._cached
        if hooks.on_buffer:
            hooks.emit(
                "on_buffer",
                {"kind": "miss", "key": offset,
                 "pageno": offset // self.block_size},
            )
        raw = self.file.read_at(offset, self._bucket_size())
        depth, count = _BUCKET_HDR.unpack_from(raw, 0)
        if count > self.bucket_elems:
            raise GdbmError(f"corrupt bucket at {offset}: count {count}")
        elems = [
            _ELEM.unpack_from(raw, _BUCKET_HDR.size + i * _ELEM.size)
            for i in range(count)
        ]
        bucket = _Bucket(offset, depth, elems)
        self._cached = bucket
        return bucket

    def _write_bucket(self, bucket: _Bucket) -> None:
        out = [_BUCKET_HDR.pack(bucket.depth, len(bucket.elems))]
        for elem in bucket.elems:
            out.append(_ELEM.pack(*elem))
        pad = self._bucket_size() - _BUCKET_HDR.size - len(bucket.elems) * _ELEM.size
        out.append(b"\0" * pad)
        self.file.write_at(bucket.offset, b"".join(out))
        self._cached = bucket

    # -- records ---------------------------------------------------------------------

    def _read_record(self, elem) -> tuple[bytes, bytes]:
        h, ksize, dsize, off = elem
        if ksize + dsize == 0:
            return b"", b""
        raw = self.file.read_at(off, ksize + dsize)
        return raw[:ksize], raw[ksize:]

    def _read_key(self, elem) -> bytes:
        _h, ksize, _dsize, off = elem
        if ksize == 0:
            return b""
        return self.file.read_at(off, ksize)

    def _alloc_record(self, key: bytes, data: bytes) -> int:
        """Write ``key || data`` into a fresh extent; empty records take no
        space (offset 0 is never dereferenced for them)."""
        if not key and not data:
            return 0
        off = self.alloc.alloc(len(key) + len(data))
        self.file.write_at(off, key + data)
        return off

    # -- operations -------------------------------------------------------------------

    def fetch(self, key: bytes) -> bytes | None:
        return self._op("get", None, self._guard, self._fetch_impl, key)

    def _fetch_impl(self, key: bytes) -> bytes | None:
        self._check_open()
        h = self._hash(key)
        bucket = self._read_bucket(self.directory[self._dir_index(h)])
        for elem in bucket.elems:
            if elem[0] == h and elem[1] == len(key) and self._read_key(elem) == key:
                return self._read_record(elem)[1]
        return None

    def store(self, key: bytes, data: bytes, *, replace: bool = True) -> bool:
        """Insert/replace; splits buckets and doubles the directory as
        needed.  Arbitrary-length keys and data are supported."""
        return self._op("put", None, self._guard, self._store_impl, key, data, replace)

    def _store_impl(self, key: bytes, data: bytes, replace: bool) -> bool:
        self._check_writable()
        h = self._hash(key)
        # replace path
        bucket = self._read_bucket(self.directory[self._dir_index(h)])
        for i, elem in enumerate(bucket.elems):
            if elem[0] == h and elem[1] == len(key) and self._read_key(elem) == key:
                if not replace:
                    return False
                self.alloc.free(elem[3], elem[1] + elem[2])
                off = self._alloc_record(key, data)
                bucket.elems[i] = (h, len(key), len(data), off)
                self._write_bucket(bucket)
                self._write_header()
                return True
        # insert path: split until the target bucket has room
        while True:
            bucket = self._read_bucket(self.directory[self._dir_index(h)])
            if len(bucket.elems) < self.bucket_elems:
                break
            self._split(bucket)
        off = self._alloc_record(key, data)
        bucket.elems.append((h, len(key), len(data), off))
        self._write_bucket(bucket)
        self._write_header()
        return True

    def _split(self, bucket: _Bucket) -> None:
        """The paper's code fragment: give the full bucket a buddy one
        level deeper; double the directory when the bucket's new depth
        exceeds the directory's."""
        new_depth = bucket.depth + 1
        if new_depth > self.max_dir_depth:
            raise GdbmError(
                f"gdbm: cannot split past directory depth {self.max_dir_depth} "
                "(colliding keys overflow a bucket)"
            )
        if new_depth > self.dir_depth:
            self._double_directory()
        self._c_splits.inc()
        new_off = self.alloc.alloc(self._bucket_size())
        # Redistribute on the bit below the bucket's old prefix (hashes are
        # consumed from the top, as extendible hashing prescribes).
        bit = 1 << (32 - new_depth)
        stay = [e for e in bucket.elems if not e[0] & bit]
        move = [e for e in bucket.elems if e[0] & bit]
        old = _Bucket(bucket.offset, new_depth, stay)
        new = _Bucket(new_off, new_depth, move)
        # Re-point the directory: the slice of entries formerly sharing the
        # old bucket now alternates between old and new on `bit`.
        span = 1 << (self.dir_depth - new_depth)  # entries per (new) bucket
        first = (
            self._dir_index(bucket.elems[0][0])
            if bucket.elems
            else self.directory.index(bucket.offset)
        )
        # Normalize to the start of the old bucket's 2*span-wide region.
        region = 2 * span
        start = (first // region) * region
        for i in range(start, start + span):
            self.directory[i] = old.offset
        for i in range(start + span, start + region):
            self.directory[i] = new.offset
        self._write_bucket(new)
        self._write_bucket(old)
        self._write_directory()

    def _double_directory(self) -> None:
        """Double the directory, duplicating every entry (the depths of
        unsplit buckets now differ from the directory's depth by one
        more)."""
        self._c_dir_doubles.inc()
        old_size = 8 * len(self.directory)
        self.directory = [off for off in self.directory for _ in (0, 1)]
        new_offset = self.alloc.alloc(8 * len(self.directory))
        self.alloc.free(self.dir_offset, old_size)
        self.dir_offset = new_offset
        self.dir_depth += 1
        self._write_directory()
        self._write_header()

    def delete(self, key: bytes) -> bool:
        return self._op("delete", None, self._guard, self._delete_impl, key)

    def _delete_impl(self, key: bytes) -> bool:
        self._check_writable()
        h = self._hash(key)
        bucket = self._read_bucket(self.directory[self._dir_index(h)])
        for i, elem in enumerate(bucket.elems):
            if elem[0] == h and elem[1] == len(key) and self._read_key(elem) == key:
                self.alloc.free(elem[3], elem[1] + elem[2])
                del bucket.elems[i]
                self._write_bucket(bucket)
                self._write_header()
                return True
        return False

    # -- iteration ----------------------------------------------------------------------

    def _distinct_buckets(self) -> Iterator[_Bucket]:
        seen: set[int] = set()
        for off in self.directory:
            if off not in seen:
                seen.add(off)
                yield self._read_bucket(off)

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """Concurrent handles materialize the scan under the lock (stable
        snapshot)."""
        if self._lock is None:
            return self._iter_items()
        with self._guard:
            return iter(list(self._iter_items()))

    def _iter_items(self) -> Iterator[tuple[bytes, bytes]]:
        self._check_open()
        for bucket in self._distinct_buckets():
            # Copy: _read_record goes through the single-bucket cache's file
            # and iteration must survive the cache moving on.
            for elem in list(bucket.elems):
                yield self._read_record(elem)

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

    # -- maintenance ----------------------------------------------------------------------

    def sync(self) -> None:
        """Flush-before-sync: buckets, records and the directory are
        written through, so sync writes the header (metadata last) and
        issues one fsync -- the ordering shared by every disk format in
        this repo."""
        self._op("sync", None, self._guard, self._sync_impl)

    def _sync_impl(self) -> None:
        self._check_open()
        if not self.readonly:
            self._write_header()
        self.file.sync()

    def close(self) -> None:
        """Idempotent; syncs (same ordering as :meth:`sync`) before
        closing unless read-only."""
        with self._guard:
            if self._closed:
                return
            if not self.readonly:
                self._sync_impl()
            self._closed = True
            self.file.close()

    def stat(self) -> dict:
        """Metrics in the shared ``db.stat()`` shape (``type``, ``nkeys``,
        ``io``, ``method``), so prof and the CLI can report on a gdbm file
        the same way as on the paged access methods."""
        with self._guard:
            return self._stat_impl()

    def _stat_impl(self) -> dict:
        self._check_open()
        nkeys = sum(len(b.elems) for b in self._distinct_buckets())
        return {
            "type": "gdbm",
            "nkeys": nkeys,
            "io": self.file.stats.as_dict(),
            "method": {
                "block_size": self.block_size,
                "bucket_elems": self.bucket_elems,
                "dir_depth": self.dir_depth,
                "dir_entries": len(self.directory),
                "nbuckets": self.nbuckets(),
                "splits": self._c_splits.as_value(),
                "dir_doubles": self._c_dir_doubles.as_value(),
                "avail_extents": len(self.alloc.avail),
            },
        }

    def check(self) -> list[str]:
        """Consistency walk: bucket depths vs the directory, element hash
        prefixes vs the directory slot they are reachable from, and record
        extents within the file.  Returns problems found (empty = clean);
        I/O and parse failures are reported as problems, not raised."""
        with self._guard:
            return self._check_impl()

    def _check_impl(self) -> list[str]:
        self._check_open()
        problems: list[str] = []
        file_size = self.file.size()
        seen: set[int] = set()
        for slot, off in enumerate(self.directory):
            if off in seen:
                continue
            seen.add(off)
            try:
                bucket = self._read_bucket(off)
            except (GdbmError, EOFError, struct.error) as exc:
                problems.append(f"bucket at {off}: unreadable ({exc})")
                continue
            if bucket.depth > self.dir_depth:
                problems.append(
                    f"bucket at {off}: depth {bucket.depth} exceeds "
                    f"directory depth {self.dir_depth}"
                )
                continue
            # A depth-d bucket owns an aligned run of 2**(n-d) slots.
            span = 1 << (self.dir_depth - bucket.depth)
            start = (slot // span) * span
            for i in range(start, start + span):
                if self.directory[i] != off:
                    problems.append(
                        f"bucket at {off}: directory slot {i} points "
                        f"elsewhere (fragmented depth-{bucket.depth} run)"
                    )
                    break
            for h, ksize, dsize, roff in bucket.elems:
                if self.dir_depth and self.directory[self._dir_index(h)] != off:
                    problems.append(
                        f"bucket at {off}: element hash {h:#010x} is not "
                        "reachable from its directory slot"
                    )
                if ksize + dsize and roff + ksize + dsize > file_size:
                    problems.append(
                        f"bucket at {off}: record extent [{roff}, "
                        f"{roff + ksize + dsize}) past EOF {file_size}"
                    )
        return problems

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError("operation on closed Gdbm")

    def _check_writable(self) -> None:
        self._check_open()
        if self.readonly:
            raise ValueError("gdbm database is read-only")

    def __enter__(self) -> "Gdbm":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def io_stats(self):
        return self.file.stats

    def nbuckets(self) -> int:
        return len({off for off in self.directory})
