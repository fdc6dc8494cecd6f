"""Causal span tracing and the crash flight recorder.

The metrics registry answers "how much" and the trace hooks answer "that
it happened"; this module answers **why this operation was slow**.  Every
public database operation (``get``/``put``/``delete``/batch op/cursor
step/``sync``/``compact``/``open``) opens a root :class:`Span`, and
every nested event the engine emits while that operation runs --
buffer hit/miss, page read/write, overflow-page hop, split, big-pair
segment, lock wait, fault injection -- attaches as a child with
monotonic timestamps.  A single slow ``get`` therefore decomposes into
its exact chain of page I/Os and lock waits.

Design constraints (mirroring the rest of :mod:`repro.obs`):

- **default-off costs one predicate**: every public op runs through
  :meth:`TraceSupport._op`, the one place that tests ``tracer.enabled``,
  and the nested events reuse the existing
  :class:`~repro.obs.hooks.TraceHooks` emit points, which already guard
  on their subscriber lists.  A table that never calls
  ``enable_tracing()`` pays one attribute load + truth test per op.
- **bounded memory**: finished spans and events land in a
  :class:`FlightRecorder` ring buffer of the last N records; a 10-hour
  run holds exactly as much trace as a 10-second one.
- **post-mortem by default**: the recorder auto-dumps its contents to a
  JSON file the first time an operation dies (unhandled exception,
  injected :class:`~repro.storage.faulty.CrashPoint`) or a ``check()``
  fails, so the events *leading up to* the failure survive it.

The ring buffer is lock-free when ``concurrent=False`` (a plain
``deque.append``); :meth:`FlightRecorder.make_threadsafe` installs the
optional mutex used by concurrent tables, the same pattern as
:class:`~repro.obs.registry.Counter`.

Records are plain JSON-ready dicts::

    {"type": "span",  "id": 7, "parent": 3, "tid": 0, "name": "get",
     "cat": "op", "ts": 0.0123, "dur": 0.0004, "attrs": {...}}
    {"type": "event", "id": 8, "parent": 7, "tid": 0, "name": "buffer_miss",
     "cat": "buffer", "ts": 0.0124, "attrs": {...}}

``ts`` is seconds since the tracer's epoch (``time.perf_counter`` at
construction), so exporters never deal with wall-clock skew.  See
:mod:`repro.obs.export` for the Chrome-trace / Prometheus / NDJSON
renderings and docs/OBSERVABILITY.md for the span model contract.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque

__all__ = ["Span", "Tracer", "FlightRecorder", "TraceSupport"]


class Span:
    """One in-flight operation: a named interval with a parent and attrs.

    ``links`` holds span ids this span is *causally related to* beyond
    its single parent -- the coalescer's one-engine-batch-N-requests
    merge and group commit's one-fsync-N-committers are the motivating
    cases.  Links export as an attr-like record field; the single
    ``parent`` stays the tree edge.
    """

    __slots__ = ("id", "parent_id", "name", "cat", "tid", "t0", "t1", "attrs",
                 "links")

    def __init__(
        self,
        id: int,  # noqa: A002 - record field name
        parent_id: int | None,
        name: str,
        cat: str,
        tid: int,
        t0: float,
    ) -> None:
        self.id = id
        self.parent_id = parent_id
        self.name = name
        self.cat = cat
        self.tid = tid
        self.t0 = t0
        self.t1 = 0.0
        self.attrs: dict = {}
        self.links: list[int] | None = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Span #{self.id} {self.name!r} parent={self.parent_id}>"


class FlightRecorder:
    """Bounded ring buffer of the last N trace records.

    ``capacity=None`` keeps everything (the trace CLI uses that for full
    exports); the default keeps the tail -- exactly what a post-mortem
    needs.  :meth:`dump` writes the contents as one JSON document;
    :meth:`auto_dump` is the crash path: it fires at most once per
    recorder (a crashed pager raises on *every* subsequent op, and the
    first dump is the one with the evidence), never raises, and is a
    no-op until a dump path is configured.
    """

    DEFAULT_CAPACITY = 4096

    def __init__(self, capacity: int | None = DEFAULT_CAPACITY) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self._ring: deque = deque(maxlen=capacity)
        #: total records ever seen (``recorded - len(ring)`` = dropped)
        self.recorded = 0
        #: where :meth:`auto_dump` writes; None disables auto-dumping
        self.dump_path: str | None = None
        self.auto_dumped: str | None = None
        self._lock: threading.Lock | None = None

    def make_threadsafe(self) -> "FlightRecorder":
        """Install the snapshot mutex (idempotent).  ``record`` stays a
        bare ``deque.append`` -- atomic in CPython -- but concurrent
        ``events()`` snapshots need the ring to hold still."""
        if self._lock is None:
            self._lock = threading.Lock()
        return self

    def record(self, rec: dict) -> None:
        self.recorded += 1
        self._ring.append(rec)

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def dropped(self) -> int:
        """Records pushed out of the ring by later ones."""
        return self.recorded - len(self._ring)

    def events(self) -> list[dict]:
        """A stable snapshot of the ring, oldest first."""
        lock = self._lock
        if lock is None:
            return list(self._ring)
        with lock:
            return list(self._ring)

    def clear(self) -> None:
        lock = self._lock
        if lock is not None:
            lock.acquire()
        try:
            self._ring.clear()
            self.recorded = 0
            self.auto_dumped = None
        finally:
            if lock is not None:
                lock.release()

    # -- dumping ---------------------------------------------------------------

    def dump(self, path: str | os.PathLike | None = None, *, reason: str = "explicit") -> str:
        """Write the ring to ``path`` (default :attr:`dump_path`) as JSON;
        returns the path written."""
        target = os.fspath(path) if path is not None else self.dump_path
        if target is None:
            raise ValueError("no dump path: pass one or set recorder.dump_path")
        payload = {
            "reason": reason,
            "capacity": self.capacity,
            "recorded": self.recorded,
            "dropped": self.dropped,
            "events": self.events(),
        }
        with open(target, "w") as fh:
            json.dump(payload, fh, indent=1, default=_json_default)
            fh.write("\n")
        return target

    def auto_dump(self, reason: str) -> str | None:
        """The crash path: dump once to :attr:`dump_path`, swallow I/O
        errors (a post-mortem must never mask the original failure)."""
        if self.dump_path is None or self.auto_dumped is not None:
            return None
        try:
            path = self.dump(reason=reason)
        except OSError:  # pragma: no cover - disk-full during post-mortem
            return None
        self.auto_dumped = reason
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FlightRecorder {len(self._ring)}/{self.capacity} "
            f"recorded={self.recorded}>"
        )


def _json_default(obj):
    """Fallback serializer for payload values (bytes keys, odd objects)."""
    if isinstance(obj, (bytes, bytearray)):
        return obj.decode("utf-8", "backslashreplace")
    return repr(obj)


class _SpanContext:
    """Context-manager wrapper returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.span.attrs["error"] = exc_type.__name__
        self._tracer.end(self.span)


class _AttachContext:
    """Context-manager returned by :meth:`Tracer.attach`: pushes an
    already-open span onto the calling thread's stack and pops back to
    the prior depth on exit (without closing the span)."""

    __slots__ = ("_tracer", "_span", "_depth")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span
        self._depth = 0

    def __enter__(self) -> Span:
        stack = self._tracer._stack()
        self._depth = len(stack)
        stack.append(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = self._tracer._stack()
        del stack[self._depth :]


class Tracer:
    """Per-database span tracer: a stack of open spans per thread plus a
    :class:`FlightRecorder` sink.

    Engines hold one Tracer from construction (``enabled=False`` -- every
    call site guards on :attr:`enabled`, so a disabled tracer is one
    attribute load).  ``enable_tracing()`` on a database swaps in an
    enabled tracer wired to the engine's hooks.
    """

    __slots__ = ("enabled", "recorder", "_clock", "epoch", "_next_id",
                 "_id_lock", "_tls", "_tids")

    def __init__(
        self,
        enabled: bool = True,
        recorder: FlightRecorder | None = None,
    ) -> None:
        self.enabled = enabled
        self.recorder = recorder if recorder is not None else FlightRecorder()
        self._clock = time.perf_counter
        #: perf_counter origin: all record timestamps are relative to this
        self.epoch = self._clock()
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._tls = threading.local()
        #: thread ident -> small stable tid for export (0, 1, 2, ...)
        self._tids: dict[int, int] = {}

    # -- bookkeeping ------------------------------------------------------------

    def _alloc_id(self) -> int:
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _tid(self) -> int:
        ident = threading.get_ident()
        tid = self._tids.get(ident)
        if tid is None:
            with self._id_lock:
                tid = self._tids.setdefault(ident, len(self._tids))
        return tid

    def now(self) -> float:
        """Seconds since the tracer's epoch."""
        return self._clock() - self.epoch

    def current_span(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    # -- spans ------------------------------------------------------------------

    def start(self, name: str, cat: str = "op", attrs: dict | None = None) -> Span:
        """Open a span as a child of the calling thread's current span."""
        parent = self.current_span()
        span = Span(
            self._alloc_id(),
            parent.id if parent is not None else None,
            name,
            cat,
            self._tid(),
            self.now(),
        )
        if attrs:
            span.attrs.update(attrs)
        self._stack().append(span)
        return span

    def end(self, span: Span) -> None:
        """Close ``span`` and record it.  Tolerates out-of-order closes
        (pops through to the given span) so an exception path that skips
        a child's ``end`` cannot wedge the stack."""
        span.t1 = self.now()
        stack = self._stack()
        while stack:
            top = stack.pop()
            if top is span:
                break
        self._record_span(span)

    def _record_span(self, span: Span) -> None:
        rec = {
            "type": "span",
            "id": span.id,
            "parent": span.parent_id,
            "tid": span.tid,
            "name": span.name,
            "cat": span.cat,
            "ts": span.t0,
            "dur": span.t1 - span.t0,
            "attrs": span.attrs,
        }
        if span.links:
            rec["links"] = list(span.links)
        self.recorder.record(rec)

    # -- detached spans ----------------------------------------------------------
    #
    # Request-scoped spans in the serving layer don't nest like call
    # frames: a connection task opens a span, hands its id to the
    # coalescer, and the engine closes the causal chain on a *different*
    # thread.  These helpers manage such spans without ever touching the
    # per-thread stacks.

    def open_span(
        self,
        name: str,
        cat: str = "op",
        attrs: dict | None = None,
        *,
        parent_id: int | None = None,
        links: list[int] | None = None,
    ) -> Span:
        """Open a span *without* pushing it on the thread's stack.

        ``parent_id=None`` makes it a root (it does NOT adopt the current
        span -- pass ``self.current_span().id`` explicitly for that).
        Close with :meth:`close_span`, or lend it to a worker thread via
        :meth:`attach` so nested engine spans become its children.
        """
        span = Span(self._alloc_id(), parent_id, name, cat, self._tid(), self.now())
        if attrs:
            span.attrs.update(attrs)
        if links:
            span.links = list(links)
        return span

    def close_span(self, span: Span, attrs: dict | None = None) -> None:
        """Close a span opened with :meth:`open_span` and record it."""
        if attrs:
            span.attrs.update(attrs)
        span.t1 = self.now()
        self._record_span(span)

    def attach(self, span: Span) -> "_AttachContext":
        """``with tracer.attach(span):`` -- make ``span`` the current
        parent on *this* thread for the duration of the block, so spans
        and events the block emits nest under it.  The span itself is not
        closed; pair with :meth:`close_span`."""
        return _AttachContext(self, span)

    def annotate(self, **attrs) -> None:
        """Merge ``attrs`` into the calling thread's current span (no-op
        with tracing off or no span open)."""
        if self.enabled:
            span = self.current_span()
            if span is not None:
                span.attrs.update(attrs)

    def span(self, name: str, cat: str = "op", **attrs) -> _SpanContext:
        """``with tracer.span("get"):`` -- start/end as a context manager."""
        return _SpanContext(self, self.start(name, cat, attrs or None))

    # -- child events -----------------------------------------------------------

    def instant(self, name: str, cat: str = "event", attrs: dict | None = None) -> None:
        """A zero-duration child event under the current span."""
        parent = self.current_span()
        self.recorder.record(
            {
                "type": "event",
                "id": self._alloc_id(),
                "parent": parent.id if parent is not None else None,
                "tid": self._tid(),
                "name": name,
                "cat": cat,
                "ts": self.now(),
                "attrs": dict(attrs) if attrs else {},
            }
        )

    def complete(
        self,
        name: str,
        t0: float,
        dur: float,
        cat: str = "event",
        attrs: dict | None = None,
        *,
        parent_id: int | None = None,
        links: list[int] | None = None,
    ) -> int:
        """A pre-measured child interval (e.g. a lock wait timed by the
        lock itself).  ``t0`` is an absolute ``perf_counter`` reading.
        ``parent_id`` overrides the default current-span parent (for
        spans measured on one thread but owned by a request on another);
        ``links`` adds extra causal edges.  Returns the span id.
        """
        if parent_id is None:
            parent = self.current_span()
            parent_id = parent.id if parent is not None else None
        sid = self._alloc_id()
        rec = {
            "type": "span",
            "id": sid,
            "parent": parent_id,
            "tid": self._tid(),
            "name": name,
            "cat": cat,
            "ts": t0 - self.epoch,
            "dur": dur,
            "attrs": dict(attrs) if attrs else {},
        }
        if links:
            rec["links"] = list(links)
        self.recorder.record(rec)
        return sid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        return f"<Tracer {state} {self.recorder!r}>"


class TraceSupport:
    """Engine mixin: span tracing over the engine's TraceHooks fabric.

    The host class provides ``hooks`` (a :class:`~repro.obs.hooks.TraceHooks`),
    ``concurrent`` (bool), ``_file`` (its pager, for the default dump
    path) and optionally ``_clock`` (the histogram clock; ``None`` keeps
    latency histograms off).  Call :meth:`_init_tracing` during
    construction; it leaves a disabled tracer in place.

    Every public op runs through one gate, :meth:`_op`: lock, latency
    histogram, root span and crash dump live there and nowhere else, so
    a traced and an untraced op differ only in the span.  The op itself
    stays a plain class-level method that calls the gate (instrumentation
    that wraps methods on the class keeps seeing every call).

    Engines with extra emit points feed them through the two event
    adapters: ``_lock_wait_event`` (install as ``RWLock.wait_hook``) and
    ``_fault_event`` (install as ``FaultyPager.on_fault``).
    """

    _clock = None

    def _init_tracing(self) -> None:
        self.tracer = Tracer(enabled=False)
        self._trace_subs: list = []

    # -- engine emit-point adapters ---------------------------------------------

    def _fault_event(self, payload: dict) -> None:
        hooks = self.hooks
        if hooks.on_fault:
            hooks.emit("on_fault", payload)

    def _lock_wait_event(self, mode: str, t0: float, wait: float) -> None:
        hooks = self.hooks
        if hooks.on_lock:
            hooks.emit("on_lock", {"mode": mode, "wait": wait, "t0": t0})

    # -- lifecycle ---------------------------------------------------------------

    def enable_tracing(
        self,
        *,
        ring_capacity: int | None = FlightRecorder.DEFAULT_CAPACITY,
        dump_path: str | os.PathLike | None = None,
    ) -> Tracer:
        """Turn on span tracing: every public op opens a root span, every
        hook event attaches as a child, and the last ``ring_capacity``
        records live in :attr:`flight_recorder` (``None`` = unbounded).

        ``dump_path`` is where crashes auto-dump the ring; it defaults to
        ``<db file>.flight.json`` for on-disk databases and stays unset
        (no auto-dump) for in-memory ones.  Idempotent.
        """
        if self.tracer.enabled:
            return self.tracer
        recorder = FlightRecorder(capacity=ring_capacity)
        if dump_path is None:
            file_path = getattr(self._file, "path", None)
            if file_path is not None:
                dump_path = os.fspath(file_path) + ".flight.json"
        recorder.dump_path = (
            os.fspath(dump_path) if dump_path is not None else None
        )
        if self.concurrent:
            recorder.make_threadsafe()
        self.tracer = Tracer(enabled=True, recorder=recorder)
        self._wire_tracing()
        return self.tracer

    def disable_tracing(self) -> None:
        """Unsubscribe the tracer from every hook and drop back to the
        one-predicate-per-op disabled state.  The recorder (and any dump
        it wrote) survives on the old tracer object."""
        for event, fn in self._trace_subs:
            self.hooks.unsubscribe(event, fn)
        self._trace_subs = []
        self.tracer = Tracer(enabled=False)

    @property
    def flight_recorder(self) -> FlightRecorder:
        return self.tracer.recorder

    def _wire_tracing(self) -> None:
        """Subscribe the tracer to every engine emit point, so nested
        events land as children of whichever op span is open."""
        tracer = self.tracer
        wiring = (
            ("on_page_io", "io", lambda p: "page_" + p["kind"]),
            ("on_buffer", "buffer", lambda p: "buffer_" + p["kind"]),
            ("on_overflow_hop", "chain", lambda p: "overflow_hop"),
            ("on_overflow_link", "chain", lambda p: "overflow_link"),
            ("on_big_pair", "chain", lambda p: "big_pair_" + p["kind"]),
            ("on_split", "split", lambda p: "split"),
            ("on_merge", "split", lambda p: "merge"),
            ("on_free", "space", lambda p: "page_free"),
            ("on_compact", "space", lambda p: "compact"),
            ("on_evict", "buffer", lambda p: "evict"),
            ("on_fault", "fault", lambda p: "fault_injected"),
            ("on_commit", "wal", lambda p: "commit"),
        )
        for event, cat, namer in wiring:
            def relay(payload, _cat=cat, _namer=namer):
                tracer.instant(_namer(payload), _cat, payload)
            self.hooks.subscribe(event, relay)
            self._trace_subs.append((event, relay))

        def wal_relay(payload):
            # timed WAL phases (group-commit fsync / commit_wait carry
            # their own measured interval) become proper spans; the rest
            # of the WAL chatter stays zero-duration instants
            if "dur" in payload and "t0" in payload:
                attrs = {
                    k: v for k, v in payload.items() if k not in ("t0", "dur", "kind")
                }
                tracer.complete(
                    "wal_" + payload["kind"], payload["t0"], payload["dur"],
                    "wal", attrs,
                )
            else:
                tracer.instant("wal_" + payload["kind"], "wal", payload)

        self.hooks.subscribe("on_wal", wal_relay)
        self._trace_subs.append(("on_wal", wal_relay))

        def lock_wait(payload):
            tracer.complete(
                "lock_wait",
                payload["t0"],
                payload["wait"],
                "lock",
                {"mode": payload["mode"]},
            )

        self.hooks.subscribe("on_lock", lock_wait)
        self._trace_subs.append(("on_lock", lock_wait))

    def _trace_open(self, t_open: float, how: str) -> None:
        """create/open path: enable tracing and backfill the 'open' root
        span covering pager open + construction (epoch re-anchors to the
        open start, so the span sits at ts=0)."""
        tracer = self.enable_tracing()
        tracer.epoch = t_open
        tracer.complete(
            "open", t_open, time.perf_counter() - t_open, "op", {"how": how}
        )

    # -- the op gate ------------------------------------------------------------

    def _op(self, name: str, hist, guard, fn, *args):
        """Run one public op: ``fn(*args)`` under ``guard``.

        With tracing off this is the lock plus, when the host has a
        ``_clock``, a latency sample in ``hist`` (``None`` = no
        histogram).  With tracing on, a root span named ``name`` opens
        *before* the lock, so a contended acquisition shows up as a
        ``lock_wait`` child; the span's duration is the latency sample.
        A raising op is sampled too, marks its span ``error``,
        auto-dumps the flight recorder once, and re-raises.
        """
        tracer = self.tracer
        clock = self._clock if hist is not None else None
        if not tracer.enabled:
            with guard:
                if clock is None:
                    return fn(*args)
                t0 = clock()
                try:
                    return fn(*args)
                finally:
                    hist.observe(clock() - t0)
        span = tracer.start(name, "op")
        try:
            with guard:
                result = fn(*args)
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            tracer.end(span)
            if clock is not None:
                hist.observe(span.t1 - span.t0)
            tracer.recorder.auto_dump(f"exception:{type(exc).__name__}")
            raise
        tracer.end(span)
        if clock is not None:
            hist.observe(span.t1 - span.t0)
        return result
