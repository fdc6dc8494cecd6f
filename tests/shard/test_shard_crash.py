"""Worker-death semantics: the SIGKILL sweep (ISSUE acceptance).

The contract under test, in ack-follows-durability terms: on a
WAL-backed sharded table, any batch whose reply the router has seen is
committed in the owning shard's log *before* that reply was sent.
SIGKILL the worker at any later instant, and the respawned worker --
:meth:`HashTable.open_file` replays the log before serving -- must
return every acknowledged write.  The interrupted caller gets a typed
:class:`ShardError` naming the shard; nothing hangs, nothing desyncs.
"""

import os
import signal

import pytest

from repro.core.errors import ShardError
from repro.shard import ShardedTable

pytestmark = pytest.mark.crash


def _kill_worker(table, index):
    shard = table._shards[index]
    os.kill(shard.proc.pid, signal.SIGKILL)
    shard.proc.join(timeout=10)


def _poke_until_error(table, index):
    """Drive the dead shard until the router notices (typed ShardError),
    which also respawns it."""
    with pytest.raises(ShardError) as exc_info:
        for r in range(3):
            table._call(index, "ping", ())
    assert exc_info.value.shard == index
    return exc_info.value


class TestSigkillSweep:
    @pytest.mark.parametrize("victim", [0, 1, 2, 3])
    def test_zero_lost_acked_writes(self, tmp_path, victim):
        """The sweep: ack batches, SIGKILL shard ``victim``, verify every
        acked write after respawn + WAL replay -- for each shard in turn."""
        t = ShardedTable.create(
            tmp_path / "kill.db", shards=4, durability="wal"
        )
        acked = {}
        try:
            for round_no in range(3):
                batch = [
                    (b"r%d-k%d" % (round_no, i), b"v%d-%d" % (round_no, i))
                    for i in range(60)
                ]
                t.put_many(batch)          # reply seen => committed per shard
                acked.update(batch)
                _kill_worker(t, victim)
                err = _poke_until_error(t, victim)
                assert "respawn" in str(err)
                for k, v in acked.items():  # nothing acked may be lost
                    assert t.get(k) == v, f"lost acked write {k!r}"
            assert t._shards[victim].respawns == 3
            assert len(t) == len(acked)
        finally:
            t.close()

    def test_kill_between_operations_is_invisible_to_data(self, tmp_path):
        """A worker killed while idle: next touch raises once, then the
        shard serves normally from its replayed state."""
        t = ShardedTable.create(tmp_path / "idle.db", shards=2, durability="wal")
        try:
            t.put_many([(b"a%d" % i, b"x") for i in range(40)])
            _kill_worker(t, 1)
            _poke_until_error(t, 1)
            assert t.get_many([b"a%d" % i for i in range(40)]) == [b"x"] * 40
            t.put(b"after", b"respawn")
            assert t.get(b"after") == b"respawn"
        finally:
            t.close()

    def test_explicit_single_put_acks_are_durable(self, tmp_path):
        """Single put()s (auto-committed per op under WAL) survive too."""
        t = ShardedTable.create(tmp_path / "single.db", shards=2, durability="wal")
        try:
            for i in range(30):
                assert t.put(b"s%d" % i, b"v%d" % i) == 0
            for victim in (0, 1):
                _kill_worker(t, victim)
                _poke_until_error(t, victim)
            for i in range(30):
                assert t.get(b"s%d" % i) == b"v%d" % i
        finally:
            t.close()

    def test_unacked_tail_may_vanish_but_never_corrupts(self, tmp_path):
        """Writes the router never acked are allowed to vanish; what must
        hold is that the shard reopens clean and consistent."""
        t = ShardedTable.create(tmp_path / "tail.db", shards=2, durability="wal")
        try:
            t.put_many([(b"base%d" % i, b"v") for i in range(50)])
            victim = t.shard_of(b"doomed")
            _kill_worker(t, victim)
            # this write races the corpse: it must fail typed, not hang
            with pytest.raises(ShardError):
                t.put(b"doomed", b"maybe")
                t.put(b"doomed", b"maybe")  # second try hits the respawn path
            t.check_invariants()  # every shard verifies post-replay
            for i in range(50):
                assert t.get(b"base%d" % i) == b"v"
        finally:
            t.close()

    def test_crash_inside_explicit_txn_aborts_cleanly(self, tmp_path):
        """A worker dying mid-transaction: the uncommitted sub-transaction
        is rolled back by replay (commit never reached its log), and the
        router's broadcast surfaces a typed error instead of wedging."""
        t = ShardedTable.create(tmp_path / "txn.db", shards=2, durability="wal")
        try:
            t.put_many([(b"pre%d" % i, b"v") for i in range(20)])
            t.begin()
            t.put_many([(b"in-txn%d" % i, b"w") for i in range(20)])
            _kill_worker(t, 0)
            with pytest.raises(ShardError):
                t.commit()
            # the router's txn state is closed either way; data converges
            # to: committed batches only on the dead shard
            assert not t.in_transaction
            for i in range(20):
                assert t.get(b"pre%d" % i) == b"v"
        finally:
            t.close()

    def test_respawn_rewires_tracing(self, tmp_path):
        """A respawned worker rejoins the trace: spans flow again."""
        t = ShardedTable.create(tmp_path / "tr.db", shards=2, durability="wal")
        try:
            tracer = t.enable_tracing()
            t.put(b"k", b"v")
            _kill_worker(t, 0)
            _poke_until_error(t, 0)
            tracer.recorder.clear()
            t._call(0, "ping", ())
            # force a traced op through shard 0 specifically
            t._routed("probe", None, t._call, 0, "len", ())
            cats = {e.get("cat") for e in tracer.recorder.events()}
            assert "shard" in cats, "respawned worker stopped tracing"
        finally:
            t.close()
