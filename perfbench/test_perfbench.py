"""Checks of the benchmark itself: failure accounting, seed handling,
the spec file and the span arithmetic.

Run with ``python3 -m pytest perfbench -q`` from the checkout root.
"""

from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402

common.require_source()

import embedded  # noqa: E402
import layers  # noqa: E402
import ledger  # noqa: E402
import run  # noqa: E402
import served  # noqa: E402
from repro.access.hash_adapter import HashAccess  # noqa: E402

ZIPF = {"keys": 2000, "key": 16, "value": 29, "bsize": 1024, "theta": 0.99,
        "putpct": 5, "exact_ops": 1000, "quiet": 0.25}
CHURN = {"base": 200, "delta": 800, "txn": 16, "key": 16, "value": 29, "bsize": 1024,
         "min_fill": 0.5, "cache_kib": 1024, "exact_ops": 1000, "quiet": 0.25}


def _plant(monkeypatch, method: str, nth: int, wrong) -> None:
    """Make the ``nth`` call of ``HashAccess.<method>`` return ``wrong``."""
    original = getattr(HashAccess, method)
    calls = [0]

    def planted(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        calls[0] += 1
        return wrong if calls[0] == nth else result

    monkeypatch.setattr(HashAccess, method, planted)


def test_planted_wrong_get_counts_as_failure(monkeypatch):
    _plant(monkeypatch, "get", 100, b"planted")
    result = embedded.read_zipf(ZIPF, seed=1, seconds=4, setups=1, latencies=False)
    fails = result["fails"]
    assert fails.failed == 1
    assert "planted" in fails.reasons[0]
    assert fails.attempted > 1000


def test_planted_missed_delete_counts_as_failure(monkeypatch):
    _plant(monkeypatch, "delete", 50, 1)  # 1 = key not found
    result = embedded.churn_wal(CHURN, seed=1, seconds=5, setups=1, latencies=False)
    assert result["fails"].failed == 1
    assert "found nothing" in result["fails"].reasons[0]


def test_clean_churn_run_reopens_and_checks():
    result = embedded.churn_wal(CHURN, seed=2, seconds=5, setups=1, latencies=False)
    assert result["fails"].failed == 0
    assert result["exact"] is not None
    assert result["e2e"]["space_amp"] > 1


def test_served_wrong_value_counts_as_failure():
    import repro
    from repro.serve import protocol as proto
    from repro.serve.client import Client
    from repro.serve.server import ServerThread

    keys = [b"k%03d" % i for i in range(8)]
    values = [b"v%03d" % i for i in range(8)]
    with ServerThread(repro.open(None), owns_db=True) as srv:
        with Client(port=srv.port) as client:
            client.batch([("put", k, v) for k, v in zip(keys, values)])
        fails = common.Failures()
        model = list(values)
        model[3] = b"not what the server holds"
        p = {"getpct": 100, "value": 12}
        conn = served.Conn(srv.port, 0, keys, model, random.Random(1), p, fails, proto)
        served.closed_loop([conn], 0.3, 4)
        conn.close()
    assert fails.attempted > 50
    assert 0 < fails.failed < fails.attempted
    assert all("status 0x80" in r and "k003" in r for r in fails.reasons)


def test_quiet_rounds_keep_the_lowest_keys_of_each_class():
    rounds = common.Rounds(0.5)
    for n in range(4):
        # class "slow" is slower throughout: ranking across classes would
        # keep only "fast" rounds
        for cls, base in (("fast", 1.0), ("slow", 3.0)):
            key = base + n
            rounds.add(cls, key, key, 10, (0.0, 0.0), {"lat": [key * 1e-6] * 1000},
                       ref=common.REF_NOMINAL_S * (2 if n else 1))
    kept = rounds.quiet()
    assert sorted((r["cls"], r["key"]) for r in kept) == [
        ("fast", 1.0), ("fast", 2.0), ("slow", 3.0), ("slow", 4.0)]
    fig = rounds.figures(("lat",))
    # quiet refs are nominal and twice nominal: their median is 1.5x
    assert abs(fig["speed_scale"] - 1 / 1.5) < 1e-12
    assert abs(fig["ops_s"] - 40 / (1 + 2 + 3 + 4) * 1.5) < 1e-9
    assert fig["quiet_rounds"] == 4 and fig["rounds"] == 8


def test_inputs_follow_the_seed():
    a = common.make_keys(random.Random(7), 100, 16)
    assert a == common.make_keys(random.Random(7), 100, 16)
    assert a != common.make_keys(random.Random(8), 100, 16)
    z = common.zipf_sequence(random.Random(7), 1000, 0.99, 5000)
    assert z == common.zipf_sequence(random.Random(7), 1000, 0.99, 5000)
    # the hottest key carries far more than a uniform share
    assert max(z.count(k) for k in set(z)) > 10 * 5000 / 1000


def test_spec_names_every_metric_the_benchmark_reports():
    spec = run.load_spec()
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert per_layer == (
        set(ledger.LAYER_TARGETS) | set(ledger.EXACT_COUNTERS) | {ledger.MISMATCH_METRIC}
    )
    names = [w["name"] for w in spec["workloads"]]
    assert names == ["embed-read-zipf", "embed-churn-wal", "served-mixed-sharded"]
    for name in names:
        assert run.workload_params(spec, name)
    assert run.workload_params(spec, "served-mixed-sharded")["rate"] > 0
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
    assert json.dumps(spec)


def test_self_time_subtracts_children():
    class Toy:
        def outer(self):
            self.inner()
            self.inner()

        def inner(self):
            sum(range(1000))

    log = layers.SpanLog()
    Toy.outer = log.wrap(Toy.outer, "toy.outer", None)
    Toy.inner = log.wrap(Toy.inner, "toy.inner", None)
    Toy().outer()
    prof = layers.Profile()
    prof.add_log(log)
    assert prof.calls["toy.outer"] == 1 and prof.calls["toy.inner"] == 2
    assert prof.children[("toy.outer", "toy.inner")] == 2
    assert abs(prof.self_time["toy.outer"]
               - (prof.total["toy.outer"] - prof.total["toy.inner"])) < 1e-9


def test_install_and_uninstall_restore_inherited_methods():
    log = layers.SpanLog()
    before = HashAccess.put
    undo = layers.install(log)
    assert HashAccess.put is not before
    layers.uninstall(undo)
    assert HashAccess.put is before
    assert "put" not in vars(HashAccess)
