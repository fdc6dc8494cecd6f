"""The two in-process workloads, driven through ``repro.open``.

``embed-read-zipf``: one caller, single-key calls, 95% ``get`` and 5%
replacing ``put`` with Zipf-skewed keys, against a disk table several
times larger than the package's default 64 KiB buffer pool -- the
paper's read path (bucket lookup, buffer misses, page reads) without
the log, the server or the shards.

``embed-churn-wal``: one caller, 16-op transactions on a WAL table
that alternately grow the table by ``delta`` keys and shrink it back,
so every cycle crosses the split and the contraction thresholds and
the log checkpoints several times.  Each transaction is preceded by one
read of a key whose state the model knows.  The log is written at every
commit and never fsynced (``durability='wal'``); checkpoints fsync the
table file, as the program does.

Both check every read against a model built from the seed, and report
the counters of the first ``exact_ops`` ops, which repeat exactly for
one seed.  Both time their loop in rounds, each pinned to the next CPU
and preceded by the reference loop, and report their figures over the
quiet rounds (``common.Rounds``).
"""

from __future__ import annotations

import os
import random
import signal

from common import (
    CpuRotation,
    Failures,
    REF_NOMINAL_S,
    Rounds,
    cpu_since,
    cpu_times,
    fresh_dir,
    make_keys,
    make_value,
    median,
    pc,
    reference,
    zipf_sequence,
)
from ledger import delta, flat_stat
from layers import Profile, SpanLog, install, uninstall

#: period of the reference samples taken during a set-up
SETUP_SAMPLE_S = 0.05
#: ops drawn up front for embed-read-zipf; the run cycles through them
ZIPF_SEQUENCE = 200_000
#: ops per round of embed-read-zipf (a few dozen milliseconds)
ZIPF_ROUND = 1024
#: transactions per round of embed-churn-wal; a phase of a cycle is a
#: whole number of rounds
CHURN_ROUND = 25


def _timed_setups(setups: int, build):
    """Run ``build(i)`` -> ``(db, path)`` ``setups`` times; returns the
    median time scaled to the reference speed, the median raw time and
    the last db and path.  Earlier dbs are closed unmeasured.

    The reference loop runs before and after each set-up and every
    ``SETUP_SAMPLE_S`` during it, from a ``SIGALRM`` handler; the
    set-up's time, less the handler's, is scaled by ``REF_NOMINAL_S``
    over the median of those loop times, as a round's is
    (``common.Rounds``).
    """
    times = []
    kept = None
    for i in range(setups):
        if kept is not None:
            kept[0].close()
        refs = [reference()]
        spent = 0.0

        def sample(signum, frame):
            nonlocal spent
            t = pc()
            refs.append(reference())
            spent += pc() - t

        old = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SETUP_SAMPLE_S, SETUP_SAMPLE_S)
        t0 = pc()
        try:
            kept = build(i)
        finally:
            raw = pc() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        refs.append(reference())
        raw -= spent
        times.append((raw * REF_NOMINAL_S / median(refs), raw))
    return median(t[0] for t in times), median(t[1] for t in times), *kept


def _with_profile(log, spans_dir, run: dict) -> dict:
    """Write a traced run's spans out and attach their profile."""
    if log is not None:
        log.dump(os.path.join(spans_dir, "loadgen.spans"))
        run["profile"] = Profile()
        run["profile"].add_log(log)
        run["client_profile"] = None
    return run


def read_zipf(p: dict, seed: int, seconds: float, *, setups: int, spans_dir=None,
              latencies: bool = True) -> dict:
    import repro

    rng = random.Random(seed)
    n, klen, vlen = p["keys"], p["key"], p["value"]
    keys = make_keys(rng, n, klen)
    model = [make_value(vlen, i, 0) for i in range(n)]
    seq = zipf_sequence(rng, n, p["theta"], ZIPF_SEQUENCE)
    put_share = p["putpct"] / 100.0
    is_put = [rng.random() < put_share for _ in range(ZIPF_SEQUENCE)]
    bsize, ffactor = repro.suggest_parameters(klen + vlen, bsize=p["bsize"])
    pairs = list(zip(keys, model))

    def build(i):
        path = os.path.join(fresh_dir("zipf", str(i)), "table.db")
        db = repro.open(path, "n", bsize=bsize, ffactor=ffactor)
        db.put_many(pairs)  # by growth, as the paper's CREATE test
        return db, path

    setup_s, setup_raw_s, db, path = _timed_setups(setups, build)
    fails = Failures()
    rounds = Rounds(p["quiet"])
    exact_ops = p["exact_ops"]
    exact = None
    version = 0
    before = flat_stat(db.stat())
    log = SpanLog() if spans_dir is not None else None
    undo = install(log) if log is not None else None
    get, put = db.get, db.put  # bound after install, so traced runs see the wrappers
    cpus = CpuRotation()
    deadline = pc() + seconds
    ops = 0
    while pc() < deadline:
        lat_get: list[float] = []
        lat_put: list[float] = []
        cpus.next()
        ref = reference()
        cpu0 = cpu_times()
        t_round = pc()
        for i in range(ops, ops + ZIPF_ROUND):
            if i == exact_ops:
                exact = delta(flat_stat(db.stat()), before)
            j = i % ZIPF_SEQUENCE
            k = seq[j]
            try:
                if is_put[j]:
                    version += 1
                    value = make_value(vlen, k, version)
                    t = pc()
                    put(keys[k], value)
                    lat_put.append(pc() - t)
                    model[k] = value
                    fails.attempted += 1
                else:
                    t = pc()
                    got = get(keys[k])
                    lat_get.append(pc() - t)
                    fails.check(got == model[k], lambda: f"get {keys[k]!r} returned {got!r}")
            except Exception as exc:  # noqa: BLE001 - counted, run continues
                fails.fail(f"{type(exc).__name__}: {exc}")
        ops += ZIPF_ROUND
        rounds.add(0, median(lat_get), pc() - t_round, ZIPF_ROUND, cpu_since(cpu0),
                   {"get": lat_get, "put": lat_put}, ref)
    cpus.restore()
    if undo is not None:
        uninstall(undo)
        get = db.get
    after = flat_stat(db.stat())
    for k in range(n):  # full read-back: no acknowledged put is lost
        got = get(keys[k])
        fails.check(got == model[k], lambda: f"read-back {keys[k]!r} returned {got!r}")
    db.close()
    live = n * (klen + vlen)
    e2e = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        **rounds.figures(("get", "put") if latencies else ()),
        "space_amp": os.path.getsize(path) / live,
    }
    if latencies:
        # durability 'none': a put is acknowledged when the call returns
        e2e["commit_p50_us"] = e2e["put_p50_us"]
        e2e["commit_p99_us"] = e2e["put_p99_us"]
    return _with_profile(log, spans_dir, {
        "e2e": e2e,
        "fails": fails,
        "window": {
            "ops": ops,
            "gets": ops - version,  # one version per put
            "puts": version,
            "put_bytes": version * (klen + vlen),
            "counters": delta(after, before),
            "freelist_before": before["freelist_pages"],
            "freelist_after": after["freelist_pages"],
        },
        "exact": exact,
        "context": {
            "keys": n, "key_bytes": klen, "value_bytes": vlen, "bsize": bsize,
            "ffactor": ffactor, "buffer_pool_bytes": "package default (64 KiB)",
            "file_bytes": os.path.getsize(path), "zipf_theta": p["theta"],
            "put_pct": p["putpct"], "flush_policy": "durability=none; no sync in the run",
        },
    })


def churn_wal(p: dict, seed: int, seconds: float, *, setups: int, spans_dir=None,
              latencies: bool = True) -> dict:
    import repro
    from repro.core.check import verify_file

    rng = random.Random(seed)
    klen, vlen = p["key"], p["value"]
    base_n, delta_n, txn = p["base"], p["delta"], p["txn"]
    if delta_n % (txn * CHURN_ROUND):
        raise ValueError(f"delta must be a whole number of {CHURN_ROUND}-transaction rounds")
    base = make_keys(rng, base_n + 4 * delta_n, klen)
    base, keysets = base[:base_n], [base[base_n + s * delta_n: base_n + (s + 1) * delta_n] for s in range(4)]
    orders = []
    for _ in keysets:
        order = list(range(delta_n))
        rng.shuffle(order)
        orders.append(order)
    bsize, ffactor = repro.suggest_parameters(klen + vlen, bsize=p["bsize"])
    cachesize = p["cache_kib"] * 1024
    # base values carry tags no cycle reaches, so no two writes look alike
    base_pairs = [(k, make_value(vlen, 1_000_000 + i, 0)) for i, k in enumerate(base)]

    def build(i):
        path = os.path.join(fresh_dir("churn", str(i)), "table.db")
        db = repro.open(
            path, "n", bsize=bsize, ffactor=ffactor, cachesize=cachesize,
            durability="wal", min_fill=p["min_fill"],
        )
        for s in range(0, base_n, 500):
            with db.transaction():
                db.put_many(base_pairs[s: s + 500])
        return db, path

    setup_s, setup_raw_s, db, path = _timed_setups(setups, build)
    wal_path = path + ".wal"
    model = dict(base_pairs)
    fails = Failures()
    rounds = Rounds(p["quiet"])
    exact_ops = p["exact_ops"]
    exact = None
    before = flat_stat(db.stat())
    log = SpanLog() if spans_dir is not None else None
    undo = install(log) if log is not None else None
    get, put, delete = db.get, db.put, db.delete
    cpus = CpuRotation()
    deadline = pc() + seconds
    ops = gets = puts = 0
    cycle = 0
    timed = True
    # after the deadline the current cycle finishes untimed, so the run
    # always ends with the base keys live
    while timed:
        keys = keysets[cycle % 4]
        for phase in ("insert", "delete"):
            order = range(delta_n) if phase == "insert" else orders[cycle % 4]
            for start in range(0, delta_n, txn):
                position, step = divmod(start // txn, CHURN_ROUND)
                if step == 0:  # a round begins
                    if timed and pc() >= deadline:
                        timed = False
                        cpus.restore()
                        if undo is not None:
                            uninstall(undo)
                            get, put, delete = db.get, db.put, db.delete
                        after = flat_stat(db.stat())
                    lat: dict[str, list[float]] = {"get": [], "put": [], "commit": []}
                    if timed:
                        cpus.next()
                        ref = reference()
                    cpu0 = cpu_times()
                    t_round = pc()
                if exact is None and ops >= exact_ops:
                    exact = delta(flat_stat(db.stat()), before)
                # one read of a key whose state the model knows
                probe = rng.choice(base) if rng.random() < 0.5 else keys[rng.randrange(delta_n)]
                try:
                    t = pc()
                    got = get(probe)
                    t_get = pc() - t
                    want = model.get(probe)
                    fails.check(got == want, lambda: f"get {probe!r} returned {got!r}, want {want!r}")
                    t_begin = pc()
                    db.begin()
                    for j in order[start: start + txn]:
                        key = keys[j]
                        if phase == "insert":
                            value = make_value(vlen, cycle, j)
                            t = pc()
                            put(key, value)
                            lat["put"].append(pc() - t)
                            model[key] = value
                            fails.attempted += 1
                        else:
                            fails.check(delete(key) == 0, lambda: f"delete {key!r} found nothing")
                            del model[key]
                    db.commit()
                    lat["commit"].append(pc() - t_begin)
                    lat["get"].append(t_get)
                except Exception as exc:  # noqa: BLE001 - counted, run continues
                    fails.fail(f"{type(exc).__name__}: {exc}")
                    if db.in_transaction:
                        db.abort()
                if not timed:
                    continue
                ops += 1 + txn
                gets += 1
                puts += txn if phase == "insert" else 0
                # rounds of the first cycle warm the table and its file up
                if step == CHURN_ROUND - 1 and cycle > 0 and lat["commit"]:
                    rounds.add((phase, position), median(lat["commit"]), pc() - t_round,
                               CHURN_ROUND * (1 + txn), cpu_since(cpu0), lat, ref)
        cycle += 1
    db.close()
    space_amp = (os.path.getsize(path) + os.path.getsize(wal_path)) / (len(model) * (klen + vlen))
    # reopen, compare everything with the model, then fsck
    db = repro.open(path, "w", durability="wal")
    stored = dict(db.items())
    db.close()
    for key in model.keys() | stored.keys():
        fails.check(
            stored.get(key) == model.get(key),
            lambda: f"after reopen {key!r} holds {stored.get(key)!r}, want {model.get(key)!r}",
        )
    report = verify_file(path)
    fails.check(report.ok, lambda: "check(): " + "; ".join(report.errors[:3]))
    e2e = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        **rounds.figures(("get", "put", "commit") if latencies else ()),
        "space_amp": space_amp,
    }
    return _with_profile(log, spans_dir, {
        "e2e": e2e,
        "fails": fails,
        "window": {
            "ops": ops,
            "gets": gets,
            "puts": puts,
            "put_bytes": puts * (klen + vlen),
            "counters": delta(after, before),
            "freelist_before": before["freelist_pages"],
            "freelist_after": after["freelist_pages"],
        },
        "exact": exact,
        "context": {
            "base_keys": base_n, "delta_keys": delta_n, "txn_ops": txn, "key_bytes": klen,
            "value_bytes": vlen, "bsize": bsize, "ffactor": ffactor, "min_fill": p["min_fill"],
            "buffer_pool_bytes": cachesize, "cycles": cycle,
            "flush_policy": "durability=wal: log written per commit, never fsynced; "
                            "checkpoints (package default, 1 MiB of log) fsync the table file",
        },
    })
