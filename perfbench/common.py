"""Shared pieces of the benchmark: input generation, statistics, the
run context and the per-run output directory.

Every input is a pure function of the seed, so two runs with one seed
feed the program identical keys, values and operation sequences.
"""

from __future__ import annotations

import os
import platform
import random
import resource
import shutil
import statistics
import struct
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: everything a run leaves behind: result files, spans, scratch tables
OUT = os.path.join(ROOT, ".perfbench_out")

pc = time.perf_counter


def require_source() -> None:
    """Make the package importable from the checkout, or stop: a
    checkout without ``src/repro`` has no program to measure."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program source at {SRC}/repro")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> dict:
    """Environment for a child Python that must import the same source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def fresh_dir(*parts: str) -> str:
    path = os.path.join(OUT, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(path, name))
        for name in os.listdir(path)
        if os.path.isfile(os.path.join(path, name))
    )


# -- inputs ----------------------------------------------------------------------


def make_keys(rng: random.Random, n: int, klen: int) -> list[bytes]:
    """``n`` distinct seed-derived hex keys of ``klen`` bytes."""
    seen: set[bytes] = set()
    keys = []
    bits = 4 * klen
    while len(keys) < n:
        k = b"%0*x" % (klen, rng.getrandbits(bits))
        if k not in seen:
            seen.add(k)
            keys.append(k)
    return keys


def make_value(vlen: int, tag: int, version: int) -> bytes:
    """A ``vlen``-byte value naming its writer: ``tag`` (seed or key
    index) and a version that changes on every write, so a stale or
    misplaced value never equals the expected one."""
    v = b"%x:%x:" % (tag, version)
    if len(v) > vlen:
        raise ValueError(f"value of {vlen} bytes cannot hold tag {tag} version {version}")
    return v + b"." * (vlen - len(v))


def zipf_sequence(rng: random.Random, n_keys: int, theta: float, length: int) -> list[int]:
    """``length`` key indices drawn with Zipf(``theta``) over a
    seed-shuffled rank, so the hottest keys differ per seed."""
    ranks = list(range(n_keys))
    rng.shuffle(ranks)
    cum = []
    total = 0.0
    for r in range(n_keys):
        total += 1.0 / (r + 1) ** theta
        cum.append(total)
    return rng.choices(ranks, cum_weights=cum, k=length)


# -- statistics ------------------------------------------------------------------


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an already sorted, non-empty list."""
    idx = min(len(sorted_values) - 1, max(0, int(q * len(sorted_values))))
    return sorted_values[idx]


#: samples per p99 chunk: the p99 of 1000 samples has ten beyond it
P99_CHUNK = 1000


def latency_summary(samples: list[float], name: str) -> dict:
    """p50 and p99 in microseconds of ``samples`` (seconds, in the
    order they were taken).

    p50 is over every sample.  p99 is the median, over consecutive
    chunks of ``P99_CHUNK`` samples, of each chunk's p99 (ten samples beyond
    it): a stall of the shared machine lifts the p99 of the chunk it
    falls in, not the run's figure.
    """
    if len(samples) < P99_CHUNK:
        raise RuntimeError(
            f"{name}: {len(samples)} samples, p99 needs at least {P99_CHUNK}; "
            "lengthen the run or raise the op share"
        )
    starts = range(0, len(samples) - P99_CHUNK + 1, P99_CHUNK)
    chunks = [samples[i: i + P99_CHUNK] for i in starts]
    chunks[-1] = samples[starts[-1]:]  # the remainder joins the last chunk
    return {
        f"{name}_p50_us": quantile(sorted(samples), 0.50) * 1e6,
        f"{name}_p99_us": median(quantile(sorted(c), 0.99) for c in chunks) * 1e6,
        f"{name}_samples": len(samples),
    }


def median(values):
    return statistics.median(values)


# -- CPUs -----------------------------------------------------------------------


class CpuRotation:
    """Pins this process, and the threads ``tids`` of other processes, to
    each CPU they may run on in turn, one round at a time.

    The host's slow spells come and go for each CPU on its own; a run
    whose rounds visit every CPU has quiet rounds unless every CPU is
    slow at once.  ``restore`` gives back the affinity this process had.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.turn = 0

    def next(self, tids=()) -> None:
        if len(self.cpus) > 1:
            self._pin({self.cpus[self.turn % len(self.cpus)]}, tids)
            self.turn += 1

    def restore(self, tids=()) -> None:
        self._pin(self.cpus, tids)

    @staticmethod
    def _pin(cpus, tids) -> None:
        os.sched_setaffinity(0, cpus)
        for tid in tids:
            try:
                os.sched_setaffinity(tid, cpus)
            except ProcessLookupError:  # a thread that has ended
                pass


#: seconds the reference loop takes on the 2-cpu host the benchmark was
#: written on, in its fast spells; in-process times are reported scaled
#: to this speed (see ``Rounds``)
REF_NOMINAL_S = 200e-6

_REF_DICT = {i: i * 3 for i in range(4096)}
_REF_BYTES = bytes(range(256)) * 16
_REF_STRUCT = struct.Struct("<IHH")


def reference() -> float:
    """Seconds one pass of a fixed interpreter-bound loop takes now.

    The loop does what the package's Python code does most -- dict
    lookups, struct unpacking, bytes slicing -- and calls none of it, so
    its time moves with the speed of the CPU it runs on, not with a
    change to the program.  The first pass warms the caches the program
    left cold; the second is timed.
    """
    d, b, unpack = _REF_DICT, _REF_BYTES, _REF_STRUCT.unpack_from
    for _ in range(2):
        t = pc()
        s = 0
        for i in range(500):
            s += d.get(i & 4095, 0)
            s += unpack(b, (i * 8) & 4087)[1]
            s += len(b[i & 1023: (i & 1023) + 16])
    return pc() - t


# -- quiet rounds ----------------------------------------------------------------

class Rounds:
    """A timed loop cut into short rounds, and the figures of its quiet
    ones.

    The benchmark shares its host, whose speed swings by up to 2x
    between spells that last from a fraction of a second to several
    seconds; the process's CPU time swings with it, so no clock inside
    the run can subtract the slow spells.  Each round is a few dozen
    milliseconds of identical work.  A round's ``key`` is a typical
    latency of it, as a rule the median of its main operation: a slow
    spell lifts it, but one rare slow operation of the program's own (a
    checkpoint, a split) does not.  Rounds of one ``cls`` (one position in a repeating cycle of
    work) are ranked by key, and the end-to-end figures are taken over
    the lowest ``share`` of each class, pooled.  A change to the
    program moves every round, quiet ones included; a spell of the host
    moves only the rounds it falls in.

    The host's spells come in more than one speed, and the quietest
    tenth of one run may be slower than another's.  An in-process round
    therefore runs on one CPU (``CpuRotation``) and carries ``ref``, the
    time of the ``reference`` loop run on that CPU just before it; its
    figures are scaled by ``REF_NOMINAL_S`` over the quiet rounds'
    median ``ref``: times as they would read on a CPU on which the
    reference loop takes ``REF_NOMINAL_S``.  The served workload's
    rounds carry no ``ref`` and are not scaled: its latency is mostly
    processes waking each other, which the loop did not track.
    """

    def __init__(self, share: float) -> None:
        self.share = share
        self.rounds: list[dict] = []

    def add(self, cls, key: float, seconds: float, ops: int,
            cpu: tuple[float, float], samples: dict[str, list[float]], ref=None) -> None:
        self.rounds.append({"n": len(self.rounds), "cls": cls, "key": key, "seconds": seconds,
                            "ops": ops, "cpu": cpu, "samples": samples, "ref": ref})

    def quiet(self) -> list[dict]:
        by_cls: dict = {}
        for r in self.rounds:
            by_cls.setdefault(r["cls"], []).append(r)
        kept = []
        for rs in by_cls.values():
            rs.sort(key=lambda r: r["key"])
            kept += rs[: max(1, round(len(rs) * self.share))]
        return kept

    def figures(self, latencies: tuple[str, ...]) -> dict:
        """``ops_s``, ``user_us_per_op``, ``sys_us_per_op`` and each
        named latency's p50/p99 over the quiet rounds, in run order,
        scaled to the reference speed when the rounds carry ``ref``."""
        if not self.rounds:
            raise RuntimeError("no complete round; lengthen the run")
        kept = sorted(self.quiet(), key=lambda r: r["n"])
        refs = [r["ref"] for r in kept if r["ref"] is not None]
        scale = REF_NOMINAL_S / median(refs) if refs else 1.0
        ops = sum(r["ops"] for r in kept)
        cpu_us_per_op = sum(sum(r["cpu"]) for r in kept) / ops * 1e6 * scale
        # the kernel splits CPU time into user and system by sampling
        # ticks; the quiet rounds hold too few, so the split is the whole run's
        cpu_all = sum(sum(r["cpu"]) for r in self.rounds)
        sys_share = sum(r["cpu"][1] for r in self.rounds) / cpu_all if cpu_all else 0.0
        out = {
            "ops_s": ops / sum(r["seconds"] for r in kept) / scale,
            "user_us_per_op": cpu_us_per_op * (1 - sys_share),
            "sys_us_per_op": cpu_us_per_op * sys_share,
            "rounds": len(self.rounds),
            "quiet_rounds": len(kept),
            "speed_scale": scale,
        }
        for name in latencies:
            samples = [s * scale for r in kept for s in r["samples"][name]]
            out.update(latency_summary(samples, name))
        return out


class Failures:
    """Attempted and failed ops, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, ok: bool, reason) -> None:
        self.attempted += 1
        if not ok:
            self.fail(reason)

    def fail(self, reason) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason() if callable(reason) else str(reason))


def cpu_times() -> tuple[float, float]:
    """User and system CPU seconds of this process so far."""
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime, r.ru_stime


def cpu_since(start: tuple[float, float]) -> tuple[float, float]:
    """User and system CPU seconds of this process since ``start``
    (the paper's Fig. 5 split)."""
    user, sys_ = cpu_times()
    return user - start[0], sys_ - start[1]


# -- context ---------------------------------------------------------------------


def machine_context() -> dict:
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }

