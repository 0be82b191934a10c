"""The four workloads: inputs, set-up, the timed phase and output checks.

Each workload function takes a seeded ``random.Random``, the timed-phase
length, a :class:`Sizes` and an optional tracer, and returns a
:class:`Run`. Load always comes from the calling thread alone. Every
run attempts whole rounds of the same operations, so the share of
failed operations does not depend on the seed or the run length.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import functools
import math
import os
import queue
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field

from repro.apps.sorting import ALGORITHMS, INPUT_KINDS, make_input
from repro.cluster import ClusterRouter, RemoteShardClient
from repro.core.alternative import Alternative, Guard
from repro.core.worlds import run_alternatives
from repro.journal import (
    CommitJournal,
    FileJournalStorage,
    MemoryJournalStorage,
    record_block_win,
)
from repro.serve import (
    AdaptiveSpeculationPolicy,
    FixedSpeculationPolicy,
    SpeculationService,
    WorldBudget,
)

#: Scratch space for journals and shard sockets, relative to the
#: checkout root (a relative socket path also keeps clear of the
#: 108-byte ``AF_UNIX`` limit wherever the checkout lives).
WORKDIR = ".perfbench_work"


@dataclass
class Sizes:
    """Input sizes; :data:`FULL` for measuring, :data:`QUICK` for the self-test."""

    setups: int  # set-ups per run; ``setup_s`` is their median
    journal_history: int  # earlier requests pre-built into journal_uptime's journal
    warmup: int  # operations each set-up runs before it counts as done


FULL = Sizes(setups=5, journal_history=4000, warmup=12)
QUICK = Sizes(setups=2, journal_history=300, warmup=4)


@dataclass
class Op:
    """One operation: what was asked, what the answer must be, what came back."""

    expected: object
    target: str = "main"
    payload: object = None
    seq: int = -1
    due: float = 0.0
    submitted: float = 0.0
    done: float = 0.0
    status: str = "pending"
    value: object = None
    reason: str = ""
    #: extra property the latency must satisfy (io_fanout: fastest probe)
    min_latency_s: float = 0.0
    queue_wait_s: float = 0.0
    k: int = 0
    ok: bool = False


@dataclass
class Run:
    """What one run measured; :func:`run.py` turns it into metrics."""

    ops: list[Op] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    journal_records: int = 0
    #: peak RSS (MB) at the end of the timed phase, see :func:`peak_rss_mb`
    peak_rss_mb: float = 0.0
    #: committed operations whose value or journal record was wrong
    wrong: int = 0
    notes: dict = field(default_factory=dict)


# -- measuring helpers -------------------------------------------------------
def _host_cpu_s(pid: int) -> float:
    """User + system CPU of a live child process (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def cpu_now(pids=()) -> float:
    """CPU seconds of this process, its reaped children and ``pids``."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return total + sum(_host_cpu_s(pid) for pid in pids)


def _host_peak_kb(pid: int) -> int:
    """Peak RSS of a live child process (``VmHWM`` in ``/proc/<pid>/status``)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def peak_rss_mb(pids=()) -> float:
    """Peak RSS of this process, of its largest reaped child or of ``pids``."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max([me, kids, *(_host_peak_kb(pid) for pid in pids)]) / 1024.0


class Completions:
    """``on_resolve`` hook: the moment the program resolved each request."""

    def __init__(self) -> None:
        self._q: queue.SimpleQueue = queue.SimpleQueue()

    def __call__(self, request, result) -> None:
        self._q.put((request.seq, result, time.perf_counter()))

    def get(self, timeout: float = 60.0):
        return self._q.get(timeout=timeout)


def rounds(make_round, seconds: float):
    """Yield whole rounds of operations until ``seconds`` have passed."""
    end = time.perf_counter() + seconds
    index = 0
    while True:
        yield from make_round(index)
        index += 1
        if time.perf_counter() >= end:
            return


def closed_loop(ops, submit, completions: Completions, window: int, on_done) -> None:
    """Keep ``window`` operations outstanding until ``ops`` runs out.

    ``submit(op)`` returns the request seq; a request is timed from just
    before its submit to the moment the program resolved it.
    """
    inflight: dict[int, Op] = {}
    ops = iter(ops)
    exhausted = False
    while True:
        while not exhausted and len(inflight) < window:
            op = next(ops, None)
            if op is None:
                exhausted = True
                break
            op.submitted = time.perf_counter()
            try:
                op.seq = submit(op)
            except Exception as exc:  # noqa: BLE001 - a refused submit is a failed op
                op.status, op.reason = "refused", f"{type(exc).__name__}: {exc}"
                on_done(op)
                continue
            inflight[op.seq] = op
        if not inflight:
            return
        try:
            seq, result, done = completions.get()
        except queue.Empty:
            # a request the program never resolves fails; the run goes on
            for op in inflight.values():
                op.status, op.reason = "lost", "not resolved within 60 s"
                on_done(op)
            inflight.clear()
            continue
        op = inflight.pop(seq, None)
        if op is None:
            continue  # resolved outside this loop (a warm-up straggler)
        op.done = done
        _take_result(op, result)
        on_done(op)


def _take_result(op: Op, result) -> None:
    """Copy a :class:`~repro.serve.service.ServeResult` onto ``op``."""
    op.status = result.status
    op.reason = result.reason
    op.value = result.value
    op.queue_wait_s = getattr(result, "queue_wait_s", 0.0)
    op.k = getattr(result, "k", 0)


@contextlib.contextmanager
def _timed(run: Run, tracer, pids=()):
    """The timed phase: its wall clock, CPU and peak RSS go into ``run``.

    Peak RSS is read here, before the checks reopen any journal.
    """
    if tracer is not None:
        tracer.phase = "timed"
    cpu0 = cpu_now(pids)
    t0 = time.perf_counter()
    yield
    run.wall_s = time.perf_counter() - t0
    run.cpu_s = cpu_now(pids) - cpu0
    run.peak_rss_mb = peak_rss_mb(pids)
    if tracer is not None:
        tracer.phase = "check"


def _fresh_dir(*parts: str) -> str:
    path = os.path.join(WORKDIR, str(os.getpid()), *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _median_setup(run: Run, setups: int, set_up, tear_down):
    """Set up ``setups`` times, keep the last; record each set-up's time."""
    state = None
    for i in range(setups):
        if state is not None:
            tear_down(state)
            state = None  # let it go before the next set-up builds its own
        t0 = time.perf_counter()
        state = set_up(i)
        run.setup_s.append(time.perf_counter() - t0)
    return state


# -- journal_uptime ----------------------------------------------------------
def _isqrt_float(n: int, ws) -> int:
    return int(math.sqrt(n))  # wrong when n = k*k - 1 and k > 2**27


def _isqrt_exact(n: int, ws) -> int:
    return math.isqrt(n)


def _is_root(n: int, ws, r) -> bool:
    return r * r <= n < (r + 1) * (r + 1)


def isqrt_block(n: int) -> list[Alternative]:
    """Two correct methods; the first-listed is wrong for some ``n`` and
    its acceptance guard rejects it."""
    guard = Guard(name="is-root", accept=functools.partial(_is_root, n))
    return [
        Alternative(functools.partial(_isqrt_float, n), guard=guard, name="float-sqrt"),
        Alternative(functools.partial(_isqrt_exact, n), guard=guard, name="isqrt"),
    ]


def newton_isqrt(n: int) -> int:
    """The benchmark's own integer square root (Newton on integers)."""
    if n < 2:
        return n
    x = 1 << ((n.bit_length() + 1) // 2)
    while True:
        y = (x + n // x) // 2
        if y >= x:
            return x
        x = y


def _isqrt_input(rng, wrong_first: bool) -> int:
    if wrong_first:
        k = rng.randrange(1 << 28, 1 << 31)
        return k * k - 1
    return rng.randrange(1, 1 << 40)


#: journal_uptime: requests per round besides the spare probe, the
#: seeded share whose first-listed method is wrong, requests outstanding
JU_ROUND = 19
JU_WRONG_SHARE = 0.2
JU_WINDOW = 1
#: fixed input of the spare probe (fault 2): float sqrt is wrong for it
JU_PROBE_N = ((1 << 30) + 3) ** 2 - 1


def build_history(path: str, requests: int, rng) -> None:
    """Write a journal holding ``requests`` served requests, as the service
    writes them (sealed admit, block win, applied admit), through the
    journal's public API."""
    journal = CommitJournal(storage=MemoryJournalStorage())

    class _Winner:
        pass

    for seq in range(1, requests + 1):
        n = _isqrt_input(rng, rng.random() < JU_WRONG_SHARE)
        admit = journal.begin(
            "admit", request=seq, tenant=f"tenant-{seq % 8}", priority=0,
            cost=1.0, timeout=None, spec=n, request_class="",
        )
        journal.seal(admit)
        winner = _Winner()
        winner.index, winner.name, winner.value = 1, "isqrt", newton_isqrt(n)
        record_block_win(journal, seq, 0, winner)
        journal.mark_applied(admit, status="committed")
    with open(path, "wb") as fh:
        fh.write(journal.storage.load())


def journal_uptime(rng, seconds: float, sizes: Sizes, tracer=None) -> Run:
    run = Run()
    work = _fresh_dir("journal_uptime")
    history = os.path.join(work, "history.wal")
    build_history(history, sizes.journal_history, rng)
    done = Completions()

    def submit(svc, op):
        n = op.payload
        return svc.submit(
            f"tenant-{n % 8}", isqrt_block(n), spec=n
        ).seq

    def warm_up(svc):
        warm = [Op(expected=None, payload=_isqrt_input(rng, i % 5 == 0)) for i in range(sizes.warmup)]
        closed_loop(warm, lambda op: submit(svc, op), done, JU_WINDOW, lambda op: None)

    def set_up(i):
        path = os.path.join(work, f"journal-{i}.wal")
        shutil.copyfile(history, path)
        journal = CommitJournal(storage=FileJournalStorage(path))
        svc, report = SpeculationService.restore(
            journal, WorldBudget(8), build_alternatives=isqrt_block,
            policy=FixedSpeculationPolicy(), on_resolve=done,
        )
        if report.re_admitted or report.dropped:
            raise RuntimeError(f"restore re-admitted requests: {report}")
        probe_svc = SpeculationService(
            WorldBudget(1), policy=FixedSpeculationPolicy(), workers=1,
            on_resolve=done,
        ).start()
        warm_up(svc)
        return svc, probe_svc, journal, path

    def tear_down(state):
        svc, probe_svc, _, _ = state
        svc.stop()
        probe_svc.stop()

    state = None
    try:
        state = svc, probe_svc, journal, path = _median_setup(
            run, sizes.setups, set_up, tear_down
        )

        def make_round(index):
            for _ in range(JU_ROUND):
                n = _isqrt_input(rng, rng.random() < JU_WRONG_SHARE)
                yield Op(expected=newton_isqrt(n), payload=n)
            yield Op(expected=newton_isqrt(JU_PROBE_N), payload=JU_PROBE_N, target="probe")

        def submit_op(op):
            return submit(probe_svc if op.target == "probe" else svc, op)

        with _timed(run, tracer):
            closed_loop(rounds(make_round, seconds), submit_op, done, JU_WINDOW, run.ops.append)
        tear_down(state)
        run.journal_records = len(journal.records())

        for op in run.ops:
            op.ok = op.status == "committed" and op.value == op.expected
        # exactly one applied block win per committed request, and a fresh
        # open of the file still shows every acknowledged request
        wins = collections.Counter(
            intent["data"]["block"] for intent, _ in journal.applied_intents("block")
        )
        reopened = CommitJournal(storage=FileJournalStorage(path))
        durable = {
            intent["data"]["block"]: applied.get("value")
            for intent, applied in reopened.applied_intents("block")
        }
        admits = {
            intent["data"]["request"]: "sealed"
            for intent in reopened.sealed_unapplied_intents("admit")
        }
        admits.update(
            (intent["data"]["request"], "applied")
            for intent, _ in reopened.applied_intents("admit")
        )
        for op in run.ops:
            if op.status != "committed":
                continue
            # the spare probe's service has no journal: its value is its check
            if op.target == "main" and (
                wins[op.seq] != 1 or durable.get(op.seq) != op.expected
                or op.seq not in admits
            ):
                op.ok = False
            if not op.ok:
                run.wrong += 1
        # an admit journalled after its request already resolved is never
        # settled (see FOUND in CHANGES.md); it varies with timing, so it
        # is reported, not failed
        run.notes["acked_admits_left_sealed"] = sum(
            1 for op in run.ops
            if op.status == "committed" and admits.get(op.seq) == "sealed"
        )
    finally:
        if state is not None:
            tear_down(state)
        shutil.rmtree(os.path.dirname(work), ignore_errors=True)
    return run


# -- io_fanout ---------------------------------------------------------------
#: open-loop rate, fixed well below the load at which requests start to
#: fail by fault 2 (see README)
IO_RATE_RPS = 90.0
IO_ROUND = 10
IO_PROBES = 8
IO_DEAD_SHARE = 0.3


async def _probe(delay_s: float, dead: bool, answer: int, ws) -> int:
    await asyncio.sleep(delay_s)
    if dead:
        raise ConnectionRefusedError("replica down")
    return answer


def io_request(rng) -> tuple[list[Alternative], int, float]:
    """8 probes with seeded delays; a seeded subset fails, never all."""
    answer = rng.getrandbits(48)
    delays = [rng.uniform(0.001, 0.010) for _ in range(IO_PROBES)]
    dead = [rng.random() < IO_DEAD_SHARE for _ in range(IO_PROBES)]
    if all(dead):
        dead[rng.randrange(IO_PROBES)] = False
    alts = [
        Alternative(
            functools.partial(_probe, delays[j], dead[j], answer), name=f"probe{j}"
        )
        for j in range(IO_PROBES)
    ]
    fastest = min(d for d, x in zip(delays, dead) if not x)
    return alts, answer, fastest


def io_fanout(rng, seconds: float, sizes: Sizes, tracer=None) -> Run:
    run = Run()
    done = Completions()

    def submit(svc, op):
        return svc.submit("io-tenant", op.payload, request_class="io").seq

    def set_up(i):
        svc = SpeculationService(
            WorldBudget(32),
            policy=AdaptiveSpeculationPolicy(class_max_k={"io": IO_PROBES}),
            backend="async", on_resolve=done,
        ).start()
        warm = []
        for _ in range(sizes.warmup * 4):
            alts, answer, _ = io_request(rng)
            warm.append(Op(expected=answer, payload=alts))
        closed_loop(warm, lambda op: submit(svc, op), done, 4, lambda op: None)
        return svc

    svc = _median_setup(run, sizes.setups, set_up, lambda s: s.stop())
    try:
        def make_round(index):
            for _ in range(IO_ROUND):
                alts, answer, fastest = io_request(rng)
                yield Op(expected=answer, payload=alts, min_latency_s=fastest)

        pending: dict[int, Op] = {}
        lateness = []
        with _timed(run, tracer):
            start = time.perf_counter()
            for i, op in enumerate(rounds(make_round, seconds)):
                op.due = start + i / IO_RATE_RPS
                wait = op.due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                op.submitted = time.perf_counter()
                lateness.append(op.submitted - op.due)
                run.ops.append(op)
                try:
                    op.seq = submit(svc, op)
                except Exception as exc:  # noqa: BLE001 - a refused submit is a failed op
                    op.status, op.reason = "refused", f"{type(exc).__name__}: {exc}"
                    continue
                pending[op.seq] = op
            while pending:
                seq, result, t = done.get()
                op = pending.pop(seq, None)
                if op is not None:
                    op.done = t
                    _take_result(op, result)
    finally:
        svc.stop()
    for op in run.ops:
        # an open loop times from the moment the request was due
        op.submitted = op.due
        op.ok = (
            op.status == "committed"
            and op.value == op.expected
            and op.done - op.due >= op.min_latency_s
        )
        if op.status == "committed" and not op.ok:
            run.wrong += 1
    run.notes["generator_late_ms_p50_max"] = [
        statistics.median(lateness) * 1e3, max(lateness) * 1e3,
    ]
    return run


# -- remote_shards -----------------------------------------------------------
RS_SHARDS = 2
RS_TENANTS = 8
RS_ROUND = 10
RS_WINDOW = 4
#: sleeps of the alternatives, fastest first (the winner sleeps 2 ms)
RS_SLEEPS_MS = (2.0, 3.0, 4.0)


def _sleep_then(ms: float, value: int, ws) -> int:
    time.sleep(ms / 1000.0)
    return value


def remote_block(value: int) -> list[Alternative]:
    return [
        Alternative(functools.partial(_sleep_then, ms, value), name=f"replica{j}")
        for j, ms in enumerate(RS_SLEEPS_MS)
    ]


def remote_shards(rng, seconds: float, sizes: Sizes, tracer=None) -> Run:
    run = Run()
    done = Completions()
    clusters = []

    def submit(router, op):
        return router.submit(f"tenant-{op.payload % RS_TENANTS}", remote_block(op.payload)).seq

    def set_up(i):
        work = _fresh_dir(f"remote-{i}")
        shards = [
            RemoteShardClient(sid, workdir=os.path.join(work, f"shard{sid}"))
            for sid in range(RS_SHARDS)
        ]
        router = ClusterRouter(shards)
        for shard in shards:
            shard.service.on_resolve = _chain(shard.service.on_resolve, done)
        clusters.append((router, shards))
        router.start()
        warm = []
        for _ in range(sizes.warmup * 2):
            value = rng.getrandbits(32)
            warm.append(Op(expected=value, payload=value))
        closed_loop(warm, lambda op: submit(router, op), done, RS_WINDOW, lambda op: None)
        return router, shards

    def tear_down(state):
        router, shards = state
        router.stop()
        for shard in shards:
            if shard.process_alive():
                shard.sigkill()

    try:
        router, shards = _median_setup(run, sizes.setups, set_up, tear_down)

        def make_round(index):
            for _ in range(RS_ROUND):
                value = rng.getrandbits(32)
                yield Op(expected=value, payload=value)

        pids = [shard.pid for shard in shards]
        with _timed(run, tracer, pids):
            closed_loop(
                rounds(make_round, seconds), lambda op: submit(router, op),
                done, RS_WINDOW, run.ops.append,
            )
        tear_down((router, shards))
        # every committed seq appears exactly once across the host journals
        wins = collections.Counter()
        for shard in shards:
            journal = CommitJournal(storage=FileJournalStorage(shard.journal_path))
            run.journal_records += len(journal.records())
            wins.update(
                intent["data"]["block"] for intent, _ in journal.applied_intents("block")
            )
        for op in run.ops:
            op.ok = op.status == "committed" and op.value == op.expected and wins[op.seq] == 1
            if op.status == "committed" and not op.ok:
                run.wrong += 1
    finally:
        for router, shards in clusters:
            tear_down((router, shards))
        shutil.rmtree(os.path.join(WORKDIR, str(os.getpid())), ignore_errors=True)
    return run


def _chain(first, then):
    def hook(request, result):
        first(request, result)
        then(request, result)

    return hook


# -- fork_sort ---------------------------------------------------------------
FS_N = 500


def _sort_with(name: str, ws) -> list:
    return ALGORITHMS[name](ws["data"])


FORK_ALTERNATIVES = [
    Alternative(functools.partial(_sort_with, name), name=name) for name in ALGORITHMS
]


def fork_sort(rng, seconds: float, sizes: Sizes, tracer=None) -> Run:
    run = Run()

    def block(op):
        op.submitted = time.perf_counter()
        outcome = run_alternatives(
            FORK_ALTERNATIVES, initial={"data": op.payload}, backend="fork"
        )
        op.done = time.perf_counter()
        op.status = "committed" if outcome.winner is not None else "failed"
        op.reason = outcome.winner.name if outcome.winner is not None else ""
        op.ok = op.status == "committed" and outcome.value == op.expected
        # keep the parent small: each block forks a copy of it
        op.payload = op.expected = None
        return op

    def make_round(index):
        # one input of each kind per round, so the winner rotates
        for kind in INPUT_KINDS:
            data = make_input(kind, FS_N, seed=rng.getrandbits(32))
            yield Op(expected=sorted(data), payload=data)

    def set_up(i):
        for _ in range(sizes.warmup // len(INPUT_KINDS) + 1):
            for op in make_round(0):
                block(op)

    _median_setup(run, sizes.setups, set_up, lambda state: None)
    with _timed(run, tracer):
        for op in rounds(make_round, seconds):
            run.ops.append(block(op))
    run.wrong = sum(1 for op in run.ops if op.status == "committed" and not op.ok)
    run.notes["winners"] = dict(collections.Counter(op.reason for op in run.ops))
    return run


WORKLOADS = {
    "journal_uptime": journal_uptime,
    "io_fanout": io_fanout,
    "remote_shards": remote_shards,
    "fork_sort": fork_sort,
}
