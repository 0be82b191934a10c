"""The traced run: spans around calls into each layer's public functions.

Nothing inside the program is instrumented. :class:`Tracer` replaces a
fixed list of public functions and methods (see :func:`install`) with
wrappers that record one span per call — name, start, end, parent span,
the request seq where the call reveals it, and a few numbers read off
the arguments or the result — and puts every original back on
:meth:`Tracer.uninstall`. Spans stay in memory and are written out as
JSONL when the run ends; :func:`per_layer` turns them into the
per-layer metrics listed in ``BENCHMARK.json``.

Only the process that installed the tracer records: a forked fork-world
or shard host inherits the wrappers but passes straight through them, so
host-side layers of ``remote_shards`` are seen from the router side only.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time

class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "seq", "phase", "attrs")

    def __init__(self, sid, name, start, end, parent, seq, phase, attrs):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.seq = seq
        self.phase = phase
        self.attrs = attrs

    @property
    def dur(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.sid, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent, "seq": self.seq,
            "phase": self.phase, **self.attrs,
        }


class Tracer:
    """Records spans for calls made in this process, per thread nesting."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[Span] = []
        #: ``setup``, ``timed`` or ``check``; the workload moves it on
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, seq_of=None, attrs_of=None):
        """``fn`` wrapped so that each call in this process is a span."""
        tracer = self

        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                seq = seq_of(args, kwargs) if seq_of is not None else None
                attrs = attrs_of(args, kwargs, result) if attrs_of is not None else {}
                tracer.spans.append(
                    Span(sid, name, t0, t1, parent, seq, tracer.phase, attrs)
                )

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def patch(self, owner, attr, name, seq_of=None, attrs_of=None) -> None:
        """Replace ``owner.attr`` (function, method or classmethod)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(raw.__func__, name, seq_of, attrs_of))
        else:
            new = self.wrap(raw, name, seq_of, attrs_of)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def write_jsonl(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict(), default=str) + "\n")


# -- what is traced ----------------------------------------------------------
def _journal_seq(args, kwargs):
    return kwargs.get("request", kwargs.get("block"))


def _runner_attrs(args, kwargs, outcome):
    if outcome is None:
        return {"worlds": 0, "committed": 0, "winner_s": 0.0, "setup_s": 0.0}
    alternatives = args[0] if args else kwargs.get("alternatives", ())
    winner = outcome.winner
    return {
        "worlds": len(alternatives),
        "committed": int(winner is not None),
        "winner_s": winner.elapsed_s if winner is not None else 0.0,
        "setup_s": outcome.overhead.setup_s,
    }


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the per-layer metrics are read at."""
    from repro.cluster import remote, wire
    from repro.cluster.router import ClusterRouter
    from repro.core import worlds
    from repro.faults import supervisor
    from repro.journal.wal import CommitJournal, FileJournalStorage
    from repro.serve.budget import WorldBudget
    from repro.serve.service import SpeculationService

    p = tracer.patch
    p(SpeculationService, "submit", "serve.submit")
    p(SpeculationService, "restore", "serve.restore")
    p(WorldBudget, "reserve_blocking", "serve.grant")
    p(
        supervisor.Supervisor, "run", "supervisor.run",
        seq_of=lambda a, k: a[0].block_id,
        attrs_of=lambda a, k, out: {
            "attempts": out.extras["supervisor"]["attempts"]
            if out is not None and "supervisor" in out.extras else 0
        },
    )
    p(supervisor, "run_alternatives", "supervisor.run_alternatives")

    resolve = worlds.resolve_backend

    def traced_resolve(name):
        return tracer.wrap(resolve(name), f"backend.{name}", attrs_of=_runner_attrs)

    worlds.resolve_backend = traced_resolve
    tracer._undo.append((worlds, "resolve_backend", resolve))

    p(
        CommitJournal, "__init__", "journal.open",
        attrs_of=lambda a, k, _: {
            "file": isinstance(
                k.get("storage", a[1] if len(a) > 1 else None), FileJournalStorage
            )
        },
    )
    p(CommitJournal, "begin", "journal.begin", seq_of=_journal_seq)
    p(CommitJournal, "seal", "journal.seal")
    p(CommitJournal, "mark_applied", "journal.mark_applied")
    p(CommitJournal, "find_applied", "journal.find", seq_of=_journal_seq)
    p(CommitJournal, "find_sealed", "journal.find", seq_of=_journal_seq)
    p(
        FileJournalStorage, "append", "journal.fsync",
        attrs_of=lambda a, k, _: {"bytes": len(a[1])},
    )

    p(ClusterRouter, "submit", "router.submit")
    p(remote.RemoteShardClient, "_call", "remote.call")
    # a request frame is pack_frame + sendall, an ack is send_frame (which
    # packs too), so every frame the router sends passes through a pack
    p(remote, "recv_frame", "wire.recv")
    def pack_attrs(args, kwargs, out):
        return {"bytes": len(out) if out is not None else 0}

    p(wire, "pack_frame", "wire.pack", attrs_of=pack_attrs)
    p(remote, "pack_frame", "wire.pack", attrs_of=pack_attrs)
    p(wire, "unpack_frame", "wire.unpack")
    return tracer


# -- from spans to per-layer metrics ----------------------------------------
def _self_time(span: Span, children: list[Span]) -> float:
    """``span``'s duration minus the part of it its children cover."""
    covered = 0.0
    edge = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, edge), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            edge = hi
    return span.dur - covered


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def per_layer(tracer: Tracer, requests: int, extra: dict) -> dict:
    """Per-layer metrics of the timed phase (set-up ones from set-up).

    ``requests`` is the operations attempted in the timed phase; ``extra``
    carries what the workload read off its results (``queue_wait_s``,
    ``k_total``, ``committed``, ``journal_records``). A layer the
    workload does not use reads 0. Returns metric name -> value.
    """
    timed: dict[str, list[Span]] = {}
    setup: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for span in tracer.spans:
        if span.phase == "timed":
            timed.setdefault(span.name, []).append(span)
            children.setdefault(span.parent, []).append(span)
        elif span.phase == "setup":
            setup.setdefault(span.name, []).append(span)

    def spans(*names):
        return [s for n in names for s in timed.get(n, ())]

    per_req = max(1, requests)
    committed = extra.get("committed", 0)
    k_total = extra.get("k_total", 0)
    begins = spans("journal.begin")
    runners = spans(*(n for n in timed if n.startswith("backend.")))
    won = [s for s in runners if s.attrs["committed"]]
    worlds = sum(s.attrs["worlds"] for s in runners)
    sup = spans("supervisor.run")
    out = {
        "serve.submit_us": _mean(s.dur for s in spans("serve.submit")) * 1e6,
        "serve.queue_wait_ms": _mean(extra.get("queue_wait_s", ())) * 1e3,
        "serve.grant_wait_ms": _mean(s.dur for s in spans("serve.grant")) * 1e3,
        "serve.commits_per_world": committed / k_total if k_total else 0.0,
        # what the supervisor does around its waves (today mostly the
        # find_block_win scan) counts as its own
        "supervisor.self_ms": _mean(
            _self_time(s, [
                c for c in children.get(s.sid, ())
                if c.name == "supervisor.run_alternatives"
            ])
            for s in sup
        ) * 1e3,
        "supervisor.attempts_per_request": _mean(s.attrs["attempts"] for s in sup),
        "journal.append_us": (
            sum(s.dur for s in spans("journal.begin", "journal.seal", "journal.mark_applied"))
            / len(begins) * 1e6 if begins else 0.0
        ),
        "journal.find_us": _mean(s.dur for s in spans("journal.find")) * 1e6,
        "journal.fsyncs_per_request": len(spans("journal.fsync")) / per_req,
        "journal.bytes_per_request": sum(
            s.attrs["bytes"] for s in spans("journal.fsync")
        ) / per_req,
        "journal.records": float(extra.get("journal_records", 0)),
        "journal.open_ms": _mean(
            s.dur for s in setup.get("journal.open", ()) if s.attrs["file"]
        ) * 1e3,
        "serve.restore_ms": _mean(s.dur for s in setup.get("serve.restore", ())) * 1e3,
    }
    for backend in ("thread", "async", "fork", "sequential"):
        out[f"backend.{backend}.block_ms"] = _mean(
            s.dur for s in spans(f"backend.{backend}")
        ) * 1e3
    out.update({
        "backend.overhead_ms": _mean(s.dur - s.attrs["winner_s"] for s in won) * 1e3,
        "backend.setup_ms": _mean(s.attrs["setup_s"] for s in runners) * 1e3,
        "backend.commits_per_world": len(won) / worlds if worlds else 0.0,
        "aio.loops_per_request": len(spans("backend.async")) / per_req,
        "router.submit_us": _mean(s.dur for s in spans("router.submit")) * 1e6,
        "remote.call_ms": _mean(s.dur for s in spans("remote.call")) * 1e3,
        "wire.frames_per_request": len(spans("wire.pack", "wire.recv")) / per_req,
        "wire.bytes_per_request": sum(
            s.attrs["bytes"] for s in spans("wire.pack")
        ) / per_req,
        "wire.pack_us": _mean(s.dur for s in spans("wire.pack", "wire.unpack")) * 1e6,
    })
    return out
