"""Reproductions of the two faults the benchmark meets in the program.

    python3 perfbench/faults.py race     # fault 1: CommitJournal.begin is unguarded
    python3 perfbench/faults.py spares   # fault 2: the service drops spare alternatives

Each prints what it saw and exits 0 while the fault is present, 1 once
the program no longer shows it. See the README for what each one means
for the workloads.
"""

from __future__ import annotations

import collections
import os
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from repro.core.worlds import run_alternatives  # noqa: E402
from repro.errors import JournalError  # noqa: E402
from repro.journal import CommitJournal, MemoryJournalStorage  # noqa: E402
from repro.serve import (  # noqa: E402
    AdaptiveSpeculationPolicy,
    FixedSpeculationPolicy,
    SpeculationService,
    WorldBudget,
)
from workloads import JU_PROBE_N, isqrt_block, newton_isqrt  # noqa: E402


def race(threads: int = 2, txns: int = 20_000) -> int:
    """Several threads run begin/seal on one journal, as the service's
    submitting thread and workers do."""
    journal = CommitJournal(storage=MemoryJournalStorage())
    errors: collections.Counter = collections.Counter()

    def worker() -> None:
        for _ in range(txns):
            try:
                journal.seal(journal.begin("block", block=0))
            except JournalError as exc:
                errors[str(exc).rsplit(" ", 1)[0]] += 1

    pool = [threading.Thread(target=worker) for _ in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join(120)
    print(
        f"{threads} threads x {txns} begin+seal on one in-memory journal: "
        f"{sum(errors.values())} JournalError {dict(errors)}"
    )
    return 0 if errors else 1


def spares(requests: int = 3) -> int:
    """A one-slot budget and a block whose first-listed method fails its
    guard: the service never tries the second method."""
    block = isqrt_block(JU_PROBE_N)
    expected = newton_isqrt(JU_PROBE_N)
    alone = run_alternatives(block, backend="sequential")
    print(
        f"run_alternatives(backend='sequential'): winner {alone.winner.name}, "
        f"correct={alone.value == expected}"
    )
    failed = 0
    for label, policy in (
        ("fixed", FixedSpeculationPolicy()),
        ("adaptive", AdaptiveSpeculationPolicy()),
    ):
        svc = SpeculationService(WorldBudget(1), policy=policy, workers=1).start()
        try:
            results = [
                svc.submit("t", isqrt_block(JU_PROBE_N)).result(timeout=30)
                for _ in range(requests)
            ]
        finally:
            svc.stop()
        lost = [r for r in results if not r.committed]
        failed += len(lost)
        print(
            f"SpeculationService(WorldBudget(1), {label} policy): "
            f"{len(lost)} of {requests} failed "
            f"{sorted({r.reason for r in lost})}, K per request {[r.k for r in results]}"
        )
    return 0 if failed else 1


if __name__ == "__main__":
    repros = {"race": race, "spares": spares}
    if len(sys.argv) != 2 or sys.argv[1] not in repros:
        sys.exit(f"usage: {sys.argv[0]} {'|'.join(repros)}")
    sys.exit(repros[sys.argv[1]]())
