"""Benchmark of the speculation service, end to end and layer by layer.

One run::

    python3 perfbench/run.py --workload journal_uptime --seed 1 --seconds 25 --trace 0

prints the end-to-end metrics of ``BENCHMARK.json`` (``--trace 0``)
or its per-layer metrics from a traced run (``--trace 1``, spans written
to ``.perfbench_out/``) as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Two more modes:

- ``--quick`` runs every workload briefly, untraced and traced, with
  every check on, and exits non-zero if any output is wrong or missing;
- ``--compare [--runs N]`` makes two sets of N runs per workload and
  reports, per workload and metric, whether they agree within the
  bounds of ``BENCHMARK.json``.

Run it from the root of a checkout; it builds nothing and reads the
program from ``src/``.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import random
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = ".perfbench_out"


def _import_program():
    """Put ``src/`` on the path; fail without a result if it is absent."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"perfbench: no program at {os.path.join(ROOT, 'src', 'repro')}")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro  # noqa: F401


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def _bench_config() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _as_metrics(values: dict, specs: list[dict]) -> dict:
    """``values`` by name, in the order and with the units of ``specs``."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def end_to_end(run) -> dict:
    good = [op for op in run.ops if op.ok]
    latencies = sorted(op.done - op.submitted for op in good)
    committed = max(1, len(good))
    return {
        "setup_s": statistics.median(run.setup_s),
        "throughput_rps": len(good) / run.wall_s,
        "latency_p50_ms": statistics.median(latencies) * 1e3 if latencies else 0.0,
        "cpu_ms_per_req": run.cpu_s / committed * 1e3,
        "peak_rss_mb": run.peak_rss_mb,
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    import tracing
    import workloads

    config = _bench_config()

    sizes = workloads.QUICK if quick else workloads.FULL
    tracer = tracing.install(tracing.Tracer()) if trace else None
    try:
        run = workloads.WORKLOADS[workload](random.Random(seed), seconds, sizes, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    attempted = len(run.ops)
    failed = sum(1 for op in run.ops if not op.ok)
    e2e = _as_metrics(end_to_end(run), config["end_to_end"])
    # the tail is printed for reading, not bounded: it did not hold steady
    # from run to run on a shared VM (see README)
    latencies = sorted(op.done - op.submitted for op in run.ops if op.ok) or [0.0]
    print(
        f"{workload} seed={seed}: {attempted} attempted, {failed} failed, "
        f"{run.wrong} wrong; timed {run.wall_s:.2f} s; "
        f"p90 {percentile(latencies, 0.90) * 1e3:.2f} ms, "
        f"p99 {percentile(latencies, 0.99) * 1e3:.2f} ms; setups "
        + ", ".join(f"{s:.3f}" for s in run.setup_s) + " s",
        flush=True,
    )
    reasons = collections.Counter(op.reason for op in run.ops if not op.ok)
    if reasons:
        print(f"failed by reason: {json.dumps(dict(reasons))}", flush=True)
    if run.notes:
        print(f"notes: {json.dumps(run.notes)}", flush=True)
    if tracer is not None:
        path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.jsonl")
        tracer.write_jsonl(path)
        print(f"traced end-to-end: {json.dumps(e2e)}", flush=True)
        print(f"spans: {len(tracer.spans)} written to {path}", flush=True)
        good = [op for op in run.ops if op.ok]
        metrics = _as_metrics(tracing.per_layer(tracer, attempted, {
            "queue_wait_s": [op.queue_wait_s for op in good],
            "k_total": sum(op.k for op in good),
            "committed": len(good),
            "journal_records": run.journal_records,
        }), config["per_layer"])
    else:
        metrics = e2e
    return {
        "correct": run.wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


# -- extra modes --------------------------------------------------------------
def _invoke(workload: str, seed: int, seconds: float, trace: int, quick: bool = False) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def quick() -> int:
    """Every workload briefly, untraced and traced, every check on."""
    config = _bench_config()
    problems = []
    for w in config["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            try:
                result = _invoke(w["name"], 1, 1.0, trace, quick=True)
            except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
                problems.append(f"{w['name']} trace={trace}: {exc}")
                continue
            names = [m["name"] for m in config[group]]
            missing = [n for n in names if n not in result["metrics"]]
            bad = [
                n for n in names
                if n in result["metrics"] and not math.isfinite(result["metrics"][n]["value"])
            ]
            ok = result["correct"] and result["attempted"] > 0 and not missing and not bad
            print(
                f"{w['name']:15} trace={trace}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}"
                + (f" missing={missing}" if missing else "")
                + (f" not-finite={bad}" if bad else ""),
                flush=True,
            )
            if not ok:
                problems.append(f"{w['name']} trace={trace}")
    for p in problems:
        print(f"FAILED: {p}", file=sys.stderr)
    return 1 if problems else 0


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(runs: int, only: list[str] | None) -> int:
    """Two sets of ``runs`` runs per workload; do they agree within bounds?

    They agree on a metric when the medians of the two sets lie within
    its bound of each other, in either direction, and, for every metric
    but ``setup_s``, each set's quartile spread is within the bound too.
    ``setup_s`` is held to its median alone: it guards against work moving
    into set-up, which shows as a shift of the median, while its spread
    is that of a few sub-second timings per run, which CPU steal on a
    shared machine moves by more than any bound (see README).
    """
    config = _bench_config()
    bounds = {m["name"]: m for m in config["end_to_end"]}
    seconds = config["run_seconds"]
    verdict = 0
    for w in config["workloads"]:
        name = w["name"]
        if only and name not in only:
            continue
        sets = []
        for s in range(2):
            results = []
            for i in range(runs):
                seed = 1000 * (s + 1) + i
                results.append(_invoke(name, seed, seconds, 0))
                print(f"  seed {seed}: " + " ".join(
                    f"{m}={v['value']:.4g}" for m, v in results[-1]["metrics"].items()
                ), flush=True)
            sets.append(results)
        shares = {
            r["failed"] / r["attempted"] for results in sets for r in results
        }
        print(f"{name}: failed shares {sorted(shares)}", flush=True)
        if len(shares) != 1 or not all(r["correct"] for rs in sets for r in rs):
            verdict = 1
        for metric, spec in bounds.items():
            a = [r["metrics"][metric]["value"] for r in sets[0]]
            b = [r["metrics"][metric]["value"] for r in sets[1]]
            ma, mb = statistics.median(a), statistics.median(b)
            apart = abs(mb - ma) / min(ma, mb)
            sa, sb, sall = spread(a), spread(b), spread(a + b)
            ok = apart <= spec["bound"] and (
                metric == "setup_s" or max(sa, sb) <= spec["bound"]
            )
            verdict |= 0 if ok else 1
            print(
                f"  {metric:15} median {ma:10.4f} / {mb:10.4f} (apart {apart:.3f}) "
                f"spread {sa:.3f} / {sb:.3f}, all {sall:.3f} "
                f"(bound {spec['bound']}) {'agree' if ok else 'DISAGREE'}",
                flush=True,
            )
    return verdict


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small inputs; without --workload, self-test every workload")
    parser.add_argument("--compare", action="store_true",
                        help="two sets of runs per workload, checked against the bounds")
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    _import_program()
    sys.path.insert(0, HERE)
    if args.compare:
        return compare(args.runs, [args.workload] if args.workload else None)
    if args.workload is None:
        if args.quick:
            return quick()
        parser.error("--workload is required")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
