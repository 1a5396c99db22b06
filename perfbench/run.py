"""End-to-end benchmark of the ground-truth generator and its servers.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-cold --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py                  # every workload, one table

One workload runs in this process.  The last stdout line is the result
object (``correct``/``attempted``/``failed``/``metrics``): the five
end-to-end metrics with ``--trace 0``, the per-layer ladder of
``ladder.LAYERS`` with ``--trace 1``.  The line before it is the run's
noise context (steal ticks, load average, CPUs used, tail sample
count).  A traced run also writes its spans to
``.bench_work/traces/<workload>-seed<seed>.json``.

Exit status: 0 when every answer checked out, 1 when a check failed
or the run broke, 2 when the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput": "items/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def _default_seconds() -> int:
    try:
        return int(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    except (OSError, ValueError, KeyError):
        return 20


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload; fail if any child process outlives it, even
    when the run itself raised."""
    from harness import reap_strays

    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(run_dir)  # keep library temp files in the checkout
    try:
        context, result = _measure(name, seed, seconds, trace, run_dir)
    finally:
        strays = reap_strays()
        shutil.rmtree(run_dir, ignore_errors=True)
    if strays:
        raise RuntimeError(f"child processes outlived the run: {strays}")
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _measure(name: str, seed: int, seconds: float, trace: bool, run_dir: Path):
    import numpy as np

    from harness import (NULL_TRACER, Tracer, peak_rss_mb, percentile, beyond, pin,
                         run_rounds, StealClock)
    from ladder import LAYERS
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    affinity = sorted(os.sched_getaffinity(0))
    host_steal = StealClock()
    steal0, load0 = host_steal.ticks(), os.getloadavg()
    if not wl.forks:
        pin(affinity[-1])
    tracer = Tracer() if trace else NULL_TRACER
    rng = np.random.default_rng([seed, 1])
    inputs = wl.inputs(seed, run_dir)
    setup_times: list[float] = []
    state = stats = None
    try:
        for _ in range(wl.setup_reps):
            if state is not None:
                wl.teardown(state)
            t0 = time.perf_counter()
            state = wl.setup(inputs)
            setup_times.append(time.perf_counter() - t0)
        used = sorted(state.cpus.values()) if wl.forks else [affinity[-1]]
        outcome = run_rounds(wl, state, seconds, rng, tracer, alternate=trace, cpus=used)
        final_errors = wl.final_check(state, rng)
    finally:
        if state is not None:
            stats = wl.teardown(state)
    outcome.attempted += 1  # the final check counts as one more op
    if final_errors:
        outcome.fail("; ".join(final_errors))

    lat = outcome.latencies
    steal1 = host_steal.ticks()
    host_steal.close()
    context = {
        "workload": name,
        "seed": seed,
        "ops": len(lat) + len(outcome.traced_latencies),
        "rounds": len(outcome.round_rates),
        "measured_s": round(outcome.measured_s, 3),
        "round_ops": wl.round_ops,
        "tail_pct": wl.tail_pct,
        "tail_samples_beyond_per_round": beyond(wl.round_ops, wl.tail_pct),
        "setup_samples_s": [round(t, 6) for t in setup_times],
        "cpus_used": state.cpus if wl.forks else {"process": affinity[-1]},
        "affinity": affinity,
        "cpu_count": os.cpu_count(),
        "loadavg_start": load0,
        "loadavg_end": os.getloadavg(),
        "steal_ticks_delta": steal1 - steal0,
        "round_stolen_s": round(outcome.stolen_s, 3),
        "errors": outcome.errors,
    }
    if trace:
        pin(affinity[-1])  # the CPU a serve worker runs on, so rungs compare
        metrics = _ladder(wl, inputs, state, outcome, stats, seed, run_dir, tracer, rng,
                          affinity)
        units = {k: v[0] for k, v in LAYERS.items()}
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        (trace_dir / f"{name}-seed{seed}.json").write_text(json.dumps({
            "context": context, "metrics": metrics,
            "summary": tracer.summary(), "spans": tracer.spans,
        }))
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "throughput": statistics.median(outcome.round_rates),
            "op_p50_ms": percentile(lat, 50.0) * 1e3,
            "op_tail_ms": statistics.median(outcome.round_tails) * 1e3,
            "peak_rss_mb": peak_rss_mb(children=wl.forks),
        }
        units = END_TO_END_UNITS
    return context, {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def _ladder(wl, inputs, state, outcome, stats, seed, run_dir, tracer, rng, affinity):
    """Every per-layer metric: the generation and serving ladders, the
    prefork rungs (from this run's server on serve-*, else from a short
    serve-hot session, where the subtracted answer is smallest) and the
    tracing overhead."""
    import ladder
    from repro.kronecker.multifactor import KroneckerChain
    from workloads import ChainShards, OracleBulk, ServeHot

    if wl.name == "chain-shards":
        chain = state.chain
    else:
        chain = KroneckerChain.from_graphs(ChainShards().inputs(seed, run_dir).factors)
    metrics = ladder.generation(chain, run_dir / "generation", tracer)
    if wl.name == "oracle-bulk":
        bulk = state
    else:
        bulk = OracleBulk().setup(OracleBulk().inputs(seed, run_dir))
    metrics.update(ladder.serving(bulk.oracle, bulk.sample_edges, rng, run_dir / "serving", tracer))
    untraced = statistics.median(outcome.latencies)
    traced = statistics.median(outcome.traced_latencies)
    metrics["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0
    if not wl.forks:
        wl = ServeHot()
        os.sched_setaffinity(0, affinity)  # the session splits client and worker
        inputs, outcome, stats = ladder.serve_session(wl, seed, run_dir / "serve", 3.0, rng)
    metrics.update(ladder.prefork(wl, inputs, outcome, stats, metrics))
    return metrics


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process (peak RSS is per process)."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit {proc.returncode})")
            status = 1
            continue
        ok = "ok" if result["correct"] else "FAILED"
        print(f"{name}: {ok}, {result['failed']}/{result['attempted']} ops failed")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<30} {m['value']:>16.6g} {m['unit']}")
        if proc.returncode != 0 or not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="chain-shards, oracle-bulk, serve-cold, serve-hot or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=_default_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: package sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (choose from {sorted(WORKLOADS)})")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
