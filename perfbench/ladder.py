"""Per-layer metrics of a traced run, timed from outside each layer.

Every number is the median of ``REPS`` timed calls into one layer's
public function; each call is recorded as a span named after it.
"Minus" metrics subtract the inner layer's own probe, so e.g.
``partition.shard_rows_s`` is what ``shard_of_rows`` adds on top of the
stream it drives.  ``LAYERS`` says which end-to-end metric, on which
workload, each layer metric should move.
"""

from __future__ import annotations

import io
import shutil
import statistics
import time

import numpy as np

from harness import percentile, run_rounds
from repro.kronecker import kernels
from repro.parallel import generate_chain_shards, plan_partition
from repro.parallel.edgeio import read_shard_arrays, write_edges_file
from repro.parallel.manifest import checksum_arrays, verify_shards
from repro.parallel.partition import shard_of_rows
from repro.serve import OracleService, load_oracle, save_oracle
from repro.serve.wire import encode_request, encode_response, read_request, read_response

REPS = 5
SMALL_CALLS = 200   # 16-element calls per timed repetition

#: layer metric -> (unit, end-to-end metric it should move, workload)
LAYERS = {
    "multifactor.stream_s": ("s", "throughput", "chain-shards"),
    "multifactor.attach_s": ("s", "throughput", "chain-shards"),
    "partition.plan_s": ("s", "setup_s", "chain-shards"),
    "partition.shard_rows_s": ("s", "op_p50_ms", "chain-shards"),
    "manifest.checksum_s": ("s", "throughput", "chain-shards"),
    "manifest.checksum_mb": ("MB", "throughput", "chain-shards"),
    "edgeio.write_s": ("s", "throughput", "chain-shards"),
    "edgeio.write_mb": ("MB", "throughput", "chain-shards"),
    "edgeio.read_s": ("s", "op_p50_ms", "chain-shards"),
    "generate.job_s": ("s", "op_p50_ms", "chain-shards"),
    "generate.verify_s": ("s", "op_p50_ms", "chain-shards"),
    "kernels.edge_ns_per_query": ("ns", "throughput", "oracle-bulk"),
    "oracle.call_us_bulk": ("us", "throughput", "oracle-bulk"),
    "oracle.call_us_16": ("us", "throughput", "serve-cold"),
    "service.answer_us_miss": ("us", "op_p50_ms", "serve-cold"),
    "service.answer_us_hit": ("us", "op_p50_ms", "serve-hot"),
    "service.hit_ratio": ("ratio", "op_p50_ms", "serve-cold, serve-hot"),
    "wire.encode_us": ("us", "throughput", "serve-hot"),
    "wire.decode_us": ("us", "throughput", "serve-hot"),
    "prefork.socket_us_per_frame": ("us", "op_p50_ms", "serve-hot"),
    "prefork.start_s": ("s", "setup_s", "serve-cold, serve-hot"),
    "artifact.save_s": ("s", "setup_s", "serve-cold, serve-hot"),
    "artifact.load_s": ("s", "setup_s", "serve-cold, serve-hot"),
    "trace.overhead_pct": ("%", "none: traced against untraced op p50", "every workload"),
}


def _probe(tracer, name: str, fn, reps: int = REPS):
    """Median seconds of ``reps`` spans around ``fn()``; last result."""
    times = []
    for _ in range(reps):
        with tracer.span(name):
            t0 = time.perf_counter()
            result = fn()
            times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def generation(chain, workdir, tracer) -> dict[str, float]:
    """The generation ladder on the chain-shards chain."""
    workdir.mkdir(parents=True, exist_ok=True)

    plan_s, plan = _probe(tracer, "partition.plan_partition",
                          lambda: plan_partition(chain, 4, "degree"))

    def stream(gt: bool) -> int:  # the same row ranges shard_of_rows gets
        return sum(int(b[0].size) for lo, hi in plan.bounds
                   for b in chain.stream_rows(lo, hi, attach_ground_truth=gt))

    stream_s, _ = _probe(tracer, "multifactor.stream_rows", lambda: stream(False))
    stream_gt_s, _ = _probe(tracer, "multifactor.stream_rows+gt", lambda: stream(True))
    rows_s, shards = _probe(tracer, "partition.shard_of_rows", lambda: [
        shard_of_rows(chain, a, b, attach_ground_truth=True) for a, b in plan.bounds])
    arrays = [{"p": p, "q": q, "squares": s} for p, q, s in shards]
    checksum_s, _ = _probe(tracer, "manifest.checksum_arrays",
                           lambda: [checksum_arrays(a) for a in arrays])
    paths = [workdir / f"probe_{k}.edges" for k in range(len(arrays))]
    write_s, _ = _probe(tracer, "edgeio.write_edges_file", lambda: [
        write_edges_file(path, a, codec="raw") for path, a in zip(paths, arrays)])
    read_s, _ = _probe(tracer, "edgeio.read_shard_arrays",
                       lambda: [read_shard_arrays(path, verify=False) for path in paths])
    out = workdir / "probe_shards"
    job, verify = [], []
    for _ in range(REPS):  # alternating, as one chain-shards op does
        job.append(_probe(tracer, "generate.generate_chain_shards", lambda: generate_chain_shards(
            chain, out, n_shards=4, n_workers=1, ground_truth=True,
            partition="degree", shard_format="edges", codec="raw"), reps=1)[0])
        verify.append(_probe(tracer, "manifest.verify_shards", lambda: verify_shards(out),
                             reps=1)[0])
    job_s, verify_s = statistics.median(job), statistics.median(verify)
    metrics = {
        "multifactor.stream_s": stream_s,
        "multifactor.attach_s": stream_gt_s - stream_s,
        "partition.plan_s": plan_s,
        "partition.shard_rows_s": rows_s - stream_gt_s,
        "manifest.checksum_s": checksum_s,
        "manifest.checksum_mb": sum(v.nbytes for a in arrays for v in a.values()) / 1e6,
        "edgeio.write_s": write_s,
        "edgeio.write_mb": sum(path.stat().st_size for path in paths) / 1e6,
        "edgeio.read_s": read_s,
        "generate.job_s": job_s,
        "generate.verify_s": verify_s,
    }
    shutil.rmtree(workdir, ignore_errors=True)
    return metrics


def serving(oracle, sample_edges, rng, workdir, tracer) -> dict[str, float]:
    """Kernel, oracle, service, codec and artifact rungs on the
    unicode-like product, with seeded uniform product edges."""
    bulk = 65_536
    ep, eq = sample_edges(rng, bulk)
    i, k = np.divmod(ep, oracle.n_b)
    j, ell = np.divmod(eq, oracle.n_b)
    kern_s, _ = _probe(tracer, "kernels.edge_squares_batch", lambda: kernels.edge_squares_batch(
        oracle.stats_a, oracle.stats_b, oracle.bk.assumption, i, j, k, ell))
    bulk_s, _ = _probe(tracer, "oracle.squares_at_edges[65536]",
                       lambda: oracle.squares_at_edges(ep, eq))
    small = [(ep[t:t + 16], eq[t:t + 16]) for t in range(0, 16 * SMALL_CALLS, 16)]
    call16_s, answers = _probe(tracer, "oracle.squares_at_edges[16]",
                               lambda: [oracle.squares_at_edges(p, q) for p, q in small])

    def answer_all(service):
        for p, q in small:
            service.answer("edge_squares", p, q)

    services = []

    def miss():
        services.append(OracleService(oracle))
        answer_all(services[-1])

    miss_s, _ = _probe(tracer, "service.answer[miss]", miss)
    hit_s, _ = _probe(tracer, "service.answer[hit]", lambda: answer_all(services[-1]))

    requests = [encode_request("edge_squares", p, q) for p, q in small]
    responses = [encode_response(a, "edge_squares") for a in answers]
    enc_s, _ = _probe(tracer, "wire.encode", lambda: [
        (encode_request("edge_squares", p, q), encode_response(a, "edge_squares"))
        for (p, q), a in zip(small, answers)])
    dec_s, _ = _probe(tracer, "wire.decode", lambda: [
        (read_request(io.BytesIO(rq)), read_response(io.BytesIO(rs)))
        for rq, rs in zip(requests, responses)])

    art = workdir / "probe_artifact"

    def save():
        shutil.rmtree(art, ignore_errors=True)
        save_oracle(oracle, art)

    save_s, _ = _probe(tracer, "artifact.save_oracle", save)
    load_s, _ = _probe(tracer, "artifact.load_oracle", lambda: load_oracle(art, mmap=True))
    shutil.rmtree(workdir, ignore_errors=True)
    per_call = 1e6 / SMALL_CALLS
    return {
        "kernels.edge_ns_per_query": kern_s * 1e9 / bulk,
        "oracle.call_us_bulk": bulk_s * 1e6,
        "oracle.call_us_16": call16_s * per_call,
        "service.answer_us_miss": miss_s * per_call,
        "service.answer_us_hit": hit_s * per_call,
        "wire.encode_us": enc_s * per_call,
        "wire.decode_us": dec_s * per_call,
        "artifact.save_s": save_s,
        "artifact.load_s": load_s,
    }


def prefork(serve_wl, inputs, outcome, stats, layer: dict[str, float]) -> dict[str, float]:
    """Rungs only a running server gives: start time over the run's
    set-ups, the cache hit ratio its ``stop()`` reported, and socket
    self time per frame -- the p50 burst time per frame minus the
    service answer (miss or hit, by workload) and the codec."""
    burst_us = percentile(outcome.latencies, 50.0) * 1e6 / serve_wl.frames_per_op
    answer = layer["service.answer_us_hit" if serve_wl.name == "serve-hot"
                   else "service.answer_us_miss"]
    return {
        "prefork.start_s": statistics.median(inputs.start_times),
        "service.hit_ratio": stats["hits"] / max(1, stats["requests"]),
        "prefork.socket_us_per_frame":
            burst_us - answer - layer["wire.encode_us"] - layer["wire.decode_us"],
    }


def serve_session(serve_wl, seed: int, workdir, seconds: float, rng):
    """A short untraced serve session for workloads that start no server
    of their own, so their traced runs report the prefork rungs."""
    inputs = serve_wl.inputs(seed, workdir)
    state = None
    try:
        for _ in range(3):
            if state is not None:
                serve_wl.teardown(state)
            state = serve_wl.setup(inputs)
        outcome = run_rounds(serve_wl, state, seconds, rng)
    finally:
        if state is not None:
            stats = serve_wl.teardown(state)
    if outcome.failed:
        raise RuntimeError(f"serve probe session failed: {outcome.errors}")
    return inputs, outcome, stats
