"""The four workloads: inputs from a seed, timed set-up, ops, checks.

Every workload has the same shape, which ``run.py`` drives:

* ``inputs(seed, workdir)`` -- untimed; everything the seed decides;
* ``setup(inputs)`` -- timed as ``setup_s``: from the inputs to the
  first timed op, warm-up included;
* ``prepare_round`` / ``op`` / ``check_round`` -- one fixed-length
  round: inputs and expected answers made before the clock starts,
  answers checked after it stops;
* ``final_check`` and ``teardown`` -- after the timed loop.

Why these four (also in README.md): ``chain-shards`` is the only one
that runs the generation ladder; ``oracle-bulk`` drives the kernels with
fixed cost amortised and bypasses ``serve``; ``serve-cold`` pays the
fixed cost per frame on a cache that never hits; ``serve-hot`` is the
hit path, where the kernels are bypassed.
"""

from __future__ import annotations

import os
import shutil
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Any

import numpy as np

from harness import NULL_TRACER, pin, reap_strays
from repro.generators import konect_unicode_like
from repro.generators.scale_free import preferential_attachment
from repro.kronecker import Assumption, GroundTruthOracle, make_bipartite_product
from repro.kronecker.multifactor import KroneckerChain
from repro.parallel import generate_chain_shards, plan_partition
from repro.parallel.edgeio import read_shard_arrays
from repro.parallel.manifest import verify_shards
from repro.serve import PreforkServer, WireClient, save_oracle
from repro.serve.wire import encode_request


class Batch:
    """One round: its ops, its work in the workload's unit, and whatever
    the check needs (expected answers, sample positions)."""

    def __init__(self, ops: list, work: float, **extra: Any):
        self.ops = ops
        self.work = work
        self.__dict__.update(extra)


def _failures(results: list, ok) -> dict[int, str]:
    bad = {}
    for i, res in enumerate(results):
        if isinstance(res, Exception):
            bad[i] = f"op {i} raised {type(res).__name__}: {res}"
        else:
            why = ok(i, res)
            if why:
                bad[i] = f"op {i}: {why}"
    return bad


def _product(g):
    """The unicode-like self-product (assumption 1(ii)), 753,424 vertices."""
    return make_bipartite_product(g, g, Assumption.SELF_LOOPS_FACTOR, require_connected=False)


def _edge_sampler(bk):
    """Uniform stored entries of the product, drawn from factor entries
    (the construction of ``repro.kronecker.sampling.sample_edges``
    without its per-edge scalar ground truth)."""
    m = bk.M.adj.tocoo()
    b = bk.B.graph.adj.tocoo()
    n_b = bk.B.graph.n
    m_row, m_col = m.row.astype(np.int64), m.col.astype(np.int64)
    b_row, b_col = b.row.astype(np.int64), b.col.astype(np.int64)

    def sample(rng, k: int) -> tuple[np.ndarray, np.ndarray]:
        mi = rng.integers(0, m_row.size, size=k)
        bi = rng.integers(0, b_row.size, size=k)
        return m_row[mi] * n_b + b_row[bi], m_col[mi] * n_b + b_col[bi]

    return sample


# ---------------------------------------------------------------------------
# chain-shards: `repro shards --verify` through the API
# ---------------------------------------------------------------------------


class ChainShards:
    name = "chain-shards"
    unit = "entries"
    round_ops = 8
    tail_pct = 100.0   # the slowest op of each round
    setup_reps = 5
    forks = False
    FACTOR_N = 9       # pa(9, 2)^4: 810,000 entries per op
    N_SHARDS = 4
    SAMPLE = 32        # entries checked against the brute-force count

    def inputs(self, seed: int, workdir: Path):
        factors = [preferential_attachment(self.FACTOR_N, 2, seed=4 * seed + t) for t in range(4)]
        return SimpleNamespace(factors=factors, out=workdir / "shards")

    def setup(self, inp):
        chain = KroneckerChain.from_graphs(inp.factors)
        plan = plan_partition(chain, self.N_SHARDS, "degree")
        state = SimpleNamespace(chain=chain, plan=plan, out=inp.out, inputs=inp)
        entries = self.op(state, None, NULL_TRACER)  # warm-up
        if entries != chain.nnz:
            raise RuntimeError(f"warm-up wrote {entries} entries, chain has {chain.nnz}")
        return state

    def op(self, state, _op, tracer) -> int:
        with tracer.span("generate.job"):
            generate_chain_shards(
                state.chain, state.out, n_shards=self.N_SHARDS, n_workers=1,
                ground_truth=True, partition="degree", shard_format="edges", codec="raw",
            )
        with tracer.span("generate.verify"):
            manifest = verify_shards(state.out)
        return sum(entry.entries for entry in manifest.shards.values())

    def prepare_round(self, state, rng) -> Batch:
        return Batch([None] * self.round_ops, self.round_ops * state.chain.nnz)

    def check_round(self, state, batch, results) -> dict[int, str]:
        nnz = state.chain.nnz
        return _failures(results, lambda i, n: "" if n == nnz else f"{n} entries != nnz {nnz}")

    def final_check(self, state, rng) -> list[str]:
        """Sampled per-entry squares of the last op's shards against a
        direct count on the ``sp.kron``-materialized product: 4-cycles
        through ``(u, v)`` are the edges ``(x, y)`` with ``x ∈ N(v)∖{u}``,
        ``y ∈ N(u)∖{v}`` (refcheck's brute-force definition)."""
        k = int(rng.integers(0, len(state.plan.bounds)))
        shard = read_shard_arrays(state.out / f"shard_{k:04d}.edges")
        adj = state.chain.materialize()
        indptr, indices = adj.indptr, adj.indices
        errors = []
        for t in rng.integers(0, shard["p"].size, size=self.SAMPLE):
            u, v, got = int(shard["p"][t]), int(shard["q"][t]), int(shard["squares"][t])
            mask = np.zeros(adj.shape[0], dtype=bool)
            mask[indices[indptr[u]:indptr[u + 1]]] = True
            mask[v] = False
            xs = [x for x in indices[indptr[v]:indptr[v + 1]] if x != u]
            want = sum(int(mask[indices[indptr[x]:indptr[x + 1]]].sum()) for x in xs)
            if got != want:
                errors.append(f"shard {k} entry ({u}, {v}): squares {got} != brute {want}")
        return errors

    def teardown(self, state) -> dict:
        shutil.rmtree(state.out, ignore_errors=True)
        return {}


# ---------------------------------------------------------------------------
# oracle-bulk: in-process oracle, 65,536-element batches
# ---------------------------------------------------------------------------


class OracleBulk:
    name = "oracle-bulk"
    unit = "queries"
    round_ops = 10
    tail_pct = 100.0   # the slowest op of each round
    setup_reps = 11
    forks = False
    BATCH = 65_536
    SAMPLE = 16        # per kind per op, checked against the scalar path

    def inputs(self, seed: int, workdir: Path):
        return SimpleNamespace(graph=konect_unicode_like())

    def setup(self, inp):
        bk = _product(inp.graph)
        state = SimpleNamespace(bk=bk, oracle=GroundTruthOracle(bk), sample_edges=_edge_sampler(bk))
        warm = self.prepare_round(state, np.random.default_rng(0), ops=1)
        self.op(state, warm.ops[0], NULL_TRACER)
        return state

    def prepare_round(self, state, rng, ops: int | None = None) -> Batch:
        n = ops or self.round_ops
        batch = []
        for _ in range(n):
            ep, eq = state.sample_edges(rng, self.BATCH)
            wp, wq = state.sample_edges(rng, self.BATCH)
            vp = rng.integers(0, state.bk.n, size=self.BATCH, dtype=np.int64)
            batch.append((ep, eq, wp, wq, vp))
        picks = rng.integers(0, self.BATCH, size=(n, self.SAMPLE))
        return Batch(batch, n * 3 * self.BATCH, picks=picks)

    def op(self, state, op, tracer):
        ep, eq, wp, wq, vp = op
        oracle = state.oracle
        with tracer.span("oracle.squares_at_edges"):
            edges = oracle.squares_at_edges(ep, eq)
        with tracer.span("oracle.wings_at_edges"):
            wings = oracle.wings_at_edges(wp, wq)
        with tracer.span("oracle.squares_at_vertices"):
            verts = oracle.squares_at_vertices(vp)
        return edges, wings, verts

    def check_round(self, state, batch, results) -> dict[int, str]:
        oracle = state.oracle

        def ok(i, res):
            ep, eq, wp, wq, vp = batch.ops[i]
            edges, wings, verts = res
            if not (edges.size == wings.size == verts.size == self.BATCH):
                return "short answer"
            for t in batch.picks[i]:
                # Rem. 1: a wing bound is the edge's butterfly support.
                want = (oracle.squares_at_edge(int(ep[t]), int(eq[t])),
                        oracle.squares_at_edge(int(wp[t]), int(wq[t])),
                        oracle.squares_at_vertex(int(vp[t])))
                got = (int(edges[t]), int(wings[t]), int(verts[t]))
                if got != want:
                    return f"slot {t}: batch {got} != scalar {want}"
            return ""

        return _failures(results, ok)

    def final_check(self, state, rng) -> list[str]:
        return []

    def teardown(self, state) -> dict:
        return {}


# ---------------------------------------------------------------------------
# serve-cold / serve-hot: PreforkServer + one pipelining WireClient
# ---------------------------------------------------------------------------

#: Kinds of the 32 frames in one burst: mostly edge squares.
BURST_KINDS = ("edge_squares",) * 26 + ("vertex_squares", "wings", "clustering") * 2
FRAME_ELEMENTS = 16
_PAIR = {"edge_squares", "wings", "clustering"}


def _expected(oracle, kind: str, ps, qs):
    if kind == "edge_squares":
        return oracle.squares_at_edges(ps, qs, on_invalid="mask")
    if kind == "wings":
        return oracle.wings_at_edges(ps, qs, on_invalid="mask")
    if kind == "clustering":
        return oracle.clustering_at_edges(ps, qs)
    return oracle.squares_at_vertices(ps)


class _Serve:
    unit = "frames"
    setup_reps = 11
    forks = True

    def inputs(self, seed: int, workdir: Path):
        g = konect_unicode_like()
        bk = _product(g)
        return SimpleNamespace(
            graph=g, reference=GroundTruthOracle(bk), sample_edges=_edge_sampler(bk),
            n=bk.n, workdir=workdir, seen=set(), setups=0, start_times=[],
            cpus=sorted(os.sched_getaffinity(0)),
            rng=np.random.default_rng([seed, 7]),
        )

    def _frames(self, inp, rng, n_bursts: int):
        """``n_bursts`` bursts of never-seen frames, with the reference
        oracle's answers computed per kind in one batch each."""
        specs = []  # (burst, slot, kind, ps, qs)
        for b in range(n_bursts):
            for s, kind in enumerate(BURST_KINDS):
                while True:
                    if kind in _PAIR:
                        ps, qs = inp.sample_edges(rng, FRAME_ELEMENTS)
                    else:
                        ps = rng.integers(0, inp.n, size=FRAME_ELEMENTS, dtype=np.int64)
                        qs = None
                    # A hash, not the key: the set's size must not grow
                    # with throughput, or peak RSS would follow it.
                    key = hash((kind, ps.tobytes(), b"" if qs is None else qs.tobytes()))
                    if key not in inp.seen:
                        inp.seen.add(key)
                        break
                specs.append((b, s, kind, ps, qs))
        frames = [[None] * len(BURST_KINDS) for _ in range(n_bursts)]
        expected = [[None] * len(BURST_KINDS) for _ in range(n_bursts)]
        for kind in set(BURST_KINDS):
            group = [sp for sp in specs if sp[2] == kind]
            ps = np.concatenate([sp[3] for sp in group])
            qs = np.concatenate([sp[4] for sp in group]) if kind in _PAIR else None
            answers = _expected(inp.reference, kind, ps, qs)
            for t, (b, s, _, fps, fqs) in enumerate(group):
                frames[b][s] = encode_request(kind, fps, fqs)
                expected[b][s] = answers[t * FRAME_ELEMENTS:(t + 1) * FRAME_ELEMENTS]
        return frames, expected

    def setup(self, inp):
        inp.setups += 1
        art = inp.workdir / f"artifact-{inp.setups}"
        save_oracle(GroundTruthOracle(_product(inp.graph)), art)
        worker_cpu, client_cpu = inp.cpus[-1], inp.cpus[0]
        state = SimpleNamespace(inputs=inp, artifact=art, client=None, stats=None,
                                cpus={"worker": worker_cpu, "client": client_cpu})
        pin(worker_cpu)  # the forked worker inherits this placement
        state.server = PreforkServer(art, workers=1, protocol="wire",
                                     state_dir=inp.workdir / f"state-{inp.setups}")
        t0 = time.perf_counter()
        try:
            state.server.start()
        finally:
            inp.start_times.append(time.perf_counter() - t0)
            pin(client_cpu)
        try:
            state.client = WireClient("127.0.0.1", state.server.port)
            self.warm_up(state)
        except BaseException:
            self.teardown(state)  # the caller never sees this server
            raise
        return state

    def op(self, state, frames, tracer):
        with tracer.span("wire.pipeline"):
            return state.client.pipeline(frames)

    def check_round(self, state, batch, results) -> dict[int, str]:
        def ok(i, answers):
            for s, (got, want) in enumerate(zip(answers, batch.expected[i])):
                if got.dtype != want.dtype or got.tobytes() != want.tobytes():
                    return f"frame {s} differs from the direct oracle's answer"
            return ""

        return _failures(results, ok)

    def check_or_raise(self, state, frames, expected):
        bad = self.check_round(state, Batch(frames, 0, expected=expected),
                               [self.op(state, f, NULL_TRACER) for f in frames])
        if bad:
            raise RuntimeError(f"warm-up answers diverged: {list(bad.values())[0]}")

    def teardown(self, state) -> dict:
        """Stop the server; a worker that outlives ``stop()`` fails the run."""
        if state.stats is None:
            try:
                if state.client is not None:
                    state.client.close()
            finally:
                state.stats = state.server.stop()
                strays = reap_strays()
                shutil.rmtree(state.artifact, ignore_errors=True)
                shutil.rmtree(state.server.state_dir, ignore_errors=True)
            if strays:
                raise RuntimeError(f"server children outlived stop(): {strays}")
        return state.stats

    def final_check(self, state, rng) -> list[str]:
        stats = self.teardown(state)
        ratio = stats["hits"] / max(1, stats["requests"])
        if stats["workers_reported"] != 1:
            return [f"{stats['workers_reported']} of 1 workers reported their tallies"]
        if not self.ratio_ok(ratio):
            return [f"cache hit ratio {ratio:.4f} out of range for {self.name}"]
        return []


class ServeCold(_Serve):
    """Bursts of 32 never-repeated frames: every frame misses the cache."""

    name = "serve-cold"
    frames_per_op = len(BURST_KINDS)
    round_ops = 200
    tail_pct = 90.0    # 20 ops beyond it in each round

    def warm_up(self, state):
        frames, expected = self._frames(state.inputs, state.inputs.rng, 1)
        self.check_or_raise(state, frames, expected)

    def prepare_round(self, state, rng) -> Batch:
        frames, expected = self._frames(state.inputs, rng, self.round_ops)
        return Batch(frames, self.round_ops * len(BURST_KINDS), expected=expected)

    @staticmethod
    def ratio_ok(ratio: float) -> bool:
        return ratio == 0.0


class ServeHot(_Serve):
    """The same 64 distinct frames replayed as one pipelined burst per
    op, after a warm-up pass that fills the cache."""

    name = "serve-hot"
    frames_per_op = 2 * len(BURST_KINDS)
    round_ops = 1000
    tail_pct = 99.0    # 10 ops beyond it in each round

    def inputs(self, seed: int, workdir: Path):
        inp = super().inputs(seed, workdir)
        frames, expected = self._frames(inp, inp.rng, 2)
        inp.hot = ([frames[0] + frames[1]], [expected[0] + expected[1]])
        return inp

    def warm_up(self, state):
        frames, expected = state.inputs.hot
        self.check_or_raise(state, frames, expected)

    def prepare_round(self, state, rng) -> Batch:
        (frames,), (expected,) = state.inputs.hot
        return Batch([frames] * self.round_ops, self.round_ops * len(frames),
                     expected=[expected] * self.round_ops)

    @staticmethod
    def ratio_ok(ratio: float) -> bool:
        return ratio >= 0.99


WORKLOADS = {wl.name: wl for wl in (ChainShards(), OracleBulk(), ServeCold(), ServeHot())}
