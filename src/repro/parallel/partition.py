"""Deterministic work partitioning for parallel product generation.

The Kronecker product's directed entries decompose exactly as::

    nnz(C) = Σ over stored (i, j) of M   [ one block of nnz(B) entries ]

so partitioning the *left factor's* stored-entry list partitions the
product's entries into disjoint shards of predictable size -- no
communication, no overlap, perfect load balance when ``nnz(B)`` blocks
are equal (they are: every block is a shifted copy of ``B``'s pattern).
This is the paper's distributed-generation decomposition in miniature.

The extreme-scale tier partitions the **product row space** instead
(:class:`PartitionPlan`), which is what deep multi-factor chains and
row-sliceable manifests need.  Naive equal row ranges skew badly on
power-law factors -- product row ``p = (i_1, …, i_k)`` holds
``Π_t d_t(i_t)`` entries, so a hub digit concentrates work.  The
``degree`` strategy balances *estimated product work from factor
statistics alone*: the exact work prefix ``W(p) = Σ_{p'<p} Π d_t`` has
a mixed-radix closed form (:meth:`KroneckerChain.work_prefix
<repro.kronecker.multifactor.KroneckerChain.work_prefix>`), so a
greedy bin-pack over contiguous ranges reduces to binary-searching the
``n_shards − 1`` cut points where ``W`` crosses equal work quantiles.
Ranges stay contiguous, so manifests stay sliceable and every strategy
yields the same shard-union entry set (asserted by the property fleet).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.kronecker.assumptions import BipartiteKronecker
from repro.kronecker.multifactor import KroneckerChain

__all__ = [
    "PARTITION_STRATEGIES",
    "PartitionPlan",
    "plan_partition",
    "left_entry_slices",
    "shard_of_product",
    "shard_of_rows",
]

#: ``entries`` slices the left factor's entry list (legacy, 2-factor
#: only); ``rows``/``degree`` slice the product row space.
PARTITION_STRATEGIES = ("entries", "rows", "degree")


@dataclass(frozen=True)
class PartitionPlan:
    """A contiguous-range partition of one generation index space.

    ``space`` is ``"left-entries"`` (ranges index ``M``'s COO entry
    list) or ``"product-rows"`` (ranges index product rows).  ``work``
    estimates each shard's directed product entries from factor
    statistics alone -- for the row strategies the estimate is *exact*,
    which is what lets benches assert a max/mean imbalance bound
    without generating anything.
    """

    strategy: str
    space: str
    total: int                        #: size of the partitioned index space
    bounds: tuple[tuple[int, int], ...]
    work: tuple[int, ...]             #: per-shard estimated product entries

    @property
    def n_shards(self) -> int:
        return len(self.bounds)

    @property
    def total_work(self) -> int:
        return sum(self.work)

    def imbalance(self) -> float:
        """Max/mean shard work -- 1.0 is a perfect balance."""
        if not self.work or self.total_work == 0:
            return 1.0
        mean = self.total_work / len(self.work)
        return max(self.work) / mean


def _row_bounds_to_plan(
    chain: KroneckerChain, strategy: str, cuts: list[int]
) -> PartitionPlan:
    pairs = [
        (a, b) for a, b in zip(cuts[:-1], cuts[1:]) if b > a
    ]
    work = tuple(chain.row_range_work(a, b) for a, b in pairs)
    return PartitionPlan(
        strategy=strategy,
        space="product-rows",
        total=chain.n,
        bounds=tuple(pairs),
        work=work,
    )


def plan_partition(
    source: Union[BipartiteKronecker, KroneckerChain],
    n_shards: int,
    strategy: str = "entries",
) -> PartitionPlan:
    """Plan ``n_shards`` contiguous shards of ``source`` under ``strategy``.

    * ``entries`` -- equal slices of the left factor's stored-entry
      list (:func:`left_entry_slices`); 2-factor products only, the
      legacy default with perfectly equal work by construction.
    * ``rows`` -- equal product-row ranges: the naive baseline, skewed
      by up to the degree spread on power-law factors.
    * ``degree`` -- work-balanced row ranges: cut points are binary
      searches of the exact Kronecker work prefix, so each shard gets
      as close to ``total/n_shards`` entries as contiguity allows.

    Empty ranges are dropped (mirroring :func:`left_entry_slices`), so
    plans may hold fewer than ``n_shards`` shards on tiny inputs.
    """
    if n_shards <= 0:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    if strategy not in PARTITION_STRATEGIES:
        raise ValueError(
            f"unknown partition strategy {strategy!r} (choose from {PARTITION_STRATEGIES})"
        )
    if strategy == "entries":
        if not isinstance(source, BipartiteKronecker):
            raise ValueError(
                "partition strategy 'entries' slices the left factor of a "
                "2-factor product; deep chains need 'rows' or 'degree'"
            )
        bounds = tuple(left_entry_slices(source, n_shards))
        nnz_b = int(source.B.graph.nnz)
        return PartitionPlan(
            strategy="entries",
            space="left-entries",
            total=int(source.M.nnz),
            bounds=bounds,
            work=tuple((b - a) * nnz_b for a, b in bounds),
        )
    chain = (
        source
        if isinstance(source, KroneckerChain)
        else KroneckerChain.from_bipartite(source)
    )
    if strategy == "rows":
        cuts = [int(c) for c in np.linspace(0, chain.n, n_shards + 1).astype(np.int64)]
        return _row_bounds_to_plan(chain, "rows", cuts)
    # degree: binary-search the work prefix for each equal-work quantile.
    total = chain.work_prefix(chain.n)
    cuts = [0]
    for j in range(1, n_shards):
        target = (total * j) // n_shards
        lo, hi = cuts[-1], chain.n
        # smallest p with W(p) >= target
        while lo < hi:
            mid = (lo + hi) // 2
            if chain.work_prefix(mid) >= target:
                hi = mid
            else:
                lo = mid + 1
        # lo and lo-1 straddle the quantile; keep the closer cut.
        if lo > cuts[-1] and target - chain.work_prefix(lo - 1) < chain.work_prefix(lo) - target:
            lo -= 1
        cuts.append(max(lo, cuts[-1]))
    cuts.append(chain.n)
    return _row_bounds_to_plan(chain, "degree", cuts)


def left_entry_slices(bk: BipartiteKronecker, n_shards: int) -> list[tuple[int, int]]:
    """Split the left factor's stored entries into ``n_shards`` ranges.

    Returns ``(start, stop)`` index pairs into the COO entry list of
    ``M``; empty trailing shards are dropped.  Because every entry
    expands to exactly ``nnz(B)`` product entries, equal entry ranges
    are equal product work.
    """
    if n_shards <= 0:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    total = bk.M.nnz
    bounds = np.linspace(0, total, n_shards + 1).astype(np.int64)
    return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def shard_of_product(
    bk: BipartiteKronecker,
    start: int,
    stop: int,
    attach_ground_truth: bool = False,
    backend: str | None = None,
):
    """Materialize one shard's product entries as flat arrays.

    Returns ``(p, q)`` -- or ``(p, q, diamonds)`` -- covering exactly
    the product entries generated by left-factor entries
    ``start..stop-1`` (COO order).  Pure function of ``(bk, start,
    stop)``: safe to run in any process, in any order.  ``backend``
    names the kernel backend for the coefficient lookups (a *name*,
    not an instance, so it crosses process boundaries; shard payloads
    are bit-identical across backends).
    """
    m_coo = bk.M.adj.tocoo()
    b_coo = bk.B.graph.adj.tocoo()
    n_b = bk.B.graph.n
    rows_m = m_coo.row[start:stop].astype(np.int64)
    cols_m = m_coo.col[start:stop].astype(np.int64)
    b_rows = b_coo.row.astype(np.int64)
    b_cols = b_coo.col.astype(np.int64)
    # Outer expansion: every sliced M entry against every B entry.
    p = (rows_m[:, None] * n_b + b_rows[None, :]).ravel()
    q = (cols_m[:, None] * n_b + b_cols[None, :]).ravel()
    if not attach_ground_truth:
        return p, q
    from repro.kronecker import kernels
    from repro.kronecker.backends import get_backend

    be = get_backend(backend)
    stats_a, stats_b = bk.factor_stats()
    # Fused evaluation (repro.kronecker.kernels): per-entry left-factor
    # coefficients, then one stacked matmul for the whole shard -- no
    # per-entry Python loop, no sparse fancy indexing.
    alpha, beta_i, beta_j, _ = kernels.edge_coefficients(
        stats_a, bk.assumption, rows_m, cols_m, backend=be
    )
    idx_b = stats_b.edge_index
    _, dia_b = idx_b.diamond_at(b_rows, b_cols, backend=be)
    d_k = stats_b.d[b_rows]
    d_l = stats_b.d[b_cols]
    left = np.stack((alpha, beta_i, beta_j))              # (3, slice)
    right = np.stack((dia_b + d_k + d_l - 1, -d_k, -d_l))  # (3, nnz_B)
    out = left.T @ right
    out += 1
    return p, q, out.ravel()


def shard_of_rows(
    chain: KroneckerChain,
    start: int,
    stop: int,
    attach_ground_truth: bool = False,
    block_entries: int | None = None,
):
    """Materialize product rows ``[start, stop)`` as flat arrays.

    The row-space analogue of :func:`shard_of_product` for any
    :class:`~repro.kronecker.multifactor.KroneckerChain` (including the
    2-factor ``[M, B]`` chains the ``rows``/``degree`` strategies build
    from a :class:`~repro.kronecker.assumptions.BipartiteKronecker`).
    Returns ``(p, q)`` or ``(p, q, squares)``; a pure function of
    ``(chain, start, stop)``, so shard bytes are identical across
    worker scheduling, resume boundaries, and block sizes.
    """
    # The closed-form row work sizes the outputs once, and the top
    # factor level expands every block straight into them: no block
    # list, no join.
    total = chain.row_range_work(start, stop)
    outs = tuple(
        np.empty(total, dtype=np.int64) for _ in range(3 if attach_ground_truth else 2)
    )
    for _ in chain.stream_rows(
        start, stop, attach_ground_truth=attach_ground_truth, block_entries=block_entries,
        out=outs,
    ):
        pass
    return outs
