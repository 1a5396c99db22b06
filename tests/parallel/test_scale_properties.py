"""Extreme-scale fleet properties (c) and (d): shard-union identities
across partition strategies and container formats, and per-shard
4-cycle sums against the independent closed-form fold.

These are the end-to-end guarantees the tier rests on: *how* the
product is sliced and *how* shards are encoded must never change *what*
was generated.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings

from repro.generators.classic import complete_bipartite, cycle_graph
from repro.generators.scale_free import preferential_attachment
from repro.kronecker.assumptions import Assumption, make_bipartite_product
from repro.kronecker.multifactor import (
    KroneckerChain,
    multi_kronecker_global_squares,
)
from repro.parallel.generate import (
    generate_chain_shards,
    generate_shards,
    load_shards,
)
from repro.parallel.manifest import load_manifest, verify_shards
from repro.parallel.partition import plan_partition, shard_of_rows
from tests.strategies import factor_chains

SETTINGS = settings(max_examples=8, deadline=None)


def entry_triples(data: dict[str, np.ndarray]) -> list[tuple[int, int, int]]:
    return sorted(zip(data["p"].tolist(), data["q"].tolist(), data["squares"].tolist()))


@pytest.fixture(scope="module")
def bk():
    return make_bipartite_product(
        cycle_graph(5), complete_bipartite(2, 3), Assumption.NON_BIPARTITE_FACTOR
    )


def test_shard_union_identical_across_strategies_and_formats(bk, tmp_path):
    """Property (c): the shard-union entry set (with ground truth) is
    identical across rows vs degree vs entries and npz vs edges."""
    reference = None
    for partition in ("entries", "rows", "degree"):
        for shard_format in ("npz", "edges"):
            out = tmp_path / f"{partition}-{shard_format}"
            paths = generate_shards(
                bk,
                out,
                n_shards=4,
                n_workers=1,
                ground_truth=True,
                partition=partition,
                shard_format=shard_format,
            )
            verify_shards(out)
            triples = entry_triples(load_shards(paths, manifest=out))
            if reference is None:
                reference = triples
            assert triples == reference, (partition, shard_format)
    assert len(reference) == 2 * bk.m


@given(factors=factor_chains(max_factors=3))
@SETTINGS
def test_chain_shard_squares_sum_to_fold(tmp_path_factory, factors):
    """Property (d): per-shard 4-cycle sums add up to the closed-form
    global count from the *independent* ``combine_stats`` fold (times 8:
    each square is counted once per its 4 edges x 2 directions)."""
    chain = KroneckerChain.from_graphs(factors)
    out = tmp_path_factory.mktemp("chain")
    paths = generate_chain_shards(
        chain, out, n_shards=3, n_workers=1, ground_truth=True
    )
    per_shard = []
    for path in paths:
        data = load_shards([path])
        per_shard.append(int(data["squares"].sum()))
    assert sum(per_shard) == 8 * multi_kronecker_global_squares(factors)


@given(factors=factor_chains(max_factors=3))
@SETTINGS
def test_chain_union_identical_across_row_strategies(tmp_path_factory, factors):
    chain = KroneckerChain.from_graphs(factors)
    reference = None
    for partition in ("rows", "degree"):
        for shard_format in ("npz", "edges"):
            out = tmp_path_factory.mktemp(f"{partition}-{shard_format}")
            paths = generate_chain_shards(
                chain,
                out,
                n_shards=3,
                n_workers=1,
                ground_truth=True,
                partition=partition,
                shard_format=shard_format,
            )
            triples = entry_triples(load_shards(paths, manifest=out))
            if reference is None:
                reference = triples
            assert triples == reference, (partition, shard_format)
    assert len(reference) == chain.nnz


@pytest.fixture(scope="module")
def pa_chain():
    """``pa(9, 2)`` seeds 0-2: a 3-factor, 729-row, 27,000-entry chain."""
    return KroneckerChain.from_graphs([preferential_attachment(9, 2, seed=t) for t in range(3)])


#: ``(entries, sha256 of the file bytes, manifest checksum)`` per shard of
#: ``pa_chain`` under ``degree``/3 shards/``edges``/``raw``, pinned from
#: the writer that joined ``tobytes()`` copies and the joined-block
#: ``shard_of_rows``.
GOLDEN_CHAIN_SHARDS = [
    (9036, "447b889e3cb7f9f383f6d259c4a9809d830a4351fbdf6d90cecc6af7373eca78",
     "sha256:5be7ddf30a1b9ff7272e2f202ebf3b637096344ba38b38b2b6fa3b76f9afc43b"),
    (8944, "6772f5ec05558cf9bfb9ae9ebc0e8f5bda77e3739e94ad5fe7fd5d6747a03da5",
     "sha256:69c9d0d3b1c7d42cb0d2c9116b04f7d5f81caeb82d35521d13db4a36acc912ee"),
    (9020, "bd2da1bbbeb6b861a2c2ebfee19d7d7fffb1e1e9e1333dc49d4f72bfa4bd40fd",
     "sha256:52fb8e7cf371a7aca80590e91031b4f994ba17fe93a75b7a46736266ffa65b7b"),
]


def test_chain_shard_bytes_and_checksums_pinned(pa_chain, tmp_path):
    """Shard files and manifest checksums are byte-identical to the
    pinned ones: the copy-free write path changes no output byte."""
    paths = generate_chain_shards(
        pa_chain, tmp_path, n_shards=3, n_workers=1, ground_truth=True,
        partition="degree", shard_format="edges", codec="raw",
    )
    manifest = load_manifest(tmp_path)
    got = [
        (entry.entries, hashlib.sha256(path.read_bytes()).hexdigest(), entry.checksum)
        for path, (_, entry) in zip(paths, sorted(manifest.shards.items()))
    ]
    assert got == GOLDEN_CHAIN_SHARDS
    verify_shards(tmp_path)


@pytest.mark.parametrize("n_factors", [1, 2, 3])
@pytest.mark.parametrize("attach", [False, True])
def test_shard_of_rows_independent_of_block_size(n_factors, attach):
    """``shard_of_rows`` expands blocks straight into exactly-sized
    outputs; the result equals the joined stream at every block size
    {1, 7, 16384, >n}, single-factor chains included."""
    chain = KroneckerChain.from_graphs(
        [preferential_attachment(9, 2, seed=t) for t in range(n_factors)]
    )
    plan = plan_partition(chain, 3, "degree")
    for lo, hi in [*plan.bounds, (0, 0), (2, 5), (0, chain.n)]:
        blocks = list(chain.stream_rows(lo, hi, attach_ground_truth=attach))
        reference = [
            np.concatenate([b[k] for b in blocks]) if blocks else np.zeros(0, np.int64)
            for k in range(3 if attach else 2)
        ]
        for block_entries in (1, 7, 16384, chain.nnz + 1):
            got = shard_of_rows(chain, lo, hi, attach_ground_truth=attach,
                                block_entries=block_entries)
            assert len(got) == len(reference)
            for a, b in zip(got, reference):
                assert a.dtype == np.int64
                np.testing.assert_array_equal(a, b)


def test_stream_rows_out_is_validated(pa_chain):
    """``out`` must be exactly one int64 array per column, each
    ``row_range_work`` long; anything else is refused before streaming."""
    total = pa_chain.row_range_work(10, 20)
    good = np.empty(total, dtype=np.int64)
    bad = [
        (good, good),                                     # gt needs three
        (good, good, np.empty(total + 1, dtype=np.int64)),
        (good, good, np.empty(total, dtype=np.int32)),
    ]
    for out in bad:
        with pytest.raises(ValueError, match="out must hold"):
            next(pa_chain.stream_rows(10, 20, attach_ground_truth=True, out=out))
