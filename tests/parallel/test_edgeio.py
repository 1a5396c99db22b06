"""The repro.edges/1 binary shard container: roundtrips, sniffing,
typed failure modes, and manifest-checksum compatibility.

Satellite regression: shard readers must trust *magic bytes*, never
file extensions -- a renamed ``.npz`` handed to the loader used to be
misparsed; now it loads correctly via sniffing, and a file that is
neither container raises a typed :class:`EdgeFormatError`.
"""

from __future__ import annotations

import hashlib
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.edgeio import (
    BLOCK_MAGIC,
    CODECS,
    EDGES_SCHEMA,
    EDGES_VERSION,
    FILE_MAGIC,
    EdgeFormatError,
    EdgeIntegrityError,
    read_edges_file,
    read_shard_arrays,
    sniff_shard_format,
    write_edges_file,
)
from repro.parallel.manifest import checksum_arrays

SETTINGS = settings(max_examples=15, deadline=None)


def sample_arrays(n: int = 1000) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(7)
    return {
        "p": rng.integers(0, 1 << 40, n),
        "q": rng.integers(0, 1 << 40, n),
        "squares": rng.integers(0, 1 << 20, n),
    }


@pytest.mark.parametrize("codec", ["raw", "deflate"])
@pytest.mark.parametrize("block_entries", [1, 7, 16384, 10**6])
def test_roundtrip_bit_identical(tmp_path, codec, block_entries):
    """Property (b): bit-identical roundtrip at block sizes {1, 7,
    16384, > |E|} under every locally available codec."""
    arrays = sample_arrays()
    path = tmp_path / "x.edges"
    checksum = write_edges_file(path, arrays, block_entries=block_entries, codec=codec)
    assert checksum == checksum_arrays(arrays)
    back = read_edges_file(path)
    assert sorted(back) == sorted(arrays)
    for name in arrays:
        assert back[name].dtype == np.int64
        np.testing.assert_array_equal(back[name], arrays[name].astype(np.int64))


@given(
    n=st.integers(0, 300),
    block_entries=st.integers(1, 400),
    codec=st.sampled_from(["raw", "deflate"]),
)
@SETTINGS
def test_roundtrip_property(tmp_path_factory, n, block_entries, codec):
    rng = np.random.default_rng(n * 7919 + block_entries)
    arrays = {
        "p": rng.integers(-(1 << 62), 1 << 62, n),
        "q": rng.integers(-(1 << 62), 1 << 62, n),
    }
    path = tmp_path_factory.mktemp("edges") / "x.edges"
    checksum = write_edges_file(path, arrays, block_entries=block_entries, codec=codec)
    back = read_edges_file(path)
    for name in arrays:
        np.testing.assert_array_equal(back[name], arrays[name])
    assert checksum == checksum_arrays(back)


def test_empty_arrays_roundtrip(tmp_path):
    arrays = {"p": np.zeros(0, dtype=np.int64), "q": np.zeros(0, dtype=np.int64)}
    path = tmp_path / "empty.edges"
    write_edges_file(path, arrays)
    back = read_edges_file(path)
    assert back["p"].size == 0 and back["q"].size == 0


def test_sniff_edges_and_npz(tmp_path):
    edges = tmp_path / "a.edges"
    write_edges_file(edges, sample_arrays(10))
    npz = tmp_path / "b.npz"
    np.savez(npz, p=np.arange(3), q=np.arange(3))
    assert sniff_shard_format(edges) == "edges"
    assert sniff_shard_format(npz) == "npz"


def test_renamed_npz_loads_by_magic(tmp_path):
    """The extension-trust fix: an .npz renamed to .edges still loads
    as npz (and vice versa), because only the magic decides."""
    arrays = {"p": np.arange(50, dtype=np.int64), "q": np.arange(50, dtype=np.int64)}
    disguised = tmp_path / "shard_0000.edges"
    with open(disguised, "wb") as fh:  # np.savez would append ".npz" to a name
        np.savez(fh, **arrays)
    back = read_shard_arrays(disguised)
    np.testing.assert_array_equal(back["p"], arrays["p"])

    disguised2 = tmp_path / "shard_0001.npz"
    write_edges_file(disguised2, arrays)
    back2 = read_shard_arrays(disguised2)
    np.testing.assert_array_equal(back2["q"], arrays["q"])


def test_unknown_magic_is_typed_error(tmp_path):
    junk = tmp_path / "junk.edges"
    junk.write_bytes(b"torn shard: fault injected mid-write")
    with pytest.raises(EdgeFormatError, match="junk.edges"):
        sniff_shard_format(junk)
    with pytest.raises(EdgeFormatError):
        read_shard_arrays(junk)


def test_truncated_file_is_typed_error(tmp_path):
    path = tmp_path / "torn.edges"
    write_edges_file(path, sample_arrays(500))
    data = path.read_bytes()
    for cut in (4, 15, 20, len(data) // 2, len(data) - 3):
        path.write_bytes(data[:cut])
        with pytest.raises(EdgeFormatError):
            read_edges_file(path)


def test_flipped_payload_byte_is_integrity_error(tmp_path):
    path = tmp_path / "bad.edges"
    write_edges_file(path, sample_arrays(500))
    data = bytearray(path.read_bytes())
    # Flip a byte well inside the first block's payload (header is 16
    # bytes + the names blob; payload starts shortly after).
    data[200] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(EdgeIntegrityError):
        read_edges_file(path, verify=True)


def test_verify_false_skips_checksum(tmp_path):
    path = tmp_path / "bad.edges"
    arrays = {"p": np.arange(500, dtype=np.int64)}
    write_edges_file(path, arrays, block_entries=500)
    data = bytearray(path.read_bytes())
    data[100] ^= 0xFF
    path.write_bytes(bytes(data))
    back = read_edges_file(path, verify=False)  # structurally valid, wrong data
    assert back["p"].size == 500
    assert not np.array_equal(back["p"], arrays["p"])


def test_zstd_gated_or_roundtrips(tmp_path):
    """zstd works when the optional dependency is present, and fails
    with a typed, actionable error when it is not."""
    arrays = sample_arrays(100)
    path = tmp_path / "z.edges"
    try:
        import zstandard  # noqa: F401

        have = True
    except ImportError:
        have = False
    if have:
        write_edges_file(path, arrays, codec="zstd")
        back = read_edges_file(path)
        np.testing.assert_array_equal(back["p"], arrays["p"])
    else:
        with pytest.raises(EdgeFormatError, match="zstandard"):
            write_edges_file(path, arrays, codec="zstd")


def test_bad_codec_and_bad_columns(tmp_path):
    with pytest.raises(EdgeFormatError):
        write_edges_file(tmp_path / "x.edges", {"p": np.arange(3)}, codec="nope")
    with pytest.raises(EdgeFormatError):
        write_edges_file(tmp_path / "y.edges", {"a,b": np.arange(3)})
    with pytest.raises(EdgeFormatError):
        write_edges_file(
            tmp_path / "z.edges", {"p": np.zeros((2, 2), dtype=np.int64)}
        )


def test_checksum_container_independent(tmp_path):
    """The same arrays carry the same content checksum in either
    container -- what keeps manifests format-agnostic."""
    arrays = sample_arrays(64)
    edges_checksum = write_edges_file(tmp_path / "a.edges", arrays)
    validated = {k: np.ascontiguousarray(v, dtype=np.int64) for k, v in arrays.items()}
    assert edges_checksum == checksum_arrays(validated)


def test_schema_constants():
    assert EDGES_SCHEMA == "repro.edges/1"
    assert set(CODECS) == {"raw", "deflate", "zstd"}


# -- byte-level stability and bounded reads -----------------------------

#: sha256 of the file bytes of :func:`golden_arrays` written with
#: ``block_entries=300`` (four blocks), pinned from the writer that
#: joined ``tobytes()`` copies; the copy-free writer must match it.
GOLDEN_FILE_SHA256 = {
    "raw": "ec44fca88cf57e043b50e03ec7351bf829032db6c004df35306bca0b2859d413",
    "deflate": "d12ea24a9fac9da08f073dba09fc609582b86da552dc2d08bc97b01a2c1faa6e",
}
GOLDEN_CHECKSUM = "sha256:3b6cf42deb6e99649744276b5f1e39dda992e7cdddf4a996f1fe569a2ec613fc"


def golden_arrays() -> dict[str, np.ndarray]:
    """A fixed 1000-entry, 3-column shard (negative values included),
    built by arithmetic alone so no RNG stream can move it."""
    i = np.arange(1000, dtype=np.int64)
    return {
        "p": (i * 2654435761) % (1 << 40),
        "q": (i * i * 40503) % (1 << 33) - (1 << 32),
        "squares": i // 3,
    }


@pytest.mark.parametrize("codec", ["raw", "deflate"])
def test_golden_file_bytes(tmp_path, codec):
    if codec == "deflate" and "ng" in zlib.ZLIB_RUNTIME_VERSION:
        # Deflate streams are only byte-stable within one implementation.
        pytest.skip(f"zlib runtime {zlib.ZLIB_RUNTIME_VERSION} is not reference zlib")
    path = tmp_path / f"golden-{codec}.edges"
    checksum = write_edges_file(path, golden_arrays(), block_entries=300, codec=codec)
    assert checksum == GOLDEN_CHECKSUM
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_FILE_SHA256[codec]


@pytest.mark.parametrize("codec", ["raw", "deflate"])
@pytest.mark.parametrize("block_entries", [300, 1000])
def test_read_back_is_writable_int64(tmp_path, codec, block_entries):
    """Single-block raw reads hand out views of one read buffer; every
    column must still be an independent, writable int64 array."""
    arrays = golden_arrays()
    path = tmp_path / "x.edges"
    write_edges_file(path, arrays, block_entries=block_entries, codec=codec)
    back = read_edges_file(path)
    for col in back.values():
        assert col.dtype == np.int64
        assert col.flags.writeable and col.flags.c_contiguous
    back["p"][:] = -1  # writing one column never touches another
    np.testing.assert_array_equal(back["q"], arrays["q"])
    np.testing.assert_array_equal(back["squares"], arrays["squares"])


def _hostile_file(path, codec: str, n_columns: int, count: int, length: int, payload: bytes):
    """A file header plus one block header whose fields are chosen by
    the caller, followed by ``payload`` -- what a corrupt or malicious
    writer could leave on disk."""
    names = ",".join(f"c{k}" for k in range(n_columns)).encode()
    codec_id = CODECS[codec]
    frame = struct.Struct("<2sBBB3xII")
    path.write_bytes(
        frame.pack(FILE_MAGIC, EDGES_VERSION, codec_id, n_columns, len(names), 0)
        + names
        + frame.pack(BLOCK_MAGIC, EDGES_VERSION, codec_id, 0, count, length)
        + payload
    )


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


PEAK_LIMIT = 16 << 20


@pytest.mark.parametrize(
    "codec, n_columns, count, length",
    [
        ("raw", 1, 10, 0xF0000000),               # length disagrees with count
        ("raw", 2, 0xF0000000 // 16, 0xF0000000),  # consistent, past end of file
        ("deflate", 1, 10, 0xF0000000),           # compressed length past end of file
    ],
)
def test_hostile_block_length_fails_before_allocating(tmp_path, codec, n_columns, count, length):
    """A 16-byte block header claiming ~3.8 GB must raise a typed error
    without reserving anything near that much memory."""
    path = tmp_path / "hostile.edges"
    _hostile_file(path, codec, n_columns, count, length, b"\0" * 64)

    def read():
        with pytest.raises(EdgeFormatError):
            read_edges_file(path)

    assert _peak_bytes(read) < PEAK_LIMIT


def test_decompression_bomb_is_capped(tmp_path):
    """A ~200 KB deflate block that inflates to 200 MB under a header
    promising 1024 entries is rejected after at most 8 KB + 1 of output."""
    deflater = zlib.compressobj(9)
    zeros = bytes(1 << 20)
    bomb = b"".join(deflater.compress(zeros) for _ in range(200)) + deflater.flush()
    assert len(bomb) < 256 << 10
    path = tmp_path / "bomb.edges"
    _hostile_file(path, "deflate", 1, 1024, len(bomb), bomb)
    del zeros, bomb

    def read():
        with pytest.raises(EdgeFormatError, match="decodes past"):
            read_edges_file(path)

    assert _peak_bytes(read) < PEAK_LIMIT


def test_truncated_deflate_stream_is_typed_error(tmp_path):
    """A deflate block cut short inside its stream is a format error,
    not a bare ``zlib.error`` or a silently accepted prefix."""
    payload = np.arange(64, dtype="<i8").tobytes()
    encoded = zlib.compress(payload, 6)
    for cut in (len(encoded) - 2, len(encoded) // 2):
        path = tmp_path / f"cut{cut}.edges"
        _hostile_file(path, "deflate", 1, 64, cut, encoded[:cut])
        with pytest.raises(EdgeFormatError):
            read_edges_file(path)
