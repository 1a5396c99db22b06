"""The ``repro.edges/1`` binary shard format: int64 edge blocks on disk.

``.npz`` shards pay zip-container overhead (per-member headers, CRC32
over a deflate stream, a central directory) on every read and write; at
10⁹-edge scale the container dominates I/O.  This module is the
replacement payload format: a 16-byte framed header, a run of
little-endian int64 column blocks, and a checksummed footer.

Framing reuses the :mod:`repro.serve.wire` conventions -- one
``<2sBBB3xII`` 16-byte header struct everywhere, magics starting with
``0x9F`` (outside printable ASCII, disjoint from both HTTP method
initials and zip's ``PK``), explicit lengths so a reader never scans.

File layout (all integers little-endian)::

    header   magic=\\x9fE version codec n_columns pad(3) names_len reserved
    names    UTF-8 comma-joined column names, sorted (names_len bytes)
    block*   magic=\\x9fB version codec 0 pad(3) n_entries payload_len
             payload: per-column int64 runs in name order, optionally
             compressed per block (codec); a raw payload is exactly
             n_entries * 8 * n_columns bytes
    footer   magic=\\x9fF version 0 0 pad(3) n_blocks checksum_len
             checksum ("sha256:..." ASCII) + total_entries as u64

Two integrity layers, deliberately distinct:

* the **footer checksum** is the manifest-compatible *content* checksum
  (:func:`repro.parallel.manifest.checksum_arrays` over the decoded
  arrays) -- byte-identical to what a ``.npz`` shard of the same data
  hashes to, so manifests, resume reconciliation, and cross-format
  comparisons never care which container held the bytes;
* **structural framing** (magics, lengths, the footer's presence)
  detects torn files: a writer crash mid-block leaves a file whose
  read raises :class:`EdgeFormatError` before any data is trusted.

Codecs: ``raw`` (0) and ``deflate`` (1, stdlib zlib) are always
available; ``zstd`` (2) is recognised but gated on the optional
``zstandard`` package -- reading or writing it without the package
raises a typed error instead of importing lazily at a surprise moment.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from pathlib import Path
from typing import BinaryIO, Mapping, Union

import numpy as np

__all__ = [
    "EDGES_SCHEMA",
    "EDGES_VERSION",
    "FILE_MAGIC",
    "BLOCK_MAGIC",
    "FOOTER_MAGIC",
    "CODECS",
    "DEFAULT_BLOCK_ENTRIES",
    "EdgeFormatError",
    "EdgeIntegrityError",
    "write_edges_file",
    "read_edges_file",
    "sniff_shard_format",
    "read_shard_arrays",
]

PathLike = Union[str, os.PathLike]

EDGES_SCHEMA = "repro.edges/1"
EDGES_VERSION = 1

#: One header struct for file/block/footer frames, as in serve/wire.py:
#: ``magic(2) version(1) a(1) b(1) pad(3) u32 u32``.
_HEADER = struct.Struct("<2sBBB3xII")
HEADER_SIZE = _HEADER.size  # 16

FILE_MAGIC = b"\x9fE"
BLOCK_MAGIC = b"\x9fB"
FOOTER_MAGIC = b"\x9fF"
_NPZ_MAGIC = b"PK"  # zip container (np.savez)

CODECS = {"raw": 0, "deflate": 1, "zstd": 2}
_CODEC_NAMES = {v: k for k, v in CODECS.items()}

DEFAULT_BLOCK_ENTRIES = 1 << 20

# Structural sanity bounds (cf. wire.MAX_FRAME_ELEMENTS): a corrupt
# length field must fail fast, not allocate gigabytes.  Block payloads
# are further bounded by the bytes left in the file (compressed length)
# and by the header's entry count (decoded length).
_MAX_COLUMNS = 64
_MAX_NAMES_BYTES = 4096
_MAX_BLOCK_ENTRIES = 1 << 28
_MAX_CHECKSUM_BYTES = 256


class EdgeFormatError(ValueError):
    """File is not (or is no longer) a well-formed ``repro.edges/1``."""


class EdgeIntegrityError(EdgeFormatError):
    """Framing is intact but the content checksum does not match."""


def _zstd():
    try:
        import zstandard  # type: ignore[import-not-found]
    except ImportError as exc:  # pragma: no cover - env-dependent
        raise EdgeFormatError(
            "codec 'zstd' needs the optional zstandard package (not installed); "
            "use 'raw' or 'deflate'"
        ) from exc
    return zstandard


def _compress(payload: bytes, codec: int) -> bytes:
    if codec == CODECS["deflate"]:
        return zlib.compress(payload, 6)
    if codec == CODECS["zstd"]:  # pragma: no cover - optional dependency
        return _zstd().ZstdCompressor().compress(payload)
    raise EdgeFormatError(f"unknown codec id {codec}")


def _decompress(payload: bytes, codec: int, expected: int) -> bytes:
    """Decode one compressed block, producing at most ``expected + 1``
    bytes: a block that inflates past its header's size is rejected
    after that many bytes, never fully inflated (no decompression bomb)."""
    try:
        if codec == CODECS["deflate"]:
            inflater = zlib.decompressobj()
            out = inflater.decompress(payload, expected + 1)
            if len(out) == expected and not inflater.eof:
                raise EdgeFormatError("deflate block ends before its stream does")
        elif codec == CODECS["zstd"]:  # pragma: no cover - optional dependency
            zstd = _zstd()
            # The decoder may size its output from a frame's declared
            # content size, so a declaration that disagrees is refused first.
            declared = zstd.frame_content_size(payload)
            if declared not in (-1, expected):
                raise EdgeFormatError(
                    f"zstd block declares {declared} bytes, expected {expected}"
                )
            out = zstd.ZstdDecompressor().decompress(payload, max_output_size=expected)
        else:
            raise EdgeFormatError(f"unknown codec id {codec}")
    except zlib.error as exc:
        raise EdgeFormatError(f"corrupt deflate block: {exc}") from exc
    if len(out) > expected:
        raise EdgeFormatError(f"block payload decodes past the expected {expected} bytes")
    if len(out) < expected:
        raise EdgeFormatError(
            f"block payload decoded to {len(out)} bytes, expected {expected}"
        )
    return out


def _content_checksum(arrays: Mapping[str, np.ndarray]) -> str:
    # Deferred import: manifest imports this module for format sniffing.
    from repro.parallel.manifest import checksum_arrays

    return checksum_arrays(arrays)


def _validated_columns(arrays: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    if not arrays:
        raise EdgeFormatError("edges file needs at least one column")
    if len(arrays) > _MAX_COLUMNS:
        raise EdgeFormatError(f"too many columns ({len(arrays)} > {_MAX_COLUMNS})")
    out: dict[str, np.ndarray] = {}
    length = None
    for name in sorted(arrays):
        if "," in name or not name:
            raise EdgeFormatError(f"invalid column name {name!r}")
        a = np.ascontiguousarray(arrays[name])
        if a.ndim != 1 or not np.issubdtype(a.dtype, np.integer):
            raise EdgeFormatError(
                f"column {name!r} must be a 1-D integer array, got "
                f"shape {a.shape} dtype {a.dtype}"
            )
        a = a.astype(np.int64, copy=False)
        if length is None:
            length = a.size
        elif a.size != length:
            raise EdgeFormatError(
                f"ragged columns: {name!r} has {a.size} entries, expected {length}"
            )
        out[name] = a
    return out


def write_edges_file(
    path: PathLike,
    arrays: Mapping[str, np.ndarray],
    *,
    block_entries: int = DEFAULT_BLOCK_ENTRIES,
    codec: str = "raw",
) -> str:
    """Write ``arrays`` (equal-length int64 columns) as ``repro.edges/1``.

    Returns the manifest-compatible ``sha256:`` content checksum (also
    embedded in the footer).  The file is written in ``block_entries``-
    row blocks so readers stream with bounded memory; a crash mid-write
    leaves a structurally invalid file, never a silently short one.
    """
    if codec not in CODECS:
        raise EdgeFormatError(f"unknown codec {codec!r} (choose from {sorted(CODECS)})")
    if block_entries <= 0:
        raise EdgeFormatError(f"block_entries must be positive, got {block_entries}")
    cols = _validated_columns(arrays)
    checksum = _content_checksum(cols)
    codec_id = CODECS[codec]
    if codec_id == CODECS["zstd"]:
        _zstd()  # fail before creating the file
    names = ",".join(cols).encode("utf-8")
    if len(names) > _MAX_NAMES_BYTES:
        raise EdgeFormatError("column name blob too large")
    total = next(iter(cols.values())).size if cols else 0
    n_blocks = 0
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(FILE_MAGIC, EDGES_VERSION, codec_id, len(cols), len(names), 0))
        fh.write(names)
        for s0 in range(0, total, block_entries):
            s1 = min(s0 + block_entries, total)
            if codec_id == CODECS["raw"]:
                # Header, then each column slice straight from its buffer.
                length = (s1 - s0) * 8 * len(cols)
                fh.write(_HEADER.pack(BLOCK_MAGIC, EDGES_VERSION, codec_id, 0, s1 - s0, length))
                for col in cols.values():
                    fh.write(col[s0:s1])
            else:
                encoded = _compress(b"".join(col[s0:s1] for col in cols.values()), codec_id)
                fh.write(_HEADER.pack(BLOCK_MAGIC, EDGES_VERSION, codec_id, 0, s1 - s0, len(encoded)))
                fh.write(encoded)
            n_blocks += 1
        digest = checksum.encode("ascii")
        fh.write(_HEADER.pack(FOOTER_MAGIC, EDGES_VERSION, 0, 0, n_blocks, len(digest)))
        fh.write(digest)
        fh.write(struct.pack("<Q", total))
    return checksum


def _read_exact(fh: BinaryIO, count: int, what: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise EdgeFormatError(
            f"truncated edges file: expected {count} bytes of {what}, got {len(data)}"
        )
    return data


def _readinto_exact(fh: io.BufferedIOBase, out: np.ndarray, what: str) -> None:
    # A buffered reader fills the whole view unless the file ends first.
    got = fh.readinto(out.reshape(-1).view(np.uint8))
    if got != out.nbytes:
        raise EdgeFormatError(
            f"truncated edges file: expected {out.nbytes} bytes of {what}, got {got}"
        )


def read_edges_file(path: PathLike, verify: bool = True) -> dict[str, np.ndarray]:
    """Read a ``repro.edges/1`` file back into ``{name: int64 array}``.

    With ``verify`` (the default) the decoded arrays are re-hashed and
    compared against the footer checksum
    (:class:`EdgeIntegrityError` on mismatch); framing problems --
    truncation, bad magic, length mismatches -- raise
    :class:`EdgeFormatError` either way.
    """
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        magic, version, codec_id, n_columns, names_len, _ = _HEADER.unpack(
            _read_exact(fh, HEADER_SIZE, "file header")
        )
        if magic != FILE_MAGIC:
            raise EdgeFormatError(
                f"{path}: not a repro.edges file (magic {magic!r})"
            )
        if version != EDGES_VERSION:
            raise EdgeFormatError(
                f"{path}: unsupported edges version {version} (expected {EDGES_VERSION})"
            )
        if codec_id not in _CODEC_NAMES:
            raise EdgeFormatError(f"{path}: unknown codec id {codec_id}")
        if not 1 <= n_columns <= _MAX_COLUMNS or names_len > _MAX_NAMES_BYTES:
            raise EdgeFormatError(f"{path}: implausible header (columns={n_columns})")
        names = _read_exact(fh, names_len, "column names").decode("utf-8").split(",")
        if len(names) != n_columns:
            raise EdgeFormatError(
                f"{path}: header promises {n_columns} columns, names blob has {len(names)}"
            )
        raw = codec_id == CODECS["raw"]
        chunks: list[list[np.ndarray]] = [[] for _ in names]
        entries = 0
        n_blocks = 0
        while True:
            head = _read_exact(fh, HEADER_SIZE, "block header")
            magic, version, block_codec, _flag, count, length = _HEADER.unpack(head)
            if magic == FOOTER_MAGIC:
                footer_blocks, checksum_len = count, length
                break
            if magic != BLOCK_MAGIC:
                raise EdgeFormatError(f"{path}: bad block magic {magic!r}")
            if block_codec != codec_id:
                raise EdgeFormatError(
                    f"{path}: block codec {block_codec} != file codec {codec_id}"
                )
            if count > _MAX_BLOCK_ENTRIES:
                raise EdgeFormatError(f"{path}: implausible block of {count} entries")
            expected = count * 8 * n_columns
            if raw and length != expected:
                raise EdgeFormatError(
                    f"{path}: raw block of {count} entries has length {length}, "
                    f"expected {expected}"
                )
            # Checked before allocating, so a hostile length cannot
            # reserve more memory than the file could ever fill.
            if length > file_size - fh.tell():
                raise EdgeFormatError(
                    f"truncated edges file: block payload of {length} bytes, "
                    f"{file_size - fh.tell()} left"
                )
            if raw:
                # One buffer per block, read straight into place; its rows
                # are the block's column runs.
                block = np.empty((n_columns, count), dtype="<i8")
                _readinto_exact(fh, block, "block payload")
            else:
                block = np.frombuffer(
                    _decompress(_read_exact(fh, length, "block payload"), codec_id, expected),
                    dtype="<i8",
                ).reshape(n_columns, count)
            for parts, run in zip(chunks, block):
                parts.append(run)
            entries += count
            n_blocks += 1
        if checksum_len > _MAX_CHECKSUM_BYTES:
            raise EdgeFormatError(f"{path}: implausible footer checksum length")
        recorded = _read_exact(fh, checksum_len, "footer checksum").decode("ascii")
        (footer_entries,) = struct.unpack("<Q", _read_exact(fh, 8, "footer entry count"))
        if fh.read(1):
            raise EdgeFormatError(f"{path}: trailing bytes after footer")
    if footer_blocks != n_blocks or footer_entries != entries:
        raise EdgeFormatError(
            f"{path}: footer records {footer_blocks} blocks/{footer_entries} entries, "
            f"read {n_blocks}/{entries}"
        )
    # A raw column read in one block is already a writable, contiguous
    # row of its block buffer; decoded blocks are read-only views of
    # bytes, so they are always copied.
    arrays = {
        name: (
            parts[0]
            if raw and len(parts) == 1
            else np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
        ).astype(np.int64, copy=False)
        for name, parts in zip(names, chunks)
    }
    if verify:
        actual = _content_checksum(arrays)
        if actual != recorded:
            raise EdgeIntegrityError(
                f"{path}: content checksum {actual} != footer {recorded}"
            )
    return arrays


def sniff_shard_format(path: PathLike) -> str:
    """``"npz"`` or ``"edges"`` from the leading magic, never the name.

    ``.npz`` is a zip container (``PK``); ``repro.edges/1`` opens with
    ``0x9F 'E'``.  The two are disjoint in their first byte, so two
    bytes decide -- and anything else raises :class:`EdgeFormatError`
    naming the path, instead of letting a renamed or corrupt file reach
    whichever parser its extension suggested.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            head = fh.read(2)
    except FileNotFoundError:
        raise
    if head == _NPZ_MAGIC:
        return "npz"
    if head == FILE_MAGIC:
        return "edges"
    raise EdgeFormatError(
        f"{path}: neither an .npz (PK..) nor a repro.edges (9F 45) shard "
        f"(leading bytes {head!r})"
    )


def read_shard_arrays(path: PathLike, verify: bool = True) -> dict[str, np.ndarray]:
    """Read one shard payload, sniffing the container by magic.

    The single read path behind :func:`repro.parallel.generate.load_shards`
    and manifest re-checksumming: legacy ``.npz`` shards and binary
    ``.edges`` shards load identically regardless of file name.
    """
    fmt = sniff_shard_format(path)
    if fmt == "npz":
        with np.load(path) as data:
            return {key: data[key] for key in data.files}
    return read_edges_file(path, verify=verify)
