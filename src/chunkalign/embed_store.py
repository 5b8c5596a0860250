"""Binary embedding matrices: storage, normalization, and rows fetched from the service."""

from __future__ import annotations

import logging
import math
import os
import struct
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import require_file

logger = logging.getLogger(__name__)

MAGIC = b"DEMB"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHIQ")
_ID_LEN = struct.Struct("<I")
# the types json.loads gives numbers; bool, a subclass of int, is left out
_NUMBER_TYPES = {int, float}
_FLOAT32_MAX = float(np.finfo(np.float32).max)
# rows per float64 block in normalize
_NORMALIZE_BLOCK_ROWS = 128


@dataclass(eq=False)
class EmbeddingMatrix:
    """Dense row-major float32 matrix with one id per row.

    Treated as immutable after construction; pipeline stages share instances
    freely across threads.
    """

    ids: list[str]
    data: np.ndarray

    def __post_init__(self) -> None:
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        if self.data.ndim != 2:
            raise ValueError(f"embedding data must be 2-dimensional, got shape {self.data.shape}")
        if self.data.shape[1] < 1:
            raise ValueError("embedding dimension must be >= 1")
        self.ids = list(self.ids)
        if len(self.ids) != self.data.shape[0]:
            raise ValueError(f"{len(self.ids)} ids for {self.data.shape[0]} rows")
        self._row_by_id: dict[str, int] = {}
        for row, unit_id in enumerate(self.ids):
            if unit_id in self._row_by_id:
                raise ValueError(f"duplicate id {unit_id!r}")
            self._row_by_id[unit_id] = row

    def __len__(self) -> int:
        return self.data.shape[0]

    def __repr__(self) -> str:
        return f"EmbeddingMatrix(rows={len(self)}, dim={self.dim})"

    @property
    def dim(self) -> int:
        return int(self.data.shape[1])

    def row_of(self, unit_id: str) -> int:
        try:
            return self._row_by_id[unit_id]
        except KeyError:
            raise KeyError(f"no embedding for id {unit_id!r}") from None

    def select(self, ids: Sequence[str]) -> "EmbeddingMatrix":
        """Sub-matrix holding the given ids, in the given order.

        Given this matrix's own ids in its own order, returns the matrix itself
        (it is immutable), with no copy of the rows or of the id table.
        """
        ids = list(ids)
        if ids == self.ids:
            return self
        rows = [self.row_of(unit_id) for unit_id in ids]
        return EmbeddingMatrix(ids=ids, data=self.data[rows])


def normalize(matrix: EmbeddingMatrix) -> EmbeddingMatrix:
    """Scale every row to unit L2 norm; a non-finite or zero row is an error naming its id.

    Rows go through float64 one block at a time, so no float64 copy of the
    whole matrix is made; the first non-finite row anywhere is reported
    before the first zero row.
    """
    out = np.empty_like(matrix.data)
    _normalize_rows(matrix.ids, matrix.data, out)
    return EmbeddingMatrix(ids=matrix.ids, data=out)


def _normalize_rows(ids: Sequence[str], rows: np.ndarray, out: np.ndarray) -> None:
    """normalize's rows written to out, which may be rows itself.

    Each row's float64 norm and quotient depend on that row alone, so the
    block height does not change a bit of the result.
    """
    first_zero = None
    for start in range(0, len(rows), _NORMALIZE_BLOCK_ROWS):
        block = rows[start:start + _NORMALIZE_BLOCK_ROWS].astype(np.float64)
        # float32 values cannot overflow a float64 norm: it is finite iff the row is.
        norms = np.linalg.norm(block, axis=1)
        bad = np.flatnonzero(~np.isfinite(norms))
        if bad.size:
            raise ValueError(f"non-finite embedding for id {ids[start + int(bad[0])]!r}")
        zero = np.flatnonzero(norms == 0.0)
        if first_zero is None and zero.size:
            first_zero = start + int(zero[0])
        if first_zero is None:
            block /= norms[:, None]
            out[start:start + len(block)] = block
    if first_zero is not None:
        raise ValueError(f"zero-norm embedding for id {ids[first_zero]!r}")


def matrix_from_vectors(ids: Sequence[str], vectors: Sequence, source: str) -> EmbeddingMatrix:
    """Normalized matrix with one row per id from plain vectors (lists of numbers).

    A vector that is not a list of ints and floats (JSON true and false are
    not numbers) or one holding a finite value beyond the float32 range is an
    error naming its id, and vectors of differing lengths one naming their
    source; normalize rejects non-finite and zero rows.
    """
    return normalize(EmbeddingMatrix(ids=list(ids), data=_float32_rows(ids, vectors, source)))


def _float32_rows(ids: Sequence[str], vectors: Sequence, source: str,
                  width: int | None = None) -> np.ndarray:
    """float32 rows of one block of plain vectors, one per id, after
    matrix_from_vectors' checks of type, width and float32 range, in that
    order; the width is `width` or else the first vector's length."""
    for unit_id, vector in zip(ids, vectors):
        if type(vector) is not list or not set(map(type, vector)) <= _NUMBER_TYPES:
            raise ValueError(f"{source} vector for id {unit_id!r} is not a list of numbers")
        if width is None:
            width = len(vector)
        elif len(vector) != width:
            raise ValueError(f"{source} vectors have differing dimensions")
    try:
        with np.errstate(over="ignore"):  # a value beyond float32 becomes inf, found below
            block = np.asarray(vectors, dtype=np.float32)
        suspects = np.flatnonzero(~np.isfinite(block).all(axis=-1))
    except OverflowError:  # an int too large for any float, found below
        suspects = range(len(vectors))
    for row in suspects:
        if any(_FLOAT32_MAX < abs(value) < math.inf for value in vectors[row]):
            raise ValueError(
                f"{source} vector for id {ids[row]!r} has a value outside the float32 range"
            )
    return block


def write_matrix(matrix: EmbeddingMatrix, path: str | Path) -> None:
    """Write the binary matrix file: header, id table, float32 payload.

    Layout (all little-endian): magic "DEMB", u16 version, u32 dim, u64 row
    count, then one u32-length-prefixed UTF-8 id per row, then the payload of
    count x dim float32 values in row-major order.
    """
    head = bytearray(_HEADER.pack(MAGIC, FORMAT_VERSION, matrix.dim, len(matrix)))
    for unit_id in matrix.ids:
        raw = unit_id.encode("utf-8")
        head += _ID_LEN.pack(len(raw))
        head += raw
    with open(path, "wb") as handle:
        handle.write(head)
        # the rows are C-contiguous float32: written from the array, not a copy
        handle.write(matrix.data.astype("<f4", copy=False).data)


def read_matrix(path: str | Path) -> EmbeddingMatrix:
    """Read a matrix written by write_matrix; the round trip is bit-exact.

    The file is read once, front to back.  Each id's size and the payload's
    are checked against the file's before they are allocated, and the rows
    are read straight into the matrix's one array.  The file's size comes
    from the file system, so path must name a regular file.
    """
    require_file(path, "embeddings file")
    path = Path(path)
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        header = handle.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, version, dim, count = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic, not an embedding matrix file")
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported format version {version}")
        if dim < 1:
            raise ValueError(f"{path}: invalid header (dim={dim})")
        offset = _HEADER.size
        ids: list[str] = []
        for _ in range(count):
            try:
                (id_len,) = _ID_LEN.unpack(handle.read(_ID_LEN.size))
            except struct.error:  # the file ends inside a length
                raise ValueError(f"{path}: truncated id table") from None
            start, offset = offset + _ID_LEN.size, offset + _ID_LEN.size + id_len
            if offset > size:
                raise ValueError(f"{path}: truncated id table")
            try:
                ids.append(handle.read(id_len).decode("utf-8"))
            except UnicodeDecodeError as exc:  # offsets count from the start of the file
                raise ValueError(f"{path}: id {len(ids)} is not UTF-8 (undecodable byte at "
                                 f"offset {start + exc.start})") from None
        expected = 4 * dim * count
        found = size - offset
        if found == expected:
            data = np.empty((count, dim), dtype="<f4")
            # a memoryview of an empty array cannot be cast to bytes; a short
            # read means that the file shrank while it was read
            found = handle.readinto(memoryview(data).cast("B")) if count else 0
        if found != expected:
            raise ValueError(
                f"{path}: payload size mismatch (expected {expected} bytes for "
                f"{count} x {dim} float32, found {found})"
            )
    return EmbeddingMatrix(ids=ids, data=data)


def read_normalized(path: str | Path) -> EmbeddingMatrix:
    """normalize(read_matrix(path)), bit for bit, with the rows normalized in
    the array they were read into: no second copy of the matrix is made."""
    matrix = read_matrix(path)
    # the array is fresh and no caller has seen it yet, so writing into it
    # leaves EmbeddingMatrix immutable for everyone else
    _normalize_rows(matrix.ids, matrix.data, matrix.data)
    return matrix


def fetch_vectors(ids: Sequence[str], texts: Sequence[str], endpoint: str,
                  batch_size: int = 32) -> EmbeddingMatrix:
    """Fetch embeddings for texts from the HTTP service, rows in input order.

    Each distinct text is sent once (service.fetch_batches), and a repeated
    text gets a copy of its first row: the service is assumed to embed a text
    alike in any batch.  Each reply's rows get matrix_from_vectors' checks and
    normalize as the reply arrives; a fault names the first id of its text.
    """
    # fetching alone talks HTTP: the client's imports stay out of every other command
    from . import service

    if len(ids) != len(texts):
        raise ValueError(f"{len(ids)} ids for {len(texts)} texts")
    if not ids:
        raise ValueError("nothing to embed")
    service.require_batch_size(batch_size)
    row_of_text: dict[str, int] = {}
    first_ids: list[str] = []
    inverse: list[int] = []
    for unit_id, text in zip(ids, texts):
        row = row_of_text.setdefault(text, len(first_ids))
        if row == len(first_ids):
            first_ids.append(unit_id)
        inverse.append(row)
    distinct = list(row_of_text)

    blocks: list[np.ndarray] = []
    requests_sent = 0
    with closing(service.fetch_batches(distinct, endpoint, batch_size)) as replies:
        for start, (vectors, tries) in zip(range(0, len(distinct), batch_size), replies):
            requests_sent += tries
            batch_ids = first_ids[start:start + batch_size]
            rows = _float32_rows(batch_ids, vectors, "embedding service",
                                 blocks[0].shape[1] if blocks else None)
            blocks.append(normalize(EmbeddingMatrix(ids=batch_ids, data=rows)).data)
    logger.debug("fetch funnel: %d texts, %d distinct, %d requests, %d retries",
                 len(texts), len(distinct), requests_sent, requests_sent - len(blocks))
    return EmbeddingMatrix(ids=list(ids), data=np.concatenate(blocks)[inverse])
