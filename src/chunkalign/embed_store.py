"""Binary embedding matrices: storage, normalization, and a service client."""

from __future__ import annotations

import logging
import math
import struct
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

logger = logging.getLogger(__name__)

MAGIC = b"DEMB"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHIQ")
_ID_LEN = struct.Struct("<I")
# the types json.loads gives numbers; bool, a subclass of int, is left out
_NUMBER_TYPES = {int, float}
_FLOAT32_MAX = float(np.finfo(np.float32).max)
# rows per float64 block in normalize
_NORMALIZE_BLOCK_ROWS = 1024


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
        """Sub-matrix holding the given ids, in the given order."""
        rows = [self.row_of(unit_id) for unit_id in ids]
        return EmbeddingMatrix(ids=list(ids), data=self.data[rows])


def normalize(matrix: EmbeddingMatrix) -> EmbeddingMatrix:
    """Scale every row to unit L2 norm; a non-finite or zero row is an error naming its id.

    Rows go through float64 one block at a time, so no float64 copy of the
    whole matrix is made; the first non-finite row anywhere is reported
    before the first zero row.
    """
    out = np.empty_like(matrix.data)
    first_zero = None
    for start in range(0, len(matrix), _NORMALIZE_BLOCK_ROWS):
        block = matrix.data[start:start + _NORMALIZE_BLOCK_ROWS].astype(np.float64)
        # float32 values cannot overflow a float64 norm: it is finite iff the row is.
        norms = np.linalg.norm(block, axis=1)
        bad = np.flatnonzero(~np.isfinite(norms))
        if bad.size:
            raise ValueError(f"non-finite embedding for id {matrix.ids[start + int(bad[0])]!r}")
        zero = np.flatnonzero(norms == 0.0)
        if first_zero is None and zero.size:
            first_zero = start + int(zero[0])
        if first_zero is None:
            out[start:start + len(block)] = block / norms[:, None]
    if first_zero is not None:
        raise ValueError(f"zero-norm embedding for id {matrix.ids[first_zero]!r}")
    return EmbeddingMatrix(ids=matrix.ids, data=out)


def matrix_from_vectors(ids: Sequence[str], vectors: Sequence, source: str) -> EmbeddingMatrix:
    """Normalized matrix with one row per id from plain vectors (lists of numbers).

    A vector that is not a list of ints and floats (JSON true and false are
    not numbers) or one holding a finite value beyond the float32 range is an
    error naming its id, and vectors of differing lengths one naming their
    source; normalize rejects non-finite and zero rows.
    """
    width = None
    for unit_id, vector in zip(ids, vectors):
        if type(vector) is not list or not set(map(type, vector)) <= _NUMBER_TYPES:
            raise ValueError(f"{source} vector for id {unit_id!r} is not a list of numbers")
        if width is None:
            width = len(vector)
        elif len(vector) != width:
            raise ValueError(f"{source} vectors have differing dimensions")
    try:
        with np.errstate(over="ignore"):  # a value beyond float32 becomes inf, found below
            data = np.asarray(vectors, dtype=np.float32)
        suspects = np.flatnonzero(~np.isfinite(data).all(axis=-1))
    except OverflowError:  # an int too large for any float
        suspects = range(len(vectors))
    for row in suspects:
        if any(_FLOAT32_MAX < abs(value) < math.inf for value in vectors[row]):
            raise ValueError(
                f"{source} vector for id {ids[row]!r} has a value outside the float32 range"
            )
    return normalize(EmbeddingMatrix(ids=list(ids), data=data))


def write_matrix(matrix: EmbeddingMatrix, path: str | Path) -> None:
    """Write the binary matrix file: header, id table, float32 payload.

    Layout (all little-endian): magic "DEMB", u16 version, u32 dim, u64 row
    count, then one u32-length-prefixed UTF-8 id per row, then the payload of
    count x dim float32 values in row-major order.
    """
    blob = bytearray()
    blob += _HEADER.pack(MAGIC, FORMAT_VERSION, matrix.dim, len(matrix))
    for unit_id in matrix.ids:
        raw = unit_id.encode("utf-8")
        blob += _ID_LEN.pack(len(raw))
        blob += raw
    blob += matrix.data.astype("<f4", copy=False).tobytes(order="C")
    Path(path).write_bytes(bytes(blob))


def read_matrix(path: str | Path) -> EmbeddingMatrix:
    """Read a matrix written by write_matrix; the round trip is bit-exact."""
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < _HEADER.size:
        raise ValueError(f"{path}: truncated header")
    magic, version, dim, count = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise ValueError(f"{path}: bad magic, not an embedding matrix file")
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    if dim < 1:
        raise ValueError(f"{path}: invalid header (dim={dim})")
    offset = _HEADER.size
    ids: list[str] = []
    for _ in range(count):
        if offset + _ID_LEN.size > len(blob):
            raise ValueError(f"{path}: truncated id table")
        (id_len,) = _ID_LEN.unpack_from(blob, offset)
        offset += _ID_LEN.size
        if offset + id_len > len(blob):
            raise ValueError(f"{path}: truncated id table")
        ids.append(blob[offset:offset + id_len].decode("utf-8"))
        offset += id_len
    expected = 4 * dim * count
    if len(blob) - offset != expected:
        raise ValueError(
            f"{path}: payload size mismatch (expected {expected} bytes for "
            f"{count} x {dim} float32, found {len(blob) - offset})"
        )
    data = np.frombuffer(blob, dtype="<f4", count=dim * count, offset=offset)
    return EmbeddingMatrix(ids=ids, data=data.reshape(count, dim).copy())


def fetch_vectors(
    ids: Sequence[str],
    texts: Sequence[str],
    endpoint: str,
    batch_size: int = 32,
    attempts: int = 3,
    retry_wait: float = 0.5,
    timeout: float = 30.0,
) -> EmbeddingMatrix:
    """Fetch embeddings for texts from the HTTP service, rows in input order.

    The service takes POST {"texts": [...]} and answers {"vectors": [[...],
    ...]}.  Transport failures (connection errors, timeouts, 429, 5xx) are
    retried with exponential backoff; contract violations (other 4xx, a body
    that is not JSON, wrong count, a vector that is not a list of numbers,
    ragged or non-finite vectors) fail immediately.  Rows are normalized
    before the matrix is returned.
    """
    if len(ids) != len(texts):
        raise ValueError(f"{len(ids)} ids for {len(texts)} texts")
    if not ids:
        raise ValueError("nothing to embed")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    rows: list[list[float]] = []
    for start in range(0, len(texts), batch_size):
        batch = list(texts[start:start + batch_size])
        payload = _post_batch(endpoint, batch, attempts, retry_wait, timeout)
        vectors = payload.get("vectors") if isinstance(payload, dict) else None
        if not isinstance(vectors, list):
            raise ValueError("embedding service response has no 'vectors' list")
        if len(vectors) != len(batch):
            raise ValueError(
                f"embedding service returned {len(vectors)} vectors for {len(batch)} texts"
            )
        rows.extend(vectors)
    return matrix_from_vectors(ids, rows, "embedding service")


def _post_batch(endpoint: str, batch: list[str], attempts: int, retry_wait: float, timeout: float):
    """POST one batch and return the parsed JSON body.

    Connection errors, timeouts, 429 and 5xx are retried; another 4xx and a
    body that is not JSON are contract violations and fail at once.
    """
    import requests  # only fetching talks HTTP; every other command skips the import

    last_error: Exception | str | None = None
    for attempt in range(attempts):
        if attempt:
            time.sleep(retry_wait * 2 ** (attempt - 1))
        try:
            response = requests.post(endpoint, json={"texts": batch}, timeout=timeout)
        except (requests.ConnectionError, requests.Timeout) as exc:
            last_error = exc
        else:
            status = response.status_code
            if status == 429 or status >= 500:
                last_error = f"HTTP {status}"
            elif status >= 400:
                raise ValueError(f"embedding service rejected the batch with HTTP {status}")
            else:
                try:
                    return response.json()
                except ValueError:
                    raise ValueError(
                        f"embedding service answered HTTP {status} with a body that is not JSON"
                    ) from None
        logger.warning(
            "embedding request failed (attempt %d/%d): %s", attempt + 1, attempts, last_error
        )
    raise RuntimeError(f"embedding service failed after {attempts} attempts: {last_error}")
