"""Binary embedding matrices: storage, normalization, and a service client."""

from __future__ import annotations

import json
import logging
import math
import os
import re
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

    The payload's size is checked against the file's before the rows are
    allocated, and the rows are read straight into the matrix's one array.
    The file's size comes from the file system, so path names a regular file.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        blob = handle.read(_HEADER.size)
        if len(blob) < _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, version, dim, count = _HEADER.unpack(blob)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic, not an embedding matrix file")
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported format version {version}")
        if dim < 1:
            raise ValueError(f"{path}: invalid header (dim={dim})")
        expected = 4 * dim * count
        # a well-formed id table ends where the payload begins; one that runs
        # on past that point makes the file malformed, and the rest of the
        # file is read only to tell which message applies
        blob += handle.read(max(size - expected - _HEADER.size, 0))
        offset = _HEADER.size
        ids: list[str] = []
        for _ in range(count):
            end = offset + _ID_LEN.size
            if end > len(blob):
                if end > size:
                    raise ValueError(f"{path}: truncated id table")
                blob += handle.read()
            (id_len,) = _ID_LEN.unpack_from(blob, offset)
            offset, end = end, end + id_len
            if end > len(blob):
                if end > size:
                    raise ValueError(f"{path}: truncated id table")
                blob += handle.read()
            try:
                ids.append(blob[offset:end].decode("utf-8"))
            except UnicodeDecodeError as exc:  # offsets count from the start of the file
                raise ValueError(f"{path}: id {len(ids)} is not UTF-8 (undecodable byte at "
                                 f"offset {offset + exc.start})") from None
            offset = end
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
    ...]}.  Each distinct text is sent once, all batches over one HTTP
    connection, and a repeated text gets a copy of its first row; this
    assumes the service embeds a text the same way whatever else is in its
    batch.  The next batch is sent as soon as a reply has been read, so the
    service works on it while that reply is decoded and checked; one request
    is in flight at most.  Transport failures (connection errors, timeouts,
    429, 5xx) are retried with exponential backoff; contract violations (a
    redirect, another 4xx, a body that is not JSON, wrong count, a vector
    that is not a list of numbers or holds a value beyond float32, ragged
    vectors, a non-finite or zero vector) fail at the reply that carries
    them, naming the first id that carries the text: each reply's rows are
    checked and normalized as the reply arrives.
    """
    if len(ids) != len(texts):
        raise ValueError(f"{len(ids)} ids for {len(texts)} texts")
    if not ids:
        raise ValueError("nothing to embed")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
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
    connection = _ServiceConnection(endpoint, timeout)
    try:
        connection.send(distinct[:batch_size])
        for start in range(0, len(distinct), batch_size):
            batch = distinct[start:start + batch_size]
            status, body, tries = _await_reply(connection, batch, attempts, retry_wait)
            requests_sent += tries
            following = distinct[start + batch_size:start + 2 * batch_size]
            if following:
                connection.send(following)
            batch_ids = first_ids[start:start + batch_size]
            rows = _float32_rows(batch_ids, _reply_vectors(status, body, len(batch)),
                                 "embedding service", blocks[0].shape[1] if blocks else None)
            blocks.append(normalize(EmbeddingMatrix(ids=batch_ids, data=rows)).data)
    finally:
        connection.close()
    batches = -(-len(distinct) // batch_size)
    logger.debug(
        "fetch funnel: %d texts, %d distinct, %d requests, %d retries",
        len(texts), len(distinct), requests_sent, requests_sent - batches,
    )
    return EmbeddingMatrix(ids=list(ids), data=np.concatenate(blocks)[inverse])


def _await_reply(connection: "_ServiceConnection", batch: list[str], attempts: int,
                 retry_wait: float) -> tuple[int, bytes, int]:
    """Status and body of the reply to batch, which is sent already, and the requests it took.

    Connection errors, timeouts, 429 and 5xx are retried, sending the batch
    again after a backoff; a redirect or another 4xx is a contract violation
    and fails at once.
    """
    from http.client import HTTPException

    last_error: Exception | str | None = None
    for attempt in range(attempts):
        if attempt:
            time.sleep(retry_wait * 2 ** (attempt - 1))
            connection.send(batch)
        try:
            status, body = connection.receive()
        except (OSError, HTTPException) as exc:
            last_error = exc
        else:
            if status == 429 or status >= 500:
                last_error = f"HTTP {status}"
            elif 300 <= status < 400:
                raise ValueError(
                    f"embedding service answered the batch with redirect HTTP {status}, "
                    "which is not followed"
                )
            elif not 200 <= status < 300:
                raise ValueError(f"embedding service rejected the batch with HTTP {status}")
            else:
                return status, body, attempt + 1
        logger.warning(
            "embedding request failed (attempt %d/%d): %s", attempt + 1, attempts, last_error
        )
    raise RuntimeError(f"embedding service failed after {attempts} attempts: {last_error}")


def _reply_vectors(status: int, body: bytes, count: int) -> list:
    """The 'vectors' list of a reply body, checked to hold count entries."""
    try:
        payload = json.loads(body)
    except ValueError:
        raise ValueError(
            f"embedding service answered HTTP {status} with a body that is not JSON"
        ) from None
    vectors = payload.get("vectors") if isinstance(payload, dict) else None
    if not isinstance(vectors, list):
        raise ValueError("embedding service response has no 'vectors' list")
    if len(vectors) != count:
        raise ValueError(f"embedding service returned {len(vectors)} vectors for {count} texts")
    return vectors


def service_route(endpoint: str):
    """The split endpoint URL, and the split http proxy URL that reaches it or None.

    The proxy comes from $http_proxy, $https_proxy or $all_proxy unless $no_proxy
    bypasses the endpoint's host, and is checked only then, like the endpoint.
    Error messages show each URL without the credentials it may carry.
    """
    import urllib.parse
    import urllib.request

    def split(url: str, what: str, schemes: tuple[str, ...]):
        name = f"{what} {re.sub('//[^/?#]*@', '//', url, count=1)!r}"
        try:
            parts = urllib.parse.urlsplit(url)
        except ValueError as exc:  # an unclosed '[' before the host
            raise ValueError(f"{name} is not a valid URL: {exc}") from None
        if parts.scheme not in schemes:
            raise ValueError(f"{name} is not an {' or '.join(schemes)} URL")
        if not parts.hostname:
            raise ValueError(f"{name} has no host")
        try:
            parts.port
        except ValueError:
            raise ValueError(f"{name} has an invalid port") from None
        return parts

    parts = split(endpoint, "embedding endpoint", ("http", "https"))
    proxies = urllib.request.getproxies()
    proxy = proxies.get(parts.scheme) or proxies.get("all")
    if not proxy or urllib.request.proxy_bypass(parts.hostname):
        return parts, None
    return parts, split(proxy if "://" in proxy else "http://" + proxy, "proxy", ("http",))


class _ServiceConnection:
    """One HTTP connection to the embedding service, one request in flight at most.

    The environment is read once, here: the route from service_route (plain
    http goes to a proxy in absolute form, https through a CONNECT tunnel),
    basic credentials from the URL's userinfo or else ~/.netrc, and for https
    the default trust store (ssl.create_default_context, which honours
    $SSL_CERT_FILE).  send() posts a batch; a failure to send is raised by the
    receive() that follows, which returns the reply's status and body.
    """

    def __init__(self, endpoint: str, timeout: float):
        # only fetching talks HTTP; every other command skips these imports
        import http.client
        import ssl
        import urllib.parse

        parts, proxy_parts = service_route(endpoint)
        https = parts.scheme == "https"
        netloc = parts.netloc.rpartition("@")[2]  # host[:port], never the userinfo
        self._target = urllib.parse.urlunsplit(("", "", parts.path or "/", parts.query, ""))
        self._headers = {"Host": netloc, "Content-Type": "application/json"}
        credentials = _userinfo(parts) or _netrc_credentials(parts.hostname)
        if credentials:
            self._headers["Authorization"] = _basic_auth(*credentials)

        context = ssl.create_default_context() if https else None
        if proxy_parts is None:
            self._connection = (
                http.client.HTTPSConnection(parts.hostname, parts.port, timeout=timeout,
                                            context=context)
                if https else http.client.HTTPConnection(parts.hostname, parts.port,
                                                         timeout=timeout)
            )
        else:
            proxy_credentials = _userinfo(proxy_parts)
            proxy_headers = ({"Proxy-Authorization": _basic_auth(*proxy_credentials)}
                             if proxy_credentials else {})
            proxy_port = proxy_parts.port or 80
            if https:
                self._connection = _tunnel_connection(
                    proxy_parts.hostname, proxy_port, parts.hostname, parts.port or 443,
                    proxy_headers, timeout, context)
            else:
                self._connection = http.client.HTTPConnection(
                    proxy_parts.hostname, proxy_port, timeout=timeout)
                self._target = f"http://{netloc}{self._target}"
                self._headers.update(proxy_headers)
        self._batch: list[str] = []
        self._reused = False
        self._failure: Exception | None = None

    def send(self, batch: list[str]) -> None:
        from http.client import HTTPException

        self._batch = batch
        # a socket left open by the last reply: the service may have closed it meanwhile
        self._reused = self._connection.sock is not None
        self._failure = None
        body = json.dumps({"texts": batch}).encode("utf-8")
        try:
            self._connection.request("POST", self._target, body, self._headers)
        except (OSError, HTTPException) as exc:
            self._connection.close()
            self._failure = exc

    def _response(self):
        if self._failure is not None:
            raise self._failure
        return self._connection.getresponse()

    def receive(self) -> tuple[int, bytes]:
        """Status and body of the reply to the request sent last."""
        try:
            try:
                response = self._response()
            except ConnectionError:
                if not self._reused:
                    raise
                # the service closed the kept-alive connection before replying:
                # send again at once on a new one, spending no attempt
                self._connection.close()
                self.send(self._batch)
                response = self._response()
            return response.status, response.read()
        except BaseException:
            self._connection.close()
            raise

    def close(self) -> None:
        self._connection.close()


def _tunnel_connection(proxy_host: str, proxy_port: int, host: str, port: int,
                       headers: dict, timeout: float, context):
    """HTTPS connection to host:port through a CONNECT tunnel at the proxy.

    An IPv6 host is bracketed in the CONNECT line and its Host header on every
    Python version: http.client's set_tunnel strips the brackets, and before
    3.13 its _tunnel writes the bare address (CONNECT ::1:8443).
    """
    import http.client

    class Connection(http.client.HTTPSConnection):
        def _tunnel(self):
            bare = self._tunnel_host
            if ":" in bare:
                self._tunnel_host = f"[{bare}]"
            try:
                super()._tunnel()
            finally:
                # TLS checks the certificate against the bare address
                self._tunnel_host = bare

    authority = f"[{host}]:{port}" if ":" in host else f"{host}:{port}"
    connection = Connection(proxy_host, proxy_port, timeout=timeout, context=context)
    connection.set_tunnel(host, port, headers={"Host": authority, **headers})
    return connection


def _userinfo(parts) -> tuple[str, str] | None:
    """Basic credentials from a split URL's userinfo, if it has any."""
    from urllib.parse import unquote

    if parts.username is None:
        return None
    return unquote(parts.username), unquote(parts.password or "")


def _netrc_credentials(host: str) -> tuple[str, str] | None:
    """Basic credentials for host from ~/.netrc, if it has an entry that applies."""
    import netrc

    try:
        entry = netrc.netrc().authenticators(host)
    except (OSError, netrc.NetrcParseError):  # no ~/.netrc, or one that cannot be used
        return None
    if entry is None:
        return None
    login, account, password = entry
    return login or account, password


def _basic_auth(user: str, password: str) -> str:
    import base64

    return "Basic " + base64.b64encode(f"{user}:{password}".encode("utf-8")).decode("ascii")
