"""Client of the HTTP embedding service, texts in and plain vectors out: no numpy."""

from __future__ import annotations

import base64
import http.client
import json
import logging
import netrc
import re
import ssl
import time
import traceback
import urllib.parse
import urllib.request
from typing import Iterator, Sequence

logger = logging.getLogger(__name__)

ATTEMPTS = 3  # requests per batch at most
RETRY_WAIT = 0.5  # seconds before the first retry, doubled before each later one
TIMEOUT = 30.0  # seconds, for the socket


def route(endpoint: str):
    """The split endpoint URL, and the split http proxy URL that reaches it or None.

    The proxy comes from $http_proxy, $https_proxy or $all_proxy unless $no_proxy
    bypasses the endpoint's host, and is checked only then, like the endpoint.
    Error messages show each URL without the credentials it may carry.
    """
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


def require_batch_size(batch_size: int) -> None:
    """Reject a batch size below 1."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")


def fetch_batches(texts: Sequence[str], endpoint: str,
                  batch_size: int) -> Iterator[tuple[list, int]]:
    """Per batch of batch_size texts: the reply's 'vectors', one per text, and the requests it took.

    POST {"texts": [...]} is answered {"vectors": [[...], ...]}.  The batches
    share one HTTP connection, closed with the generator.  The next batch is
    sent once a reply is read, so the service works on it while the caller
    checks that reply.  Transport failures are retried (_await_reply); a
    body that is not JSON or a wrong count fails at once.
    """
    connection = _Connection(endpoint)
    try:
        connection.send(texts[:batch_size])
        for start in range(0, len(texts), batch_size):
            batch = texts[start:start + batch_size]
            status, body, tries = _await_reply(connection, batch)
            following = texts[start + batch_size:start + 2 * batch_size]
            if following:
                connection.send(following)
            yield _reply_vectors(status, body, len(batch)), tries
    finally:
        connection.close()


def _await_reply(connection: "_Connection", batch: Sequence[str]) -> tuple[int, bytes, int]:
    """Status and body of the reply to batch, which is sent already, and the requests it took.

    Connection errors, timeouts, 429 and 5xx are retried, sending the batch
    again after a backoff; a redirect or another 4xx is a contract violation
    and fails at once.
    """
    last_error: Exception | str | None = None
    for attempt in range(ATTEMPTS):
        if attempt:
            time.sleep(RETRY_WAIT * 2 ** (attempt - 1))
            connection.send(batch)
        try:
            status, body = connection.receive()
        except (OSError, http.client.HTTPException) as exc:
            last_error = exc
        else:
            if status == 429 or status >= 500:
                last_error = f"HTTP {status}"
            elif 300 <= status < 400:
                raise ValueError(f"embedding service answered the batch with redirect HTTP "
                                 f"{status}, which is not followed")
            elif not 200 <= status < 300:
                raise ValueError(f"embedding service rejected the batch with HTTP {status}")
            else:
                return status, body, attempt + 1
        logger.warning("embedding request failed (attempt %d/%d): %s",
                       attempt + 1, ATTEMPTS, last_error)
    raise RuntimeError(f"embedding service failed after {ATTEMPTS} attempts: {last_error}")


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


class _Connection:
    """One HTTP connection to the embedding service, one request in flight at most.

    The environment is read once, here: the route (plain http goes to a proxy
    in absolute form, https through a CONNECT tunnel), basic credentials from
    the URL's userinfo or else ~/.netrc, and for https the default trust store
    (ssl.create_default_context, which honours $SSL_CERT_FILE).  send() posts
    a batch; a failure to send is raised by the receive() that follows, which
    returns the reply's status and body.
    """

    def __init__(self, endpoint: str):
        parts, proxy_parts = route(endpoint)
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
                http.client.HTTPSConnection(parts.hostname, parts.port, timeout=TIMEOUT,
                                            context=context)
                if https else http.client.HTTPConnection(parts.hostname, parts.port,
                                                         timeout=TIMEOUT)
            )
        else:
            proxy_credentials = _userinfo(proxy_parts)
            proxy_headers = ({"Proxy-Authorization": _basic_auth(*proxy_credentials)}
                             if proxy_credentials else {})
            proxy_port = proxy_parts.port or 80
            if https:
                self._connection = _tunnel_connection(
                    proxy_parts.hostname, proxy_port, parts.hostname, parts.port or 443,
                    proxy_headers, context)
            else:
                self._connection = http.client.HTTPConnection(
                    proxy_parts.hostname, proxy_port, timeout=TIMEOUT)
                self._target = f"http://{netloc}{self._target}"
                self._headers.update(proxy_headers)
        self._batch: Sequence[str] = []
        self._reused = False
        self._failure: Exception | None = None

    def send(self, batch: Sequence[str]) -> None:
        self._batch = batch
        # a socket left open by the last reply: the service may have closed it meanwhile
        self._reused = self._connection.sock is not None
        self._failure = None
        body = json.dumps({"texts": batch}).encode("utf-8")
        try:
            self._connection.request("POST", self._target, body, self._headers)
        except (OSError, http.client.HTTPException) as exc:
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
                       headers: dict, context):
    """HTTPS connection to host:port through a CONNECT tunnel at the proxy.

    An IPv6 host is bracketed in the CONNECT line and its Host header on every
    Python version: http.client's set_tunnel strips the brackets, and before
    3.13 its _tunnel writes the bare address (CONNECT ::1:8443).
    """
    class Connection(http.client.HTTPSConnection):
        def _tunnel(self):
            bare = self._tunnel_host
            if ":" in bare:
                self._tunnel_host = f"[{bare}]"
            try:
                super()._tunnel()
            except OSError as exc:
                # 3.10 leaves the refused CONNECT's reply open, kept by the
                # traceback, and with it the closed connection's socket
                traceback.clear_frames(exc.__traceback__)
                raise
            finally:
                # TLS checks the certificate against the bare address
                self._tunnel_host = bare

    authority = f"[{host}]:{port}" if ":" in host else f"{host}:{port}"
    connection = Connection(proxy_host, proxy_port, timeout=TIMEOUT, context=context)
    connection.set_tunnel(host, port, headers={"Host": authority, **headers})
    return connection


def _userinfo(parts) -> tuple[str, str] | None:
    """Basic credentials from a split URL's userinfo, if it has any."""
    if parts.username is None:
        return None
    return urllib.parse.unquote(parts.username), urllib.parse.unquote(parts.password or "")


def _netrc_credentials(host: str) -> tuple[str, str] | None:
    """Basic credentials for host from ~/.netrc, if it has an entry that applies."""
    try:
        entry = netrc.netrc().authenticators(host)
    except (OSError, netrc.NetrcParseError, UnicodeDecodeError):  # none, malformed, undecodable
        return None
    if entry is None:
        return None
    login, account, password = entry
    return login or account, password


def _basic_auth(user: str, password: str) -> str:
    return "Basic " + base64.b64encode(f"{user}:{password}".encode("utf-8")).decode("ascii")
