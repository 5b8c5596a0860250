import collections
import hashlib
import json
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import strategies as st


def vector_for_text(text, dim=8):
    """Deterministic pseudo-embedding for a text, independent of hash seeds."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    return rng.standard_normal(dim).tolist()


class _EmbedHandler(BaseHTTPRequestHandler):
    def setup(self):
        super().setup()
        self.server.state["connections"] += 1

    def do_POST(self):
        state = self.server.state
        state["requests"] += 1
        state["seen"].append((self.command, self.path, self.headers))
        # read the body first: on a kept-alive connection the next request follows it
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if state["fail_remaining"] > 0:
            state["fail_remaining"] -= 1
            self.send_response(state["fail_status"])
            if 300 <= state["fail_status"] < 400:
                self.send_header("Location", "/embed")
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        if state["body"] is not None:
            self.send_response(200)
            self.send_header("Content-Length", str(len(state["body"])))
            self.end_headers()
            self.wfile.write(state["body"])
            return
        texts = json.loads(body)["texts"]
        state["texts"].update(texts)
        vectors = []
        for text in texts:
            if text in state.get("raw_vectors", {}):
                vectors.append(state["raw_vectors"][text])
            elif text == state.get("nan_text"):
                vectors.append([float("nan")] * 8)
            elif text == state.get("zero_text"):
                vectors.append([0.0] * 8)
            elif text == state.get("short_text"):
                vectors.append(vector_for_text(text, dim=7))
            else:
                vectors.append(vector_for_text(text))
        if state.get("drop_one"):
            vectors = vectors[:-1]
        payload = json.dumps({"vectors": vectors}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_CONNECT(self):
        # a proxy that records the tunnel asked for and refuses it
        self.server.state["seen"].append((self.command, self.path, self.headers))
        self.send_response(502)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, *args):
        pass


class _KeepAliveEmbedHandler(_EmbedHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self):
        super().do_POST()
        if self.server.state["close_idle"]:
            # end the connection once the reply is out, without a
            # "Connection: close" header: the client pools it as reusable
            self.wfile.flush()
            self.connection.shutdown(socket.SHUT_WR)
            self.close_connection = True


class _Server(ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        # a client that fails on a bad reply closes the connection with its
        # next batch in flight; its reply then finds no reader
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


def _serve(handler):
    server = _Server(("127.0.0.1", 0), handler)
    # requests and connections: how many the server got; seen: (method,
    # target, headers) of each request, CONNECT included; texts: a Counter of
    # every text it was sent; fail_remaining: answer that many requests with
    # fail_status and no body (a 3xx points back at /embed); body: answer 200
    # with these bytes in place of a reply built from the texts; nan_text,
    # zero_text and short_text: answer that text with a NaN, zero or
    # 7-dimensional vector; raw_vectors: answer each text it maps with the
    # value it maps it to; close_idle (keep-alive server only): close each
    # connection after its reply
    server.state = {"requests": 0, "connections": 0, "seen": [], "texts": collections.Counter(),
                    "fail_remaining": 0, "fail_status": 500, "body": None,
                    "close_idle": False}
    # a short poll interval lets shutdown() return quickly at teardown
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/embed", server.state
    finally:
        server.shutdown()
        thread.join()
        server.server_close()


@pytest.fixture
def embed_server():
    """HTTP/1.0 service: one connection per request."""
    yield from _serve(_EmbedHandler)


@pytest.fixture
def keepalive_embed_server():
    """HTTP/1.1 service that keeps connections open unless close_idle is set."""
    yield from _serve(_KeepAliveEmbedHandler)


def random_unit_matrix(rng, count, dim):
    rows = rng.standard_normal((count, dim))
    return (rows / np.linalg.norm(rows, axis=1, keepdims=True)).astype(np.float32)


@st.composite
def tie_heavy_search(draw):
    """Index and query rows drawn from a few quantized unit vectors, so rows
    repeat and scores tie; k may exceed either side.

    Each palette vector is a signed one-hot or has four entries of +-0.5, so
    every score is a multiple of 0.25 and exact in any summation order:
    ties are real ties, not artifacts of rounding in the oracle or the GEMM.
    """
    dim = draw(st.integers(4, 8))
    palette = []
    for _ in range(draw(st.integers(1, 4))):
        vector = np.zeros(dim, dtype=np.float32)
        width = draw(st.sampled_from([1, 4]))
        places = draw(st.permutations(range(dim)))[:width]
        signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=width, max_size=width))
        vector[places] = np.array(signs) / (1.0 if width == 1 else 2.0)
        palette.append(vector)
    pick = st.sampled_from(range(len(palette)))
    base = np.array([palette[i] for i in draw(st.lists(pick, min_size=1, max_size=30))])
    queries = np.array([palette[i] for i in draw(st.lists(pick, min_size=1, max_size=30))])
    return base, queries, draw(st.integers(1, 40))
