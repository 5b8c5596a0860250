"""Stub embedding service for the ingest workload.

Speaks the service contract of ``chunkalign fetch-embeddings``: POST
{"texts": [...]} to /embed answers {"vectors": [[...], ...]}.  Each text's
vector is derived from the sha256 of the text, so replies are deterministic
and the benchmark can recompute them independently.  Encoded vectors are
cached, so after a warm-up pass the stub's own CPU use is small next to the
client's.  Every request is charged a fixed service time, ``per_request_ms +
per_text_ms * len(texts)``: the reply is held until that much time has
passed since the request arrived, standing in for model inference.

The server is single-threaded.  GET /stats returns the counters since the
last POST /reset: requests, texts, unique texts, busy seconds and the wall
clock time (``time.time()``) of the first /embed request.

Run: python3 stub.py --dim 256 --per-request-ms 1 --per-text-ms 0.1
It prints ``port <n>`` on its first stdout line once it is listening.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np


def encode_vector(text: str, dim: int) -> str:
    """The JSON array the stub returns for text."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    return "[" + ",".join(f"{v:.6f}" for v in rng.standard_normal(dim).tolist()) + "]"


class StubState:
    def __init__(self, dim: int, per_request_s: float, per_text_s: float):
        self.dim = dim
        self.per_request_s = per_request_s
        self.per_text_s = per_text_s
        self.cache: dict[str, str] = {}
        self.reset()

    def reset(self) -> None:
        self.requests = 0
        self.texts = 0
        self.unique: set[str] = set()
        self.busy_s = 0.0
        self.first_request_at = None

    def stats(self) -> dict:
        return {
            "requests": self.requests,
            "texts": self.texts,
            "unique_texts": len(self.unique),
            "busy_s": self.busy_s,
            "first_request_at": self.first_request_at,
            "per_request_ms": self.per_request_s * 1e3,
            "per_text_ms": self.per_text_s * 1e3,
        }

    def embed(self, texts: list[str]) -> bytes:
        parts = []
        for text in texts:
            encoded = self.cache.get(text)
            if encoded is None:
                encoded = self.cache[text] = encode_vector(text, self.dim)
            parts.append(encoded)
        return ('{"vectors":[' + ",".join(parts) + "]}").encode("utf-8")


class _Handler(BaseHTTPRequestHandler):
    server_version = "chunkalign-stub"

    def _reply(self, status: int, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path != "/stats":
            self._reply(404, b"{}")
            return
        self._reply(200, json.dumps(self.server.state.stats()).encode("utf-8"))

    def do_POST(self):
        state = self.server.state
        if self.path == "/reset":
            self.rfile.read(int(self.headers.get("Content-Length", 0)))
            state.reset()
            self._reply(200, b"{}")
            return
        if self.path != "/embed":
            self._reply(404, b"{}")
            return
        arrived = time.perf_counter()
        if state.first_request_at is None:
            state.first_request_at = time.time()
        texts = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))["texts"]
        body = state.embed(texts)
        state.requests += 1
        state.texts += len(texts)
        state.unique.update(texts)
        charge = state.per_request_s + state.per_text_s * len(texts)
        remaining = arrived + charge - time.perf_counter()
        if remaining > 0:
            time.sleep(remaining)
        self._reply(200, body)
        state.busy_s += time.perf_counter() - arrived

    def log_message(self, *args):
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, required=True)
    parser.add_argument("--per-request-ms", type=float, required=True)
    parser.add_argument("--per-text-ms", type=float, required=True)
    args = parser.parse_args(argv)
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    server.state = StubState(args.dim, args.per_request_ms / 1e3, args.per_text_ms / 1e3)
    print(f"port {server.server_port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
