"""Exact inner-product nearest neighbor search over normalized embeddings."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .embed_store import EmbeddingMatrix

NORM_TOLERANCE = 1e-3
DEFAULT_BLOCK_SIZE = 1024


@dataclass(eq=False)
class FlatIndex:
    """Exact flat index; scores are inner products, i.e. cosines for unit rows."""

    _data64: np.ndarray

    @property
    def size(self) -> int:
        return self._data64.shape[0]

    @property
    def dim(self) -> int:
        return self._data64.shape[1]


def build(matrix: EmbeddingMatrix) -> FlatIndex:
    """Index a normalized matrix; empty or unnormalized input is rejected."""
    if len(matrix) == 0:
        raise ValueError("cannot index an empty matrix")
    # Scores are computed in float64 so near-tie rankings never depend on
    # block or worker layout.
    data64 = matrix.data.astype(np.float64)
    norms = np.linalg.norm(data64, axis=1)
    bad = np.flatnonzero(np.abs(norms - 1.0) > NORM_TOLERANCE)
    if bad.size:
        row = int(bad[0])
        raise ValueError(
            f"row {matrix.ids[row]!r} is not normalized (norm {norms[row]:.6f}); "
            "normalize before indexing"
        )
    return FlatIndex(_data64=data64)


def search_arrays(
    index: FlatIndex,
    queries: np.ndarray,
    k: int,
    workers: int = 1,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k index rows for each query row; returns (scores, row_indices).

    Every query is ranked against the full matrix; ties break by ascending
    row insertion order.  k is clamped to the index size, so both outputs
    have min(k, size) columns.
    """
    queries = np.asarray(queries)
    if queries.ndim != 2 or queries.shape[1] != index.dim:
        raise ValueError(f"query shape {queries.shape} does not match index dim {index.dim}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    depth = min(k, index.size)
    queries64 = queries.astype(np.float64, copy=False)
    blocks = [queries64[start:start + block_size] for start in range(0, len(queries64), block_size)]

    def run(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        scores = block @ index._data64.T
        order = np.argsort(-scores, axis=1, kind="stable")[:, :depth]
        return np.take_along_axis(scores, order, axis=1), order

    if workers == 1 or len(blocks) <= 1:
        parts = [run(block) for block in blocks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, blocks))
    if not parts:
        return np.empty((0, depth)), np.empty((0, depth), dtype=np.int64)
    top_scores = np.vstack([part[0] for part in parts])
    top_rows = np.vstack([part[1] for part in parts]).astype(np.int64)
    return top_scores, top_rows
