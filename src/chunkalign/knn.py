"""Exact inner-product nearest neighbor search over normalized embeddings."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .embed_store import EmbeddingMatrix

# Rows per tile.  A tile's float64 scores and np.partition's copy of them take
# 2 x 8 x 128 x m bytes per worker against m rows; a 128-row GEMM still does
# 32 flops per byte it streams of the other side.
DEFAULT_BLOCK_SIZE = 128

# (scores, rows), both (queries, depth); row i holds one query's neighbors
# best first, ties broken by ascending row number
Neighbors = tuple[np.ndarray, np.ndarray]


@dataclass(eq=False)
class FlatIndex:
    """Exact flat index; scores are inner products, i.e. cosines for unit rows."""

    data: np.ndarray  # the matrix's own float32 rows

    @property
    def size(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


def build(matrix: EmbeddingMatrix) -> FlatIndex:
    """Index a matrix whose rows are unit vectors; the index shares its float32 rows."""
    return FlatIndex(matrix.data)


def top_k(scores: np.ndarray, depth: int, scratch: np.ndarray) -> Neighbors:
    """The `depth` best entries of each row of a finite (rows, width) score array.

    Entries are ordered by (-score, column).  np.partition finds each row's
    depth-th largest score in a copy of the scores in `scratch`, a float64
    array of their shape that the caller may reuse, and every entry at or
    above it is a candidate, so all entries tied with it compete on their
    column and the selection is exact.  Returns (scores, columns), each of
    shape (rows, depth); depth must lie in [1, width].
    """
    count, width = scores.shape
    np.copyto(scratch, scores)
    scratch.partition(width - depth, axis=1)
    kth = scratch[:, width - depth]
    rows, cols = np.divmod(np.flatnonzero(scores >= kth[:, None]), width)
    # lay each row's candidates (at least `depth`, more only on ties) out in
    # one padded row, so that one lexsort along axis 1 orders every row
    per_row = np.bincount(rows, minlength=count)
    slots = np.arange(len(rows)) - np.repeat(np.cumsum(per_row) - per_row, per_row)
    padded = np.full((count, per_row.max()), -np.inf)
    padded_cols = np.zeros(padded.shape, dtype=np.int64)
    padded[rows, slots] = scores[rows, cols]
    padded_cols[rows, slots] = cols
    order = np.lexsort((padded_cols, -padded), axis=1)[:, :depth]
    return np.take_along_axis(padded, order, axis=1), np.take_along_axis(padded_cols, order, axis=1)


def search_arrays(
    index: FlatIndex,
    queries: np.ndarray,
    k: int,
    workers: int = 1,
) -> tuple[Neighbors, Neighbors]:
    """Top-k in both directions.

    Returns (forward, backward): forward holds each query's top-k index rows,
    backward each index row's top-k query rows.  k is clamped to the size of
    the side searched, so forward has min(k, index.size) columns and backward
    min(k, len(queries)).  Ties break by ascending row number.  Nothing is
    checked here: both sides must be non-empty and of one width, and k and
    workers at least 1, as margin_scores makes sure.

    Both directions are searched the same way, one after the other in one
    pool of `workers` threads: a tile of DEFAULT_BLOCK_SIZE rows of one side
    is multiplied in float64 against all rows of the other, and `top_k`
    selects from each complete row of the tile's scores.  No row's result is
    assembled from parts, so neither direction depends on `workers`.  A pair
    found in both directions comes from two GEMMs, x.y and y.x, so its two
    scores may differ in the last ulp.
    """
    with ThreadPoolExecutor(max_workers=workers) as pool:
        forward = _search(pool, workers, queries, index.data, k)
        backward = _search(pool, workers, index.data, queries, k)
    return forward, backward


def _search(pool: ThreadPoolExecutor, workers: int, rows: np.ndarray, against: np.ndarray,
            k: int) -> Neighbors:
    """Each row's top-k rows of `against`, one tile of rows at a time.

    `against` is upcast to float64 once and each tile when it is used;
    upcasting is exact, so the scores are those of an all-float64 search.
    Worker w takes tiles w, w + workers, ... and reuses one scores buffer and
    one partition buffer for them, 2 x 8 x DEFAULT_BLOCK_SIZE x len(against)
    bytes, writing each tile's result into its rows of the output.
    """
    against64 = against.astype(np.float64, copy=False)
    depth = min(k, len(against))
    scores = np.empty((len(rows), depth))
    neighbors = np.empty((len(rows), depth), dtype=np.int64)
    starts = range(0, len(rows), DEFAULT_BLOCK_SIZE)
    height = min(DEFAULT_BLOCK_SIZE, len(rows))

    def run(first: int) -> None:
        tile_scores = np.empty((height, len(against)))
        scratch = np.empty_like(tile_scores)
        for start in starts[first::workers]:
            tile = rows[start:start + DEFAULT_BLOCK_SIZE].astype(np.float64, copy=False)
            out = tile_scores[:len(tile)]
            np.matmul(tile, against64.T, out=out)
            stop = start + len(tile)
            scores[start:stop], neighbors[start:stop] = top_k(out, depth, scratch[:len(tile)])

    list(pool.map(run, range(min(workers, len(starts)))))
    return scores, neighbors
