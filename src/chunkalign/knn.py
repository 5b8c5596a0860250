"""Exact inner-product nearest neighbor search over normalized embeddings."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .embed_store import EmbeddingMatrix

# Rows per tile.  A tile's float64 scores and top_k's float32 copy of them
# take 12 x 128 x m bytes per worker against m rows; a 128-row GEMM still
# does 32 flops per byte it streams of the other side.
DEFAULT_BLOCK_SIZE = 128

# (scores, rows), both (queries, depth): float64 scores and int32 rows (int64
# only for a side of 2**31 rows or more); row i holds one query's neighbors
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
    """The `depth` best entries of each row of a (rows, width) score array.

    Entries are ordered by (-score, column).  The scores must be finite and
    lie within the float32 range, as cosines of unit rows do.  np.partition
    finds each row's depth-th largest score in a float32 copy of the scores
    in `scratch`, an array of their shape that the caller may reuse.
    Rounding to nearest is monotone, so the copy's depth-th value is the
    rounding of the depth-th score, and that score lies at or above the
    midpoint between the copy's value and its float32 predecessor, a
    midpoint exact in float64.  Every entry at or above the midpoint is a
    candidate: all entries tied with the depth-th score compete on their
    column, and the selection is exact.  Returns (scores, columns), each of
    shape (rows, depth); depth must lie in [1, width].
    """
    count, width = scores.shape
    np.copyto(scratch, scores, casting="same_kind")
    scratch.partition(width - depth, axis=1)
    kth = scratch[:, width - depth]
    cutoff = 0.5 * (kth.astype(np.float64) + np.nextafter(kth, -np.inf))
    rows, cols = np.divmod(np.flatnonzero(scores >= cutoff[:, None]), width)
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
    pool of threads: a tile of DEFAULT_BLOCK_SIZE rows of one side is
    multiplied in float64 against all rows of the other, and `top_k` selects
    from each complete row of the tile's scores.  No row's result is
    assembled from parts, so neither direction depends on `workers`.  A pair
    found in both directions comes from two GEMMs, x.y and y.x, so its two
    scores may differ in the last ulp.

    The tile buffers are made here, once: a float64 scores buffer and a
    float32 top_k scratch for each of min(workers, tiles) workers, each
    large enough for a tile of either direction, so that none is freed and
    made again mid-search.
    """
    pairs = ((queries, index.data), (index.data, queries))
    size = max(min(DEFAULT_BLOCK_SIZE, len(rows)) * len(against) for rows, against in pairs)
    tiles = -(-max(len(queries), index.size) // DEFAULT_BLOCK_SIZE)
    buffers = [(np.empty(size), np.empty(size, dtype=np.float32))
               for _ in range(min(workers, tiles))]
    with ThreadPoolExecutor(max_workers=len(buffers)) as pool:
        forward = _search(pool, buffers, queries, index.data, k)
        backward = _search(pool, buffers, index.data, queries, k)
    return forward, backward


def _search(pool: ThreadPoolExecutor, buffers: list[tuple[np.ndarray, np.ndarray]],
            rows: np.ndarray, against: np.ndarray, k: int) -> Neighbors:
    """Each row's top-k rows of `against`, one tile of rows at a time.

    `against` is upcast to float64 once and each tile when it is used;
    upcasting is exact, so the scores are those of an all-float64 search.
    Worker w takes tiles w, w + len(buffers), ... and reuses buffers[w] for
    them, as C-contiguous (tile rows, len(against)) views, writing each
    tile's result into its rows of the output.  The rows are int32 unless
    `against` has 2**31 rows or more.
    """
    against64 = against.astype(np.float64, copy=False)
    depth = min(k, len(against))
    scores = np.empty((len(rows), depth))
    neighbors = np.empty((len(rows), depth), dtype=np.int32 if len(against) < 2**31 else np.int64)
    starts = range(0, len(rows), DEFAULT_BLOCK_SIZE)
    workers = len(buffers)

    def run(first: int) -> None:
        tile_scores, scratch = buffers[first]
        for start in starts[first::workers]:
            tile = rows[start:start + DEFAULT_BLOCK_SIZE].astype(np.float64, copy=False)
            size = len(tile) * len(against)
            out = tile_scores[:size].reshape(len(tile), len(against))
            np.matmul(tile, against64.T, out=out)
            stop = start + len(tile)
            scores[start:stop], neighbors[start:stop] = top_k(
                out, depth, scratch[:size].reshape(out.shape))

    list(pool.map(run, range(min(workers, len(starts)))))
    return scores, neighbors
