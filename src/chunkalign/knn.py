"""Exact inner-product nearest neighbor search over normalized embeddings."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .embed_store import EmbeddingMatrix

NORM_TOLERANCE = 1e-3
DEFAULT_BLOCK_SIZE = 512

# (scores, rows), both (queries, depth); row i holds one query's neighbors
# best first, ties broken by ascending row number
Neighbors = tuple[np.ndarray, np.ndarray]


@dataclass(eq=False)
class FlatIndex:
    """Exact flat index; scores are inner products, i.e. cosines for unit rows."""

    data: np.ndarray  # float64 rows

    @property
    def size(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


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
    return FlatIndex(data=data64)


def top_k(scores: np.ndarray, depth: int, labels: np.ndarray | None = None) -> Neighbors:
    """The `depth` best entries of each row of a finite (rows, width) score array.

    Entries are ordered by (-score, label); labels default to column numbers.
    np.partition finds each row's depth-th largest score, and every entry at
    or above it is a candidate, so all entries tied with it compete on their
    label and the selection is exact.  Returns (scores, labels), each of
    shape (rows, depth); depth must lie in [1, width].
    """
    count, width = scores.shape
    kth = np.partition(scores, width - depth, axis=1)[:, width - depth]
    # a C-order mask keeps the scan for candidates contiguous on transposed views
    flat = np.flatnonzero(np.greater_equal(scores, kth[:, None], order="C"))
    rows, cols = np.divmod(flat, width)
    values = scores[rows, cols]
    keys = cols if labels is None else labels[rows, cols]
    # lay each row's candidates (at least `depth`, more only on ties) out in
    # one padded row, so that one lexsort along axis 1 orders every row
    per_row = np.bincount(rows, minlength=count)
    slots = np.arange(len(flat)) - np.repeat(np.cumsum(per_row) - per_row, per_row)
    padded = np.full((count, per_row.max()), -np.inf)
    padded_keys = np.zeros(padded.shape, dtype=keys.dtype)
    padded[rows, slots] = values
    padded_keys[rows, slots] = keys
    order = np.lexsort((padded_keys, -padded), axis=1)[:, :depth]
    return np.take_along_axis(padded, order, axis=1), np.take_along_axis(padded_keys, order, axis=1)


def _merge(state: Neighbors | None, part: Neighbors, depth: int) -> Neighbors:
    """Exact top-`depth` of two candidate sets whose labels are global rows."""
    if state is None:
        return part
    scores = np.hstack([state[0], part[0]])
    return top_k(scores, min(depth, scores.shape[1]), np.hstack([state[1], part[1]]))


def search_arrays(
    index: FlatIndex,
    queries: np.ndarray,
    k: int,
    workers: int = 1,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> tuple[Neighbors, Neighbors]:
    """Top-k in both directions from one pass of score tiles.

    Returns (forward, backward): forward holds each query's top-k index rows,
    backward each index row's top-k query rows.  k is clamped to the size of
    the side searched, so forward has min(k, index.size) columns and backward
    min(k, len(queries)).  Ties break by ascending row number.

    Each tile of `block_size` queries is multiplied against the index once;
    forward neighbors come from its rows and backward candidates from its
    columns.  Every worker lane folds its tiles' backward candidates into
    one running (index.size, k) state, and the lanes' states are folded
    last.  Exact top-k under the total order (-score, row) does not depend
    on the order of folding, so neither direction depends on `workers`.
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
    back_depth = min(k, len(queries))
    queries64 = queries.astype(np.float64, copy=False)
    starts = range(0, len(queries64), block_size)
    lanes = [starts[lane::workers] for lane in range(min(workers, len(starts)))]

    def run(lane: range) -> tuple[list[Neighbors], Neighbors | None]:
        forward, backward = [], None
        for start in lane:
            scores = queries64[start:start + block_size] @ index.data.T
            forward.append(top_k(scores, depth))
            part_scores, part_rows = top_k(scores.T, min(back_depth, len(scores)))
            backward = _merge(backward, (part_scores, part_rows + start), back_depth)
        return forward, backward

    if len(lanes) <= 1:
        results = [run(lane) for lane in lanes]
    else:
        with ThreadPoolExecutor(max_workers=len(lanes)) as pool:
            results = list(pool.map(run, lanes))
    if not results:
        return ((np.empty((0, depth)), np.empty((0, depth), dtype=np.int64)),
                (np.empty((index.size, 0)), np.empty((index.size, 0), dtype=np.int64)))
    # lane l ran tiles l, l + lanes, ...; interleave them back into query order
    tiles = [None] * len(starts)
    for lane, (forward, _) in enumerate(results):
        tiles[lane::len(lanes)] = forward
    backward = None
    for _, lane_backward in results:
        backward = _merge(backward, lane_backward, back_depth)
    return (np.vstack([tile[0] for tile in tiles]), np.vstack([tile[1] for tile in tiles])), backward
