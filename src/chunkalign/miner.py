"""Margin-based mining of one-to-one unit pairs between two embedding sides."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import knn
from .embed_store import EmbeddingMatrix

logger = logging.getLogger(__name__)

# largest accepted distance of a row's L2 norm from 1
_NORM_TOLERANCE = 1e-3
# forward entries compared per block of the candidate union's membership test
_UNION_BLOCK = 2**16
# candidates per slice of the greedy scan turned into Python ints at once
_SCAN_SLICE = 8192

@dataclass(frozen=True)
class MarginParams:
    """Neighborhood size for margin scoring and an optional floor on mined margins."""

    k: int = 16
    min_margin: float | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.min_margin is not None and not math.isfinite(self.min_margin):
            raise ValueError(f"min_margin must be finite, got {self.min_margin}")


@dataclass(frozen=True, slots=True)
class AlignedUnitPair:
    """One mined (source unit, target unit) pair with its scores."""

    src_id: str
    tgt_id: str
    cosine: float
    margin: float


@dataclass(frozen=True, eq=False)
class Candidates:
    """Scored candidate pairs as parallel arrays.

    Candidate c pairs row src_rows[c] of the source side with row tgt_rows[c]
    of the target side; src_ids and tgt_ids are those sides' row ids.
    zero_denominators counts the k-NN union's pairs dropped for a zero margin
    denominator, below_min_margin those of the rest dropped below min_margin.
    """

    src_rows: np.ndarray
    tgt_rows: np.ndarray
    cosines: np.ndarray
    margins: np.ndarray
    src_ids: Sequence[str]
    tgt_ids: Sequence[str]
    zero_denominators: int
    below_min_margin: int

    def __len__(self) -> int:
        return len(self.margins)


def margin_scores(
    x: EmbeddingMatrix,
    y: EmbeddingMatrix,
    params: MarginParams = MarginParams(),
    workers: int = 1,
) -> Candidates:
    """Score the union of forward and backward k-NN candidate pairs.

    A pair's margin is its cosine divided by the mean of the two endpoints'
    average cosines to their k nearest neighbors on the opposite side, with k
    clamped to that side's size.  Candidates whose averages cancel to a zero
    denominator are dropped: a ratio against an empty neighborhood carries no
    signal.  So are those below params.min_margin, if set: greedy_match
    scans by descending margin, so one can only block others below the floor,
    and dropping it gives the pairs that a floor after matching would.

    Both sides must be non-empty, of one dimension and of unit rows, and
    workers at least 1: checked here only, as knn checks nothing.
    """
    if len(x) == 0:
        raise ValueError("source side is empty")
    if len(y) == 0:
        raise ValueError("target side is empty")
    require_same_dim(x, y)
    require_workers(workers)
    _require_unit_rows(x)
    _require_unit_rows(y)
    (fwd_scores, fwd_rows), (bwd_scores, bwd_rows) = knn.search_arrays(
        knn.build(y), x.data, params.k, workers=workers
    )
    avg_src = fwd_scores.mean(axis=1)
    avg_tgt = bwd_scores.mean(axis=1)

    # every forward pair, then each backward pair that the forward search
    # did not find: the pairs of one direction are distinct, so this is the
    # union in forward-then-backward order.  A pair found in both directions
    # keeps its forward cosine, which may differ from the backward one (a
    # separate GEMM) in the last ulp.
    new = np.flatnonzero(_backward_only(fwd_rows, bwd_rows))
    src = np.concatenate([np.repeat(np.arange(len(x)), fwd_rows.shape[1]), bwd_rows.ravel()[new]])
    tgt = np.concatenate([fwd_rows.ravel(), new // bwd_rows.shape[1]])
    cosines = np.concatenate([fwd_scores.ravel(), bwd_scores.ravel()[new]])

    # the bits of 0.5 * (avg_src[src] + avg_tgt[tgt]) without its
    # temporaries; the margins then take the same array
    denominators = avg_src[src]
    denominators += avg_tgt[tgt]
    denominators *= 0.5
    kept = denominators != 0.0
    scored = int(np.count_nonzero(kept))
    # a zero denominator gives an inf or nan margin, which kept already drops
    with np.errstate(divide="ignore", invalid="ignore"):
        margins = np.divide(cosines, denominators, out=denominators)
        if params.min_margin is not None:
            kept &= margins >= params.min_margin
    survivors = int(np.count_nonzero(kept))
    # masking copies all four arrays, so it is done only when it drops one
    if survivors < len(kept):
        src, tgt, cosines, margins = (array[kept] for array in (src, tgt, cosines, margins))
    return Candidates(
        src_rows=src,
        tgt_rows=tgt,
        cosines=cosines,
        margins=margins,
        src_ids=x.ids,
        tgt_ids=y.ids,
        zero_denominators=len(kept) - scored,
        below_min_margin=scored - survivors,
    )


def require_same_dim(x: EmbeddingMatrix, y: EmbeddingMatrix) -> None:
    """Reject two sides of different embedding dimensions."""
    if x.dim != y.dim:
        raise ValueError(f"embedding dimension mismatch: {x.dim} vs {y.dim}")


def require_workers(workers: int) -> None:
    """Reject a search thread count below 1."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def _require_unit_rows(side: EmbeddingMatrix) -> None:
    """Reject a row whose L2 norm, summed in float64 without a float64 copy
    of the rows, differs from 1 by more than _NORM_TOLERANCE."""
    norms = np.sqrt(np.einsum("ij,ij->i", side.data, side.data, dtype=np.float64))
    bad = np.flatnonzero(np.abs(norms - 1.0) > _NORM_TOLERANCE)
    if bad.size:
        row = int(bad[0])
        raise ValueError(
            f"row {side.ids[row]!r} is not normalized (norm {norms[row]:.6f}); "
            "normalize before indexing"
        )


def _backward_only(fwd_rows: np.ndarray, bwd_rows: np.ndarray) -> np.ndarray:
    """Whether each backward pair (bwd_rows[j, c], j), flattened, is missing
    from the forward pairs (i, fwd_rows[i, :]).

    Each block of backward rows compares about _UNION_BLOCK forward entries
    (one forward row per backward pair), so the test takes a fixed amount of
    memory.
    """
    depth = bwd_rows.shape[1]
    backward_only = np.empty(bwd_rows.size, dtype=bool)
    step = max(1, _UNION_BLOCK // (depth * fwd_rows.shape[1]))
    for start in range(0, len(bwd_rows), step):
        sources = bwd_rows[start:start + step]
        targets = np.arange(start, start + len(sources))[:, None, None]
        found = (fwd_rows[sources] == targets).any(axis=2)
        np.logical_not(found.ravel(), out=backward_only[start * depth:(start + len(sources)) * depth])
    return backward_only


def _string_ranks(ids: Sequence[str]) -> np.ndarray:
    """Each id's position in Python string order.

    Python's sort, not a numpy string array: numpy drops trailing NULs, so
    ids that differ only in them would compare equal.
    """
    ranks = np.empty(len(ids), dtype=np.int64)
    ranks[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return ranks


def _scan_order(candidates: Candidates, src_ranks: np.ndarray) -> np.ndarray:
    """Candidate positions by descending margin, then descending cosine, then
    (src_id, tgt_id) in string order.

    A function of its own so that its temporaries, a few arrays of the
    candidate count, are freed before greedy_match's scan.
    """
    margins = candidates.margins
    # sort by descending margin (any order within ties), then re-sort the
    # runs of tied margins by the whole key; runs stay in place because
    # -margin leads that key too
    order = np.argsort(margins)[::-1]
    ordered_margins = margins[order]
    equal = ordered_margins[1:] == ordered_margins[:-1]
    tied = np.zeros(len(order), dtype=bool)
    tied[1:] |= equal
    tied[:-1] |= equal
    runs = order[tied]
    # (src_id, tgt_id) in string order as one integer
    pair_key = (src_ranks[candidates.src_rows[runs]] * len(candidates.tgt_ids)
                + _string_ranks(candidates.tgt_ids)[candidates.tgt_rows[runs]])
    order[tied] = runs[np.lexsort((pair_key, -candidates.cosines[runs], -margins[runs]))]
    return order


def greedy_match(candidates: Candidates) -> list[AlignedUnitPair]:
    """One-to-one matching: scan by descending margin, keep a pair iff neither
    endpoint is already taken.

    Ties break on higher cosine, then on (src_id, tgt_id) compared as
    strings, so the outcome is a total function of the candidate set.  The
    scan takes _SCAN_SLICE candidates at a time, drops in bulk those with an
    endpoint taken before the slice (a taken flag never clears, so the loop
    would reject them too), and turns the rest into Python ints; only
    accepted pairs become objects.  The result is sorted by ids.
    """
    src_ranks = _string_ranks(candidates.src_ids)
    order = _scan_order(candidates, src_ranks)
    taken_src = bytearray(len(candidates.src_ids))
    taken_tgt = bytearray(len(candidates.tgt_ids))
    # views that see every flag the loop sets
    taken_src_view = np.frombuffer(taken_src, dtype=bool)
    taken_tgt_view = np.frombuffer(taken_tgt, dtype=bool)
    accepted = []
    for start in range(0, len(order), _SCAN_SLICE):
        part = order[start:start + _SCAN_SLICE]
        src_rows = candidates.src_rows[part]
        tgt_rows = candidates.tgt_rows[part]
        free = ~(taken_src_view[src_rows] | taken_tgt_view[tgt_rows])
        for c, i, j in zip(part[free].tolist(), src_rows[free].tolist(),
                           tgt_rows[free].tolist()):
            if taken_src[i] or taken_tgt[j]:
                continue
            taken_src[i] = taken_tgt[j] = 1
            accepted.append(c)
    # one-to-one, so the source rank alone orders the accepted pairs by ids
    chosen = np.array(accepted, dtype=np.int64)
    chosen = chosen[np.argsort(src_ranks[candidates.src_rows[chosen]])]
    logger.debug(
        "mining funnel: %d candidates, %d dropped for a zero margin denominator, "
        "%d below min_margin, %d matched",
        len(candidates) + candidates.below_min_margin, candidates.zero_denominators,
        candidates.below_min_margin, len(chosen),
    )
    return [
        AlignedUnitPair(src_id=candidates.src_ids[i], tgt_id=candidates.tgt_ids[j],
                        cosine=cosine, margin=margin)
        for i, j, cosine, margin in zip(
            candidates.src_rows[chosen].tolist(), candidates.tgt_rows[chosen].tolist(),
            candidates.cosines[chosen].tolist(), candidates.margins[chosen].tolist())
    ]


def write_pairs_tsv(pairs: Sequence[AlignedUnitPair], path: str | Path) -> None:
    """Dump pairs as src_id, tgt_id, cosine, margin with six decimals."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("# src_id\ttgt_id\tcosine\tmargin\n")
        for pair in pairs:
            handle.write(f"{pair.src_id}\t{pair.tgt_id}\t{pair.cosine:.6f}\t{pair.margin:.6f}\n")
