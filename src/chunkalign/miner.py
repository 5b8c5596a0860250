"""Margin-based mining of one-to-one unit pairs between two embedding sides."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import knn
from .embed_store import EmbeddingMatrix

logger = logging.getLogger(__name__)

@dataclass(frozen=True)
class MarginParams:
    """Neighborhood size for margin scoring and an optional floor on mined margins."""

    k: int = 16
    min_margin: float | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


@dataclass(frozen=True)
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
    zero_denominators counts the pairs of the k-NN union that were dropped
    for a zero margin denominator.
    """

    src_rows: np.ndarray
    tgt_rows: np.ndarray
    cosines: np.ndarray
    margins: np.ndarray
    src_ids: Sequence[str]
    tgt_ids: Sequence[str]
    zero_denominators: int

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
    signal.
    """
    if len(x) == 0:
        raise ValueError("source side is empty")
    if len(y) == 0:
        raise ValueError("target side is empty")
    if x.dim != y.dim:
        raise ValueError(f"embedding dimension mismatch: {x.dim} vs {y.dim}")
    index_y = knn.build(y)
    index_x = knn.build(x)
    (fwd_scores, fwd_rows), (bwd_scores, bwd_rows) = knn.search_arrays(
        index_y, index_x.data, params.k, workers=workers
    )
    avg_src = fwd_scores.mean(axis=1)
    avg_tgt = bwd_scores.mean(axis=1)

    # candidates in forward-then-backward order, each pair kept once at its
    # first occurrence, so the result keeps that order; a pair found in both
    # directions keeps its forward cosine, which may differ from the backward
    # one (a separate GEMM) in the last ulp
    n, m = len(x), len(y)
    src = np.concatenate([np.repeat(np.arange(n), fwd_rows.shape[1]), bwd_rows.ravel()])
    tgt = np.concatenate([fwd_rows.ravel(), np.repeat(np.arange(m), bwd_rows.shape[1])])
    cosines = np.concatenate([fwd_scores.ravel(), bwd_scores.ravel()])
    _, first = np.unique(src * m + tgt, return_index=True)
    first.sort()
    src, tgt, cosines = src[first], tgt[first], cosines[first]

    denominators = 0.5 * (avg_src[src] + avg_tgt[tgt])
    kept = denominators != 0.0
    cosines = cosines[kept]
    return Candidates(
        src_rows=src[kept],
        tgt_rows=tgt[kept],
        cosines=cosines,
        margins=cosines / denominators[kept],
        src_ids=x.ids,
        tgt_ids=y.ids,
        zero_denominators=len(kept) - int(np.count_nonzero(kept)),
    )


def _string_ranks(ids: Sequence[str]) -> np.ndarray:
    """Each id's position in Python string order.

    Python's sort, not a numpy string array: numpy drops trailing NULs, so
    ids that differ only in them would compare equal.
    """
    ranks = np.empty(len(ids), dtype=np.int64)
    ranks[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return ranks


def greedy_match(candidates: Candidates) -> list[AlignedUnitPair]:
    """One-to-one matching: scan by descending margin, keep a pair iff neither
    endpoint is already taken.

    Ties break on higher cosine, then on (src_id, tgt_id) compared as
    strings, so the outcome is a total function of the candidate set.  Only
    accepted pairs become objects; the result is sorted by ids.
    """
    margins = candidates.margins
    src_key = _string_ranks(candidates.src_ids)[candidates.src_rows]
    # (src_id, tgt_id) in string order as one integer
    pair_key = (src_key * len(candidates.tgt_ids)
                + _string_ranks(candidates.tgt_ids)[candidates.tgt_rows])
    # sort by -margin (unstable, so any order within ties), then re-sort the
    # runs of tied margins by the whole key; runs stay in place because
    # -margin leads that key too
    order = np.argsort(-margins)
    ordered_margins = margins[order]
    equal = ordered_margins[1:] == ordered_margins[:-1]
    tied = np.zeros(len(order), dtype=bool)
    tied[1:] |= equal
    tied[:-1] |= equal
    runs = order[tied]
    order[tied] = runs[np.lexsort((pair_key[runs], -candidates.cosines[runs], -margins[runs]))]
    taken_src = bytearray(len(candidates.src_ids))
    taken_tgt = bytearray(len(candidates.tgt_ids))
    accepted = []
    for c, i, j in zip(order.tolist(), candidates.src_rows[order].tolist(),
                       candidates.tgt_rows[order].tolist()):
        if taken_src[i] or taken_tgt[j]:
            continue
        taken_src[i] = taken_tgt[j] = 1
        accepted.append(c)
    # one-to-one, so the source key alone orders the accepted pairs by ids
    chosen = np.array(accepted, dtype=np.int64)
    chosen = chosen[np.argsort(src_key[chosen])]
    return [
        AlignedUnitPair(src_id=candidates.src_ids[i], tgt_id=candidates.tgt_ids[j],
                        cosine=cosine, margin=margin)
        for i, j, cosine, margin in zip(
            candidates.src_rows[chosen].tolist(), candidates.tgt_rows[chosen].tolist(),
            candidates.cosines[chosen].tolist(), candidates.margins[chosen].tolist())
    ]


def mine(
    x: EmbeddingMatrix,
    y: EmbeddingMatrix,
    params: MarginParams = MarginParams(),
    workers: int = 1,
) -> list[AlignedUnitPair]:
    """margin_scores, greedy_match, then drop pairs below params.min_margin
    (after matching, so a dropped pair still blocks weaker pairs on its ids)."""
    candidates = margin_scores(x, y, params, workers=workers)
    matched = greedy_match(candidates)
    pairs = matched
    if params.min_margin is not None:
        pairs = [pair for pair in matched if pair.margin >= params.min_margin]
    logger.debug(
        "mining funnel: %d candidates, %d dropped for a zero margin denominator, "
        "%d matched, %d kept at min_margin %s",
        len(candidates), candidates.zero_denominators, len(matched), len(pairs),
        params.min_margin,
    )
    return pairs


def write_pairs_tsv(pairs: Sequence[AlignedUnitPair], path: str | Path) -> None:
    """Dump pairs as src_id, tgt_id, cosine, margin with six decimals."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("# src_id\ttgt_id\tcosine\tmargin\n")
        for pair in pairs:
            handle.write(f"{pair.src_id}\t{pair.tgt_id}\t{pair.cosine:.6f}\t{pair.margin:.6f}\n")
