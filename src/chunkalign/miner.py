"""Margin-based mining of one-to-one unit pairs between two embedding sides."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import knn
from .embed_store import EmbeddingMatrix

logger = logging.getLogger(__name__)

# (src_id, tgt_id, cosine, margin)
Candidate = tuple[str, str, float, float]


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


def margin_scores(
    x: EmbeddingMatrix,
    y: EmbeddingMatrix,
    params: MarginParams = MarginParams(),
    workers: int = 1,
) -> list[Candidate]:
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
    # first occurrence, so the result keeps that order
    n, m = len(x), len(y)
    src = np.concatenate([np.repeat(np.arange(n), fwd_rows.shape[1]), bwd_rows.ravel()])
    tgt = np.concatenate([fwd_rows.ravel(), np.repeat(np.arange(m), bwd_rows.shape[1])])
    cosines = np.concatenate([fwd_scores.ravel(), bwd_scores.ravel()])
    _, first = np.unique(src * m + tgt, return_index=True)
    first.sort()
    src, tgt, cosines = src[first], tgt[first], cosines[first]

    denominators = 0.5 * (avg_src[src] + avg_tgt[tgt])
    kept = denominators != 0.0
    dropped = len(kept) - int(kept.sum())
    src, tgt, cosines = src[kept], tgt[kept], cosines[kept]
    margins = cosines / denominators[kept]
    results: list[Candidate] = [
        (x.ids[i], y.ids[j], cos, margin)
        for i, j, cos, margin in zip(src.tolist(), tgt.tolist(), cosines.tolist(), margins.tolist())
    ]
    if dropped:
        logger.debug("dropped %d candidates with a zero margin denominator", dropped)
    return results


def greedy_match(candidates: Iterable[Candidate]) -> list[AlignedUnitPair]:
    """One-to-one matching: scan by descending margin, keep a pair iff neither
    endpoint is already taken.

    Ties break on higher cosine, then on (src_id, tgt_id), so the outcome is
    a total function of the candidate set.  The result is sorted by ids.
    """
    ordered = sorted(candidates, key=lambda c: (-c[3], -c[2], c[0], c[1]))
    taken_src: set[str] = set()
    taken_tgt: set[str] = set()
    accepted: list[AlignedUnitPair] = []
    for src_id, tgt_id, cosine, margin in ordered:
        if src_id in taken_src or tgt_id in taken_tgt:
            continue
        taken_src.add(src_id)
        taken_tgt.add(tgt_id)
        accepted.append(AlignedUnitPair(src_id=src_id, tgt_id=tgt_id, cosine=cosine, margin=margin))
    accepted.sort(key=lambda p: (p.src_id, p.tgt_id))
    return accepted


def mine(
    x: EmbeddingMatrix,
    y: EmbeddingMatrix,
    params: MarginParams = MarginParams(),
    workers: int = 1,
) -> list[AlignedUnitPair]:
    """margin_scores, greedy_match, then drop pairs below params.min_margin
    (after matching, so a dropped pair still blocks weaker pairs on its ids)."""
    pairs = greedy_match(margin_scores(x, y, params, workers=workers))
    if params.min_margin is not None:
        pairs = [pair for pair in pairs if pair.margin >= params.min_margin]
    return pairs


def write_pairs_tsv(pairs: Sequence[AlignedUnitPair], path: str | Path) -> None:
    """Dump pairs as src_id, tgt_id, cosine, margin with six decimals."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("# src_id\ttgt_id\tcosine\tmargin\n")
        for pair in pairs:
            handle.write(f"{pair.src_id}\t{pair.tgt_id}\t{pair.cosine:.6f}\t{pair.margin:.6f}\n")
