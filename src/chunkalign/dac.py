"""Document pairing from mined chunk alignments.

The document alignment coefficient of a candidate pair is
2 * n_aligned / (n_src + n_tgt): the number of chunk alignments joining the
two documents, normalized by their average chunk count.  It is 1 exactly when
both documents have the same chunk count and every chunk is aligned.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import ChunkUnit, Document, Granularity, segment
from .embed_store import EmbeddingMatrix
from .miner import AlignedUnitPair, MarginParams, greedy_match, margin_scores

DEFAULT_THRESHOLD = 0.1


def compute_dac(n_src: int, n_tgt: int, n_aligned: int) -> float:
    """2 * n_aligned / (n_src + n_tgt)."""
    return 2.0 * n_aligned / (n_src + n_tgt)


@dataclass(frozen=True)
class DocPairScore:
    """A candidate document pair, its chunk-alignment statistics and their dac."""

    src_doc: str
    tgt_doc: str
    n_src: int
    n_tgt: int
    n_aligned: int
    margin_sum: float
    dac: float = field(init=False)

    def __post_init__(self) -> None:
        pair = f"({self.src_doc!r}, {self.tgt_doc!r})"
        if self.n_src < 1 or self.n_tgt < 1:
            raise ValueError(f"chunk counts must be >= 1 for pair {pair}")
        if not 0 <= self.n_aligned <= min(self.n_src, self.n_tgt):
            raise ValueError(f"n_aligned {self.n_aligned} out of range for pair {pair}")
        object.__setattr__(self, "dac", compute_dac(self.n_src, self.n_tgt, self.n_aligned))


def aggregate(
    chunk_pairs: Iterable[AlignedUnitPair],
    src_units: Iterable[ChunkUnit],
    tgt_units: Iterable[ChunkUnit],
) -> list[DocPairScore]:
    """Score each (source doc, target doc) group of mined chunk pairs, sorted by docs.

    Each side's segmented units give each chunk's document and each document's
    chunk count.  margin_sum adds a group's margins in chunk_pairs order.
    """
    doc_of_src = {unit.unit_id: unit.doc_id for unit in src_units}
    doc_of_tgt = {unit.unit_id: unit.doc_id for unit in tgt_units}
    grouped: dict[tuple[str, str], list] = {}
    for pair in chunk_pairs:
        key = (doc_of_src.get(pair.src_id), doc_of_tgt.get(pair.tgt_id))
        if None in key:
            side, unit_id = ("source", pair.src_id) if key[0] is None else ("target", pair.tgt_id)
            raise ValueError(f"unknown {side} unit {unit_id!r}")
        entry = grouped.setdefault(key, [0, 0.0])
        entry[0] += 1
        entry[1] += pair.margin
    counts_src = Counter(doc_of_src.values())
    counts_tgt = Counter(doc_of_tgt.values())
    return [
        DocPairScore(src_doc, tgt_doc, counts_src[src_doc], counts_tgt[tgt_doc], n_aligned,
                     margin_sum)
        for (src_doc, tgt_doc), (n_aligned, margin_sum) in sorted(grouped.items())
    ]


def require_threshold(threshold: float) -> None:
    """Reject a dac threshold outside [0, 1]."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold {threshold} outside [0, 1]")


def require_thresholds(thresholds: Sequence[float]) -> None:
    """Reject dac thresholds not sorted ascending, then any outside [0, 1]."""
    if any(b < a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError("thresholds must be sorted ascending")
    for threshold in thresholds:
        require_threshold(threshold)


def select_pairs(
    scores: Sequence[DocPairScore],
    threshold: float = DEFAULT_THRESHOLD,
    one_to_one: bool = True,
) -> list[DocPairScore]:
    """Keep pairs at or above the threshold; by default greedily enforce one
    match per document, strongest first.

    The threshold must lie in [0, 1].  Candidates are ranked by descending
    dac, then descending margin_sum, then (src_doc, tgt_doc).  The selection
    is sorted by (src_doc, tgt_doc).
    """
    require_threshold(threshold)
    surviving = [s for s in scores if s.dac >= threshold]
    surviving.sort(key=lambda s: (-s.dac, -s.margin_sum, s.src_doc, s.tgt_doc))
    if one_to_one:
        taken_src: set[str] = set()
        taken_tgt: set[str] = set()
        chosen = []
        for candidate in surviving:
            if candidate.src_doc in taken_src or candidate.tgt_doc in taken_tgt:
                continue
            taken_src.add(candidate.src_doc)
            taken_tgt.add(candidate.tgt_doc)
            chosen.append(candidate)
    else:
        chosen = surviving
    chosen.sort(key=lambda s: (s.src_doc, s.tgt_doc))
    return chosen


def mine_chunk_pairs(
    src_docs: Sequence[Document],
    tgt_docs: Sequence[Document],
    src_embeddings: EmbeddingMatrix,
    tgt_embeddings: EmbeddingMatrix,
    granularity: Granularity = Granularity(1),
    params: MarginParams = MarginParams(),
    workers: int = 1,
) -> tuple[list[AlignedUnitPair], list[DocPairScore]]:
    """Segment both corpora, mine chunk pairs globally across them and score
    every document pair they join.

    Mining is global: every source chunk competes against every target chunk,
    and document pairs only emerge from where mined chunks concentrate.
    params.min_margin optionally discards mined chunk pairs below the given
    margin before aggregation.  Returns the mined pairs and the aggregated
    document-pair scores.
    """
    src_units = [unit for doc in src_docs for unit in segment(doc, granularity)]
    tgt_units = [unit for doc in tgt_docs for unit in segment(doc, granularity)]
    x = src_embeddings.select([unit.unit_id for unit in src_units])
    y = tgt_embeddings.select([unit.unit_id for unit in tgt_units])
    pairs = greedy_match(margin_scores(x, y, params, workers=workers))
    return pairs, aggregate(pairs, src_units, tgt_units)


def align_documents_dac(
    src_docs: Sequence[Document],
    tgt_docs: Sequence[Document],
    src_embeddings: EmbeddingMatrix,
    tgt_embeddings: EmbeddingMatrix,
    granularity: Granularity = Granularity(1),
    params: MarginParams = MarginParams(),
    threshold: float = DEFAULT_THRESHOLD,
    workers: int = 1,
    one_to_one: bool = True,
) -> list[DocPairScore]:
    """Full chunk-based path: mine globally, aggregate per document pair,
    threshold and select."""
    _, scores = mine_chunk_pairs(
        src_docs, tgt_docs, src_embeddings, tgt_embeddings, granularity, params, workers
    )
    return select_pairs(scores, threshold, one_to_one)


def write_scores_tsv(scores: Sequence[DocPairScore], path: str | Path) -> None:
    """Dump document pairs as src_doc, tgt_doc, n_src, n_tgt, n_aligned, dac."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("# src_doc\ttgt_doc\tn_src\tn_tgt\tn_aligned\tdac\n")
        for s in scores:
            handle.write(
                f"{s.src_doc}\t{s.tgt_doc}\t{s.n_src}\t{s.n_tgt}\t{s.n_aligned}\t{s.dac:.6f}\n"
            )
