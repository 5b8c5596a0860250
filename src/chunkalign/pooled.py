"""Whole-document alignment over pooled unit embeddings."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .corpus import Document, make_unit_id
from .embed_store import EmbeddingMatrix
from .miner import AlignedUnitPair, MarginParams, greedy_match, margin_scores
from .pooling import PoolingMethod, build_idf, unit_weights


def pool_corpus(
    documents: Sequence[Document],
    unit_embeddings: EmbeddingMatrix,
    method: PoolingMethod,
) -> EmbeddingMatrix:
    """One row per document, ids = doc ids: the L2-normalized weighted sum of
    its sentence rows, as float32.

    unit_embeddings must hold a normalized row for every sentence unit of every
    document.  IDF and LIDF take idf over these documents alone.
    """
    if not documents:
        raise ValueError("cannot pool an empty corpus")
    idf = build_idf(documents) if method.needs_idf else None
    ids = [make_unit_id(doc.doc_id, i) for doc in documents for i in range(len(doc.sentences))]
    rows = unit_embeddings.select(ids).data
    weights = unit_weights([s for doc in documents for s in doc.sentences], method, idf)
    # a document's rows are contiguous, so one split hands each its own
    cuts = np.cumsum([len(doc.sentences) for doc in documents])[:-1]
    vectors = []
    for doc, doc_rows, doc_weights in zip(documents, np.split(rows, cuts), np.split(weights, cuts)):
        pooled = doc_rows.astype(np.float64).T @ doc_weights
        norm = float(np.linalg.norm(pooled))
        if norm == 0.0:
            raise ValueError(f"pooled vector for doc {doc.doc_id!r} cancels to zero")
        vectors.append((pooled / norm).astype(np.float32))
    return EmbeddingMatrix(ids=[doc.doc_id for doc in documents], data=np.vstack(vectors))


def align_documents_pooled(
    src_docs: Sequence[Document],
    tgt_docs: Sequence[Document],
    src_embeddings: EmbeddingMatrix,
    tgt_embeddings: EmbeddingMatrix,
    method: PoolingMethod,
    params: MarginParams = MarginParams(),
    workers: int = 1,
) -> list[AlignedUnitPair]:
    """Pool each side into document vectors, then mine document pairs directly.

    Idf statistics, when the method needs them, are computed per corpus side.
    The returned pair ids are document ids.  Each sentence matrix is released
    once its side is pooled, freed when the caller keeps no reference to it.
    """
    x = pool_corpus(src_docs, src_embeddings, method)
    del src_embeddings
    y = pool_corpus(tgt_docs, tgt_embeddings, method)
    del tgt_embeddings
    return greedy_match(margin_scores(x, y, params, workers=workers))
