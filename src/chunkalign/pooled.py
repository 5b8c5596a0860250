"""Whole-document alignment over pooled unit embeddings."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .corpus import Document, make_unit_id
from .embed_store import EmbeddingMatrix
from .miner import AlignedUnitPair, MarginParams, mine
from .pooling import IdfTable, PoolingMethod, build_idf, pool_rows, unit_weights


def pool_corpus(
    documents: Sequence[Document],
    unit_embeddings: EmbeddingMatrix,
    method: PoolingMethod,
    idf: IdfTable | None = None,
) -> EmbeddingMatrix:
    """One pooled row per document, ids = doc ids, each as pool_document pools it.

    unit_embeddings must hold a normalized row for every sentence unit of every
    document; idf, when the method needs it and none is passed, comes from them.
    """
    if not documents:
        raise ValueError("cannot pool an empty corpus")
    if method.needs_idf and idf is None:
        idf = build_idf(documents)
    ids = [make_unit_id(doc.doc_id, i) for doc in documents for i in range(len(doc.sentences))]
    rows = unit_embeddings.select(ids).data
    weights = unit_weights([(s, len(s.split())) for doc in documents for s in doc.sentences],
                           method, idf)
    # a document's rows are contiguous, so one split hands each its own
    cuts = np.cumsum([len(doc.sentences) for doc in documents])[:-1]
    vectors = [pool_rows(r, w, doc.doc_id, method)
               for doc, r, w in zip(documents, np.split(rows, cuts), np.split(weights, cuts))]
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
    The returned pair ids are document ids.
    """
    x = pool_corpus(src_docs, src_embeddings, method)
    y = pool_corpus(tgt_docs, tgt_embeddings, method)
    return mine(x, y, params, workers=workers)
