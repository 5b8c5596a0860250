"""Document-level embeddings from unit embeddings via weighted mean pooling."""

from __future__ import annotations

import functools
import math
import unicodedata
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .corpus import ChunkUnit, Document


class PoolingMethod(Enum):
    """How unit vectors are weighted when pooled into one document vector."""

    MP = "mp"      # plain mean
    LP = "lp"      # weight = unit token count
    IDF = "idf"    # weight = mean idf of the unit's tokens
    LIDF = "lidf"  # weight = token count x mean idf

    @classmethod
    def from_string(cls, text: str) -> "PoolingMethod":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            choices = ", ".join(m.name for m in cls)
            raise ValueError(f"unknown pooling method {text!r} (choose from {choices})") from None

    @property
    def needs_idf(self) -> bool:
        return self in (PoolingMethod.IDF, PoolingMethod.LIDF)


def tokenize(text: str) -> list[str]:
    """Whitespace tokens, NFC-normalized, case preserved; one NFC pass equals one per token."""
    return unicodedata.normalize("NFC", text).split()


@dataclass(frozen=True)
class IdfTable:
    """Smoothed inverse document frequencies over one corpus side."""

    doc_count: int
    df: dict[str, int]

    def __post_init__(self) -> None:
        if self.doc_count < 1:
            raise ValueError(f"doc_count must be >= 1, got {self.doc_count}")
        for token, count in self.df.items():
            if not 1 <= count <= self.doc_count:
                raise ValueError(
                    f"document frequency {count} for token {token!r} outside [1, {self.doc_count}]"
                )

    def idf(self, token: str) -> float:
        """ln((1 + N) / (1 + df)) + 1; at least 1 for seen tokens, maximal for unseen."""
        return math.log((1 + self.doc_count) / (1 + self.df.get(token, 0))) + 1.0


def build_idf(documents: Sequence[Document]) -> IdfTable:
    """Count, for each token, how many documents contain it."""
    if not documents:
        raise ValueError("cannot build an idf table from an empty document list")
    df: dict[str, int] = {}
    for doc in documents:
        for token in {token for sentence in doc.sentences for token in tokenize(sentence)}:
            df[token] = df.get(token, 0) + 1
    return IdfTable(doc_count=len(documents), df=df)


def unit_weights(
    units: Sequence[tuple[str, int]], method: PoolingMethod, idf: IdfTable | None
) -> np.ndarray:
    """Float64 weights of units given as (text, token count); no tokens, no idf weight."""
    if method.needs_idf != (idf is not None):
        rule = "requires" if method.needs_idf else "does not take"
        raise ValueError(f"{method.name} pooling {rule} an idf table")
    idf_of = functools.cache(idf.idf) if idf is not None else None  # once per distinct token
    weights = []
    for text, count in units:
        weight = float(count) if method in (PoolingMethod.LP, PoolingMethod.LIDF) else 1.0
        if idf_of is not None:
            tokens = tokenize(text)
            # Python's sum in token order: np.sum or reduceat would round differently
            weight *= sum(map(idf_of, tokens)) / len(tokens) if tokens else 0.0
        weights.append(weight)
    return np.array(weights, dtype=np.float64)


def pool_rows(
    rows: np.ndarray, weights: np.ndarray, doc_id: str, method: PoolingMethod
) -> np.ndarray:
    """L2-normalized weighted sum of one document's rows, as float32; errors name the doc."""
    if not weights.any():
        raise ValueError(f"all unit weights are zero for doc {doc_id!r} under {method.name}")
    pooled = rows.astype(np.float64).T @ weights
    norm = float(np.linalg.norm(pooled))
    if norm == 0.0:
        raise ValueError(f"pooled vector for doc {doc_id!r} cancels to zero")
    return (pooled / norm).astype(np.float32)


def pool_document(
    units: Sequence[ChunkUnit], rows: np.ndarray, method: PoolingMethod, idf: IdfTable | None = None
) -> np.ndarray:
    """L2-normalized weighted mean of the unit rows (rows[i] embeds units[i]), as float32."""
    if not units:
        raise ValueError("cannot pool a document with no units")
    rows = np.asarray(rows, dtype=np.float32)
    if rows.ndim != 2 or rows.shape[0] != len(units):
        raise ValueError(f"expected {len(units)} embedding rows, got shape {rows.shape}")
    weights = unit_weights([(unit.text, unit.token_count) for unit in units], method, idf)
    return pool_rows(rows, weights, units[0].doc_id, method)
