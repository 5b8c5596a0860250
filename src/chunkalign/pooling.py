"""Unit weights for pooling unit embeddings into document embeddings."""

from __future__ import annotations

import functools
import math
import operator
import unicodedata
from enum import Enum
from typing import Sequence

import numpy as np

from .corpus import Document


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


def build_idf(documents: Sequence[Document]) -> dict[str, float]:
    """Smoothed idf, ln((1 + N) / (1 + df)) + 1, of every token of N documents."""
    if not documents:
        raise ValueError("cannot build an idf table from an empty document list")
    df: dict[str, int] = {}
    for doc in documents:
        for token in {token for sentence in doc.sentences for token in tokenize(sentence)}:
            df[token] = df.get(token, 0) + 1
    n = len(documents)
    return {token: math.log((1 + n) / (1 + count)) + 1.0 for token, count in df.items()}


def unit_weights(
    texts: Sequence[str], method: PoolingMethod, idf: dict[str, float] | None
) -> np.ndarray:
    """Float64 weights of non-blank unit texts; idf must cover their tokens for IDF and LIDF."""
    if method is PoolingMethod.MP:
        return np.ones(len(texts))
    if method is PoolingMethod.LP:
        return np.array([len(text.split()) for text in texts], dtype=np.float64)
    weights = []
    for text in texts:
        tokens = tokenize(text)
        # a plain left-to-right sum in token order: np.sum or reduceat round
        # differently, and so does sum() of floats from Python 3.12 on
        mean = functools.reduce(operator.add, map(idf.__getitem__, tokens), 0.0) / len(tokens)
        weights.append(len(tokens) * mean if method is PoolingMethod.LIDF else mean)
    return np.array(weights, dtype=np.float64)
