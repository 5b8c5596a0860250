"""Parallel document mining by chunk-level embedding alignment."""

__version__ = "0.1.0"

from .corpus import ChunkUnit, Document, Granularity, load_corpus, segment
from .dac import (
    DocPairScore,
    aggregate,
    align_documents_dac,
    compute_dac,
    select_pairs,
)
from .embed_store import (
    EmbeddingMatrix,
    normalize,
    read_matrix,
    write_matrix,
)
from .evaluation import (
    EvalReport,
    GoldSet,
    NoiseConfig,
    inject_noise,
    load_gold,
    load_pairs,
    score,
    sweep_thresholds,
)
from .miner import AlignedUnitPair, MarginParams, greedy_match, margin_scores, mine
from .pooled import align_documents_pooled, pool_corpus
from .pooling import PoolingMethod, build_idf

__all__ = [
    "AlignedUnitPair",
    "ChunkUnit",
    "DocPairScore",
    "Document",
    "EmbeddingMatrix",
    "EvalReport",
    "GoldSet",
    "Granularity",
    "MarginParams",
    "NoiseConfig",
    "PoolingMethod",
    "aggregate",
    "align_documents_dac",
    "align_documents_pooled",
    "build_idf",
    "compute_dac",
    "greedy_match",
    "inject_noise",
    "load_corpus",
    "load_gold",
    "load_pairs",
    "margin_scores",
    "mine",
    "normalize",
    "pool_corpus",
    "read_matrix",
    "score",
    "segment",
    "select_pairs",
    "sweep_thresholds",
    "write_matrix",
]
