"""Parallel document mining by chunk-level embedding alignment.

The public names below are imported from their modules on first use
(PEP 562), so ``import chunkalign`` or ``import chunkalign.cli`` loads
neither numpy nor the mining modules until a name that needs them is used.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines; __all__ is derived from this table
_EXPORTS = {
    "corpus": ["ChunkUnit", "Document", "Granularity", "load_corpus", "segment"],
    "dac": ["DocPairScore", "aggregate", "align_documents_dac", "compute_dac", "select_pairs"],
    "embed_store": ["EmbeddingMatrix", "normalize", "read_matrix", "read_normalized",
                    "write_matrix"],
    "evaluation": ["EvalReport", "GoldSet", "NoiseConfig", "inject_noise", "load_gold",
                   "load_pairs", "score", "sweep_thresholds"],
    "miner": ["AlignedUnitPair", "MarginParams", "greedy_match", "margin_scores"],
    "pooled": ["align_documents_pooled", "pool_corpus"],
    "pooling": ["PoolingMethod", "build_idf"],
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
