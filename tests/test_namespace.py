import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chunkalign

# the public names and the module that defines each
DEFINED_IN = {
    "AlignedUnitPair": "miner", "ChunkUnit": "corpus", "DocPairScore": "dac",
    "Document": "corpus", "EmbeddingMatrix": "embed_store", "EvalReport": "evaluation",
    "GoldSet": "evaluation", "Granularity": "corpus", "MarginParams": "miner",
    "NoiseConfig": "evaluation", "PoolingMethod": "pooling", "aggregate": "dac",
    "align_documents_dac": "dac", "align_documents_pooled": "pooled", "build_idf": "pooling",
    "compute_dac": "dac", "greedy_match": "miner", "inject_noise": "evaluation",
    "load_corpus": "corpus", "load_gold": "evaluation", "load_pairs": "evaluation",
    "margin_scores": "miner", "normalize": "embed_store",
    "pool_corpus": "pooled", "read_matrix": "embed_store", "read_normalized": "embed_store",
    "score": "evaluation",
    "segment": "corpus", "select_pairs": "dac", "sweep_thresholds": "evaluation",
    "write_matrix": "embed_store",
}


def test_all_lists_the_public_names():
    assert sorted(chunkalign.__all__) == sorted(DEFINED_IN)
    assert len(set(chunkalign.__all__)) == len(chunkalign.__all__)


@pytest.mark.parametrize("name", sorted(DEFINED_IN))
def test_name_is_its_module_object(name):
    namespace = {}
    exec(f"from chunkalign import {name}", namespace)
    module = importlib.import_module(f"chunkalign.{DEFINED_IN[name]}")
    assert namespace[name] is getattr(module, name)


def test_star_import_binds_every_name():
    # in a fresh interpreter, so that no name is bound before the star import
    src = str(Path(chunkalign.__file__).resolve().parents[1])
    probe = ("from chunkalign import *; import chunkalign; "
             "print(sorted(set(chunkalign.__all__) - set(globals())))")
    result = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_dir_lists_every_name():
    assert set(chunkalign.__all__) <= set(dir(chunkalign))
    assert "__version__" in dir(chunkalign)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'chunkalign' has no attribute 'nope'"):
        chunkalign.nope
    with pytest.raises(ImportError):
        exec("from chunkalign import nope", {})
