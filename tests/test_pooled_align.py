import numpy as np
import pytest

from chunkalign.corpus import Granularity
from chunkalign.dac import align_documents_dac
from chunkalign.embed_store import EmbeddingMatrix
from chunkalign.miner import MarginParams
from chunkalign.pooled import align_documents_pooled, pool_corpus
from chunkalign.pooling import PoolingMethod
from synth import planted_corpus


class TestPoolCorpus:
    def test_one_row_per_document(self):
        src_docs, _, src_emb, _, _ = planted_corpus(n_pairs=4, chunks_per_doc=3, n_noise=1)
        pooled = pool_corpus(src_docs, src_emb, PoolingMethod.MP)
        assert pooled.ids == [d.doc_id for d in src_docs]
        assert len(pooled) == 5
        norms = np.linalg.norm(pooled.data.astype(np.float64), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-5)

    def test_empty_corpus_rejected(self):
        _, _, src_emb, _, _ = planted_corpus(n_pairs=1, chunks_per_doc=1, n_noise=0)
        with pytest.raises(ValueError, match="empty corpus"):
            pool_corpus([], src_emb, PoolingMethod.MP)

    def test_missing_unit_embedding(self):
        src_docs, _, src_emb, _, _ = planted_corpus(n_pairs=2, chunks_per_doc=2, n_noise=0)
        truncated = EmbeddingMatrix(ids=src_emb.ids[:-1], data=src_emb.data[:-1])
        with pytest.raises(KeyError, match="no embedding for id"):
            pool_corpus(src_docs, truncated, PoolingMethod.MP)

    def test_idf_methods_build_table_automatically(self):
        src_docs, _, src_emb, _, _ = planted_corpus(n_pairs=3, chunks_per_doc=2, n_noise=0)
        pooled = pool_corpus(src_docs, src_emb, PoolingMethod.LIDF)
        assert len(pooled) == 3


class TestAlignDocumentsPooled:
    def test_identical_corpora_twin_recovery(self):
        src_docs, tgt_docs, src_emb, tgt_emb, gold = planted_corpus(
            n_pairs=12, chunks_per_doc=3, n_noise=0, perturbation=0.0)
        pairs = align_documents_pooled(src_docs, tgt_docs, src_emb, tgt_emb,
                                       PoolingMethod.MP, MarginParams(k=4))
        assert {(p.src_id, p.tgt_id) for p in pairs} == gold.pairs

    def test_planted_recovery_with_noise(self):
        src_docs, tgt_docs, src_emb, tgt_emb, gold = planted_corpus(
            n_pairs=15, chunks_per_doc=3, n_noise=6)
        pairs = align_documents_pooled(src_docs, tgt_docs, src_emb, tgt_emb,
                                       PoolingMethod.MP, MarginParams(k=4))
        predicted = {(p.src_id, p.tgt_id) for p in pairs}
        assert predicted >= gold.pairs

    def test_lidf_path_recovers_too(self):
        src_docs, tgt_docs, src_emb, tgt_emb, gold = planted_corpus(
            n_pairs=8, chunks_per_doc=3, n_noise=3)
        pairs = align_documents_pooled(src_docs, tgt_docs, src_emb, tgt_emb,
                                       PoolingMethod.LIDF, MarginParams(k=4))
        predicted = {(p.src_id, p.tgt_id) for p in pairs}
        assert predicted >= gold.pairs

    def test_agrees_with_chunk_path_on_single_unit_docs(self):
        # one sentence per document: pooling is the identity, so both paths
        # see the same geometry and must pick the same document pairs
        src_docs, tgt_docs, src_emb, tgt_emb, _ = planted_corpus(
            n_pairs=10, chunks_per_doc=1, n_noise=4)
        pooled_pairs = align_documents_pooled(src_docs, tgt_docs, src_emb, tgt_emb,
                                              PoolingMethod.MP, MarginParams(k=4))
        dac_scores = align_documents_dac(
            src_docs, tgt_docs, src_emb, tgt_emb, Granularity(1), MarginParams(k=4),
            threshold=0.0)
        pooled_set = {(p.src_id, p.tgt_id) for p in pooled_pairs}
        dac_set = {(s.src_doc, s.tgt_doc) for s in dac_scores}
        assert pooled_set == dac_set

    def test_pair_ids_are_document_ids(self):
        src_docs, tgt_docs, src_emb, tgt_emb, _ = planted_corpus(
            n_pairs=3, chunks_per_doc=2, n_noise=0)
        pairs = align_documents_pooled(src_docs, tgt_docs, src_emb, tgt_emb,
                                       PoolingMethod.MP, MarginParams(k=2))
        doc_ids = {d.doc_id for d in src_docs} | {d.doc_id for d in tgt_docs}
        for p in pairs:
            assert p.src_id in doc_ids
            assert p.tgt_id in doc_ids
            assert "#" not in p.src_id
