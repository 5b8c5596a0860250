import math

import numpy as np
import pytest

from chunkalign.corpus import Document, Granularity, segment
from chunkalign.dac import align_documents_dac
from chunkalign.embed_store import EmbeddingMatrix
from chunkalign.miner import MarginParams
from chunkalign.pooled import align_documents_pooled, pool_corpus
from chunkalign.pooling import PoolingMethod
from oracles import pooled_oracle, pooling_weights_oracle
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

    def test_cancellation_names_doc(self):
        docs = [Document("fine", "xx", ("one", "two")), Document("cancel", "xx", ("a", "b"))]
        emb = EmbeddingMatrix(ids=["fine#0", "fine#1", "cancel#0", "cancel#1"],
                              data=[[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match="pooled vector for doc 'cancel' cancels to zero"):
            pool_corpus(docs, emb, PoolingMethod.MP)

    @pytest.mark.parametrize("method", list(PoolingMethod))
    def test_extra_and_shuffled_rows_change_nothing(self, method):
        # rows of units outside the documents, and any row order, leave every
        # pooled vector bit-identical
        docs, _, emb, _, _ = planted_corpus(n_pairs=4, chunks_per_doc=3, n_noise=1)
        extra = np.eye(emb.dim, dtype=np.float32)[:2]
        perm = np.random.default_rng(4).permutation(len(emb) + 2)
        ids = emb.ids + ["other#0", "other#1"]
        padded = EmbeddingMatrix(ids=[ids[i] for i in perm],
                                 data=np.vstack([emb.data, extra])[perm])
        expected = pool_corpus(docs, emb, method)
        assert pool_corpus(docs, padded, method).data.tobytes() == expected.data.tobytes()

    def test_idf_is_taken_over_the_pooled_documents(self):
        # a document that shares "alpha" lowers its idf, which moves doc a's
        # IDF vector towards its other sentence; mean pooling does not move
        docs = [Document("a", "xx", ("alpha", "beta")), Document("b", "xx", ("gamma",))]
        more = docs + [Document("c", "xx", ("alpha",))]
        emb = EmbeddingMatrix(ids=["a#0", "a#1", "b#0", "c#0"],
                              data=[[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        for method in (PoolingMethod.MP, PoolingMethod.LP):
            assert (pool_corpus(docs, emb, method).data[0].tobytes()
                    == pool_corpus(more, emb, method).data[0].tobytes())
        for method in (PoolingMethod.IDF, PoolingMethod.LIDF):
            alone = pool_corpus(docs, emb, method).data[0]
            shared = pool_corpus(more, emb, method).data[0]
            np.testing.assert_allclose(alone, [math.sqrt(0.5)] * 2, atol=1e-7)
            assert shared[0] < shared[1]


# decomposed accents (NFD) that NFC composes, a doc id holding '#', tokens
# shared across documents and a one-sentence document
NFD_DOCS = [
    Document("a", "xx", ("cafe\u0301 au lait", "the the cafe\u0301", "rare")),
    Document("b#1", "xx", ("café noir", "e\u0301te\u0301  chaud au", "lait")),
    Document("c", "xx", ("only",)),
]


def shuffled_unit_matrix(docs, seed, dim=6):
    """Normalized random rows for every sentence unit, stored in shuffled order."""
    ids = [u.unit_id for doc in docs for u in segment(doc, Granularity(1))]
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((len(ids), dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    perm = rng.permutation(len(ids))
    return EmbeddingMatrix(ids=[ids[i] for i in perm], data=rows[perm])


class TestPoolCorpusMatchesOracle:
    @pytest.mark.parametrize("method", list(PoolingMethod))
    @pytest.mark.parametrize("corpus", ["nfd", "planted"])
    def test_matches_plain_loop_oracle(self, method, corpus):
        if corpus == "nfd":
            docs, emb = NFD_DOCS, shuffled_unit_matrix(NFD_DOCS, seed=3)
        else:
            docs, _, emb, _, _ = planted_corpus(n_pairs=6, chunks_per_doc=4, n_noise=2)
        pooled = pool_corpus(docs, emb, method)
        assert pooled.ids == [doc.doc_id for doc in docs]
        for doc, row, weights in zip(docs, pooled.data, pooling_weights_oracle(docs, method)):
            rows = emb.select([u.unit_id for u in segment(doc, Granularity(1))]).data
            np.testing.assert_allclose(row, pooled_oracle(rows, weights), atol=1e-6)

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
