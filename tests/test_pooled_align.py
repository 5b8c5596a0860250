import numpy as np
import pytest

from chunkalign.corpus import Document, Granularity, segment
from chunkalign.dac import align_documents_dac
from chunkalign.embed_store import EmbeddingMatrix
from chunkalign.miner import MarginParams
from chunkalign.pooled import align_documents_pooled, pool_corpus
from chunkalign.pooling import IdfTable, PoolingMethod, build_idf, pool_document
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


class TestPoolCorpusMatchesPoolDocument:
    @pytest.mark.parametrize("method, table", [
        (PoolingMethod.MP, None), (PoolingMethod.LP, None),
        (PoolingMethod.IDF, "own"), (PoolingMethod.IDF, "foreign"),
        (PoolingMethod.LIDF, "own"), (PoolingMethod.LIDF, "foreign"),
    ])
    @pytest.mark.parametrize("corpus", ["nfd", "planted"])
    def test_bit_equal_to_per_document_loop(self, method, table, corpus):
        if corpus == "nfd":
            docs, emb = NFD_DOCS, shuffled_unit_matrix(NFD_DOCS, seed=3)
        else:
            docs, _, emb, _, _ = planted_corpus(n_pairs=6, chunks_per_doc=4, n_noise=2)
        if table is None:
            passed = expected_idf = None
        elif table == "own":  # pool_corpus builds it from the documents
            passed, expected_idf = None, build_idf(docs)
        else:  # a table from another corpus lacks most of these documents' tokens
            passed = expected_idf = build_idf([
                Document("z", "xx", ("unrelated words", "café lait")),
                Document("y", "xx", ("words only",)),
            ])
        pooled = pool_corpus(docs, emb, method, idf=passed)
        assert pooled.ids == [doc.doc_id for doc in docs]
        for doc, row in zip(docs, pooled.data):
            units = segment(doc, Granularity(1))
            rows = emb.select([u.unit_id for u in units]).data
            expected = pool_document(units, rows, method, idf=expected_idf)
            assert row.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("method", [PoolingMethod.MP, PoolingMethod.LP])
    def test_idf_table_rejected_for_plain_methods(self, method):
        idf = build_idf(NFD_DOCS)
        with pytest.raises(ValueError, match=f"{method.name} pooling does not take an idf table"):
            pool_corpus(NFD_DOCS, shuffled_unit_matrix(NFD_DOCS, seed=3), method, idf=idf)

    def test_all_zero_weights_names_doc(self):
        # a built table gives every token an idf of at least 1, so only a
        # table whose idf is zero everywhere can zero a document's weights
        class ZeroIdf(IdfTable):
            def idf(self, token):
                return 0.0

        with pytest.raises(ValueError, match="all unit weights are zero for doc 'a' under IDF"):
            pool_corpus(NFD_DOCS, shuffled_unit_matrix(NFD_DOCS, seed=3), PoolingMethod.IDF,
                        idf=ZeroIdf(doc_count=1, df={}))

    def test_cancellation_names_doc(self):
        docs = [Document("fine", "xx", ("one", "two")), Document("cancel", "xx", ("a", "b"))]
        emb = EmbeddingMatrix(ids=["fine#0", "fine#1", "cancel#0", "cancel#1"],
                              data=[[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match="pooled vector for doc 'cancel' cancels to zero"):
            pool_corpus(docs, emb, PoolingMethod.MP)


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
