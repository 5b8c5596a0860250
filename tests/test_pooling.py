import math

import numpy as np
import pytest

from chunkalign.corpus import Document
from chunkalign.embed_store import EmbeddingMatrix
from chunkalign.pooled import pool_corpus
from chunkalign.pooling import PoolingMethod, build_idf, tokenize, unit_weights
from oracles import pooled_oracle, pooling_weights_oracle


def pool_one(sentences, rows, method, doc_id="d"):
    """pool_corpus over one document whose sentence i is embedded by rows[i]."""
    doc = Document(doc_id, "xx", tuple(sentences))
    emb = EmbeddingMatrix(ids=[f"{doc_id}#{i}" for i in range(len(sentences))],
                          data=np.asarray(rows, dtype=np.float32))
    return pool_corpus([doc], emb, method).data[0]


class TestTokenize:
    def test_whitespace_split(self):
        assert tokenize("the  cat\tsat\n") == ["the", "cat", "sat"]

    def test_case_preserved(self):
        assert tokenize("The THE the") == ["The", "THE", "the"]

    def test_nfc_normalization(self):
        # decomposed e + combining acute collapses to the precomposed form
        assert tokenize("café") == ["café"]

    def test_empty(self):
        assert tokenize("   ") == []


class TestPoolingMethod:
    def test_from_string_case_insensitive(self):
        assert PoolingMethod.from_string("mp") is PoolingMethod.MP
        assert PoolingMethod.from_string(" LIDF ") is PoolingMethod.LIDF

    def test_from_string_unknown(self):
        with pytest.raises(ValueError, match="unknown pooling method 'avg'"):
            PoolingMethod.from_string("avg")

    def test_needs_idf(self):
        assert not PoolingMethod.MP.needs_idf
        assert not PoolingMethod.LP.needs_idf
        assert PoolingMethod.IDF.needs_idf
        assert PoolingMethod.LIDF.needs_idf


class TestBuildIdf:
    def test_single_doc_of_three(self):
        docs = [
            Document("a", "xx", ("alpha beta",)),
            Document("b", "xx", ("beta gamma",)),
            Document("c", "xx", ("beta delta",)),
        ]
        idf = build_idf(docs)
        assert idf["alpha"] == pytest.approx(math.log(4 / 2) + 1, abs=1e-12)
        assert idf["alpha"] == pytest.approx(1.6931471805599454, abs=1e-12)

    def test_everywhere_token_floors_near_one(self):
        docs = [Document(str(i), "xx", ("common",)) for i in range(5)]
        idf = build_idf(docs)
        assert idf["common"] == pytest.approx(math.log(6 / 6) + 1, abs=1e-12)
        assert idf["common"] == pytest.approx(1.0, abs=1e-12)

    def test_df_counts_documents_not_occurrences(self):
        docs = [
            Document("a", "xx", ("hello hello hello",)),
            Document("b", "xx", ("bye",)),
        ]
        idf = build_idf(docs)
        assert idf == {"hello": math.log(3 / 2) + 1, "bye": math.log(3 / 2) + 1}

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty document list"):
            build_idf([])

    def test_df_counts_a_document_once_across_its_sentences(self):
        docs = [
            Document("a", "xx", ("x y", "x", "y x")),
            Document("b", "xx", ("z",)),
        ]
        idf = build_idf(docs)
        assert idf["x"] == math.log(3 / 2) + 1

    def test_nfd_and_nfc_spellings_are_one_token(self):
        docs = [
            Document("a", "xx", ("cafe\u0301",)),
            Document("b", "xx", ("caf\u00e9",)),
            Document("c", "xx", ("lait",)),
        ]
        idf = build_idf(docs)
        assert set(idf) == {"caf\u00e9", "lait"}
        assert idf["caf\u00e9"] == math.log(4 / 3) + 1

    def test_every_token_of_the_documents_has_idf_at_least_one(self):
        # df never exceeds N, so no own-side idf, and no IDF or LIDF weight,
        # can be zero
        rng = np.random.default_rng(11)
        vocab = [f"w{i}" for i in range(30)]
        docs = [Document(str(d), "xx", tuple(" ".join(rng.choice(vocab, rng.integers(1, 6)))
                                             for _ in range(rng.integers(1, 4))))
                for d in range(12)]
        idf = build_idf(docs)
        assert set(idf) == {t for doc in docs for s in doc.sentences for t in tokenize(s)}
        assert min(idf.values()) >= 1.0


class TestUnitWeights:
    def test_idf_sum_is_a_left_to_right_fold(self):
        # idf(a) + idf(b) + idf(c) rounds to ...614 from the left and to
        # ...613 exactly (as compensated sums, like sum() from Python 3.12
        # on, give it); the weight must not depend on the interpreter
        idf = build_idf([Document("x", "xx", ("a b c",)), Document("y", "xx", ("b",))])
        idfs = [idf[token] for token in "abc"]
        assert (idfs[0] + idfs[1]) + idfs[2] == float.fromhex("0x1.e7cc8fb2fe614p+1")
        assert math.fsum(idfs) == float.fromhex("0x1.e7cc8fb2fe613p+1")
        [idf_weight] = unit_weights(["a b c"], PoolingMethod.IDF, idf)
        assert idf_weight == float.fromhex("0x1.e7cc8fb2fe614p+1") / 3
        [lidf_weight] = unit_weights(["a b c"], PoolingMethod.LIDF, idf)
        assert lidf_weight == 3 * (float.fromhex("0x1.e7cc8fb2fe614p+1") / 3)

    def test_mp_weights_are_ones(self):
        weights = unit_weights(["a b", "c"], PoolingMethod.MP, None)
        assert weights.dtype == np.float64
        assert weights.tolist() == [1.0, 1.0]

    def test_lp_counts_whitespace_tokens(self):
        weights = unit_weights(["a  b\tc\n", "d"], PoolingMethod.LP, None)
        assert weights.dtype == np.float64
        assert weights.tolist() == [3.0, 1.0]

    def test_idf_is_mean_and_lidf_is_count_times_mean(self):
        idf = {"a": 1.0, "b": 2.0, "c": 4.5}
        assert unit_weights(["a b", "c a c"], PoolingMethod.IDF, idf).tolist() == [1.5, 10.0 / 3]
        assert unit_weights(["a b", "c a c"], PoolingMethod.LIDF, idf).tolist() == [
            2 * 1.5, 3 * (10.0 / 3)]

    def test_nfd_token_reads_its_nfc_idf(self):
        idf = {"caf\u00e9": 2.5, "noir": 1.0}
        assert unit_weights(["cafe\u0301 noir"], PoolingMethod.IDF, idf).tolist() == [1.75]
        assert unit_weights(["cafe\u0301 noir"], PoolingMethod.LP, None).tolist() == [2.0]


class TestPooledVector:
    def test_mean_pool_two_orthogonal(self):
        pooled = pool_one(["one", "two"], [[1.0, 0.0], [0.0, 1.0]], PoolingMethod.MP)
        np.testing.assert_allclose(pooled, [0.70710678, 0.70710678], atol=1e-6)

    def test_length_pool_weights_by_tokens(self):
        pooled = pool_one(["a b c", "d"], [[1.0, 0.0], [0.0, 1.0]], PoolingMethod.LP)
        # (3,1) normalized: 3/sqrt(10), 1/sqrt(10)
        np.testing.assert_allclose(pooled, [0.9486833, 0.31622777], atol=1e-6)

    def test_single_unit_identity(self):
        for method in PoolingMethod:
            pooled = pool_one(["only"], [[0.6, 0.8]], method)
            np.testing.assert_allclose(pooled, [0.6, 0.8], atol=1e-7)

    def test_mp_equals_lp_for_equal_lengths(self):
        rng = np.random.default_rng(42)
        rows = rng.standard_normal((3, 8)).astype(np.float32)
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        mp = pool_one(["w x", "y z", "p q"], rows, PoolingMethod.MP)
        lp = pool_one(["w x", "y z", "p q"], rows, PoolingMethod.LP)
        np.testing.assert_allclose(mp, lp, atol=1e-7)

    def test_matches_oracle_all_methods(self):
        rng = np.random.default_rng(1234)
        docs = [
            Document("a", "xx", ("alpha beta gamma", "beta beta", "rare words here")),
            Document("b", "xx", ("alpha only",)),
            Document("c", "xx", ("gamma gamma gamma", "other stuff")),
        ]
        rows = rng.standard_normal((6, 12)).astype(np.float32)
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        emb = EmbeddingMatrix(ids=[f"{d.doc_id}#{i}" for d in docs
                                   for i in range(len(d.sentences))], data=rows)
        for method in PoolingMethod:
            pooled = pool_corpus(docs, emb, method)
            for doc, row, weights in zip(docs, pooled.data, pooling_weights_oracle(docs, method)):
                doc_rows = emb.select([f"{doc.doc_id}#{i}" for i in range(len(doc.sentences))])
                np.testing.assert_allclose(row, pooled_oracle(doc_rows.data, weights), atol=1e-6)

    def test_output_unit_norm(self):
        rng = np.random.default_rng(99)
        rows = rng.standard_normal((3, 6)).astype(np.float32)
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        for method in PoolingMethod:
            pooled = pool_one(["a a", "b", "c c c"], rows, method)
            assert pooled.dtype == np.float32
            assert abs(np.linalg.norm(pooled.astype(np.float64)) - 1.0) < 1e-6

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        sentences = ["one two", "three", "four five six", "seven"]
        rows = rng.standard_normal((4, 10)).astype(np.float32)
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        perm = [2, 0, 3, 1]
        base = pool_one(sentences, rows, PoolingMethod.LP)
        shuffled = pool_one([sentences[i] for i in perm], rows[perm], PoolingMethod.LP)
        np.testing.assert_allclose(base, shuffled, atol=1e-7)

    def test_cancellation_names_doc(self):
        with pytest.raises(ValueError, match="pooled vector for doc 'cancel' cancels to zero"):
            pool_one(["a", "b"], [[1.0, 0.0], [-1.0, 0.0]], PoolingMethod.MP, doc_id="cancel")
