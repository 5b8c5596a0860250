import math

import numpy as np
import pytest

from chunkalign.corpus import ChunkUnit, Document, Granularity, segment
from chunkalign.pooling import (
    IdfTable,
    PoolingMethod,
    build_idf,
    pool_document,
    tokenize,
    unit_weights,
)
from oracles import pooled_oracle


def make_units(texts, doc_id="d"):
    return [
        ChunkUnit(f"{doc_id}#{i}", doc_id, i, t, 1, len(t.split()))
        for i, t in enumerate(texts)
    ]


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


class TestIdfTable:
    def test_single_doc_of_three(self):
        docs = [
            Document("a", "xx", ("alpha beta",)),
            Document("b", "xx", ("beta gamma",)),
            Document("c", "xx", ("beta delta",)),
        ]
        table = build_idf(docs)
        assert table.doc_count == 3
        assert table.idf("alpha") == pytest.approx(math.log(4 / 2) + 1, abs=1e-12)
        assert table.idf("alpha") == pytest.approx(1.6931471805599454, abs=1e-12)

    def test_everywhere_token_floors_near_one(self):
        docs = [Document(str(i), "xx", ("common",)) for i in range(5)]
        table = build_idf(docs)
        assert table.idf("common") == pytest.approx(math.log(6 / 6) + 1, abs=1e-12)
        assert table.idf("common") == pytest.approx(1.0, abs=1e-12)

    def test_unseen_token(self):
        docs = [
            Document("a", "xx", ("alpha",)),
            Document("b", "xx", ("beta",)),
            Document("c", "xx", ("gamma",)),
        ]
        table = build_idf(docs)
        assert table.idf("zzz") == pytest.approx(math.log(4 / 1) + 1, abs=1e-12)

    def test_df_counts_documents_not_occurrences(self):
        docs = [
            Document("a", "xx", ("hello hello hello",)),
            Document("b", "xx", ("bye",)),
        ]
        table = build_idf(docs)
        assert table.df["hello"] == 1

    def test_df_above_doc_count_rejected(self):
        with pytest.raises(ValueError, match="document frequency 5 for token 'x'"):
            IdfTable(doc_count=2, df={"x": 5})

    def test_nonpositive_df_rejected(self):
        with pytest.raises(ValueError, match="document frequency 0 for token 'x'"):
            IdfTable(doc_count=2, df={"x": 0})

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty document list"):
            build_idf([])


class TestUnitWeights:
    def test_idf_sum_is_a_left_to_right_fold(self):
        # idf(d) + idf(e) + idf(a) rounds to ...36dd from the left and to
        # ...36de exactly (as compensated sums, like sum() from Python 3.12
        # on, give it); the weight must not depend on the interpreter
        table = IdfTable(doc_count=9, df={"a": 1, "d": 8})
        idfs = [table.idf(token) for token in "dea"]
        assert (idfs[0] + idfs[1]) + idfs[2] == float.fromhex("0x1.c11ccfc5a36ddp+2")
        assert math.fsum(idfs) == float.fromhex("0x1.c11ccfc5a36dep+2")
        [idf_weight] = unit_weights([("d e a", 3)], PoolingMethod.IDF, table)
        assert idf_weight == float.fromhex("0x1.c11ccfc5a36ddp+2") / 3
        [lidf_weight] = unit_weights([("d e a", 3)], PoolingMethod.LIDF, table)
        assert lidf_weight == 3 * (float.fromhex("0x1.c11ccfc5a36ddp+2") / 3)


class TestPoolDocument:
    def test_mean_pool_two_orthogonal(self):
        units = make_units(["one", "two"])
        rows = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        pooled = pool_document(units, rows, PoolingMethod.MP)
        np.testing.assert_allclose(pooled, [0.70710678, 0.70710678], atol=1e-6)

    def test_length_pool_weights_by_tokens(self):
        units = make_units(["a b c", "d"])
        assert [u.token_count for u in units] == [3, 1]
        rows = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        pooled = pool_document(units, rows, PoolingMethod.LP)
        # (3,1) normalized: 3/sqrt(10), 1/sqrt(10)
        np.testing.assert_allclose(pooled, [0.9486833, 0.31622777], atol=1e-6)

    def test_single_unit_identity(self):
        units = make_units(["only"])
        rows = np.array([[0.6, 0.8]], dtype=np.float32)
        for method in (PoolingMethod.MP, PoolingMethod.LP):
            pooled = pool_document(units, rows, method)
            np.testing.assert_allclose(pooled, [0.6, 0.8], atol=1e-7)

    def test_mp_equals_lp_for_equal_lengths(self):
        rng = np.random.default_rng(42)
        units = make_units(["w x", "y z", "p q"])
        rows = rng.standard_normal((3, 8)).astype(np.float32)
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        mp = pool_document(units, rows, PoolingMethod.MP)
        lp = pool_document(units, rows, PoolingMethod.LP)
        np.testing.assert_allclose(mp, lp, atol=1e-7)

    def test_matches_oracle_all_methods(self):
        rng = np.random.default_rng(1234)
        docs = [
            Document("a", "xx", ("alpha beta gamma", "beta beta", "rare words here")),
            Document("b", "xx", ("alpha only",)),
            Document("c", "xx", ("gamma gamma gamma", "other stuff")),
        ]
        idf = build_idf(docs)
        for doc in docs:
            units = segment(doc, Granularity(1))
            rows = rng.standard_normal((len(units), 12)).astype(np.float32)
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            for method in PoolingMethod:
                table = idf if method.needs_idf else None
                pooled = pool_document(units, rows, method, idf=table)
                if method is PoolingMethod.MP:
                    weights = [1.0] * len(units)
                elif method is PoolingMethod.LP:
                    weights = [u.token_count for u in units]
                elif method is PoolingMethod.IDF:
                    weights = [
                        sum(idf.idf(t) for t in tokenize(u.text)) / len(tokenize(u.text))
                        for u in units
                    ]
                else:
                    weights = [
                        u.token_count
                        * sum(idf.idf(t) for t in tokenize(u.text))
                        / len(tokenize(u.text))
                        for u in units
                    ]
                expected = pooled_oracle(rows, weights)
                np.testing.assert_allclose(pooled, expected, atol=1e-6)

    def test_output_unit_norm(self):
        rng = np.random.default_rng(99)
        units = make_units(["a a", "b", "c c c"])
        rows = rng.standard_normal((3, 6)).astype(np.float32)
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        idf = build_idf([Document("d", "xx", ("a a", "b", "c c c"))])
        for method in PoolingMethod:
            table = idf if method.needs_idf else None
            pooled = pool_document(units, rows, method, idf=table)
            assert pooled.dtype == np.float32
            assert abs(np.linalg.norm(pooled.astype(np.float64)) - 1.0) < 1e-6

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        units = make_units(["one two", "three", "four five six", "seven"])
        rows = rng.standard_normal((4, 10)).astype(np.float32)
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        perm = [2, 0, 3, 1]
        base = pool_document(units, rows, PoolingMethod.LP)
        shuffled = pool_document([units[i] for i in perm], rows[perm], PoolingMethod.LP)
        np.testing.assert_allclose(base, shuffled, atol=1e-7)

    def test_empty_units_rejected(self):
        with pytest.raises(ValueError, match="no units"):
            pool_document([], np.empty((0, 4), dtype=np.float32), PoolingMethod.MP)

    def test_row_count_mismatch(self):
        units = make_units(["a", "b"])
        with pytest.raises(ValueError, match="expected 2 embedding rows"):
            pool_document(units, np.ones((3, 4), dtype=np.float32), PoolingMethod.MP)

    def test_idf_required(self):
        units = make_units(["a"])
        rows = np.ones((1, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="requires an idf table"):
            pool_document(units, rows, PoolingMethod.IDF)

    def test_idf_forbidden_for_plain_methods(self):
        units = make_units(["a"])
        rows = np.ones((1, 2), dtype=np.float32)
        idf = build_idf([Document("d", "xx", ("a",))])
        with pytest.raises(ValueError, match="does not take an idf table"):
            pool_document(units, rows, PoolingMethod.MP, idf=idf)

    def test_all_zero_weights_names_doc(self):
        # LP weight is the token count; chunks of empty-ish text can't occur via
        # segment, so force token_count=0 directly
        units = [ChunkUnit("w#0", "w", 0, "x", 1, 0)]
        rows = np.ones((1, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="all unit weights are zero for doc 'w' under LP"):
            pool_document(units, rows, PoolingMethod.LP)

    def test_cancellation_names_doc(self):
        units = make_units(["a", "b"], doc_id="cancel")
        rows = np.array([[1.0, 0.0], [-1.0, 0.0]], dtype=np.float32)
        with pytest.raises(ValueError, match="pooled vector for doc 'cancel' cancels to zero"):
            pool_document(units, rows, PoolingMethod.MP)
