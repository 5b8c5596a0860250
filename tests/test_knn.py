import numpy as np
import pytest

from chunkalign.embed_store import EmbeddingMatrix
from chunkalign.knn import FlatIndex, build, search_arrays
from conftest import random_unit_matrix
from oracles import brute_force_topk


def unit_matrix(ids, rows):
    data = np.asarray(rows, dtype=np.float32)
    return EmbeddingMatrix(ids=list(ids), data=data)


class TestBuild:
    def test_size_and_dim(self):
        index = build(unit_matrix(["a", "b"], np.eye(2)))
        assert index.size == 2
        assert index.dim == 2

    def test_empty_rejected(self):
        m = EmbeddingMatrix(ids=[], data=np.empty((0, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="cannot index an empty matrix"):
            build(m)

    def test_unnormalized_row_named(self):
        m = unit_matrix(["good", "bad#7"], [[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="'bad#7'"):
            build(m)

    def test_small_norm_drift_tolerated(self):
        row = np.array([1.0 + 5e-4, 0.0], dtype=np.float32)
        index = build(unit_matrix(["a"], [row]))
        assert index.size == 1


class TestSearchArrays:
    def test_one_hot_self_match(self):
        index = build(unit_matrix(["a", "b", "c"], np.eye(3)))
        scores, rows = search_arrays(index, np.eye(3, dtype=np.float32), k=1)
        np.testing.assert_array_equal(rows, [[0], [1], [2]])
        np.testing.assert_array_equal(scores, np.ones((3, 1)))

    def test_k_clamped_to_index_size(self):
        index = build(unit_matrix(["a", "b"], np.eye(2)))
        scores, rows = search_arrays(index, np.eye(2, dtype=np.float32), k=10)
        assert rows.shape == (2, 2)
        assert scores.shape == (2, 2)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for trial in range(8):
            n = int(rng.integers(3, 60))
            m = int(rng.integers(1, 40))
            dim = int(rng.integers(2, 24))
            k = int(rng.integers(1, 8))
            base = random_unit_matrix(rng, n, dim)
            queries = random_unit_matrix(rng, m, dim)
            index = build(unit_matrix([str(i) for i in range(n)], base))
            scores, rows = search_arrays(index, queries, k=k)
            exp_scores, exp_rows = brute_force_topk(base, queries, k)
            np.testing.assert_array_equal(rows, exp_rows)
            np.testing.assert_allclose(scores, exp_scores, atol=1e-6)

    def test_duplicate_rows_tie_break_ascending(self):
        row = np.array([1.0, 0.0], dtype=np.float32)
        index = build(unit_matrix(["a", "b", "c"], [row, row, row]))
        scores, rows = search_arrays(index, row[None, :], k=3)
        np.testing.assert_array_equal(rows, [[0, 1, 2]])
        assert np.all(scores == scores[0, 0])

    def test_k_prefix_consistency(self):
        rng = np.random.default_rng(7)
        base = random_unit_matrix(rng, 30, 6)
        queries = random_unit_matrix(rng, 5, 6)
        index = build(unit_matrix([str(i) for i in range(30)], base))
        scores5, rows5 = search_arrays(index, queries, k=5)
        scores2, rows2 = search_arrays(index, queries, k=2)
        np.testing.assert_array_equal(rows5[:, :2], rows2)
        np.testing.assert_array_equal(scores5[:, :2], scores2)

    def test_workers_do_not_change_results(self):
        # same block shapes mean the same BLAS calls, so bytes must match
        rng = np.random.default_rng(1234)
        base = random_unit_matrix(rng, 120, 16)
        queries = random_unit_matrix(rng, 300, 16)
        index = build(unit_matrix([str(i) for i in range(120)], base))
        ref_scores, ref_rows = search_arrays(index, queries, k=9, workers=1,
                                             block_size=64)
        for workers in (2, 4, 8):
            scores, rows = search_arrays(index, queries, k=9, workers=workers,
                                         block_size=64)
            np.testing.assert_array_equal(rows, ref_rows)
            assert scores.tobytes() == ref_scores.tobytes()

    def test_block_size_does_not_change_rankings(self):
        # accumulation order inside the matmul may shift the last ulp of a
        # score, but rankings are computed in float64 and must not move
        rng = np.random.default_rng(1234)
        base = random_unit_matrix(rng, 120, 16)
        queries = random_unit_matrix(rng, 300, 16)
        index = build(unit_matrix([str(i) for i in range(120)], base))
        ref_scores, ref_rows = search_arrays(index, queries, k=9)
        for block_size in (1, 17, 64, 301):
            scores, rows = search_arrays(index, queries, k=9, workers=3,
                                         block_size=block_size)
            np.testing.assert_array_equal(rows, ref_rows)
            np.testing.assert_allclose(scores, ref_scores, atol=1e-12)

    def test_dim_mismatch(self):
        index = build(unit_matrix(["a"], [[1.0, 0.0]]))
        with pytest.raises(ValueError, match="does not match index dim 2"):
            search_arrays(index, np.ones((1, 3), dtype=np.float32), k=1)

    def test_k_below_one(self):
        index = build(unit_matrix(["a"], [[1.0, 0.0]]))
        with pytest.raises(ValueError, match="k must be >= 1"):
            search_arrays(index, np.eye(2, 2, dtype=np.float32)[:1], k=0)

    def test_bad_workers(self):
        index = build(unit_matrix(["a"], [[1.0, 0.0]]))
        q = np.array([[1.0, 0.0]], dtype=np.float32)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            search_arrays(index, q, k=1, workers=0)

    def test_bad_block_size(self):
        index = build(unit_matrix(["a"], [[1.0, 0.0]]))
        q = np.array([[1.0, 0.0]], dtype=np.float32)
        with pytest.raises(ValueError, match="block_size must be >= 1"):
            search_arrays(index, q, k=1, block_size=0)

    def test_scores_sorted_descending(self):
        rng = np.random.default_rng(3)
        base = random_unit_matrix(rng, 40, 8)
        queries = random_unit_matrix(rng, 10, 8)
        index = build(unit_matrix([str(i) for i in range(40)], base))
        scores, _ = search_arrays(index, queries, k=6)
        assert np.all(np.diff(scores, axis=1) <= 0)

