import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkalign import knn
from chunkalign.embed_store import EmbeddingMatrix
from chunkalign.knn import build, search_arrays, top_k
from chunkalign.miner import MarginParams, margin_scores
from conftest import random_unit_matrix, tie_heavy_search
from oracles import brute_force_topk


def unit_matrix(ids, rows):
    data = np.asarray(rows, dtype=np.float32)
    return EmbeddingMatrix(ids=list(ids), data=data)


def tiles_of(rows):
    """Search in tiles of `rows` rows instead of the default."""
    return mock.patch.object(knn, "DEFAULT_BLOCK_SIZE", rows)


def rejected_before_search(match, x, y):
    """knn checks nothing, so margin_scores must refuse (x, y) with a
    ValueError matching `match` before any index is built or searched."""
    with mock.patch.object(knn, "build") as index, mock.patch.object(knn, "search_arrays") as search:
        with pytest.raises(ValueError, match=match):
            margin_scores(x, y)
    index.assert_not_called()
    search.assert_not_called()


class TestBuild:
    def test_size_and_dim(self):
        matrix = unit_matrix(["a", "b"], np.eye(2))
        index = build(matrix)
        assert index.size == 2
        assert index.dim == 2
        assert index.data is matrix.data

    def test_empty_rejected(self):
        empty = EmbeddingMatrix(ids=[], data=np.empty((0, 4), dtype=np.float32))
        full = unit_matrix(["a"], [[1.0, 0.0, 0.0, 0.0]])
        rejected_before_search("source side is empty", empty, full)
        rejected_before_search("target side is empty", full, empty)


class TestSearchArrays:
    def test_one_hot_self_match(self):
        index = build(unit_matrix(["a", "b", "c"], np.eye(3)))
        forward, backward = search_arrays(index, np.eye(3, dtype=np.float32), k=1)
        for scores, rows in (forward, backward):
            np.testing.assert_array_equal(rows, [[0], [1], [2]])
            np.testing.assert_array_equal(scores, np.ones((3, 1)))

    def test_k_clamped_to_index_size(self):
        index = build(unit_matrix(["a", "b"], np.eye(2)))
        (scores, rows), _ = search_arrays(index, np.eye(2, dtype=np.float32), k=10)
        assert rows.shape == (2, 2)
        assert scores.shape == (2, 2)

    def test_backward_k_clamped_to_query_count(self):
        index = build(unit_matrix(["a", "b", "c"], np.eye(3)))
        _, (scores, rows) = search_arrays(index, np.eye(3, dtype=np.float32)[:2], k=10)
        assert rows.shape == scores.shape == (3, 2)
        np.testing.assert_array_equal(rows, [[0, 1], [1, 0], [0, 1]])

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
            (scores, rows), (back_scores, back_rows) = search_arrays(index, queries, k=k)
            exp_scores, exp_rows = brute_force_topk(base, queries, k)
            np.testing.assert_array_equal(rows, exp_rows)
            np.testing.assert_allclose(scores, exp_scores, atol=1e-6)
            exp_scores, exp_rows = brute_force_topk(queries, base, k)
            np.testing.assert_array_equal(back_rows, exp_rows)
            np.testing.assert_allclose(back_scores, exp_scores, atol=1e-6)

    def test_duplicate_rows_tie_break_ascending(self):
        row = np.array([1.0, 0.0], dtype=np.float32)
        index = build(unit_matrix(["a", "b", "c"], [row, row, row]))
        (scores, rows), _ = search_arrays(index, row[None, :], k=3)
        np.testing.assert_array_equal(rows, [[0, 1, 2]])
        assert np.all(scores == scores[0, 0])
        # the same ties seen from the index side, across tiles of one query
        with tiles_of(2):
            _, (_, back_rows) = search_arrays(index, np.stack([row] * 5), k=3)
        np.testing.assert_array_equal(back_rows, [[0, 1, 2]] * 3)

    def test_k_prefix_consistency(self):
        rng = np.random.default_rng(7)
        base = random_unit_matrix(rng, 30, 6)
        queries = random_unit_matrix(rng, 12, 6)
        index = build(unit_matrix([str(i) for i in range(30)], base))
        five = search_arrays(index, queries, k=5)
        two = search_arrays(index, queries, k=2)
        for (scores5, rows5), (scores2, rows2) in zip(five, two):
            np.testing.assert_array_equal(rows5[:, :2], rows2)
            np.testing.assert_array_equal(scores5[:, :2], scores2)

    def test_workers_do_not_change_results(self):
        # same block shapes mean the same BLAS calls, so bytes must match
        rng = np.random.default_rng(1234)
        base = random_unit_matrix(rng, 120, 16)
        queries = random_unit_matrix(rng, 300, 16)
        index = build(unit_matrix([str(i) for i in range(120)], base))
        with tiles_of(64):
            reference = search_arrays(index, queries, k=9, workers=1)
            results = [search_arrays(index, queries, k=9, workers=workers) for workers in (2, 4, 8)]
        for result in results:
            for (scores, rows), (ref_scores, ref_rows) in zip(result, reference):
                np.testing.assert_array_equal(rows, ref_rows)
                assert scores.tobytes() == ref_scores.tobytes()

    def test_block_size_does_not_change_rankings(self):
        # accumulation order inside the matmul may shift the last ulp of a
        # score, but rankings are computed in float64 and must not move
        rng = np.random.default_rng(1234)
        base = random_unit_matrix(rng, 120, 16)
        queries = random_unit_matrix(rng, 300, 16)
        index = build(unit_matrix([str(i) for i in range(120)], base))
        reference = search_arrays(index, queries, k=9)
        for block_size in (1, 17, 64, 301):
            with tiles_of(block_size):
                result = search_arrays(index, queries, k=9, workers=3)
            for (scores, rows), (ref_scores, ref_rows) in zip(result, reference):
                np.testing.assert_array_equal(rows, ref_rows)
                np.testing.assert_allclose(scores, ref_scores, atol=1e-12)

    def test_default_tile_bounds_score_memory(self):
        # each worker holds a tile's float64 scores and top_k's float32 copy,
        # 2 x 12 x 128 x 2000 bytes at the default tile: about 6.1 MB for two
        # workers; a float64 copy would put the peak above 9 MiB
        rng = np.random.default_rng(5)
        index = build(unit_matrix([str(i) for i in range(2000)], random_unit_matrix(rng, 2000, 32)))
        queries = random_unit_matrix(rng, 2000, 32)
        tracemalloc.start()
        try:
            search_arrays(index, queries, k=16, workers=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 9 * 2**20

    def test_margin_scores_bounds_memory(self):
        # the search's buffers and outputs, then the candidate union at
        # k = 64: a new array for each step of the margin arithmetic would
        # put the peak above 12 MiB
        rng = np.random.default_rng(5)
        y = unit_matrix([str(i) for i in range(2000)], random_unit_matrix(rng, 2000, 32))
        x = unit_matrix([str(i) for i in range(2000)], random_unit_matrix(rng, 2000, 32))
        tracemalloc.start()
        try:
            margin_scores(x, y, MarginParams(k=64), workers=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    def test_buffers_follow_tiles_not_workers(self):
        # one tile per direction, so one scores buffer and one scratch,
        # whatever the thread count
        rng = np.random.default_rng(8)
        index = build(unit_matrix([str(i) for i in range(120)], random_unit_matrix(rng, 120, 8)))
        queries = random_unit_matrix(rng, 100, 8)
        peaks = []
        for workers in (1, 8):
            tracemalloc.start()
            try:
                search_arrays(index, queries, k=4, workers=workers)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # a second buffer pair would take 12 x 100 x 120 bytes more
        assert peaks[1] < peaks[0] + 12 * 100 * 120 // 2

    def test_unequal_sides_wider_than_a_tile(self):
        # at the default tile both directions share buffers sized for the
        # wider one, 128 x 300, and take views of 128 x 170 and 128 x 300
        rng = np.random.default_rng(21)
        index = build(unit_matrix([str(i) for i in range(170)], random_unit_matrix(rng, 170, 16)))
        queries = random_unit_matrix(rng, 300, 16)
        reference = search_arrays(index, queries, k=9, workers=1)
        for scores, rows in reference:
            assert rows.dtype == np.int32
        for workers in (2, 5):
            result = search_arrays(index, queries, k=9, workers=workers)
            for (scores, rows), (ref_scores, ref_rows) in zip(result, reference):
                assert rows.tobytes() == ref_rows.tobytes()
                assert scores.tobytes() == ref_scores.tobytes()
        (_, rows), (_, back_rows) = reference
        np.testing.assert_array_equal(rows, brute_force_topk(index.data, queries, 9)[1])
        np.testing.assert_array_equal(back_rows, brute_force_topk(queries, index.data, 9)[1])

    def test_dim_mismatch(self):
        x = unit_matrix(["a"], [[1.0, 0.0, 0.0]])
        y = unit_matrix(["b"], [[1.0, 0.0]])
        rejected_before_search("dimension mismatch: 3 vs 2", x, y)

    def test_k_below_one(self):
        # k is checked when the parameters are made, so no search sees it
        x = unit_matrix(["a"], [[1.0, 0.0]])
        with mock.patch.object(knn, "search_arrays") as search:
            with pytest.raises(ValueError, match="k must be >= 1"):
                margin_scores(x, x, MarginParams(k=0))
        search.assert_not_called()

    def test_scores_sorted_descending(self):
        rng = np.random.default_rng(3)
        base = random_unit_matrix(rng, 40, 8)
        queries = random_unit_matrix(rng, 10, 8)
        index = build(unit_matrix([str(i) for i in range(40)], base))
        for scores, _ in search_arrays(index, queries, k=6):
            assert np.all(np.diff(scores, axis=1) <= 0)


class TestTopK:
    def test_ties_break_by_column(self):
        scores = np.array([[0.5, 0.9, 0.5, 0.9, 0.5]])
        values, cols = top_k(scores, 3, np.empty(scores.shape, dtype=np.float32))
        np.testing.assert_array_equal(cols, [[1, 3, 0]])
        np.testing.assert_array_equal(values, [[0.9, 0.9, 0.5]])

    def test_full_depth_is_a_sort(self):
        scores = np.array([[0.1, -0.3, 0.7, 0.1], [0.0, 0.0, 0.0, 0.0]])
        _, cols = top_k(scores, 4, np.empty(scores.shape, dtype=np.float32))
        np.testing.assert_array_equal(cols, [[2, 0, 3, 1], [0, 1, 2, 3]])

    def test_transposed_view(self):
        scores = np.array([[0.3, 0.1], [0.3, 0.4], [0.2, 0.4]])
        values, rows = top_k(scores.T, 2, np.empty(scores.T.shape, dtype=np.float32))
        np.testing.assert_array_equal(rows, [[0, 1], [1, 2]])
        np.testing.assert_array_equal(values, [[0.3, 0.3], [0.4, 0.4]])


@st.composite
def float32_tie_tiles(draw):
    """A (rows, width) float64 tile, possibly a transposed view, built from a
    few float32 values: each entry is one of them, one of them moved by less
    than half a float32 ulp (so it rounds back to it), or exactly at a
    float32 midpoint next to one of them."""
    rows, width = draw(st.integers(1, 8)), draw(st.integers(1, 300))
    values = np.array(draw(st.lists(st.floats(-1, 1, width=32), min_size=1, max_size=4)),
                      dtype=np.float32)
    up = np.nextafter(values, np.float32(np.inf)).astype(np.float64) - values
    down = values - np.nextafter(values, np.float32(-np.inf)).astype(np.float64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pick = rng.integers(len(values), size=(rows, width))
    kind = rng.integers(5, size=(rows, width))
    fraction = rng.choice([0.1, 0.5, 0.9, 0.999], size=(rows, width))
    tile = values[pick].astype(np.float64)
    tile += np.select([kind == 1, kind == 2, kind == 3, kind == 4],
                      [fraction * up[pick] / 2, -fraction * down[pick] / 2,
                       up[pick] / 2, -down[pick] / 2])
    if draw(st.booleans()):
        tile = np.ascontiguousarray(tile.T).T
    return tile


class TestTopKProperties:
    @settings(max_examples=100, deadline=None)
    @given(float32_tie_tiles())
    def test_matches_definitional_sort(self, tile):
        # every depth against the definition: the first `depth` columns of
        # the row sorted by (-score, column)
        count, width = tile.shape
        expected = [np.lexsort((np.arange(width), -row)) for row in tile]
        scratch = np.empty(tile.shape, dtype=np.float32)
        for depth in range(1, width + 1):
            values, cols = top_k(tile, depth, scratch)
            for row, order, row_values, row_cols in zip(tile, expected, values, cols):
                np.testing.assert_array_equal(row_cols, order[:depth])
                np.testing.assert_array_equal(row_values, row[order[:depth]])


class TestSearchProperties:
    @settings(max_examples=60, deadline=None)
    @given(tie_heavy_search(), st.sampled_from([1, 7, 512]))
    def test_both_directions_match_brute_force(self, case, block_size):
        base, queries, k = case
        index = build(unit_matrix([str(i) for i in range(len(base))], base))
        with tiles_of(block_size):
            (scores, rows), (back_scores, back_rows) = search_arrays(index, queries, k=k,
                                                                     workers=2)
        exp_scores, exp_rows = brute_force_topk(base, queries, k)
        np.testing.assert_array_equal(rows, exp_rows)
        np.testing.assert_array_equal(scores, exp_scores)
        exp_scores, exp_rows = brute_force_topk(queries, base, k)
        np.testing.assert_array_equal(back_rows, exp_rows)
        np.testing.assert_array_equal(back_scores, exp_scores)

    @settings(max_examples=40, deadline=None)
    @given(tie_heavy_search())
    def test_workers_and_block_size_invariance(self, case):
        base, queries, k = case
        index = build(unit_matrix([str(i) for i in range(len(base))], base))
        for block_size in (1, 7, 512):
            with tiles_of(block_size):
                reference = search_arrays(index, queries, k=k, workers=1)
                for workers in (2, 3):
                    result = search_arrays(index, queries, k=k, workers=workers)
                    for (scores, rows), (ref_scores, ref_rows) in zip(result, reference):
                        assert rows.tobytes() == ref_rows.tobytes()
                        assert scores.tobytes() == ref_scores.tobytes()
        with tiles_of(512):
            baseline = search_arrays(index, queries, k=k)
        for block_size in (1, 7):
            with tiles_of(block_size):
                result = search_arrays(index, queries, k=k)
            for (_, rows), (_, ref_rows) in zip(result, baseline):
                np.testing.assert_array_equal(rows, ref_rows)
