import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkalign import knn, miner
from chunkalign.embed_store import EmbeddingMatrix
from chunkalign.miner import (
    AlignedUnitPair,
    Candidates,
    MarginParams,
    greedy_match,
    margin_scores,
    write_pairs_tsv,
)
from conftest import random_unit_matrix, tie_heavy_search
from oracles import (
    candidate_tuples,
    candidate_union_oracle,
    candidates_from_tuples,
    greedy_oracle,
    margin_oracle,
)


def unit_matrix(ids, rows):
    return EmbeddingMatrix(ids=list(ids), data=np.asarray(rows, dtype=np.float32))


class TestMarginParams:
    def test_default_k(self):
        assert MarginParams().k == 16

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            MarginParams(k=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_min_margin(self, value):
        with pytest.raises(ValueError, match=f"^min_margin must be finite, got {value}$"):
            MarginParams(min_margin=value)


class TestMarginScores:
    def test_hand_worked_example(self):
        # one source on the x axis against x and y axis targets, k=2:
        # A(x1) = (1+0)/2, A(y1) = 1/1... both averages use the opposite side
        x = unit_matrix(["x1"], [[1.0, 0.0]])
        y = unit_matrix(["y1", "y2"], [[1.0, 0.0], [0.0, 1.0]])
        scored = {(c[0], c[1]): c
                  for c in candidate_tuples(margin_scores(x, y, MarginParams(k=2)))}
        assert set(scored) == {("x1", "y1"), ("x1", "y2")}
        _, _, cos_11, margin_11 = scored[("x1", "y1")]
        assert cos_11 == pytest.approx(1.0, abs=1e-12)
        assert margin_11 == pytest.approx(4.0 / 3.0, abs=1e-9)
        _, _, cos_12, margin_12 = scored[("x1", "y2")]
        assert cos_12 == pytest.approx(0.0, abs=1e-12)
        assert margin_12 == pytest.approx(0.0, abs=1e-12)

    def test_identical_singletons_margin_one(self):
        x = unit_matrix(["a"], [[0.6, 0.8]])
        y = unit_matrix(["b"], [[0.6, 0.8]])
        (src, tgt, cosine, margin), = candidate_tuples(margin_scores(x, y, MarginParams(k=4)))
        assert (src, tgt) == ("a", "b")
        assert cosine == pytest.approx(1.0, abs=1e-6)
        # single neighbor each side: denominator equals the cosine itself
        assert margin == pytest.approx(1.0, abs=1e-9)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(42)
        x_rows = random_unit_matrix(rng, 50, 12)
        y_rows = random_unit_matrix(rng, 50, 12)
        x = unit_matrix([f"s{i}" for i in range(50)], x_rows)
        y = unit_matrix([f"t{j}" for j in range(50)], y_rows)
        got = {(c[0], c[1]): (c[2], c[3])
               for c in candidate_tuples(margin_scores(x, y, MarginParams(k=8)))}
        expected = margin_oracle(x_rows, y_rows, k=8)
        assert set(got) == {(f"s{i}", f"t{j}") for i, j in expected}
        for (i, j), (exp_cos, exp_margin) in expected.items():
            cos, margin = got[(f"s{i}", f"t{j}")]
            assert cos == pytest.approx(exp_cos, abs=1e-6)
            assert margin == pytest.approx(exp_margin, abs=1e-6)

    def test_candidate_union_is_deduplicated(self):
        rng = np.random.default_rng(3)
        x = unit_matrix(["a", "b"], random_unit_matrix(rng, 2, 5))
        y = unit_matrix(["c", "d", "e"], random_unit_matrix(rng, 3, 5))
        candidates = candidate_tuples(margin_scores(x, y, MarginParams(k=10)))
        keys = [(c[0], c[1]) for c in candidates]
        assert len(keys) == len(set(keys))
        # with k covering both sides entirely every pair is a candidate
        assert len(keys) == 6

    def test_zero_denominators_counted(self):
        # opposite rows on both sides: every neighborhood average is 0
        x = unit_matrix(["a", "b"], [[1.0, 0.0], [-1.0, 0.0]])
        y = unit_matrix(["c", "d"], [[1.0, 0.0], [-1.0, 0.0]])
        candidates = margin_scores(x, y, MarginParams(k=2))
        assert len(candidates) == 0
        assert candidates.zero_denominators == 4
        assert greedy_match(candidates) == []

    def test_zero_denominators_dropped_among_kept(self):
        # a, b and c, d cancel out to neighborhood averages of 0 under k = 3,
        # while e and f average 1/3: only the four pairs of {a, b} x {c, d}
        # have a zero denominator
        x = unit_matrix(["a", "b", "e"], [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        y = unit_matrix(["c", "d", "f"], [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        candidates = margin_scores(x, y, MarginParams(k=3))
        assert candidates.zero_denominators == 4
        kept = {(x.ids[i], y.ids[j]) for i, j in zip(candidates.src_rows, candidates.tgt_rows)}
        assert kept == {("a", "f"), ("b", "f"), ("e", "c"), ("e", "d"), ("e", "f")}
        assert np.all(np.isfinite(candidates.margins))

    def test_no_masked_copies_without_zero_denominators(self):
        # the search outputs (float64 scores, int32 rows) take about 24 bytes
        # per candidate and the union four arrays of 8 and one temporary;
        # masked copies of four of those add 32 more, which put the peak at
        # about 96 bytes per candidate
        rng = np.random.default_rng(5)
        x = unit_matrix([f"s{i}" for i in range(1000)], random_unit_matrix(rng, 1000, 16))
        y = unit_matrix([f"t{j}" for j in range(1000)], random_unit_matrix(rng, 1000, 16))
        tracemalloc.start()
        try:
            candidates = margin_scores(x, y, MarginParams(k=64))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert candidates.zero_denominators == 0
        assert peak < 84 * len(candidates)

    def test_empty_sides_rejected(self):
        empty = EmbeddingMatrix(ids=[], data=np.empty((0, 4), dtype=np.float32))
        full = unit_matrix(["a"], [[1.0, 0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="source side is empty"):
            margin_scores(empty, full)
        with pytest.raises(ValueError, match="target side is empty"):
            margin_scores(full, empty)

    def test_dim_mismatch(self):
        x = unit_matrix(["a"], [[1.0, 0.0]])
        y = unit_matrix(["b"], [[1.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
            margin_scores(x, y)

    def test_unnormalized_input_rejected(self):
        x = unit_matrix(["a"], [[2.0, 0.0]])
        y = unit_matrix(["b"], [[1.0, 0.0]])
        with pytest.raises(ValueError, match="not normalized"):
            margin_scores(x, y)

    @pytest.mark.parametrize("side", ["source", "target"])
    def test_unnormalized_row_named(self, side):
        good = unit_matrix(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
        bad = unit_matrix(["good", "bad#7"], [[1.0, 0.0], [2.0, 0.0]])
        x, y = (bad, good) if side == "source" else (good, bad)
        with pytest.raises(ValueError, match=r"^row 'bad#7' is not normalized \(norm 2.000000\)"):
            margin_scores(x, y)

    def test_small_norm_drift_tolerated(self):
        x = unit_matrix(["a"], [[1.0 + 5e-4, 0.0]])
        y = unit_matrix(["b"], [[1.0 - 5e-4, 0.0]])
        assert len(margin_scores(x, y)) == 1

    def test_bad_workers(self):
        x = unit_matrix(["a"], [[1.0, 0.0]])
        with pytest.raises(ValueError, match="^workers must be >= 1, got 0$"):
            margin_scores(x, x, workers=0)

    def test_norm_check_makes_no_float64_copy(self):
        # a float64 copy of these rows alone would take 10 MB; the norm check
        # keeps one float64 per row
        rng = np.random.default_rng(11)
        side = unit_matrix([str(i) for i in range(20000)], random_unit_matrix(rng, 20000, 64))
        tracemalloc.start()
        try:
            miner._require_unit_rows(side)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestCandidateUnionProperties:
    @settings(max_examples=150, deadline=None)
    @given(tie_heavy_search(), st.sampled_from([1, 3, 7, 512]), st.sampled_from([1, 5, 2**16]),
           st.integers(1, 3))
    def test_matches_sort_based_union(self, case, block_size, union_block, workers):
        # quantized rows repeat, so pairs tie and many are found in both
        # directions; tiles of 3 or 7 rows leave a short last tile, and a
        # union block of 1 or 5 entries tests one backward row at a time
        x_rows, y_rows, k = case
        x = unit_matrix([f"s{i}" for i in range(len(x_rows))], x_rows)
        y = unit_matrix([f"t{j}" for j in range(len(y_rows))], y_rows)
        with mock.patch.object(knn, "DEFAULT_BLOCK_SIZE", block_size), \
                mock.patch.object(miner, "_UNION_BLOCK", union_block):
            got = margin_scores(x, y, MarginParams(k=k), workers=workers)
            expected = candidate_union_oracle(x, y, k, workers=workers)
        for field in ("src_rows", "tgt_rows", "cosines", "margins"):
            got_array, expected_array = getattr(got, field), getattr(expected, field)
            assert got_array.dtype == expected_array.dtype
            assert got_array.tobytes() == expected_array.tobytes()
        assert got.zero_denominators == expected.zero_denominators

    # the floor is one of the unfloored margins, so candidates sit exactly on it
    @settings(max_examples=150, deadline=None)
    @given(tie_heavy_search(), st.data())
    def test_floor_masks_unfloored_candidates(self, case, data):
        x_rows, y_rows, k = case
        x = unit_matrix([f"s{i}" for i in range(len(x_rows))], x_rows)
        y = unit_matrix([f"t{j}" for j in range(len(y_rows))], y_rows)
        unfloored = margin_scores(x, y, MarginParams(k=k))
        floor = data.draw(st.sampled_from(unfloored.margins.tolist() or [0.0]))
        got = margin_scores(x, y, MarginParams(k=k, min_margin=floor))
        kept = unfloored.margins >= floor
        for field in ("src_rows", "tgt_rows", "cosines", "margins"):
            got_array, expected_array = getattr(got, field), getattr(unfloored, field)[kept]
            assert got_array.dtype == expected_array.dtype
            assert got_array.tobytes() == expected_array.tobytes()
        assert unfloored.below_min_margin == 0
        assert got.zero_denominators == unfloored.zero_denominators
        assert got.below_min_margin == len(unfloored) - int(np.count_nonzero(kept))


class TestGreedyMatch:
    def test_hand_trace(self):
        candidates = [
            ("a", "b", 0.9, 2.0),
            ("a", "c", 0.8, 1.5),
            ("d", "c", 0.7, 1.2),
        ]
        pairs = greedy_match(candidates_from_tuples(candidates))
        assert [(p.src_id, p.tgt_id) for p in pairs] == [("a", "b"), ("d", "c")]
        assert pairs[0] == AlignedUnitPair("a", "b", 0.9, 2.0)

    def test_empty_input(self):
        assert greedy_match(candidates_from_tuples([])) == []

    def test_memory_per_candidate(self):
        # 200k candidates, 10 per source row: the scan order and its keys
        # take a few arrays of the candidate count, and only accepted pairs
        # become Python objects (a scan over whole-array int lists takes
        # about 150 bytes per candidate)
        rng = np.random.default_rng(12)
        n = 20000
        cosines = rng.random(10 * n)
        candidates = Candidates(
            src_rows=np.repeat(np.arange(n), 10), tgt_rows=rng.integers(0, n, size=10 * n),
            cosines=cosines, margins=1.5 * cosines, src_ids=[f"s{i}" for i in range(n)],
            tgt_ids=[f"t{j}" for j in range(n)], zero_denominators=0, below_min_margin=0)
        tracemalloc.start()
        try:
            pairs = greedy_match(candidates)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(pairs) > n // 2
        assert peak < 64 * len(candidates)

    def test_margin_tie_breaks_on_cosine(self):
        candidates = [
            ("a", "low", 0.2, 1.0),
            ("a", "high", 0.9, 1.0),
        ]
        pairs = greedy_match(candidates_from_tuples(candidates))
        assert [(p.src_id, p.tgt_id) for p in pairs] == [("a", "high")]

    def test_full_tie_breaks_lexicographically(self):
        candidates = [
            ("a", "zz", 0.5, 1.0),
            ("a", "bb", 0.5, 1.0),
        ]
        pairs = greedy_match(candidates_from_tuples(candidates))
        assert [(p.src_id, p.tgt_id) for p in pairs] == [("a", "bb")]

    def test_trailing_nul_id_sorts_after_its_prefix(self):
        # "b" < "b\x00" as Python strings; numpy string arrays would see two
        # equal ids and fall back to row order
        candidates = [
            ("b\x00", "t", 0.5, 1.0),
            ("b", "t", 0.5, 1.0),
        ]
        pairs = greedy_match(candidates_from_tuples(candidates))
        assert [(p.src_id, p.tgt_id) for p in pairs] == [("b", "t")]

    def test_output_sorted_by_ids(self):
        candidates = [
            ("z", "z", 0.9, 9.0),
            ("a", "a", 0.8, 8.0),
        ]
        pairs = greedy_match(candidates_from_tuples(candidates))
        assert [(p.src_id, p.tgt_id) for p in pairs] == [("a", "a"), ("z", "z")]

    def test_one_to_one_property(self):
        rng = np.random.default_rng(1234)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            candidates = [
                (f"s{int(rng.integers(0, 10))}", f"t{int(rng.integers(0, 10))}",
                 float(rng.random()), float(rng.random() * 2))
                for _ in range(n)
            ]
            # dedup keys the way the miner guarantees
            seen = {}
            for c in candidates:
                seen.setdefault((c[0], c[1]), c)
            pairs = greedy_match(candidates_from_tuples(seen.values()))
            assert len({p.src_id for p in pairs}) == len(pairs)
            assert len({p.tgt_id for p in pairs}) == len(pairs)


# ids whose string order differs from their row order: numeric suffixes,
# mixed lengths, non-ASCII, and a trailing NUL that a numpy string array
# would drop
TRICKY_IDS = ["s9", "s10", "s1", "s100", "b", "b\x00", "ab", "a", "Z", "é", "ß", "Ω"]
side_ids = st.lists(st.sampled_from(TRICKY_IDS) | st.text(max_size=3),
                    min_size=1, max_size=10, unique=True)
# each example scores from a pool of at most three values, so ties in
# margin and in cosine are common
value_pools = st.lists(st.sampled_from([-0.5, -0.0, 0.0, 0.25, 0.5, 1.0, 1.5]),
                       min_size=1, max_size=3)


class TestGreedyProperties:
    # slices of 1 and 3 candidates make the bulk filter of taken endpoints
    # act across many slices
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), src_ids=side_ids, tgt_ids=side_ids, pool=value_pools,
           scan_slice=st.sampled_from([1, 3, miner._SCAN_SLICE]))
    def test_matches_oracle(self, data, src_ids, tgt_ids, pool, scan_slice):
        rows = data.draw(st.sets(st.tuples(st.integers(0, len(src_ids) - 1),
                                           st.integers(0, len(tgt_ids) - 1))))
        values = st.sampled_from(pool)
        tuples = [(src_ids[i], tgt_ids[j], data.draw(values), data.draw(values))
                  for i, j in sorted(rows)]
        tuples = data.draw(st.permutations(tuples))
        candidates = candidates_from_tuples(tuples, src_ids, tgt_ids)
        with mock.patch.object(miner, "_SCAN_SLICE", scan_slice):
            assert greedy_match(candidates) == greedy_oracle(tuples)

    # margin_scores drops the candidates below the floor before matching;
    # the floor is drawn from the pool too, so candidates sit exactly on it
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), src_ids=side_ids, tgt_ids=side_ids, pool=value_pools)
    def test_floor_before_matching_equals_floor_after(self, data, src_ids, tgt_ids, pool):
        rows = data.draw(st.sets(st.tuples(st.integers(0, len(src_ids) - 1),
                                           st.integers(0, len(tgt_ids) - 1))))
        values = st.sampled_from(pool)
        tuples = [(src_ids[i], tgt_ids[j], data.draw(values), data.draw(values))
                  for i, j in sorted(rows)]
        tuples = data.draw(st.permutations(tuples))
        floor = data.draw(values)
        expected = [pair for pair in greedy_oracle(tuples) if pair.margin >= floor]
        floored = [t for t in tuples if t[3] >= floor]
        assert greedy_match(candidates_from_tuples(floored, src_ids, tgt_ids)) == expected


class TestMine:
    def test_two_cluster_recovery(self):
        # two tight clusters per side; mining should pair them up cleanly
        x = unit_matrix(["x0", "x1"], [[1.0, 0.0], [0.0, 1.0]])
        y = unit_matrix(["y0", "y1"], [[0.0, 1.0], [1.0, 0.0]])
        pairs = greedy_match(margin_scores(x, y, MarginParams(k=2)))
        assert {(p.src_id, p.tgt_id) for p in pairs} == {("x0", "y1"), ("x1", "y0")}

    def test_self_alignment_of_identical_matrices(self):
        rng = np.random.default_rng(42)
        rows = random_unit_matrix(rng, 20, 16)
        x = unit_matrix([f"s{i}" for i in range(20)], rows)
        y = unit_matrix([f"t{i}" for i in range(20)], rows)
        pairs = greedy_match(margin_scores(x, y, MarginParams(k=4)))
        twins = {(f"s{i}", f"t{i}") for i in range(20)}
        assert {(p.src_id, p.tgt_id) for p in pairs} >= twins

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_row_permutation_invariant(self, seed):
        # generic rows: exact score ties at the k-th boundary break by row
        # number, so the invariant holds only without them.  Entries are
        # multiples of 2**-12, so every float64 dot product is exact and does
        # not depend on the summation order a BLAS kernel picks for a row's
        # position; 600 source rows span two search tiles.
        rng = np.random.default_rng(seed)
        x_ids = [f"s{i}" for i in range(600)]
        y_ids = [f"t{j}" for j in range(300)]
        x_rows = np.round(random_unit_matrix(rng, 600, 24) * 4096) / 4096
        y_rows = np.round(random_unit_matrix(rng, 300, 24) * 4096) / 4096
        params = MarginParams(k=8)
        expected = greedy_match(margin_scores(unit_matrix(x_ids, x_rows),
                                              unit_matrix(y_ids, y_rows), params))
        px, py = rng.permutation(600), rng.permutation(300)
        permuted = greedy_match(margin_scores(unit_matrix([x_ids[i] for i in px], x_rows[px]),
                                              unit_matrix([y_ids[j] for j in py], y_rows[py]),
                                              params))
        assert permuted == expected

    def test_pair_count_bounded_by_smaller_side(self):
        rng = np.random.default_rng(9)
        x = unit_matrix([f"s{i}" for i in range(3)], random_unit_matrix(rng, 3, 8))
        y = unit_matrix([f"t{i}" for i in range(12)], random_unit_matrix(rng, 12, 8))
        pairs = greedy_match(margin_scores(x, y, MarginParams(k=5)))
        assert len(pairs) <= 3


class TestWritePairsTsv:
    def test_format(self, tmp_path):
        pairs = [AlignedUnitPair("a#0", "b#0", 0.25, 1.3333333333)]
        path = tmp_path / "pairs.tsv"
        write_pairs_tsv(pairs, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# src_id\ttgt_id\tcosine\tmargin"
        assert lines[1] == "a#0\tb#0\t0.250000\t1.333333"
