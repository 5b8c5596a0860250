import itertools
from fractions import Fraction

import numpy as np
import pytest

from chunkalign.corpus import Document, Granularity, segment
from chunkalign.dac import (
    DEFAULT_THRESHOLD,
    DocPairScore,
    aggregate,
    align_documents_dac,
    compute_dac,
    mine_chunk_pairs,
    select_pairs,
    write_scores_tsv,
)
from chunkalign.embed_store import EmbeddingMatrix
from chunkalign.miner import AlignedUnitPair, MarginParams
from synth import planted_corpus


def score(src, tgt, dac, margin_sum=0.0, n_src=10, n_tgt=10):
    n_aligned = round(dac * (n_src + n_tgt) / 2)
    return DocPairScore(src, tgt, n_src, n_tgt, n_aligned, margin_sum)


class TestComputeDac:
    def test_examples(self):
        assert compute_dac(4, 2, 2) == pytest.approx(2 / 3, abs=1e-12)
        assert compute_dac(5, 5, 5) == 1.0
        assert compute_dac(5, 5, 0) == 0.0
        assert compute_dac(1, 3, 1) == 0.5

    def test_matches_exact_rational(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n_src = int(rng.integers(1, 50))
            n_tgt = int(rng.integers(1, 50))
            n_aligned = int(rng.integers(0, min(n_src, n_tgt) + 1))
            exact = Fraction(2 * n_aligned, n_src + n_tgt)
            assert compute_dac(n_src, n_tgt, n_aligned) == float(exact)


class TestDocPairScore:
    def test_validation(self):
        with pytest.raises(ValueError, match="chunk counts must be >= 1"):
            DocPairScore("a", "b", 0, 3, 0, 0.0)
        with pytest.raises(ValueError, match="n_aligned 4 out of range"):
            DocPairScore("a", "b", 3, 3, 4, 0.0)

    def test_dac_derived_from_counts(self):
        s = DocPairScore("a", "b", 4, 2, 2, 2.5)
        assert (s.dac, s.margin_sum) == (compute_dac(4, 2, 2), 2.5)
        # so a dac that disagrees with the counts cannot be given
        with pytest.raises(TypeError):
            DocPairScore("a", "b", 4, 2, 2, 2.5, dac=1.0)


class TestSelectPairsThreshold:
    def test_threshold_range(self):
        select_pairs([], 0.0)
        select_pairs([], 1.0)
        for bad in (1.5, -0.1):
            with pytest.raises(ValueError, match=f"threshold {bad} outside \\[0, 1\\]"):
                select_pairs([score("A", "B", 0.8)], bad)

    def test_default_threshold(self):
        assert DEFAULT_THRESHOLD == 0.1
        scores = [score("A", "B", 0.1), score("C", "D", 0.05)]
        assert [(s.src_doc, s.tgt_doc) for s in select_pairs(scores)] == [("A", "B")]


def units(*docs):
    """The units that segment makes of (doc_id, chunk count) documents at -g 1."""
    return [unit for doc_id, n in docs
            for unit in segment(Document(doc_id, "xx", ("s",) * n), Granularity(1))]


class TestAggregate:
    def test_two_pair_example(self):
        pairs = [
            AlignedUnitPair("A#0", "B#0", 0.9, 1.4),
            AlignedUnitPair("A#2", "B#1", 0.8, 1.1),
        ]
        (s,) = aggregate(pairs, units(("A", 4)), units(("B", 2)))
        assert (s.src_doc, s.tgt_doc) == ("A", "B")
        assert (s.n_src, s.n_tgt, s.n_aligned) == (4, 2, 2)
        assert s.dac == pytest.approx(2 / 3, abs=1e-12)
        assert s.margin_sum == pytest.approx(2.5, abs=1e-12)

    def test_unlinked_documents_absent(self):
        pairs = [AlignedUnitPair("A#0", "B#0", 0.9, 1.0)]
        scores = aggregate(pairs, units(("A", 1), ("lonely", 5)), units(("B", 1), ("alone", 2)))
        assert [(s.src_doc, s.tgt_doc) for s in scores] == [("A", "B")]

    def test_groups_split_by_target(self):
        pairs = [
            AlignedUnitPair("A#0", "B#0", 0.9, 1.0),
            AlignedUnitPair("A#1", "C#0", 0.9, 2.0),
        ]
        scores = aggregate(pairs, units(("A", 2)), units(("B", 1), ("C", 1)))
        assert [(s.src_doc, s.tgt_doc) for s in scores] == [("A", "B"), ("A", "C")]
        assert [s.n_aligned for s in scores] == [1, 1]

    def test_unknown_doc_named(self):
        pairs = [AlignedUnitPair("ghost#0", "B#0", 0.9, 1.0)]
        with pytest.raises(ValueError, match="unknown source unit 'ghost#0'"):
            aggregate(pairs, units(("A", 1)), units(("B", 1)))
        pairs = [AlignedUnitPair("A#0", "ghost#0", 0.9, 1.0)]
        with pytest.raises(ValueError, match="unknown target unit 'ghost#0'"):
            aggregate(pairs, units(("A", 1)), units(("B", 1)))

    def test_malformed_unit_id(self):
        # ids are not parsed, so an id no segment could make is just unknown
        pairs = [AlignedUnitPair("nohash", "B#0", 0.9, 1.0)]
        with pytest.raises(ValueError, match="unknown source unit 'nohash'"):
            aggregate(pairs, units(("A", 1)), units(("B", 1)))
        pairs = [AlignedUnitPair("A#0", "B#x", 0.9, 1.0)]
        with pytest.raises(ValueError, match="unknown target unit 'B#x'"):
            aggregate(pairs, units(("A", 1)), units(("B", 1)))

    def test_output_sorted(self):
        pairs = [
            AlignedUnitPair("z#0", "t#0", 0.9, 1.0),
            AlignedUnitPair("a#0", "t#1", 0.9, 1.0),
        ]
        scores = aggregate(pairs, units(("z", 1), ("a", 1)), units(("t", 2)))
        assert [(s.src_doc, s.tgt_doc) for s in scores] == [("a", "t"), ("z", "t")]

    def test_negative_margins_aggregate(self):
        # a chunk pair of opposed vectors has a negative cosine, and so a
        # negative margin; greedy matching still accepts it when both ends are free
        pairs = [
            AlignedUnitPair("A#0", "B#0", -0.4, -0.8),
            AlignedUnitPair("A#1", "B#1", 0.2, 0.5),
        ]
        (s,) = aggregate(pairs, units(("A", 2)), units(("B", 2)))
        assert s.n_aligned == 2
        assert s.margin_sum == pytest.approx(-0.3, abs=1e-12)

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_margin_sum_adds_in_input_order(self, order):
        # 1e16 + 1.0 rounds back to 1e16, so the sum depends on the order
        margins = [1e16, 1.0, -1e16]
        pairs = [AlignedUnitPair(f"A#{i}", f"B#{i}", 0.5, margins[i]) for i in order]
        (s,) = aggregate(pairs, units(("A", 3)), units(("B", 3)))
        expected = 0.0
        for pair in pairs:
            expected += pair.margin
        assert s.margin_sum == expected
        assert s.margin_sum == (0.0 if order.index(1) < 2 else 1.0)

    def test_hash_doc_ids_group_by_segmentation(self):
        # "a#1" is both a chunk of doc "a" and the id of another doc, whose
        # chunk "a#1#0" is in turn the id of a third doc
        src = units(("a", 2), ("a#1", 1), ("a#1#0", 3))
        pairs = [
            AlignedUnitPair("a#1", "t#0", 0.9, 1.0),
            AlignedUnitPair("a#1#0", "t#1", 0.9, 1.0),
            AlignedUnitPair("a#1#0#2", "t#2", 0.9, 1.0),
            AlignedUnitPair("a#1#0#0", "t#3", 0.9, 1.0),
        ]
        scores = aggregate(pairs, src, units(("t", 4)))
        assert [(s.src_doc, s.n_src, s.n_aligned) for s in scores] == [
            ("a", 2, 1), ("a#1", 1, 1), ("a#1#0", 3, 2)]


class TestSelectPairs:
    def test_greedy_trace(self):
        scores = [
            score("A", "B", 0.8),
            score("A", "C", 0.5),
            score("D", "C", 0.4),
        ]
        chosen = select_pairs(scores, 0.1)
        assert [(s.src_doc, s.tgt_doc) for s in chosen] == [("A", "B"), ("D", "C")]

    def test_threshold_filters(self):
        scores = [score("A", "B", 0.8), score("C", "D", 0.2)]
        chosen = select_pairs(scores, 0.5)
        assert [(s.src_doc, s.tgt_doc) for s in chosen] == [("A", "B")]

    def test_threshold_boundary_inclusive(self):
        scores = [score("A", "B", 1.0)]
        chosen = select_pairs(scores, 1.0)
        assert len(chosen) == 1

    def test_keep_all_mode(self):
        scores = [
            score("A", "B", 0.8),
            score("A", "C", 0.5),
            score("D", "C", 0.4),
        ]
        chosen = select_pairs(scores, 0.1, one_to_one=False)
        assert len(chosen) == 3

    def test_margin_sum_breaks_dac_ties(self):
        scores = [
            score("A", "weak", 0.6, margin_sum=1.0),
            score("A", "strong", 0.6, margin_sum=9.0),
        ]
        chosen = select_pairs(scores, 0.1)
        assert [(s.src_doc, s.tgt_doc) for s in chosen] == [("A", "strong")]

    def test_lexicographic_final_tie_break(self):
        scores = [
            score("A", "zz", 0.6, margin_sum=2.0),
            score("A", "bb", 0.6, margin_sum=2.0),
        ]
        chosen = select_pairs(scores, 0.1)
        assert [(s.src_doc, s.tgt_doc) for s in chosen] == [("A", "bb")]

    def test_empty_input(self):
        assert select_pairs([]) == []

    def test_yield_non_increasing_in_threshold(self):
        rng = np.random.default_rng(1234)
        for _ in range(10):
            scores = []
            for i in range(int(rng.integers(1, 25))):
                n_src = int(rng.integers(1, 8))
                n_tgt = int(rng.integers(1, 8))
                n_aligned = int(rng.integers(0, min(n_src, n_tgt) + 1))
                scores.append(DocPairScore(
                    f"s{i}", f"t{int(rng.integers(0, 12))}", n_src, n_tgt, n_aligned,
                    float(rng.random())))
            # target ids collide on purpose; dedupe to keep aggregate-like shape
            seen = {}
            for s in scores:
                seen.setdefault((s.src_doc, s.tgt_doc), s)
            scores = list(seen.values())
            previous = None
            for threshold in (0.0, 0.25, 0.5, 0.75, 1.0):
                count = len(select_pairs(scores, threshold))
                if previous is not None:
                    assert count <= previous
                previous = count


class TestAlignDocumentsDac:
    def test_planted_corpus_fully_recovered(self):
        src_docs, tgt_docs, src_emb, tgt_emb, gold = planted_corpus(
            n_pairs=20, chunks_per_doc=3, n_noise=10)
        chosen = align_documents_dac(src_docs, tgt_docs, src_emb, tgt_emb, Granularity(1),
                                     MarginParams(k=8), threshold=0.1)
        assert {(s.src_doc, s.tgt_doc) for s in chosen} == gold.pairs
        assert all(s.dac == 1.0 for s in chosen)
        assert all(s.n_aligned == 3 for s in chosen)

    def test_min_margin_floor_can_empty_the_result(self):
        src_docs, tgt_docs, src_emb, tgt_emb, _ = planted_corpus(
            n_pairs=5, chunks_per_doc=2, n_noise=0)
        chosen = align_documents_dac(src_docs, tgt_docs, src_emb, tgt_emb,
                                     params=MarginParams(k=4, min_margin=1e9), threshold=0.1)
        assert chosen == []

    def test_mine_chunk_pairs_counts(self):
        src_docs, tgt_docs, src_emb, tgt_emb, _ = planted_corpus(
            n_pairs=4, chunks_per_doc=3, n_noise=2)
        pairs, scores = mine_chunk_pairs(
            src_docs, tgt_docs, src_emb, tgt_emb, params=MarginParams(k=4))
        assert all(s.n_src == s.n_tgt == 3 for s in scores)
        assert {s.src_doc for s in scores} <= {doc.doc_id for doc in src_docs}
        assert {s.tgt_doc for s in scores} <= {doc.doc_id for doc in tgt_docs}
        assert sum(s.n_aligned for s in scores) == len(pairs)
        assert pairs

    def test_missing_embedding_raises_keyerror(self):
        src_docs, tgt_docs, src_emb, tgt_emb, _ = planted_corpus(
            n_pairs=2, chunks_per_doc=2, n_noise=0)
        truncated = EmbeddingMatrix(ids=src_emb.ids[:-1], data=src_emb.data[:-1])
        with pytest.raises(KeyError, match="no embedding for id"):
            align_documents_dac(src_docs, tgt_docs, truncated, tgt_emb,
                                params=MarginParams(k=2))

    def test_granularity_two_still_recovers(self):
        src_docs, tgt_docs, src_emb, tgt_emb, gold = planted_corpus(
            n_pairs=6, chunks_per_doc=4, n_noise=0, granularity=2)
        chosen = align_documents_dac(src_docs, tgt_docs, src_emb, tgt_emb, Granularity(2),
                                     MarginParams(k=4), threshold=0.1)
        assert {(s.src_doc, s.tgt_doc) for s in chosen} == gold.pairs


class TestWriteScoresTsv:
    def test_format(self, tmp_path):
        scores = [DocPairScore("A", "B", 4, 2, 2, 2.5)]
        path = tmp_path / "scores.tsv"
        write_scores_tsv(scores, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# src_doc\ttgt_doc\tn_src\tn_tgt\tn_aligned\tdac"
        assert lines[1] == "A\tB\t4\t2\t2\t0.666667"
