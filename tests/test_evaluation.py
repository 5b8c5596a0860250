import io
import json
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chunkalign.dac import DocPairScore, select_pairs
from chunkalign.evaluation import (
    EvalReport,
    GoldSet,
    NoiseConfig,
    inject_noise,
    load_gold,
    load_pairs,
    report_to_dict,
    score,
    sweep_thresholds,
    write_reports_json,
    write_reports_tsv,
)
from oracles import inject_noise_reference
from synth import make_doc


class TestGoldSet:
    def test_from_pairs(self):
        gold = GoldSet.from_pairs([("a", "b"), ("c", "d")])
        assert len(gold) == 2
        assert ("a", "b") in gold.pairs

    def test_source_reuse_rejected(self):
        with pytest.raises(ValueError, match="'a' appears in more than one gold pair"):
            GoldSet.from_pairs([("a", "b"), ("a", "c")])

    def test_target_reuse_rejected(self):
        with pytest.raises(ValueError, match="'b' appears in more than one gold pair"):
            GoldSet.from_pairs([("a", "b"), ("c", "b")])

    def test_exact_duplicate_rejected(self):
        # even a repeat of the same pair reuses both sides
        with pytest.raises(ValueError, match="more than one gold pair"):
            GoldSet.from_pairs([("a", "b"), ("a", "b")])


class TestLoaders:
    def test_load_gold(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("# src\ttgt\na\tb\n\nc\td\n", encoding="utf-8")
        gold = load_gold(path)
        assert gold.pairs == {("a", "b"), ("c", "d")}

    def test_byte_order_mark_skipped(self, tmp_path):
        gold_path, pairs_path = tmp_path / "gold.tsv", tmp_path / "pairs.tsv"
        gold_path.write_text("\ufeffa\tb\nc\td\n", encoding="utf-8")
        pairs_path.write_text("\ufeffa\tb\t0.9\n", encoding="utf-8")
        gold = load_gold(gold_path)
        assert gold.pairs == {("a", "b"), ("c", "d")}
        assert load_pairs(pairs_path) == [("a", "b")]

    def test_load_gold_malformed_row(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("only_one_column\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":1: expected src_doc"):
            load_gold(path)

    def test_load_pairs_takes_first_two_columns(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("# header\na\tb\t0.9\t1.3\nc\td\t0.8\t1.1\n", encoding="utf-8")
        assert load_pairs(path) == [("a", "b"), ("c", "d")]

    def test_load_pairs_duplicate(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("a\tb\na\tb\n", encoding="utf-8")
        with pytest.raises(ValueError, match="duplicate pair"):
            load_pairs(path)

    def test_load_pairs_linear_in_rows(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("".join(f"s{i}\tt{i}\n" for i in range(20_000)), encoding="utf-8")
        start = time.perf_counter()
        assert len(load_pairs(path)) == 20_000
        assert time.perf_counter() - start < 2.0


class TestScore:
    def test_half_precision_full_recall(self):
        gold = GoldSet.from_pairs([("a", "b")])
        report = score([("a", "b"), ("c", "d")], gold)
        assert report.true_positives == 1
        assert report.precision == pytest.approx(0.5)
        assert report.recall == pytest.approx(1.0)
        assert report.f1 == pytest.approx(2 / 3, abs=1e-9)

    def test_perfect(self):
        gold = GoldSet.from_pairs([("a", "b"), ("c", "d")])
        report = score([("a", "b"), ("c", "d")], gold)
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)

    def test_nothing_predicted(self):
        gold = GoldSet.from_pairs([("a", "b")])
        report = score([], gold)
        assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)

    def test_empty_gold(self):
        report = score([("a", "b")], GoldSet(pairs=frozenset()))
        assert report.recall == 0.0
        assert report.precision == 0.0

    def test_duplicate_predictions_rejected(self):
        gold = GoldSet.from_pairs([("a", "b")])
        with pytest.raises(ValueError, match="duplicate predicted pair"):
            score([("a", "b"), ("a", "b")], gold)

    def test_threshold_carried_through(self):
        gold = GoldSet.from_pairs([("a", "b")])
        assert score([], gold, threshold=0.3).threshold == 0.3

    def test_f1_bounded_by_twice_min(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n_gold = int(rng.integers(1, 15))
            gold = GoldSet.from_pairs([(f"g{i}", f"h{i}") for i in range(n_gold)])
            n_pred = int(rng.integers(0, 20))
            predicted = []
            for i in range(n_pred):
                if rng.random() < 0.5 and i < n_gold:
                    predicted.append((f"g{i}", f"h{i}"))
                else:
                    predicted.append((f"p{i}", f"q{i}"))
            predicted = list(dict.fromkeys(predicted))
            report = score(predicted, gold)
            assert report.f1 <= 2 * min(report.precision, report.recall) + 1e-12
            assert 0.0 <= report.f1 <= 1.0


class TestNoiseInjection:
    def make_pool(self, count, prefix="n"):
        return [make_doc(f"{prefix}{i}", "xx", 2) for i in range(count)]

    def test_count_is_floor(self):
        alignable = self.make_pool(5, prefix="a")
        mixed = inject_noise(alignable, self.make_pool(10), NoiseConfig(ratio=0.5, seed=0))
        assert len(mixed) == 5 + 2  # floor(2.5)
        # the float product 0.29 * 100 is 28.999999999999996
        mixed = inject_noise(self.make_pool(100, prefix="a"), self.make_pool(28),
                             NoiseConfig(ratio=0.29, seed=0))
        assert len(mixed) == 128

    def test_zero_ratio(self):
        alignable = self.make_pool(4, prefix="a")
        mixed = inject_noise(alignable, self.make_pool(3), NoiseConfig(ratio=0.0, seed=0))
        assert mixed == list(alignable)

    def test_alignable_order_preserved(self):
        alignable = self.make_pool(6, prefix="a")
        mixed = inject_noise(alignable, self.make_pool(12), NoiseConfig(ratio=1.0, seed=7))
        assert mixed[:6] == alignable
        assert len(mixed) == 12

    def test_deterministic_per_seed(self):
        alignable = self.make_pool(8, prefix="a")
        pool = self.make_pool(30)
        first = inject_noise(alignable, pool, NoiseConfig(ratio=0.75, seed=42))
        second = inject_noise(alignable, pool, NoiseConfig(ratio=0.75, seed=42))
        assert [d.doc_id for d in first] == [d.doc_id for d in second]

    def test_seed_changes_sample(self):
        alignable = self.make_pool(8, prefix="a")
        pool = self.make_pool(30)
        one = inject_noise(alignable, pool, NoiseConfig(ratio=0.75, seed=1))
        two = inject_noise(alignable, pool, NoiseConfig(ratio=0.75, seed=2))
        assert [d.doc_id for d in one] != [d.doc_id for d in two]

    def test_insufficient_pool(self):
        alignable = self.make_pool(10, prefix="a")
        with pytest.raises(ValueError, match="noise pool has 2 docs but 5 are needed"):
            inject_noise(alignable, self.make_pool(2), NoiseConfig(ratio=0.5, seed=0))

    def test_id_collision(self):
        alignable = self.make_pool(2, prefix="x")
        pool = self.make_pool(2, prefix="x")
        with pytest.raises(ValueError, match="shares doc ids"):
            inject_noise(alignable, pool, NoiseConfig(ratio=0.5, seed=0))

    def test_duplicate_pool_ids(self):
        alignable = self.make_pool(2, prefix="a")
        pool = [make_doc("dup", "xx", 1), make_doc("dup", "xx", 1)]
        with pytest.raises(ValueError, match="duplicate doc ids"):
            inject_noise(alignable, pool, NoiseConfig(ratio=0.5, seed=0))

    def test_huge_finite_ratio_named(self):
        # 1e308 * 4 overflows to inf; flooring it would raise OverflowError
        alignable = self.make_pool(4, prefix="a")
        with pytest.raises(ValueError, match=r"^noise pool has 3 docs but more than 3 are "
                                             r"needed \(noise ratio 1e\+308 of 4 docs\)$"):
            inject_noise(alignable, self.make_pool(3), NoiseConfig(ratio=1e308, seed=0))

    def test_insufficient_pool_names_ratio(self):
        alignable = self.make_pool(10, prefix="a")
        with pytest.raises(ValueError, match=r"^noise pool has 5 docs but 6 are needed "
                                             r"\(noise ratio 0.6 of 10 docs\)$"):
            inject_noise(alignable, self.make_pool(5), NoiseConfig(ratio=0.6, seed=0))
        # a product just below the next whole count still floors to the pool size
        assert len(inject_noise(alignable, self.make_pool(5),
                                NoiseConfig(ratio=0.59999, seed=0))) == 15

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="^noise seed must be >= 0, got -1$"):
            NoiseConfig(seed=-1)

    def test_negative_ratio_rejected(self):
        with pytest.raises(ValueError, match="noise ratio must be >= 0"):
            NoiseConfig(ratio=-0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_ratio_rejected(self, value):
        with pytest.raises(ValueError, match=f"^noise ratio must be finite, got {value}$"):
            NoiseConfig(ratio=value)


@st.composite
def noise_cases(draw):
    """(corpus size, ratio, pool size, pool fault, seed): ratios include
    decimals whose float product floors below the decimal one (0.29 x 100 is
    28.999999999999996), and pools are a doc short of the count, exactly
    large enough, or larger."""
    n = draw(st.integers(0, 120))
    ratio = draw(st.one_of(st.sampled_from([0.0, 0.07, 0.1, 0.29, 0.3, 0.57, 0.58, 1.13, 2.0]),
                           st.floats(0, 3)))
    pool_size = max(0, math.floor(ratio * n) + draw(st.sampled_from([-1, 0, 1, 7])))
    fault = draw(st.sampled_from([None, None, "duplicate", "shared"]))
    return n, ratio, pool_size, fault, draw(st.integers(0, 2**64 - 1))


class TestNoiseInjectionReference:
    @settings(max_examples=200, deadline=None)
    @given(noise_cases())
    @example((100, 0.29, 28, None, 5))
    @example((100, 0.29, 27, None, 5))
    def test_matches_definitional_sampler(self, case):
        n, ratio, pool_size, fault, seed = case
        alignable = [make_doc(f"a{i}", "xx", 1) for i in range(n)]
        pool = [make_doc(f"n{i}", "xx", 1) for i in range(pool_size)]
        if fault == "duplicate":
            pool += [make_doc("dup", "xx", 1)] * 2
        elif fault == "shared" and alignable:
            pool.append(alignable[-1])
        config = NoiseConfig(ratio=ratio, seed=seed)
        try:
            expected = inject_noise_reference(alignable, pool, config)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                inject_noise(alignable, pool, config)
            assert str(raised.value).startswith(str(exc))
        else:
            assert inject_noise(alignable, pool, config) == expected


class TestDeriveSideSeeds:
    """NoiseConfig.per_side: one config per side, at independent seeds split from one."""

    def test_deterministic(self):
        assert NoiseConfig(seed=42).per_side() == NoiseConfig(seed=42).per_side()

    def test_sides_differ(self):
        src, tgt = NoiseConfig(ratio=0.25, seed=42).per_side()
        assert src.ratio == tgt.ratio == 0.25
        assert src.seed != tgt.seed

    def test_run_seeds_differ(self):
        assert NoiseConfig(seed=1).per_side() != NoiseConfig(seed=2).per_side()

    @pytest.mark.parametrize("seed", [0, 9, 2**64 - 1])
    def test_seeds_are_the_seed_sequence_state(self, seed):
        # a noisy run's outputs depend on exactly these seeds
        state = np.random.SeedSequence(seed).generate_state(2, np.uint64)
        sides = NoiseConfig(seed=seed).per_side()
        assert [side.seed for side in sides] == [int(value) for value in state]
        assert all(type(side.seed) is int for side in sides)


def random_scores(rng, n_src=12, n_tgt=12, density=0.5):
    scores = []
    for i in range(n_src):
        for j in range(n_tgt):
            if rng.random() > density:
                continue
            n_s = int(rng.integers(1, 6))
            n_t = int(rng.integers(1, 6))
            n_a = int(rng.integers(0, min(n_s, n_t) + 1))
            scores.append(DocPairScore(f"s{i}", f"t{j}", n_s, n_t, n_a, float(rng.random())))
    return scores


class TestSweep:
    def test_empty_thresholds(self):
        gold = GoldSet.from_pairs([("a", "b")])
        assert sweep_thresholds([], gold, []) == []

    def test_unsorted_rejected(self):
        gold = GoldSet.from_pairs([("a", "b")])
        with pytest.raises(ValueError, match="sorted ascending"):
            sweep_thresholds([], gold, [0.5, 0.1])

    def test_out_of_range_rejected(self):
        gold = GoldSet.from_pairs([("a", "b")])
        with pytest.raises(ValueError, match="outside \\[0, 1\\]"):
            sweep_thresholds([], gold, [0.5, 1.5])

    def test_recall_and_yield_non_increasing(self):
        rng = np.random.default_rng(1234)
        thresholds = [round(t, 2) for t in np.linspace(0.0, 1.0, 11)]
        for trial in range(10):
            scores = random_scores(rng)
            gold = GoldSet.from_pairs([(f"s{i}", f"t{i}") for i in range(12)])
            reports = sweep_thresholds(scores, gold, thresholds)
            assert [r.threshold for r in reports] == thresholds
            for prev, cur in zip(reports, reports[1:]):
                assert cur.recall <= prev.recall + 1e-12
                assert cur.predicted_count <= prev.predicted_count

    def test_keep_all_sweep_also_monotone(self):
        rng = np.random.default_rng(7)
        scores = random_scores(rng)
        gold = GoldSet.from_pairs([(f"s{i}", f"t{i}") for i in range(12)])
        reports = sweep_thresholds(scores, gold, [0.0, 0.5, 1.0], one_to_one=False)
        for prev, cur in zip(reports, reports[1:]):
            assert cur.recall <= prev.recall + 1e-12
            assert cur.predicted_count <= prev.predicted_count


@st.composite
def tie_heavy_scores(draw):
    """Document-pair scores, each (src, tgt) once, whose dac and margin_sum
    values come from small pools, so that rankings tie often."""
    keys = draw(st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=20))
    margin_sums = st.sampled_from([0.0, 0.5, 1.0, 2.5])
    scores = []
    for i, j in sorted(keys):
        n_src, n_tgt = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        n_aligned = draw(st.integers(0, min(n_src, n_tgt)))
        scores.append(DocPairScore(f"s{i}", f"t{j}", n_src, n_tgt, n_aligned, draw(margin_sums)))
    return draw(st.permutations(scores))


class TestSweepProperties:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), scores=tie_heavy_scores(), one_to_one=st.booleans())
    def test_equals_one_selection_per_threshold(self, data, scores, one_to_one):
        # thresholds: 0.0, the dacs themselves, just above them (so above
        # every dac when taken from the largest), any value, with repeats
        dacs = sorted({s.dac for s in scores}) or [0.0]
        threshold = (st.just(0.0) | st.sampled_from(dacs)
                     | st.sampled_from(dacs).map(lambda d: min(1.0, float(np.nextafter(d, 2))))
                     | st.floats(0.0, 1.0))
        thresholds = sorted(data.draw(st.lists(threshold, max_size=6)))
        gold = GoldSet.from_pairs(data.draw(st.sets(st.sampled_from(
            [(f"s{i}", f"t{i}") for i in range(6)]))))
        expected = [
            score([(s.src_doc, s.tgt_doc) for s in select_pairs(scores, t, one_to_one)], gold, t)
            for t in thresholds
        ]
        assert sweep_thresholds(scores, gold, thresholds, one_to_one) == expected


class TestReportWriters:
    def sample_reports(self):
        return [
            EvalReport(1, 2, 1, 0.5, 1.0, 2 / 3, threshold=0.1),
            EvalReport(0, 0, 1, 0.0, 0.0, 0.0, threshold=None),
        ]

    def test_tsv(self):
        buf = io.StringIO()
        write_reports_tsv(self.sample_reports(), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# threshold\ttp\tpredicted\tgold\tprecision\trecall\tf1"
        assert lines[1] == "0.100000\t1\t2\t1\t0.500000\t1.000000\t0.666667"
        assert lines[2].startswith("-\t0\t0\t1")

    def test_json(self):
        buf = io.StringIO()
        write_reports_json(self.sample_reports(), buf)
        data = json.loads(buf.getvalue())
        assert data[0]["precision"] == 0.5
        assert data[0]["f1"] == 0.666667
        assert data[1]["threshold"] is None

    def test_report_to_dict_rounds(self):
        report = EvalReport(1, 3, 2, 1 / 3, 0.5, 0.4, threshold=0.123456789)
        d = report_to_dict(report)
        assert d["precision"] == 0.333333
        assert d["threshold"] == 0.123457
