"""End-to-end gate for the whole pipeline.

Each test prints one [acceptance] PASS/FAIL line on the real stdout so the
run's verdict can be read off even from a verbose pytest log.
"""

import json
import struct
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from chunkalign.corpus import Document, Granularity
from chunkalign.dac import (
    DocPairScore,
    align_documents_dac,
    compute_dac,
    mine_chunk_pairs,
    select_pairs,
)
from chunkalign.embed_store import EmbeddingMatrix, read_matrix, write_matrix
from chunkalign.evaluation import score, sweep_thresholds
from chunkalign.knn import build, search_arrays
from chunkalign.miner import MarginParams, greedy_match, margin_scores
from chunkalign.pooled import align_documents_pooled, pool_corpus
from chunkalign.pooling import PoolingMethod
from conftest import random_unit_matrix
from oracles import (
    brute_force_topk,
    candidate_tuples,
    candidates_from_tuples,
    margin_oracle,
    pooled_oracle,
    pooling_weights_oracle,
)
from synth import planted_corpus
from test_cli import align_argv, run_cli, write_corpus, write_gold


@contextmanager
def criterion(name, capsys):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] {name}: FAIL")
        raise
    with capsys.disabled():
        print(f"[acceptance] {name}: PASS")


def test_01_exact_knn_search(capsys):
    with criterion("exact knn search", capsys):
        rng = np.random.default_rng(20240817)
        started = time.monotonic()
        for _ in range(20):
            n = int(rng.integers(50, 1001))
            m = int(rng.integers(20, 301))
            dim = int(rng.integers(8, 65))
            k = int(rng.integers(1, 33))
            base = random_unit_matrix(rng, n, dim)
            queries = random_unit_matrix(rng, m, dim)
            index = build(EmbeddingMatrix(ids=[str(i) for i in range(n)], data=base))
            forward, backward = search_arrays(index, queries, k=k)
            # backward ranks the queries for every index row
            for (scores, rows), (searched, asking) in ((forward, (base, queries)),
                                                        (backward, (queries, base))):
                exp_scores, exp_rows = brute_force_topk(searched, asking, k)
                np.testing.assert_array_equal(rows, exp_rows)
                np.testing.assert_allclose(scores, exp_scores, atol=1e-6)
        assert time.monotonic() - started < 10.0


def test_02_margin_scoring(capsys):
    with criterion("margin scoring", capsys):
        # frozen hand example: one source on the x axis, targets on both axes
        x = EmbeddingMatrix(ids=["x1"], data=np.array([[1.0, 0.0]], dtype=np.float32))
        y = EmbeddingMatrix(ids=["y1", "y2"],
                            data=np.eye(2, dtype=np.float32))
        scored = {(c[0], c[1]): c[3]
                  for c in candidate_tuples(margin_scores(x, y, MarginParams(k=2)))}
        assert scored[("x1", "y1")] == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert scored[("x1", "y2")] == pytest.approx(0.0, abs=1e-12)

        rng = np.random.default_rng(42)
        x_rows = random_unit_matrix(rng, 50, 12)
        y_rows = random_unit_matrix(rng, 50, 12)
        x = EmbeddingMatrix(ids=[f"s{i}" for i in range(50)], data=x_rows)
        y = EmbeddingMatrix(ids=[f"t{j}" for j in range(50)], data=y_rows)
        got = {(c[0], c[1]): (c[2], c[3])
               for c in candidate_tuples(margin_scores(x, y, MarginParams(k=8)))}
        expected = margin_oracle(x_rows, y_rows, k=8)
        assert set(got) == {(f"s{i}", f"t{j}") for i, j in expected}
        for (i, j), (exp_cos, exp_margin) in expected.items():
            cos, margin = got[(f"s{i}", f"t{j}")]
            assert cos == pytest.approx(exp_cos, abs=1e-6)
            assert margin == pytest.approx(exp_margin, abs=1e-6)


def test_03_dac_exact_rational(capsys):
    with criterion("dac exact rational", capsys):
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            n_src = int(rng.integers(1, 200))
            n_tgt = int(rng.integers(1, 200))
            n_aligned = int(rng.integers(0, min(n_src, n_tgt) + 1))
            assert compute_dac(n_src, n_tgt, n_aligned) == float(
                Fraction(2 * n_aligned, n_src + n_tgt))


def test_04_planted_corpus_recovery(capsys):
    with criterion("planted corpus recovery", capsys):
        started = time.monotonic()
        src_docs, tgt_docs, src_emb, tgt_emb, gold = planted_corpus(
            n_pairs=100, chunks_per_doc=5, n_noise=50, perturbation=0.04)

        chosen = align_documents_dac(src_docs, tgt_docs, src_emb, tgt_emb, Granularity(1),
                                     MarginParams(k=16), threshold=0.1)
        dac_report = score([(s.src_doc, s.tgt_doc) for s in chosen], gold)
        assert dac_report.precision == 1.0
        assert dac_report.recall == 1.0

        pooled = align_documents_pooled(src_docs, tgt_docs, src_emb, tgt_emb,
                                        PoolingMethod.MP, MarginParams(k=16))
        pooled_report = score([(p.src_id, p.tgt_id) for p in pooled], gold)
        assert pooled_report.recall >= 0.95
        assert time.monotonic() - started < 30.0


def test_05_threshold_sweep_shape(capsys):
    with criterion("threshold sweep shape", capsys):
        src_docs, tgt_docs, src_emb, tgt_emb, gold = planted_corpus(
            n_pairs=40, chunks_per_doc=3, n_noise=15,
            perturbation=0.5, replace_frac=0.3, orthogonal_noise=False, dim=64)
        _, scores = mine_chunk_pairs(
            src_docs, tgt_docs, src_emb, tgt_emb, params=MarginParams(k=8))
        thresholds = [round(0.1 * i, 1) for i in range(11)]
        reports = sweep_thresholds(scores, gold, thresholds)
        by_threshold = {r.threshold: r for r in reports}
        for prev, cur in zip(reports, reports[1:]):
            assert cur.recall <= prev.recall + 1e-12
            assert cur.predicted_count <= prev.predicted_count
        assert by_threshold[0.5].precision >= by_threshold[0.0].precision
        # the degraded fixture must actually exercise the trade-off
        assert 0.0 < by_threshold[0.0].recall < 1.0
        assert by_threshold[0.0].predicted_count > by_threshold[1.0].predicted_count


def test_06_pooling_invariants(capsys):
    with criterion("pooling invariants", capsys):
        rng = np.random.default_rng(7)
        vocab = [f"tok{v}" for v in range(40)]
        docs = []
        for d in range(100):
            sentences = tuple(
                " ".join(rng.choice(vocab, size=int(rng.integers(1, 6))))
                for _ in range(int(rng.integers(1, 7)))
            )
            docs.append(Document(doc_id=f"doc{d}", lang="xx", sentences=sentences))
        rows = {doc.doc_id: random_unit_matrix(rng, len(doc.sentences), 16) for doc in docs}
        perms = {doc.doc_id: rng.permutation(len(doc.sentences)) for doc in docs}
        # each document's sentences, and their rows, in another order
        shuffled_docs = [Document(doc.doc_id, doc.lang,
                                  tuple(doc.sentences[i] for i in perms[doc.doc_id]))
                         for doc in docs]
        shuffled_rows = {doc_id: r[perms[doc_id]] for doc_id, r in rows.items()}

        def matrix(docs, rows):
            return EmbeddingMatrix(
                ids=[f"{doc.doc_id}#{i}" for doc in docs for i in range(len(doc.sentences))],
                data=np.vstack([rows[doc.doc_id] for doc in docs]))

        for method in PoolingMethod:
            pooled = pool_corpus(docs, matrix(docs, rows), method)
            shuffled = pool_corpus(shuffled_docs, matrix(shuffled_docs, shuffled_rows), method)
            for doc, row, shuffled_row, weights in zip(docs, pooled.data, shuffled.data,
                                                       pooling_weights_oracle(docs, method)):
                np.testing.assert_allclose(row, pooled_oracle(rows[doc.doc_id], weights),
                                           atol=1e-6)
                assert abs(np.linalg.norm(row.astype(np.float64)) - 1.0) < 1e-6
                np.testing.assert_allclose(row, shuffled_row, atol=1e-6)


def test_07_cli_worker_determinism(tmp_path, capsys):
    with criterion("cli worker determinism", capsys):
        src_docs, tgt_docs, src_emb, tgt_emb, gold = planted_corpus(
            n_pairs=25, chunks_per_doc=4, n_noise=10)
        paths = {
            "src_manifest": write_corpus(tmp_path, src_docs, "src"),
            "tgt_manifest": write_corpus(tmp_path, tgt_docs, "tgt"),
            "src_emb": tmp_path / "src.demb",
            "tgt_emb": tmp_path / "tgt.demb",
        }
        write_matrix(src_emb, paths["src_emb"])
        write_matrix(tgt_emb, paths["tgt_emb"])
        gold_path = write_gold(tmp_path, gold)
        outputs = {}
        for workers in ("1", "8"):
            out_dir = tmp_path / f"run{workers}"
            code = run_cli(align_argv(paths, out_dir,
                                      "--gold", str(gold_path),
                                      "--workers", workers))
            assert code == 0
            outputs[workers] = (
                (out_dir / "pairs.tsv").read_bytes(),
                (out_dir / "report.tsv").read_bytes(),
            )
        assert outputs["1"][0] == outputs["8"][0]
        assert outputs["1"][1] == outputs["8"][1]


def test_08_one_to_one_selection(capsys):
    with criterion("one-to-one selection", capsys):
        rng = np.random.default_rng(99)
        for _ in range(25):
            # chunk-level candidates
            candidates = {}
            for _ in range(int(rng.integers(0, 60))):
                key = (f"s{int(rng.integers(0, 15))}", f"t{int(rng.integers(0, 15))}")
                candidates.setdefault(
                    key, key + (float(rng.random()), float(rng.random() * 2)))
            pairs = greedy_match(candidates_from_tuples(candidates.values()))
            assert len({p.src_id for p in pairs}) == len(pairs)
            assert len({p.tgt_id for p in pairs}) == len(pairs)
            accepted_src = {p.src_id for p in pairs}
            accepted_tgt = {p.tgt_id for p in pairs}
            for src_id, tgt_id in candidates:
                # greedy matching is maximal: anything rejected collides
                assert (src_id, tgt_id) in {(p.src_id, p.tgt_id) for p in pairs} \
                    or src_id in accepted_src or tgt_id in accepted_tgt

            # document-level selection
            scores = {}
            for _ in range(int(rng.integers(0, 40))):
                key = (f"a{int(rng.integers(0, 10))}", f"b{int(rng.integers(0, 10))}")
                if key in scores:
                    continue
                n_s = int(rng.integers(1, 7))
                n_t = int(rng.integers(1, 7))
                n_a = int(rng.integers(0, min(n_s, n_t) + 1))
                scores[key] = DocPairScore(key[0], key[1], n_s, n_t, n_a, float(rng.random()))
            threshold = float(rng.choice([0.0, 0.1, 0.3, 0.6]))
            chosen = select_pairs(list(scores.values()), threshold)
            assert len({s.src_doc for s in chosen}) == len(chosen)
            assert len({s.tgt_doc for s in chosen}) == len(chosen)
            assert all(s.dac >= threshold for s in chosen)
            kept_all = select_pairs(list(scores.values()), threshold, one_to_one=False)
            assert {(s.src_doc, s.tgt_doc) for s in chosen} <= \
                {(s.src_doc, s.tgt_doc) for s in kept_all}


def test_09_embedding_store_round_trip(tmp_path, capsys):
    with criterion("embedding store round trip", capsys):
        rng = np.random.default_rng(4321)
        for trial in range(50):
            count = int(rng.integers(0, 30))
            dim = int(rng.integers(1, 48))
            ids = [f"d{trial}-{u}#x" for u in range(count)]
            data = rng.standard_normal((count, dim)).astype(np.float32)
            path = tmp_path / f"m{trial}.demb"
            write_matrix(EmbeddingMatrix(ids=ids, data=data), path)
            back = read_matrix(path)
            assert back.ids == ids
            assert back.data.tobytes() == data.tobytes()

        good = tmp_path / "good.demb"
        write_matrix(EmbeddingMatrix(ids=["a", "b"],
                                     data=np.eye(2, dtype=np.float32)), good)
        blob = good.read_bytes()

        def corrupt(mutate):
            bad = bytearray(blob)
            mutate(bad)
            broken = tmp_path / "broken.demb"
            broken.write_bytes(bytes(bad))
            with pytest.raises(ValueError):
                read_matrix(broken)

        corrupt(lambda b: b.__setitem__(slice(0, 4), b"JUNK"))
        corrupt(lambda b: struct.pack_into("<H", b, 4, 77))
        corrupt(lambda b: struct.pack_into("<I", b, 6, 0))
        corrupt(lambda b: b.__delitem__(slice(-3, None)))
        corrupt(lambda b: b.extend(b"\x00"))
        corrupt(lambda b: b.__delitem__(slice(struct.calcsize("<4sHIQ") + 1,
                                              struct.calcsize("<4sHIQ") + 5)))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_10_dac_beats_pooling_on_noisy_corpus(seed, capsys):
    # the paper's claim: with part of each side's chunks replaced and noise
    # documents that are not orthogonal to the planted ones, chunk-level dac
    # recovers more gold pairs than any pooled baseline
    with criterion(f"dac beats pooling, seed {seed}", capsys):
        src_docs, tgt_docs, src_emb, tgt_emb, gold = planted_corpus(
            n_pairs=60, chunks_per_doc=6, n_noise=30, perturbation=0.8, replace_frac=0.3,
            orthogonal_noise=False, dim=64, seed=seed)
        params = MarginParams(k=8)
        chosen = align_documents_dac(src_docs, tgt_docs, src_emb, tgt_emb, Granularity(1),
                                     params)
        dac_recall = score([(s.src_doc, s.tgt_doc) for s in chosen], gold).recall
        for method in PoolingMethod:
            pooled = align_documents_pooled(src_docs, tgt_docs, src_emb, tgt_emb, method, params)
            pooled_recall = score([(p.src_id, p.tgt_id) for p in pooled], gold).recall
            assert dac_recall > pooled_recall, method
