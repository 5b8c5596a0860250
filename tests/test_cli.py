import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chunkalign
from chunkalign.cli import main
from chunkalign.corpus import load_corpus
from chunkalign.embed_store import normalize, read_matrix, write_matrix
from chunkalign.miner import MarginParams, write_pairs_tsv
from chunkalign.pooled import align_documents_pooled
from chunkalign.pooling import PoolingMethod
from conftest import vector_for_text
from synth import planted_corpus


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


def write_corpus(root, docs, name):
    corpus_dir = root / name
    corpus_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for doc in docs:
        text_path = corpus_dir / f"{doc.doc_id}.txt"
        text_path.write_text("\n".join(doc.sentences) + "\n", encoding="utf-8")
        rows.append(json.dumps({"doc_id": doc.doc_id, "lang": doc.lang,
                                "path": text_path.name}))
    manifest = corpus_dir / "manifest.jsonl"
    manifest.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return manifest


def write_gold(root, gold):
    path = root / "gold.tsv"
    lines = ["# src_doc\ttgt_doc"]
    lines += [f"{s}\t{t}" for s, t in sorted(gold.pairs)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def aligned_setup(tmp_path):
    """Planted corpora materialized on disk, ready for align/sweep runs."""
    src_docs, tgt_docs, src_emb, tgt_emb, gold = planted_corpus(
        n_pairs=10, chunks_per_doc=3, n_noise=4)
    paths = {
        "src_manifest": write_corpus(tmp_path, src_docs, "src"),
        "tgt_manifest": write_corpus(tmp_path, tgt_docs, "tgt"),
        "src_emb": tmp_path / "src.demb",
        "tgt_emb": tmp_path / "tgt.demb",
        "gold": write_gold(tmp_path, gold),
        "root": tmp_path,
    }
    write_matrix(src_emb, paths["src_emb"])
    write_matrix(tgt_emb, paths["tgt_emb"])
    return paths


def median_margin(pairs_tsv):
    margins = sorted(float(line.split("\t")[3])
                     for line in pairs_tsv.read_text().splitlines()[1:])
    return margins[len(margins) // 2]


def align_argv(paths, out_dir, *extra):
    return [
        "align",
        "--src-manifest", str(paths["src_manifest"]),
        "--tgt-manifest", str(paths["tgt_manifest"]),
        "--src-embeddings", str(paths["src_emb"]),
        "--tgt-embeddings", str(paths["tgt_emb"]),
        "--out-dir", str(out_dir),
        *extra,
    ]


class TestSegment:
    def test_writes_units(self, tmp_path, aligned_setup):
        out = tmp_path / "units.tsv"
        code = run_cli(["segment", "--manifest", str(aligned_setup["src_manifest"]),
                        "--out", str(out)])
        assert code == 0
        lines = [l for l in out.read_text(encoding="utf-8").splitlines()
                 if l and not l.startswith("#")]
        # 14 docs x 3 sentences at granularity 1
        assert len(lines) == 42
        unit_id, text = lines[0].split("\t", 1)
        assert unit_id == "s0000#0"
        assert text

    def test_granularity_two_halves_units(self, tmp_path, aligned_setup):
        out = tmp_path / "units2.tsv"
        code = run_cli(["segment", "--manifest", str(aligned_setup["src_manifest"]),
                        "-g", "2", "--out", str(out)])
        assert code == 0
        lines = [l for l in out.read_text(encoding="utf-8").splitlines()
                 if l and not l.startswith("#")]
        # ceil(3 / 2) = 2 units per doc
        assert len(lines) == 28

    def test_zero_granularity_is_usage_error(self, tmp_path, aligned_setup, capsys):
        for value in ("0", "doc"):
            code = run_cli(["segment", "--manifest", str(aligned_setup["src_manifest"]),
                            "-g", value, "--out", str(tmp_path / "x.tsv")])
            assert code == 1
        assert "positive integer, got 'doc'" in capsys.readouterr().err

    def test_missing_manifest_is_usage_error(self, tmp_path, capsys):
        code = run_cli(["segment", "--manifest", str(tmp_path / "nope.jsonl"),
                        "--out", str(tmp_path / "x.tsv")])
        assert code == 1
        assert "invalid input" in capsys.readouterr().err

    @pytest.mark.parametrize("doc_id", ["#a", "b\tc", "d\re", "f\ng"])
    def test_doc_id_that_breaks_units_tsv_is_usage_error(self, tmp_path, capsys, doc_id):
        # such an id would come back from the units file as a comment or split at the tab
        (tmp_path / "doc.txt").write_text("one\ntwo\n", encoding="utf-8")
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(json.dumps({"doc_id": doc_id, "lang": "en", "path": "doc.txt"})
                            + "\n", encoding="utf-8")
        out = tmp_path / "units.tsv"
        code = run_cli(["segment", "--manifest", str(manifest), "--out", str(out)])
        assert code == 1
        assert f"document id {doc_id!r}" in capsys.readouterr().err
        assert not out.exists()


class TestAlignDac:
    def test_planted_corpus_aligned_perfectly(self, aligned_setup, capsys):
        out_dir = aligned_setup["root"] / "run"
        code = run_cli(align_argv(aligned_setup, out_dir,
                                  "--gold", str(aligned_setup["gold"])))
        assert code == 0

        pairs_lines = [l for l in (out_dir / "pairs.tsv").read_text().splitlines()
                       if not l.startswith("#")]
        predicted = {tuple(l.split("\t")[:2]) for l in pairs_lines}
        assert predicted == {(f"s{i:04d}", f"t{i:04d}") for i in range(10)}

        report_lines = (out_dir / "report.tsv").read_text().splitlines()
        fields = report_lines[1].split("\t")
        assert fields[0] == "0.100000"
        assert fields[4] == "1.000000"  # precision
        assert fields[5] == "1.000000"  # recall

        config = json.loads((out_dir / "config.json").read_text())
        assert config["command"] == "align"
        assert config["mode"] == "dac"
        assert config["k"] == 16
        assert config["threshold"] == 0.1
        assert config["granularity"] == "1"
        assert config["workers"] == 1
        assert config["noise_ratio"] is None

        stdout = capsys.readouterr().out
        assert "aligned 10 document pairs" in stdout
        assert "precision 1.000000" in stdout

    def test_no_gold_no_report(self, aligned_setup):
        out_dir = aligned_setup["root"] / "ng"
        code = run_cli(align_argv(aligned_setup, out_dir))
        assert code == 0
        assert (out_dir / "pairs.tsv").is_file()
        assert not (out_dir / "report.tsv").exists()

    def test_workers_do_not_change_outputs(self, aligned_setup):
        outputs = {}
        for workers in ("1", "8"):
            out_dir = aligned_setup["root"] / f"w{workers}"
            code = run_cli(align_argv(aligned_setup, out_dir,
                                      "--gold", str(aligned_setup["gold"]),
                                      "--workers", workers))
            assert code == 0
            outputs[workers] = (
                (out_dir / "pairs.tsv").read_bytes(),
                (out_dir / "report.tsv").read_bytes(),
            )
        assert outputs["1"] == outputs["8"]

    def test_dump_chunk_pairs(self, aligned_setup):
        out_dir = aligned_setup["root"] / "dump"
        code = run_cli(align_argv(aligned_setup, out_dir, "--dump-chunk-pairs"))
        assert code == 0
        dump = (out_dir / "chunk_pairs.tsv").read_text().splitlines()
        assert dump[0] == "# src_id\ttgt_id\tcosine\tmargin"
        assert len(dump) > 1

    def test_min_margin_floor_filters_everything(self, aligned_setup):
        out_dir = aligned_setup["root"] / "mm"
        code = run_cli(align_argv(aligned_setup, out_dir, "--min-margin", "1e9"))
        assert code == 0
        pairs_lines = [l for l in (out_dir / "pairs.tsv").read_text().splitlines()
                       if not l.startswith("#")]
        assert pairs_lines == []

    def test_method_flag_rejected_in_dac_mode(self, aligned_setup, capsys):
        out_dir = aligned_setup["root"] / "bad"
        code = run_cli(align_argv(aligned_setup, out_dir, "--method", "mp"))
        assert code == 1
        assert "--method is only valid with --mode pooled" in capsys.readouterr().err

    def test_missing_embeddings_file(self, aligned_setup):
        argv = align_argv(aligned_setup, aligned_setup["root"] / "x")
        argv[argv.index("--src-embeddings") + 1] = str(aligned_setup["root"] / "nope.demb")
        assert run_cli(argv) == 1

    def test_incomplete_embeddings_is_runtime_error(self, aligned_setup, capsys):
        full = read_matrix(aligned_setup["src_emb"])
        truncated_path = aligned_setup["root"] / "short.demb"
        from chunkalign.embed_store import EmbeddingMatrix
        write_matrix(EmbeddingMatrix(ids=full.ids[:-1], data=full.data[:-1]),
                     truncated_path)
        argv = align_argv(aligned_setup, aligned_setup["root"] / "rt")
        argv[argv.index("--src-embeddings") + 1] = str(truncated_path)
        assert run_cli(argv) == 2
        assert "chunkalign: error" in capsys.readouterr().err


class TestVerbose:
    FUNNEL = re.compile(r"mining funnel: (\d+) candidates, (\d+) dropped .*, (\d+) matched, "
                        r"(\d+) kept")

    def funnel_lines(self, caplog):
        return [record.getMessage() for record in caplog.records
                if record.name == "chunkalign.miner" and "mining funnel" in record.getMessage()]

    def test_verbose_logs_mining_funnel(self, aligned_setup, caplog):
        quiet_dir = aligned_setup["root"] / "quiet"
        assert run_cli(align_argv(aligned_setup, quiet_dir, "--dump-chunk-pairs")) == 0
        assert self.funnel_lines(caplog) == []
        matched = (quiet_dir / "chunk_pairs.tsv").read_text().splitlines()[1:]

        out_dir = aligned_setup["root"] / "verbose"
        floor = median_margin(quiet_dir / "chunk_pairs.tsv")
        code = run_cli(["--verbose", *align_argv(aligned_setup, out_dir, "--dump-chunk-pairs",
                                                 "--min-margin", str(floor))])
        assert code == 0
        (line,) = self.funnel_lines(caplog)
        candidates, dropped, n_matched, kept = map(int, self.FUNNEL.search(line).groups())
        assert dropped == 0
        assert n_matched == len(matched)
        assert kept == len((out_dir / "chunk_pairs.tsv").read_text().splitlines()[1:])
        assert candidates > n_matched > kept > 0


class TestAlignPooled:
    def test_pooled_mode(self, aligned_setup):
        out_dir = aligned_setup["root"] / "pooled"
        code = run_cli(align_argv(aligned_setup, out_dir,
                                  "--mode", "pooled", "--method", "lp",
                                  "--gold", str(aligned_setup["gold"])))
        assert code == 0
        lines = (out_dir / "pairs.tsv").read_text().splitlines()
        assert lines[0] == "# src_id\ttgt_id\tcosine\tmargin"
        predicted = {tuple(l.split("\t")[:2]) for l in lines[1:]}
        assert predicted >= {(f"s{i:04d}", f"t{i:04d}") for i in range(10)}
        config = json.loads((out_dir / "config.json").read_text())
        assert config["mode"] == "pooled"
        assert config["method"] == "LP"
        assert config["threshold"] is None
        report = (out_dir / "report.tsv").read_text().splitlines()[1]
        assert report.startswith("-\t")

    def test_dac_flags_rejected_in_pooled_mode(self, aligned_setup, capsys):
        out_dir = aligned_setup["root"] / "bad2"
        code = run_cli(align_argv(aligned_setup, out_dir,
                                  "--mode", "pooled", "--threshold", "0.3"))
        assert code == 1
        assert "--threshold is only valid with --mode dac" in capsys.readouterr().err
        code = run_cli(align_argv(aligned_setup, out_dir,
                                  "--mode", "pooled", "--keep-all"))
        assert code == 1

    def test_min_margin_matches_library(self, aligned_setup):
        src_docs = load_corpus(aligned_setup["src_manifest"])
        tgt_docs = load_corpus(aligned_setup["tgt_manifest"])
        src = normalize(read_matrix(aligned_setup["src_emb"]))
        tgt = normalize(read_matrix(aligned_setup["tgt_emb"]))
        unfloored = aligned_setup["root"] / "unfloored.tsv"
        write_pairs_tsv(align_documents_pooled(src_docs, tgt_docs, src, tgt, PoolingMethod.MP),
                        unfloored)
        floor = median_margin(unfloored)
        expected = align_documents_pooled(src_docs, tgt_docs, src, tgt, PoolingMethod.MP,
                                          MarginParams(min_margin=floor))
        assert 0 < len(expected) < len(unfloored.read_text().splitlines()) - 1
        expected_path = aligned_setup["root"] / "expected.tsv"
        write_pairs_tsv(expected, expected_path)
        out_dir = aligned_setup["root"] / "pooled_mm"
        assert run_cli(align_argv(aligned_setup, out_dir, "--mode", "pooled",
                                  "--min-margin", repr(floor))) == 0
        assert (out_dir / "pairs.tsv").read_bytes() == expected_path.read_bytes()


class TestNonFiniteEmbeddings:
    @pytest.mark.parametrize("command", ["dac", "pooled", "pool"])
    def test_nan_row_is_usage_error_naming_id(self, aligned_setup, capsys, command):
        matrix = read_matrix(aligned_setup["src_emb"])
        matrix.data[3, 0] = np.nan
        nan_path = aligned_setup["root"] / "nan.demb"
        write_matrix(matrix, nan_path)
        out = aligned_setup["root"] / "nan_out"
        if command == "pool":
            argv = ["pool", "--manifest", str(aligned_setup["src_manifest"]),
                    "--embeddings", str(nan_path), "--out", str(out)]
        else:
            argv = align_argv(aligned_setup, out, "--mode", command)
            argv[argv.index("--src-embeddings") + 1] = str(nan_path)
        assert run_cli(argv) == 1
        assert f"non-finite embedding for id {matrix.ids[3]!r}" in capsys.readouterr().err


class TestNoiseInjectionFlags:
    def test_align_with_noise_pools(self, tmp_path):
        src_docs, tgt_docs, src_emb, tgt_emb, gold = planted_corpus(
            n_pairs=10, chunks_per_doc=3, n_noise=5)
        true_src = [d for d in src_docs if "noise" not in d.doc_id]
        noise_src = [d for d in src_docs if "noise" in d.doc_id]
        true_tgt = [d for d in tgt_docs if "noise" not in d.doc_id]
        noise_tgt = [d for d in tgt_docs if "noise" in d.doc_id]
        paths = {
            "src_manifest": write_corpus(tmp_path, true_src, "src"),
            "tgt_manifest": write_corpus(tmp_path, true_tgt, "tgt"),
            "src_emb": tmp_path / "src.demb",
            "tgt_emb": tmp_path / "tgt.demb",
        }
        write_matrix(src_emb, paths["src_emb"])
        write_matrix(tgt_emb, paths["tgt_emb"])
        noise_src_manifest = write_corpus(tmp_path, noise_src, "nsrc")
        noise_tgt_manifest = write_corpus(tmp_path, noise_tgt, "ntgt")
        gold_path = write_gold(tmp_path, gold)
        out_dir = tmp_path / "noisy"
        code = run_cli(align_argv(paths, out_dir,
                                  "--noise-src-manifest", str(noise_src_manifest),
                                  "--noise-tgt-manifest", str(noise_tgt_manifest),
                                  "--noise-ratio", "0.5", "--noise-seed", "3",
                                  "--gold", str(gold_path)))
        assert code == 0
        report = (out_dir / "report.tsv").read_text().splitlines()[1].split("\t")
        assert report[4] == "1.000000"
        assert report[5] == "1.000000"
        config = json.loads((out_dir / "config.json").read_text())
        assert config["noise_ratio"] == 0.5
        assert config["noise_seed"] == 3


class TestSweep:
    def sweep_argv(self, paths, out_dir, thresholds, *extra):
        argv = align_argv(paths, out_dir, "--thresholds", thresholds,
                          "--gold", str(paths["gold"]), *extra)
        argv[0] = "sweep"
        # --mode is not a sweep flag; align_argv never adds it, so just run
        return argv

    def test_recall_non_increasing(self, aligned_setup):
        out_dir = aligned_setup["root"] / "sweep"
        thresholds = ",".join(f"{t:.1f}" for t in np.linspace(0, 1, 11))
        code = run_cli(self.sweep_argv(aligned_setup, out_dir, thresholds))
        assert code == 0
        rows = [l.split("\t") for l in
                (out_dir / "reports.tsv").read_text().splitlines()[1:]]
        assert len(rows) == 11
        recalls = [float(r[5]) for r in rows]
        yields = [int(r[2]) for r in rows]
        assert all(b <= a for a, b in zip(recalls, recalls[1:]))
        assert all(b <= a for a, b in zip(yields, yields[1:]))
        config = json.loads((out_dir / "config.json").read_text())
        assert config["command"] == "sweep"
        assert len(config["thresholds"]) == 11

    def test_single_point_sweep_matches_align_report(self, aligned_setup):
        root = aligned_setup["root"]
        assert run_cli(align_argv(aligned_setup, root / "all", "--dump-chunk-pairs")) == 0
        all_chunks = (root / "all" / "chunk_pairs.tsv").read_text().splitlines()
        floor = repr(median_margin(root / "all" / "chunk_pairs.tsv"))
        for name, extra in [
            ("plain", []),
            ("keep", ["--keep-all"]),
            ("floor", ["--min-margin", floor]),
            ("floor_keep", ["--min-margin", floor, "--keep-all"]),
        ]:
            sweep_dir = root / f"sp_{name}"
            align_dir = root / f"ap_{name}"
            assert run_cli(self.sweep_argv(aligned_setup, sweep_dir, "0.1", *extra)) == 0
            assert run_cli(align_argv(aligned_setup, align_dir, "--threshold", "0.1",
                                      "--gold", str(aligned_setup["gold"]),
                                      "--dump-chunk-pairs", *extra)) == 0
            sweep_row = (sweep_dir / "reports.tsv").read_text().splitlines()[1]
            align_row = (align_dir / "report.tsv").read_text().splitlines()[1]
            assert sweep_row == align_row
            kept = (align_dir / "chunk_pairs.tsv").read_text().splitlines()
            if "--min-margin" in extra:
                assert 1 < len(kept) < len(all_chunks)
            else:
                assert kept == all_chunks

    def test_json_format(self, aligned_setup):
        out_dir = aligned_setup["root"] / "sj"
        code = run_cli(self.sweep_argv(aligned_setup, out_dir, "0.0,0.5",
                                       "--format", "json"))
        assert code == 0
        data = json.loads((out_dir / "reports.json").read_text())
        assert [d["threshold"] for d in data] == [0.0, 0.5]

    def test_unsorted_thresholds_usage_error(self, aligned_setup):
        out_dir = aligned_setup["root"] / "su"
        assert run_cli(self.sweep_argv(aligned_setup, out_dir, "0.5,0.1")) == 1

    def test_out_of_range_threshold_usage_error(self, aligned_setup):
        out_dir = aligned_setup["root"] / "so"
        assert run_cli(self.sweep_argv(aligned_setup, out_dir, "0.5,1.5")) == 1


class TestEvaluate:
    def test_stdout_tsv(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("a\tb\nc\td\n", encoding="utf-8")
        gold = tmp_path / "gold.tsv"
        gold.write_text("a\tb\n", encoding="utf-8")
        code = run_cli(["evaluate", "--pairs", str(pairs), "--gold", str(gold)])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("# threshold")
        fields = out[1].split("\t")
        assert fields[0] == "-"
        assert fields[4] == "0.500000"
        assert fields[5] == "1.000000"

    def test_json_to_file(self, tmp_path):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("a\tb\n", encoding="utf-8")
        gold = tmp_path / "gold.tsv"
        gold.write_text("a\tb\n", encoding="utf-8")
        out = tmp_path / "report.json"
        code = run_cli(["evaluate", "--pairs", str(pairs), "--gold", str(gold),
                        "--format", "json", "--out", str(out)])
        assert code == 0
        (data,) = json.loads(out.read_text())
        assert data["f1"] == 1.0

    def test_malformed_pairs_usage_error(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("loner\n", encoding="utf-8")
        gold = tmp_path / "gold.tsv"
        gold.write_text("a\tb\n", encoding="utf-8")
        code = run_cli(["evaluate", "--pairs", str(pairs), "--gold", str(gold)])
        assert code == 1
        assert "invalid input" in capsys.readouterr().err


class TestFetchCommand:
    def write_units(self, tmp_path):
        path = tmp_path / "units.tsv"
        path.write_text("# unit_id\ttext\nd#0\thello world\nd#1\tsecond line\n",
                        encoding="utf-8")
        return path

    def test_fetch_writes_matrix(self, tmp_path, embed_server):
        url, _ = embed_server
        units = self.write_units(tmp_path)
        out = tmp_path / "emb.demb"
        code = run_cli(["fetch-embeddings", "--units", str(units),
                        "--endpoint", url, "--out", str(out)])
        assert code == 0
        matrix = read_matrix(out)
        assert matrix.ids == ["d#0", "d#1"]
        raw = np.asarray(vector_for_text("hello world"), dtype=np.float32)
        np.testing.assert_allclose(matrix.data[0], raw / np.linalg.norm(raw),
                                   atol=1e-6)

    def test_endpoint_from_environment(self, tmp_path, embed_server, monkeypatch):
        url, _ = embed_server
        monkeypatch.setenv("CHUNKALIGN_ENDPOINT", url)
        units = self.write_units(tmp_path)
        out = tmp_path / "emb.demb"
        assert run_cli(["fetch-embeddings", "--units", str(units),
                        "--out", str(out)]) == 0

    def test_no_endpoint_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("CHUNKALIGN_ENDPOINT", raising=False)
        units = self.write_units(tmp_path)
        code = run_cli(["fetch-embeddings", "--units", str(units),
                        "--out", str(tmp_path / "x.demb")])
        assert code == 1
        assert "no embedding endpoint" in capsys.readouterr().err

    def test_unreachable_service_runtime_error(self, tmp_path, capsys):
        units = self.write_units(tmp_path)
        code = run_cli(["fetch-embeddings", "--units", str(units),
                        "--endpoint", "http://127.0.0.1:9",
                        "--out", str(tmp_path / "x.demb")])
        assert code == 2
        assert "chunkalign: error" in capsys.readouterr().err


class TestStartup:
    def test_cli_import_leaves_requests_out(self):
        # only fetch-embeddings needs the HTTP client; the other commands
        # should not pay for importing it
        src = str(Path(chunkalign.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        probe = "import sys, chunkalign.cli; print('requests' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "False"


class TestImportCommand:
    def write_inputs(self, tmp_path, vectors):
        units = tmp_path / "units.tsv"
        units.write_text("a#0\tfoo\na#1\tbar\n", encoding="utf-8")
        vec_path = tmp_path / "vectors.jsonl"
        vec_path.write_text("\n".join(json.dumps(v) for v in vectors) + "\n",
                            encoding="utf-8")
        return units, vec_path

    def test_import_round_trip(self, tmp_path):
        units, vec_path = self.write_inputs(tmp_path, [
            {"unit_id": "a#1", "vector": [0.0, 2.0]},
            {"unit_id": "a#0", "vector": [3.0, 4.0]},
            {"unit_id": "extra#0", "vector": [1.0, 0.0]},
        ])
        out = tmp_path / "m.demb"
        code = run_cli(["import-embeddings", "--units", str(units),
                        "--vectors", str(vec_path), "--out", str(out)])
        assert code == 0
        matrix = read_matrix(out)
        # rows follow the units file order, not the vectors file order
        assert matrix.ids == ["a#0", "a#1"]
        np.testing.assert_allclose(matrix.data[0], [0.6, 0.8], atol=1e-6)
        np.testing.assert_allclose(matrix.data[1], [0.0, 1.0], atol=1e-6)

    def test_missing_vector_usage_error(self, tmp_path, capsys):
        units, vec_path = self.write_inputs(tmp_path, [
            {"unit_id": "a#0", "vector": [1.0, 0.0]},
        ])
        code = run_cli(["import-embeddings", "--units", str(units),
                        "--vectors", str(vec_path), "--out", str(tmp_path / "m.demb")])
        assert code == 1
        assert "no vector for unit 'a#1'" in capsys.readouterr().err

    # vectors are checked before anything is written, so bad ones are
    # invalid input (exit 1) like a missing one
    def test_ragged_vectors_runtime_error(self, tmp_path, capsys):
        units, vec_path = self.write_inputs(tmp_path, [
            {"unit_id": "a#0", "vector": [1.0, 0.0]},
            {"unit_id": "a#1", "vector": [1.0, 0.0, 0.0]},
        ])
        code = run_cli(["import-embeddings", "--units", str(units),
                        "--vectors", str(vec_path), "--out", str(tmp_path / "m.demb")])
        assert code == 1
        assert "differing dimensions" in capsys.readouterr().err

    @pytest.mark.parametrize("vector", [["x", 1.0], 1.0, [True, False]])
    def test_non_number_vector_usage_error(self, tmp_path, capsys, vector):
        units, vec_path = self.write_inputs(tmp_path, [
            {"unit_id": "a#0", "vector": [1.0, 0.0]},
            {"unit_id": "a#1", "vector": vector},
        ])
        code = run_cli(["import-embeddings", "--units", str(units),
                        "--vectors", str(vec_path), "--out", str(tmp_path / "m.demb")])
        assert code == 1
        assert "imported vector for id 'a#1' is not a list of numbers" in capsys.readouterr().err
        assert not (tmp_path / "m.demb").exists()

    def test_nan_vector_runtime_error(self, tmp_path, capsys):
        units, vec_path = self.write_inputs(tmp_path, [
            {"unit_id": "a#0", "vector": [1.0, 0.0]},
            {"unit_id": "a#1", "vector": [float("nan"), 1.0]},
        ])
        code = run_cli(["import-embeddings", "--units", str(units),
                        "--vectors", str(vec_path), "--out", str(tmp_path / "m.demb")])
        assert code == 1
        assert "non-finite embedding for id 'a#1'" in capsys.readouterr().err

    # finite in JSON but beyond float32: 1e39 would cast to inf, and an int
    # of 401 digits does not fit even a float64
    @pytest.mark.parametrize("value", [1e39, -1e39, 10**400], ids=["1e39", "-1e39", "1e400_int"])
    def test_out_of_range_vector_usage_error(self, tmp_path, capsys, value):
        units, vec_path = self.write_inputs(tmp_path, [
            {"unit_id": "a#0", "vector": [1.0, 0.0]},
            {"unit_id": "a#1", "vector": [value, 1.0]},
        ])
        code = run_cli(["import-embeddings", "--units", str(units),
                        "--vectors", str(vec_path), "--out", str(tmp_path / "m.demb")])
        assert code == 1
        err = capsys.readouterr().err
        assert "imported vector for id 'a#1' has a value outside the float32 range" in err
        assert not (tmp_path / "m.demb").exists()

    def test_out_of_range_vector_prints_no_warning(self, tmp_path):
        units, vec_path = self.write_inputs(tmp_path, [
            {"unit_id": "a#0", "vector": [1.0, 0.0]},
            {"unit_id": "a#1", "vector": [1e39, 1.0]},
        ])
        src = str(Path(chunkalign.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run(
            [sys.executable, "-W", "default", "-m", "chunkalign.cli", "import-embeddings",
             "--units", str(units), "--vectors", str(vec_path), "--out", str(tmp_path / "m.demb")],
            env=env, capture_output=True, text=True)
        assert result.returncode == 1
        assert result.stderr == ("chunkalign: invalid input: imported vector for id 'a#1' "
                                 "has a value outside the float32 range\n")


class TestPoolCommand:
    def test_pool_writes_document_matrix(self, tmp_path, aligned_setup):
        out = tmp_path / "docs.demb"
        code = run_cli(["pool", "--manifest", str(aligned_setup["src_manifest"]),
                        "--embeddings", str(aligned_setup["src_emb"]),
                        "--method", "lidf", "--out", str(out)])
        assert code == 0
        matrix = read_matrix(out)
        assert len(matrix) == 14
        assert matrix.ids[0] == "s0000"
        assert all("#" not in doc_id for doc_id in matrix.ids)
