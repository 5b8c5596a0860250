import io
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from chunkalign import corpus
from chunkalign.corpus import (
    ChunkUnit,
    Document,
    Granularity,
    load_corpus,
    read_lines,
    read_units_tsv,
    segment,
    write_units_tsv,
)


def write_manifest(tmp_path, docs, name="manifest.jsonl"):
    manifest = tmp_path / name
    lines = []
    for doc_id, lang, text in docs:
        (tmp_path / f"{doc_id}.txt").write_text(text, encoding="utf-8")
        lines.append(json.dumps({"doc_id": doc_id, "lang": lang, "path": f"{doc_id}.txt"}))
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


class TestLoadCorpus:
    def test_loads_documents_in_manifest_order(self, tmp_path):
        manifest = write_manifest(
            tmp_path,
            [("b", "de", "eins\nzwei\ndrei\n"), ("a", "en", "one\ntwo\nthree\nfour\nfive\n")],
        )
        docs = load_corpus(manifest)
        assert [d.doc_id for d in docs] == ["b", "a"]
        assert docs[0].lang == "de"
        assert docs[0].sentences == ("eins", "zwei", "drei")
        assert len(docs[1].sentences) == 5

    def test_crlf_and_blank_lines(self, tmp_path):
        manifest = write_manifest(tmp_path, [("d", "en", "one\r\n\r\n  two  \r\nthree\r\n")])
        (doc,) = load_corpus(manifest)
        assert doc.sentences == ("one", "two", "three")

    @pytest.mark.parametrize("separator", ["\u2028", "\u0085"])
    def test_only_lf_cr_and_crlf_end_a_sentence(self, tmp_path, separator):
        text = f"first line{separator}still first\r\nsecond\rthird\n"
        (doc,) = load_corpus(write_manifest(tmp_path, [("d", "en", text)]))
        assert doc.sentences == (f"first line{separator}still first", "second", "third")

    def test_byte_order_marks_skipped(self, tmp_path):
        manifest = write_manifest(tmp_path, [("d", "en", "\ufeffone\ntwo\n")])
        manifest.write_text("\ufeff" + manifest.read_text(encoding="utf-8"), encoding="utf-8")
        (doc,) = load_corpus(manifest)
        assert doc.doc_id == "d"
        assert doc.sentences == ("one", "two")

    def test_duplicate_doc_id_rejected(self, tmp_path):
        manifest = write_manifest(tmp_path, [("d", "en", "x\n")])
        line = manifest.read_text().strip()
        manifest.write_text(line + "\n" + line + "\n")
        with pytest.raises(ValueError) as excinfo:
            load_corpus(manifest)
        assert str(excinfo.value) == f"{manifest}:2: duplicate doc_id 'd'"

    def test_bad_doc_id_names_manifest_line(self, tmp_path):
        manifest = write_manifest(tmp_path, [("d", "en", "x\n")])
        entry = json.dumps({"doc_id": "#e", "lang": "en", "path": "d.txt"})
        manifest.write_text(manifest.read_text() + "\n" + entry + "\n")
        with pytest.raises(ValueError) as excinfo:
            load_corpus(manifest)
        assert str(excinfo.value) == (
            f"{manifest}:3: document id '#e' must not start with '#' or contain a tab, CR or LF")

    def test_missing_sentence_file_names_doc_and_path(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(json.dumps({"doc_id": "gone", "lang": "en", "path": "gone.txt"}) + "\n")
        with pytest.raises(FileNotFoundError, match="'gone'.*gone.txt"):
            load_corpus(manifest)

    @pytest.mark.parametrize("entry_path, shown", [
        ("./sub//gone.txt", "sub/gone.txt"), ("gone.txt", "gone.txt")])
    def test_relative_paths_shown_as_joined_paths(self, tmp_path, monkeypatch, entry_path,
                                                  shown):
        # the path in a message reads as Path(manifest).parent / entry path
        monkeypatch.chdir(tmp_path)
        Path("m.jsonl").write_text(
            json.dumps({"doc_id": "gone", "lang": "en", "path": entry_path}) + "\n")
        with pytest.raises(FileNotFoundError) as excinfo:
            load_corpus("m.jsonl")
        assert str(excinfo.value) == f"sentence file for doc 'gone' not found: {shown}"
        Path(shown).parent.mkdir(exist_ok=True)
        Path(shown).write_text(" \n")
        with pytest.raises(ValueError) as excinfo:
            load_corpus("./m.jsonl")
        assert str(excinfo.value) == f"document 'gone' is empty (no non-blank lines): {shown}"

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            load_corpus(tmp_path / "nope.jsonl")

    @pytest.mark.parametrize("text", ["", "\n  \n"])
    def test_manifest_without_documents_rejected(self, tmp_path, text):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="lists no documents"):
            load_corpus(manifest)

    def test_blank_only_file_rejected(self, tmp_path):
        manifest = write_manifest(tmp_path, [("empty", "en", "\n\n  \n")])
        with pytest.raises(ValueError, match="'empty' is empty"):
            load_corpus(manifest)

    def test_malformed_json_line_reports_line_number(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text('{"doc_id": "a", "lang": "en", "path": "a.txt"\n')
        with pytest.raises(ValueError, match=":1: invalid JSON"):
            load_corpus(manifest)

    def test_missing_keys_rejected(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(json.dumps({"doc_id": "a", "lang": "en"}) + "\n")
        with pytest.raises(ValueError, match="doc_id, lang and path"):
            load_corpus(manifest)


class TestGranularity:
    def test_constructor(self):
        assert Granularity(4).sentences == 4
        assert str(Granularity(3)) == "3"

    def test_invalid_values(self):
        for value in (0, -1):
            with pytest.raises(ValueError, match=f"^granularity must be >= 1, got {value}$"):
                Granularity(value)


class TestSegment:
    def doc(self, n, doc_id="d"):
        return Document(doc_id=doc_id, lang="en", sentences=tuple(f"s{i} tok" for i in range(n)))

    def test_seven_sentences_at_g2(self):
        units = segment(self.doc(7), Granularity(2))
        assert [u.text.count("tok") for u in units] == [2, 2, 2, 1]
        assert [u.unit_id for u in units] == ["d#0", "d#1", "d#2", "d#3"]
        assert units[0].text == "s0 tok s1 tok"
        assert units[3].text == "s6 tok"

    def test_g1_is_identity(self):
        doc = self.doc(4)
        units = segment(doc, Granularity(1))
        assert [u.text for u in units] == list(doc.sentences)
        assert all(u.doc_id == "d" for u in units)

    def test_granularity_larger_than_doc(self):
        units = segment(self.doc(3), Granularity(8))
        assert len(units) == 1
        assert units[0].text == "s0 tok s1 tok s2 tok"

    def test_chunk_text_joins_sentences(self):
        doc = Document(doc_id="d", lang="en", sentences=("a b c", "d e"))
        (unit,) = segment(doc, Granularity(2))
        assert unit.text == "a b c d e"

    def test_reconstruction_property(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            doc = Document(
                doc_id="d",
                lang="en",
                sentences=tuple(
                    " ".join(f"w{rng.integers(100)}" for _ in range(rng.integers(1, 6)))
                    for _ in range(n)
                ),
            )
            for g in (1, 2, 3, 4, 8):
                units = segment(doc, Granularity(g))
                assert len(units) == -(-n // g)
                assert [u.text for u in units] == [" ".join(doc.sentences[i:i + g])
                                                   for i in range(0, n, g)]
                assert " ".join(u.text for u in units) == " ".join(doc.sentences)
                assert [u.unit_id for u in units] == [f"d#{i}" for i in range(len(units))]
                assert units == segment(doc, Granularity(g))


class TestUnitsTsv:
    def test_round_trip_preserves_tabs_in_text(self, tmp_path):
        units = [
            ChunkUnit("d#0", "d", "plain text"),
            ChunkUnit("d#1", "d", "text\twith tab"),
        ]
        path = tmp_path / "units.tsv"
        write_units_tsv(units, path)
        assert read_units_tsv(path) == [("d#0", "plain text"), ("d#1", "text\twith tab")]

    def test_header_and_comments_skipped(self, tmp_path):
        path = tmp_path / "units.tsv"
        path.write_text("# unit_id\ttext\nd#0\thello\n# trailing note\n", encoding="utf-8")
        assert read_units_tsv(path) == [("d#0", "hello")]

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "units.tsv"
        path.write_text("\ufeff# unit_id\ttext\nd#0\thello\n", encoding="utf-8")
        assert read_units_tsv(path) == [("d#0", "hello")]

    def test_duplicate_unit_id_rejected(self, tmp_path):
        path = tmp_path / "units.tsv"
        path.write_text("a#0\tx\na#0\ty\n")
        with pytest.raises(ValueError, match="duplicate unit id"):
            read_units_tsv(path)

    def test_missing_tab_rejected(self, tmp_path):
        path = tmp_path / "units.tsv"
        path.write_text("justtext\n")
        with pytest.raises(ValueError, match="expected unit_id"):
            read_units_tsv(path)

    @pytest.mark.parametrize("text", ["", "# unit_id\ttext\n", "\n \n# note\n"])
    def test_file_without_rows_rejected(self, tmp_path, text):
        path = tmp_path / "units.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as excinfo:
            read_units_tsv(path)
        assert str(excinfo.value) == f"units file {path} is empty"


class TestReadLines:
    @pytest.mark.parametrize("size", [corpus._BLOCK - 1, corpus._BLOCK, corpus._BLOCK + 1])
    @pytest.mark.parametrize("end", ["\n", "\r", "\r\n", "x"])
    def test_file_about_one_block_long(self, tmp_path, size, end):
        # lines of 1-9 "é" (two bytes each), ending in `end`, the file `size` bytes long
        lines, length = [], 0
        while length < size - 40:
            lines.append("\u00e9" * (1 + len(lines) % 9) + "\r\n")
            length += len(lines[-1].encode("utf-8"))
        lines.append("a" * (size - length - len(end)) + end)
        path = tmp_path / "f.txt"
        path.write_bytes("".join(lines).encode("utf-8"))
        assert path.stat().st_size == size
        text_mode = io.StringIO("".join(lines), newline=None).readlines()
        assert list(read_lines(path, "text file")) == [
            (lineno, line.rstrip("\n")) for lineno, line in enumerate(text_mode, start=1)]

    def test_file_shorter_than_a_block_read_once(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"one\r\ntwo")
        sizes = []

        class CountingFile(io.FileIO):
            def read(self, size=-1):
                sizes.append(size)
                return super().read(size)

        with mock.patch.object(corpus, "open", create=True,
                               side_effect=lambda file, mode, buffering: CountingFile(file, mode)):
            assert list(read_lines(path, "text file")) == [(1, "one"), (2, "two")]
        assert sizes == [corpus._BLOCK]

    @pytest.mark.parametrize("end", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
    def test_first_line_comes_after_one_block(self, tmp_path, end):
        # a file four blocks long: each kind of line end cuts the first block,
        # so a file of CR-only lines is not held whole until its end
        path = tmp_path / "f.txt"
        path.write_bytes(("x" * 99 + end).encode("ascii") * (4 * corpus._BLOCK // 100))
        sizes = []

        class CountingFile(io.FileIO):
            def read(self, size=-1):
                data = super().read(size)
                sizes.append(len(data))
                return data

        with mock.patch.object(corpus, "open", create=True,
                               side_effect=lambda file, mode, buffering: CountingFile(file, mode)):
            lines = read_lines(path, "text file")
            assert next(lines) == (1, "x" * 99)
            assert sum(sizes) == corpus._BLOCK
            assert (4 * corpus._BLOCK // 100, "x" * 99) in lines


class TestDocument:
    def test_empty_sentences_rejected(self):
        with pytest.raises(ValueError, match="no sentences"):
            Document(doc_id="d", lang="en", sentences=())

    def test_blank_sentence_rejected(self):
        with pytest.raises(ValueError, match="blank sentence"):
            Document(doc_id="d", lang="en", sentences=("ok", "  "))

    def test_first_blank_sentence_named(self):
        with pytest.raises(ValueError, match="^document 'd' has a blank sentence at position 2$"):
            Document(doc_id="d", lang="en", sentences=("ok", "fine", "\u2028", "", "ok"))

    @pytest.mark.parametrize("doc_id", ["#a", "#", "b\tc", "d\re", "f\ng", "tail\n"])
    def test_doc_id_that_cannot_round_trip_rejected(self, doc_id):
        with pytest.raises(ValueError) as excinfo:
            Document(doc_id=doc_id, lang="en", sentences=("ok",))
        assert f"document id {doc_id!r}" in str(excinfo.value)
