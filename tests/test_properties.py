"""Hypothesis properties of the .demb and text-input readers, tokenize and
the whole dac and pooled paths, which are also compared with references
written from their definitions."""

import codecs
import io
import itertools
import json
import struct
import tempfile
import unicodedata
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkalign import corpus, knn
from chunkalign.cli import _read_vectors
from chunkalign.corpus import Document, Granularity, load_corpus, read_lines, read_units_tsv
from chunkalign.dac import align_documents_dac, mine_chunk_pairs
from chunkalign.embed_store import EmbeddingMatrix, read_matrix, write_matrix
from chunkalign.evaluation import GoldSet, load_gold, load_pairs, score, sweep_thresholds
from chunkalign.miner import MarginParams
from chunkalign.pooled import align_documents_pooled
from chunkalign.pooling import PoolingMethod, build_idf, tokenize, unit_weights
from oracles import (dac_reference, load_corpus_reference, load_gold_reference,
                     load_pairs_reference, pooled_reference, read_matrix_reference,
                     read_units_tsv_reference, read_vectors_reference)
from synth import planted_corpus


@st.composite
def demb_files(draw):
    """The bytes of a valid .demb file holding a small random matrix."""
    count = draw(st.integers(0, 4))
    dim = draw(st.integers(1, 4))
    ids = draw(st.lists(st.text(max_size=6), min_size=count, max_size=count, unique=True))
    data = np.asarray(draw(st.lists(st.floats(-2, 2, width=32), min_size=count * dim,
                                    max_size=count * dim)), dtype=np.float32)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.demb"
        write_matrix(EmbeddingMatrix(ids=ids, data=data.reshape(count, dim)), path)
        return path.read_bytes()


def read_bytes(blob: bytes) -> EmbeddingMatrix:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.demb"
        path.write_bytes(blob)
        return read_matrix(path)


class TestMatrixReaderFuzz:
    @settings(max_examples=300, deadline=None)
    @given(blob=demb_files(), data=st.data())
    def test_truncation_raises_value_error(self, blob, data):
        cut = data.draw(st.integers(0, len(blob) - 1))
        with pytest.raises(ValueError):
            read_bytes(blob[:cut])

    @settings(max_examples=300, deadline=None)
    @given(blob=demb_files(), data=st.data())
    def test_bit_flip_reads_or_raises_value_error(self, blob, data):
        bit = data.draw(st.integers(0, 8 * len(blob) - 1))
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        try:
            read_bytes(bytes(flipped))
        except ValueError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(blob=demb_files(), data=st.data())
    def test_damaged_file_reads_as_whole_file_parser(self, blob, data):
        # one cut, one bit flip, or both: the same matrix or the same message
        damaged = bytearray(blob[:data.draw(st.integers(0, len(blob)))])
        if damaged and data.draw(st.booleans()):
            bit = data.draw(st.integers(0, 8 * len(damaged) - 1))
            damaged[bit // 8] ^= 1 << (bit % 8)

        def outcome(read, path):
            try:
                matrix = read(path)
            except UnicodeDecodeError:
                # deliberate change: an id that is not UTF-8 is named by its
                # index and the offset of the byte in the file
                index, offset = _first_undecodable_id(bytes(damaged))
                return f"{path}: id {index} is not UTF-8 (undecodable byte at offset {offset})"
            except ValueError as exc:
                return str(exc)
            return matrix.ids, matrix.data.tobytes()

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.demb"
            path.write_bytes(bytes(damaged))
            assert outcome(read_matrix, path) == outcome(read_matrix_reference, path)


def _first_undecodable_id(blob: bytes) -> tuple[int, int]:
    """(index, offset in the file of the byte) of the first id of a .demb
    whose bytes are not UTF-8, the ids before it being whole."""
    offset = struct.calcsize("<4sHIQ")
    for index in itertools.count():
        (length,) = struct.unpack_from("<I", blob, offset)
        try:
            blob[offset + 4:offset + 4 + length].decode("utf-8")
        except UnicodeDecodeError as exc:
            return index, offset + 4 + exc.start
        offset += 4 + length


# pieces of a sentence file: line ends of every kind, Unicode breaks that do
# not end a line, blanks, a BOM inside the text, and bytes that are not UTF-8
_TEXT_PIECES = [text.encode("utf-8") for text in ["\n", "\r", "\r\n", "\u2028", "\u0085", "\x0c",
                                                 "\t", " ", "  ", "a", "é b", "\ufeff"]]
_BAD_PIECES = [b"\xff", b"\xc3", b"\xed\xa0\x80", codecs.BOM_UTF8[:2]]


@st.composite
def _sentence_files(draw):
    pieces = draw(st.lists(st.sampled_from(_TEXT_PIECES), max_size=12))
    if draw(st.integers(0, 3)) == 0:  # one file in four holds bytes that are not UTF-8
        pieces.insert(draw(st.integers(0, len(pieces))), draw(st.sampled_from(_BAD_PIECES)))
    return (codecs.BOM_UTF8 if draw(st.booleans()) else b"") + b"".join(pieces)


class TestCorpusReader:
    @settings(max_examples=300, deadline=None)
    @given(files=st.lists(_sentence_files(), min_size=1, max_size=3))
    def test_reads_as_text_mode_reader(self, files):
        with tempfile.TemporaryDirectory() as tmp:
            manifest = Path(tmp) / "manifest.jsonl"
            for i, raw in enumerate(files):
                (Path(tmp) / f"d{i}.txt").write_bytes(raw)
            manifest.write_text("".join(
                json.dumps({"doc_id": f"d{i}", "lang": "xx", "path": f"d{i}.txt"}) + "\n"
                for i in range(len(files))), encoding="utf-8")

            def outcome(load):
                try:
                    return load(manifest)
                except Exception as exc:
                    return type(exc), str(exc)

            expected, got = outcome(load_corpus_reference), outcome(load_corpus)
            # the first file that fails to decode, unless an empty one comes first
            for i, raw in enumerate(files):
                if not _decodes(raw):
                    break
                if not raw.decode("utf-8-sig").split():
                    assert got == expected
                    return
            else:
                assert got == expected
                return
            # the one deliberate change: the file that is not UTF-8 is named.
            # Text mode reads a file that holds only the start of a BOM as
            # empty; it is not UTF-8 either.
            path = Path(tmp) / f"d{i}.txt"
            assert expected[0] is UnicodeDecodeError or expected == (
                ValueError, f"document 'd{i}' is empty (no non-blank lines): {path}")
            bom = len(codecs.BOM_UTF8) if raw.startswith(codecs.BOM_UTF8) else 0
            try:
                raw[bom:].decode("utf-8")
            except UnicodeDecodeError as exc:
                offset = bom + exc.start
            assert got == (ValueError, f"sentence file for doc 'd{i}' is not UTF-8 "
                                       f"(undecodable byte at offset {offset}): {path}")


def _decodes(raw: bytes) -> bool:
    try:
        raw.decode("utf-8-sig")
    except UnicodeDecodeError:
        return False
    return True


# One text input of each kind: (file name, its name in messages, the reader,
# its text-mode reference, its own rows, well-formed or not).  Manifest
# entries point at sentence files d0.txt, d1.txt and the blank e.txt.
_TEXT_INPUTS = {
    "manifest": ("manifest.jsonl", "manifest", load_corpus, load_corpus_reference, [
        '{"doc_id": "d0", "lang": "en", "path": "d0.txt"}',
        '{"doc_id": "d1", "lang": "xx", "path": "d1.txt"}',
        '{"doc_id": 7, "lang": "en", "path": "d1.txt"}',
        '{"doc_id": "n", "lang": "en", "path": 7}',
        '{"doc_id": "e", "lang": "en", "path": "e.txt"}',
        '{"doc_id": "d0", "lang": "en"}',
        '{"doc_id": null, "lang": "en", "path": "d0.txt"}',
        '{"doc_id": "t", "lang": true, "path": "d0.txt"}',
        '{"doc_id": "f", "lang": 1.5, "path": "d0.txt"}',
        '{"doc_id": "l", "lang": "en", "path": ["d0.txt"]}',
        '{"doc_id": {}, "lang": "en", "path": "d0.txt"}',
        '{"doc_id": "x", ', '[1]', 'null',
        '{"doc_id": "s\\ud800", "lang": "en", "path": "d0.txt"}',
        '{"doc_id": "p", "lang": "en", "path": "\\udc80.txt"}',
    ]),
    "units": ("units.tsv", "units file", read_units_tsv, read_units_tsv_reference, [
        "u1\tone", "u2\ttwo words\t", "u1\tagain", "u3\t", "nounit", "\tnoid", " \t ",
    ]),
    "vectors": ("vectors.jsonl", "vectors file", _read_vectors, read_vectors_reference, [
        '{"unit_id": "u1", "vector": [1, 0]}',
        '{"unit_id": 2, "vector": [0, 1]}',
        '{"unit_id": "2", "vector": []}',
        '{"unit_id": null, "vector": [1]}',
        '{"unit_id": false, "vector": [1]}',
        '{"unit_id": 0.5, "vector": [1]}',
        '{"unit_id": ["u1"], "vector": [1]}',
        '{"unit_id": "u3"}', '{"unit_id": "\\udc80", "vector": [1]}',
        '{"vector": [1]', '"u1"',
    ]),
    "gold": ("gold.tsv", "gold file", load_gold, load_gold_reference, [
        "a\tb", "c\td", "a\te", "f\tb", "g\th\ti", "j", "\tk", "l\t",
    ]),
    "pairs": ("pairs.tsv", "pairs file", load_pairs, load_pairs_reference, [
        "a\tb", "c\td\t0.5", "a\te", "g\th\ti", "j", "\tk", "l\t",
    ]),
}
# what else a line may hold, and what may end it
_LINE_NOISE = ["", " ", " \t ", "\x0c", "\u2028", "\u0085", "\ufeff", "# a\tb", "#"]
_LINE_ENDS = ["\n", "\r", "\r\n", "", "\u2028", "\t"]


@st.composite
def _text_files(draw, rows):
    lines = draw(st.lists(st.tuples(st.sampled_from(rows + _LINE_NOISE),
                                    st.sampled_from(_LINE_ENDS)), max_size=8))
    pieces = [(text + end).encode("utf-8") for text, end in lines]
    if draw(st.integers(0, 3)) == 0:  # one file in four holds bytes that are not UTF-8
        pieces.insert(draw(st.integers(0, len(pieces))), draw(st.sampled_from(_BAD_PIECES)))
    return (codecs.BOM_UTF8 if draw(st.booleans()) else b"") + b"".join(pieces)


# per JSON-lines input, the keys a record must carry and those that hold text
_RECORD_KEYS = {"manifest": (("doc_id", "lang", "path"), ("doc_id", "lang", "path")),
                "vectors": (("unit_id", "vector"), ("unit_id",))}


def _first_untyped_id(lines, kind):
    """(line number, key) of the first record that carries every key and
    whose id, lang or path holds neither a string nor an integer, or None."""
    keys, text_keys = _RECORD_KEYS.get(kind, ((), ()))
    for lineno, line in enumerate(lines, start=1):
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and all(key in record for key in keys):
            for key in text_keys:
                value = record[key]
                if isinstance(value, bool) or not isinstance(value, (str, int)):
                    return lineno, key
    return None


class TestTextInputReaders:
    @pytest.mark.parametrize("kind", list(_TEXT_INPUTS))
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_reads_as_text_mode_reference(self, kind, data):
        name, what, read, reference, rows = _TEXT_INPUTS[kind]
        raw = data.draw(_text_files(rows))
        with tempfile.TemporaryDirectory() as tmp:
            for doc, text in [("d0", "one\ntwo\n"), ("d1", "three\n"), ("e", " \n")]:
                (Path(tmp) / f"{doc}.txt").write_text(text, encoding="utf-8")
            path = Path(tmp) / name
            path.write_bytes(raw)

            def outcome(load):
                try:
                    return None, load(path)
                except Exception as exc:
                    return type(exc), str(exc)

            got = outcome(read)
            fault = None  # of the first line the reference is not given
            try:
                # text mode's lines: LF, CRLF and CR end a line, each becoming LF
                lines = _text_mode_lines(raw)
            except UnicodeDecodeError as exc:
                # deliberate change 1: a file that is not UTF-8 is named, with
                # the offset of the byte in the file, BOM included.
                # Deliberate change 2: the byte is a fault of its line, met
                # after the lines before it.  Text mode decodes a block ahead
                # of the lines it gives, and reads a lone start of a BOM as an
                # empty file.
                offset = exc.start + (len(codecs.BOM_UTF8) if raw.startswith(codecs.BOM_UTF8) else 0)
                fault = f"{what} is not UTF-8 (undecodable byte at offset {offset}): {path}"
                line_start = max(raw.rfind(b"\n", 0, offset), raw.rfind(b"\r", 0, offset)) + 1
                lines = _text_mode_lines(raw[:line_start])
            if kind == "units":
                # deliberate change 3: a whitespace-only line is skipped like a
                # blank one, where text mode read " " as a row without a tab
                # and " \t " as the unit " "
                lines = ["\n" if not line.strip() else line for line in lines]
            # deliberate change 4: an id, lang or path that is neither a
            # string nor an integer is a fault of its line, where text mode
            # read null as "None".  The reference then reads the lines before it.
            untyped = _first_untyped_id(lines, kind)
            if untyped is not None:
                lines = lines[:untyped[0] - 1]
                fault = f"{path}:{untyped[0]}: {untyped[1]} must be a string or an integer"
            # the reference reads the lines text mode gave it, with LF ends;
            # the BOM keeps a U+FEFF that starts the text
            path.write_bytes("".join(lines).encode("utf-8-sig"))
            expected = outcome(reference)
            # deliberate change 5: a JSON error's position is the record's
            # own, as json reads the line without its end
            prefix = f"{path}:"
            if expected[0] is ValueError and expected[1].startswith(prefix) and (
                    ": invalid JSON: " in expected[1]):
                lineno = int(expected[1][len(prefix):].partition(":")[0])
                with pytest.raises(ValueError) as error:
                    json.loads(lines[lineno - 1].rstrip("\n"))
                expected = (ValueError, f"{path}:{lineno}: invalid JSON: {error.value}")
            # that fault, unless a line before it has its own; checks of the
            # whole input come after every line is read
            if fault is not None and (
                    expected[0] is None or expected[1] in (f"manifest {path} lists no documents",
                                                           f"units file {path} is empty")
                    or expected[1].endswith("appears in more than one gold pair")):
                expected = (ValueError, fault)
            assert got == expected

    @settings(max_examples=300, deadline=None)
    @given(raw=_text_files(["a\tb", "\u00e9\u00e9", "\r\n\r"]), block=st.integers(1, 9))
    def test_lines_do_not_depend_on_block_size(self, raw, block):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.txt"
            path.write_bytes(raw)

            def outcome():
                lines = []
                try:
                    for numbered in read_lines(path, "text file"):
                        lines.append(numbered)
                except ValueError as exc:
                    return lines, str(exc)
                return lines, None

            with mock.patch.object(corpus, "_BLOCK", block):
                in_blocks = outcome()
            assert in_blocks == outcome()
            if in_blocks[1] is None:
                # text mode's lines, numbered, without their LF, blank ones dropped
                assert in_blocks[0] == [(lineno, line.rstrip("\n")) for lineno, line
                                        in enumerate(_text_mode_lines(raw), start=1)
                                        if line.strip()]


def _text_mode_lines(raw: bytes) -> list[str]:
    return io.StringIO(raw.decode("utf-8-sig"), newline=None).readlines()


# characters where one NFC pass over a text could differ from one per token:
# whitespace that NFC rewrites (U+2000, U+2001), other Unicode spaces,
# combining marks that may follow a space, Hangul jamo that compose, and
# letters they attach to
_NFC_EDGE_CHARS = list(" \t\n\x0b\x0c\r\x1c\x85\xa0\u1680\u2000\u2001\u2002\u2028\u3000"
                       "\u0301\u0308\u0327\u0345\u1100\u1161\u11a8\uac00eaA\u00e9")


class TestTokenize:
    @given(st.text(st.sampled_from(_NFC_EDGE_CHARS) | st.characters(), max_size=40))
    @settings(max_examples=500, deadline=None)
    def test_one_nfc_pass_equals_nfc_per_token(self, text):
        assert tokenize(text) == [unicodedata.normalize("NFC", t) for t in text.split()]
        # LP counts a sentence's tokens with split(), LIDF with tokenize()
        assert len(tokenize(text)) == len(text.split())


class TestUnitWeightsProperties:
    @given(st.lists(st.lists(st.text(st.sampled_from(_NFC_EDGE_CHARS) | st.characters(),
                                     max_size=12).filter(str.strip),
                             min_size=1, max_size=4),
                    min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_own_side_weights_are_positive(self, sentences_per_doc):
        # pool_corpus has no zero-weight check: Document rejects blank
        # sentences, and every token's own-side idf is at least 1
        docs = [Document(f"d{i}", "xx", tuple(s)) for i, s in enumerate(sentences_per_doc)]
        idf = build_idf(docs)
        texts = [s for doc in docs for s in doc.sentences]
        for method in PoolingMethod:
            weights = unit_weights(texts, method, idf if method.needs_idf else None)
            assert len(weights) == len(texts)
            assert np.all(weights >= 1.0), method


def quantized(matrix: EmbeddingMatrix) -> EmbeddingMatrix:
    # with every entry a multiple of 2**-12, inner products and neighborhood
    # sums are exact in float64, so no row order can move a score by one ulp
    return EmbeddingMatrix(ids=matrix.ids, data=np.round(matrix.data * 4096) / 4096)


@st.composite
def planted_corpora(draw):
    granularity = draw(st.integers(1, 2))
    src_docs, tgt_docs, src_emb, tgt_emb, _ = planted_corpus(
        n_pairs=draw(st.integers(1, 6)),
        chunks_per_doc=draw(st.integers(1, 3)),
        n_noise=draw(st.integers(0, 3)),
        perturbation=draw(st.sampled_from([0.0, 0.1, 0.4])),
        replace_frac=draw(st.sampled_from([0.0, 0.3])),
        orthogonal_noise=False,
        dim=draw(st.integers(4, 16)),
        seed=draw(st.integers(0, 2**32 - 1)),
        granularity=granularity,
    )
    return src_docs, tgt_docs, quantized(src_emb), quantized(tgt_emb), Granularity(granularity)


class TestAlignDocumentsDacProperties:
    @settings(max_examples=60, deadline=None)
    @given(corpus=planted_corpora(), k=st.integers(1, 6), threshold=st.floats(0, 1),
           block_size=st.integers(1, 5), data=st.data())
    def test_selection_invariants(self, corpus, k, threshold, block_size, data):
        src_docs, tgt_docs, src_emb, tgt_emb, granularity = corpus
        params = MarginParams(k=k)

        def align(src, tgt, workers=1):
            return align_documents_dac(src, tgt, src_emb, tgt_emb, granularity, params,
                                       threshold, workers)

        chosen = align(src_docs, tgt_docs)
        assert len({s.src_doc for s in chosen}) == len(chosen)
        assert len({s.tgt_doc for s in chosen}) == len(chosen)
        assert all(threshold <= s.dac <= 1.0 for s in chosen)

        # small tiles split the search into several tiles, and so into lanes
        with mock.patch.object(knn, "DEFAULT_BLOCK_SIZE", block_size):
            for workers in (1, 2, 3):
                assert align(src_docs, tgt_docs, workers) == chosen

        src_order = data.draw(st.permutations(src_docs))
        tgt_order = data.draw(st.permutations(tgt_docs))
        assert align(src_order, tgt_order) == chosen


# doc ids holding '#' that share prefixes, so that one doc's id is also the
# id of another doc's chunk ("a#1" is chunk 1 of "a")
_HASH_DOC_IDS = ["a", "a#1", "a#1#0", "a#0", "a#10", "a#1#1", "a#1#0#0", "a#", "a##0"]


def _renamed(docs, matrix, names, g, drops):
    """docs renamed to names, each losing its last drops[i] sentences, and
    matrix with its unit ids renamed to match; surplus rows stay."""
    new_id = {}
    renamed = []
    for doc, name, drop in zip(docs, names, drops):
        for index in range(-(-len(doc.sentences) // g)):
            new_id[f"{doc.doc_id}#{index}"] = f"{name}#{index}"
        renamed.append(Document(name, doc.lang, doc.sentences[:len(doc.sentences) - drop]))
    return renamed, EmbeddingMatrix(ids=[new_id[i] for i in matrix.ids], data=matrix.data)


@st.composite
def hash_id_corpora(draw):
    """Quantized planted corpora at -g 1-3 with '#'-bearing doc ids, and
    target documents that may lose trailing sentences, so that twins differ
    in chunk count and last chunks are short; with the planted doc pairs."""
    g = draw(st.integers(1, 3))
    n_pairs = draw(st.integers(1, 5))
    n_noise = draw(st.integers(0, 3))
    src_docs, tgt_docs, src_emb, tgt_emb, _ = planted_corpus(
        n_pairs=n_pairs,
        chunks_per_doc=draw(st.integers(1, 4)),
        n_noise=n_noise,
        perturbation=draw(st.sampled_from([0.0, 0.1, 0.4])),
        replace_frac=draw(st.sampled_from([0.0, 0.3])),
        orthogonal_noise=False,
        dim=draw(st.integers(4, 12)),
        seed=draw(st.integers(0, 2**32 - 1)),
        granularity=g,
    )
    n_docs = n_pairs + n_noise
    src_docs, src_emb = _renamed(src_docs, src_emb, draw(st.permutations(_HASH_DOC_IDS)),
                                 g, [0] * n_docs)
    drops = [draw(st.integers(0, len(doc.sentences) - 1)) for doc in tgt_docs]
    tgt_docs, tgt_emb = _renamed(tgt_docs, tgt_emb, draw(st.permutations(_HASH_DOC_IDS)),
                                 g, drops)
    planted = [(src.doc_id, tgt.doc_id) for src, tgt in zip(src_docs[:n_pairs], tgt_docs)]
    return src_docs, tgt_docs, quantized(src_emb), quantized(tgt_emb), g, planted


class TestDacReference:
    @settings(max_examples=150, deadline=None)
    @given(corpus=hash_id_corpora(), k=st.integers(1, 4), one_to_one=st.booleans(),
           data=st.data())
    def test_dac_path_matches_reference(self, corpus, k, one_to_one, data):
        src_docs, tgt_docs, src_emb, tgt_emb, g, _ = corpus
        # the floor and the threshold are drawn from values the run reaches
        unfloored, _, _ = dac_reference(src_docs, tgt_docs, src_emb, tgt_emb, g, k, 0.0)
        min_margin = data.draw(st.none() | st.sampled_from([p.margin for p in unfloored] or [0.0]))
        pairs, scores, _ = dac_reference(src_docs, tgt_docs, src_emb, tgt_emb, g, k, 0.0,
                                         min_margin=min_margin)
        threshold = data.draw(st.sampled_from(sorted({0.0, 1.0} | {s.dac for s in scores})))
        _, _, selected = dac_reference(src_docs, tgt_docs, src_emb, tgt_emb, g, k, threshold,
                                       one_to_one, min_margin)
        params = MarginParams(k=k, min_margin=min_margin)

        got_pairs, got_scores = mine_chunk_pairs(src_docs, tgt_docs, src_emb, tgt_emb,
                                                 Granularity(g), params)
        assert got_pairs == pairs
        assert got_scores == scores
        assert [s.margin_sum.hex() for s in got_scores] == [s.margin_sum.hex() for s in scores]
        assert align_documents_dac(src_docs, tgt_docs, src_emb, tgt_emb, Granularity(g), params,
                                   threshold, one_to_one=one_to_one) == selected

    @settings(max_examples=100, deadline=None)
    @given(corpus=hash_id_corpora(), k=st.integers(1, 4), one_to_one=st.booleans(),
           data=st.data())
    def test_sweep_matches_reference(self, corpus, k, one_to_one, data):
        src_docs, tgt_docs, src_emb, tgt_emb, g, planted = corpus

        def reference(threshold):
            return dac_reference(src_docs, tgt_docs, src_emb, tgt_emb, g, k, threshold,
                                 one_to_one)

        # thresholds from the dac values the run reaches, plus 0 and 1
        _, scores, _ = reference(0.0)
        reached = sorted({0.0, 1.0} | {s.dac for s in scores})
        thresholds = sorted(data.draw(st.sets(st.sampled_from(reached), min_size=1)))
        gold = GoldSet.from_pairs(data.draw(st.lists(st.sampled_from(planted), unique=True)))
        expected = [score([(s.src_doc, s.tgt_doc) for s in reference(t)[2]], gold, t)
                    for t in thresholds]
        assert sweep_thresholds(scores, gold, thresholds, one_to_one) == expected


@st.composite
def pooled_corpora(draw):
    """Quantized sentence-level planted corpora whose sentences are redrawn
    from a small vocabulary, so that documents and the two sides share
    tokens and sentences differ in length and idf."""
    src_docs, tgt_docs, src_emb, tgt_emb, _ = planted_corpus(
        n_pairs=draw(st.integers(1, 6)),
        chunks_per_doc=draw(st.integers(1, 3)),
        n_noise=draw(st.integers(0, 3)),
        perturbation=draw(st.sampled_from([0.0, 0.1, 0.4])),
        replace_frac=draw(st.sampled_from([0.0, 0.3])),
        orthogonal_noise=False,
        dim=draw(st.integers(4, 16)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    sentence = st.lists(st.sampled_from(["a", "b", "c", "d", "e\u0301", "\u00e9"]),
                        min_size=1, max_size=4).map(" ".join)

    def reworded(docs):
        return [Document(doc.doc_id, doc.lang, tuple(draw(sentence) for _ in doc.sentences))
                for doc in docs]

    return reworded(src_docs), reworded(tgt_docs), quantized(src_emb), quantized(tgt_emb)


class TestPooledReference:
    @settings(max_examples=150, deadline=None)
    @given(corpus=pooled_corpora(), method=st.sampled_from(list(PoolingMethod)),
           k=st.integers(1, 4), data=st.data())
    def test_pooled_path_matches_reference(self, corpus, method, k, data):
        src_docs, tgt_docs, src_emb, tgt_emb = corpus

        def close(got, expected):
            assert [(p.src_id, p.tgt_id) for p in got] == [(p.src_id, p.tgt_id) for p in expected]
            for a, b in zip(got, expected):
                assert a.cosine == pytest.approx(b.cosine, rel=1e-6)
                assert a.margin == pytest.approx(b.margin, rel=1e-6)

        got = align_documents_pooled(src_docs, tgt_docs, src_emb, tgt_emb, method,
                                     MarginParams(k=k))
        expected = pooled_reference(src_docs, tgt_docs, src_emb, tgt_emb, method, k)
        close(got, expected)
        # the floor is the margin one matched pair reaches, each path's own:
        # the float64 GEMM and the reference's dot products may differ in
        # the last ulp, and the pair at the floor stays in both
        floor = data.draw(st.sampled_from(range(len(got))))
        got = align_documents_pooled(src_docs, tgt_docs, src_emb, tgt_emb, method,
                                     MarginParams(k=k, min_margin=got[floor].margin))
        close(got, pooled_reference(src_docs, tgt_docs, src_emb, tgt_emb, method, k,
                                    min_margin=expected[floor].margin))
