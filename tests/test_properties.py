"""Hypothesis properties of the .demb and corpus readers, tokenize and the
whole dac path, which is also compared with a reference written from its
definitions."""

import codecs
import json
import tempfile
import unicodedata
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkalign import knn
from chunkalign.corpus import Document, Granularity, load_corpus
from chunkalign.dac import align_documents_dac, mine_chunk_pairs
from chunkalign.embed_store import EmbeddingMatrix, read_matrix, write_matrix
from chunkalign.miner import MarginParams
from chunkalign.pooling import PoolingMethod, build_idf, tokenize, unit_weights
from oracles import dac_reference, load_corpus_reference, read_matrix_reference
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
            except ValueError as exc:
                return str(exc)
            return matrix.ids, matrix.data.tobytes()

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.demb"
            path.write_bytes(bytes(damaged))
            assert outcome(read_matrix, path) == outcome(read_matrix_reference, path)


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
    in chunk count and last chunks are short."""
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
    return src_docs, tgt_docs, quantized(src_emb), quantized(tgt_emb), g


class TestDacReference:
    @settings(max_examples=150, deadline=None)
    @given(corpus=hash_id_corpora(), k=st.integers(1, 4), one_to_one=st.booleans(),
           data=st.data())
    def test_dac_path_matches_reference(self, corpus, k, one_to_one, data):
        src_docs, tgt_docs, src_emb, tgt_emb, g = corpus
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
