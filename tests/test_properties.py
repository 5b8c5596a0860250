"""Hypothesis properties of the .demb reader, tokenize and the whole dac path."""

import functools
import tempfile
import unicodedata
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkalign import knn
from chunkalign.corpus import Granularity
from chunkalign.dac import align_documents_dac
from chunkalign.embed_store import EmbeddingMatrix, read_matrix, write_matrix
from chunkalign.miner import MarginParams
from chunkalign.pooling import tokenize
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
        tiled = functools.partial(knn.search_arrays, block_size=block_size)
        with mock.patch.object(knn, "search_arrays", tiled):
            for workers in (1, 2, 3):
                assert align(src_docs, tgt_docs, workers) == chosen

        src_order = data.draw(st.permutations(src_docs))
        tgt_order = data.draw(st.permutations(tgt_docs))
        assert align(src_order, tgt_order) == chosen
