import base64
import logging
import os
import socket
import struct
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkalign import embed_store, service
from chunkalign.embed_store import (
    EmbeddingMatrix,
    fetch_vectors,
    matrix_from_vectors,
    normalize,
    read_matrix,
    read_normalized,
    write_matrix,
)
from conftest import vector_for_text


class TestEmbeddingMatrix:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate id 'a'"):
            EmbeddingMatrix(ids=["a", "a"], data=np.eye(2))

    def test_id_count_must_match_rows(self):
        with pytest.raises(ValueError, match="3 ids for 2 rows"):
            EmbeddingMatrix(ids=["a", "b", "c"], data=np.eye(2))

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2)], ids=["1d", "3d"])
    def test_data_must_be_2_dimensional(self, shape):
        with pytest.raises(ValueError) as error:
            EmbeddingMatrix(ids=[str(i) for i in range(shape[0])], data=np.ones(shape))
        assert str(error.value) == f"embedding data must be 2-dimensional, got shape {shape}"

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            EmbeddingMatrix(ids=[], data=np.empty((0, 0)))

    def test_select_orders_rows(self):
        m = EmbeddingMatrix(ids=["a", "b", "c"], data=np.eye(3))
        sub = m.select(["c", "a"])
        assert sub.ids == ["c", "a"]
        np.testing.assert_array_equal(sub.data, np.eye(3)[[2, 0]])

    def test_select_own_ids_returns_the_matrix(self):
        m = EmbeddingMatrix(ids=["a", "b", "c"], data=np.eye(3))
        assert m.select(["a", "b", "c"]) is m
        assert m.select(iter(["a", "b", "c"])) is m

    @pytest.mark.parametrize("ids", [["b", "a", "c"], ["a", "b"], ["a", "c"]])
    def test_select_other_order_or_subset_copies(self, ids):
        m = EmbeddingMatrix(ids=["a", "b", "c"], data=np.eye(3))
        sub = m.select(ids)
        assert sub is not m
        assert sub.ids == ids
        assert not np.shares_memory(sub.data, m.data)
        np.testing.assert_array_equal(sub.data, np.eye(3)[[m.row_of(i) for i in ids]])

    @pytest.mark.parametrize("ids", [["zz"], ["a", "zz"], ["a", "b", "zz"]])
    def test_select_unknown_id(self, ids):
        m = EmbeddingMatrix(ids=["a", "b"], data=np.ones((2, 2)))
        with pytest.raises(KeyError, match="no embedding for id 'zz'"):
            m.select(ids)

    def test_data_coerced_to_float32(self):
        m = EmbeddingMatrix(ids=["a"], data=np.array([[1.0, 2.0]], dtype=np.float64))
        assert m.data.dtype == np.float32


class TestNormalize:
    def test_block_boundary_matches_whole_matrix_reference(self):
        # rows on both sides of two block boundaries, norms from 1e-3 to 1e3
        count = 2 * embed_store._NORMALIZE_BLOCK_ROWS + 3
        rng = np.random.default_rng(11)
        data = (rng.standard_normal((count, 5)) * 10 ** rng.uniform(-3, 3, (count, 1)))
        data = data.astype(np.float32)
        data64 = data.astype(np.float64)
        expected = (data64 / np.linalg.norm(data64, axis=1)[:, None]).astype(np.float32)
        m = normalize(EmbeddingMatrix(ids=[str(i) for i in range(count)], data=data))
        assert m.data.tobytes() == expected.tobytes()

    def test_non_finite_row_in_later_block_beats_earlier_zero_row(self):
        block = embed_store._NORMALIZE_BLOCK_ROWS
        data = np.ones((block + 2, 3), dtype=np.float32)
        data[1] = 0.0
        data[block + 1, 2] = np.nan
        m = EmbeddingMatrix(ids=[f"r{i}" for i in range(block + 2)], data=data)
        with pytest.raises(ValueError, match=f"non-finite embedding for id 'r{block + 1}'"):
            normalize(m)

    def test_first_zero_row_named_across_blocks(self):
        block = embed_store._NORMALIZE_BLOCK_ROWS
        data = np.ones((2 * block + 2, 3), dtype=np.float32)
        data[[block + 1, 2 * block + 1]] = 0.0
        m = EmbeddingMatrix(ids=[f"r{i}" for i in range(2 * block + 2)], data=data)
        with pytest.raises(ValueError, match=f"zero-norm embedding for id 'r{block + 1}'"):
            normalize(m)

    def test_three_four_five(self):
        m = normalize(EmbeddingMatrix(ids=["v"], data=np.array([[3.0, 4.0]])))
        np.testing.assert_allclose(m.data[0], [0.6, 0.8], atol=1e-7)

    def test_unit_vector_unchanged(self):
        m = normalize(EmbeddingMatrix(ids=["v"], data=np.array([[1.0, 0.0]])))
        np.testing.assert_array_equal(m.data[0], [1.0, 0.0])

    def test_zero_row_names_id(self):
        m = EmbeddingMatrix(ids=["ok", "bad#3"], data=np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="zero-norm embedding for id 'bad#3'"):
            normalize(m)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_names_id(self, value):
        m = EmbeddingMatrix(ids=["ok", "bad#3"], data=np.array([[1.0, 0.0], [value, 1.0]]))
        with pytest.raises(ValueError, match="non-finite embedding for id 'bad#3'"):
            normalize(m)

    def test_norms_within_tolerance(self):
        rng = np.random.default_rng(42)
        m = normalize(EmbeddingMatrix(ids=[str(i) for i in range(200)],
                                      data=rng.standard_normal((200, 31))))
        norms = np.linalg.norm(m.data.astype(np.float64), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-4)

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        m = normalize(EmbeddingMatrix(ids=[str(i) for i in range(50)],
                                      data=rng.standard_normal((50, 16)) * 3.0))
        again = normalize(m)
        np.testing.assert_allclose(again.data, m.data, atol=1e-7)


class TestMatrixFile:
    def test_round_trip_random_matrices(self, tmp_path):
        rng = np.random.default_rng(42)
        for i in range(10):
            count = int(rng.integers(0, 40))
            dim = int(rng.integers(1, 65))
            ids = [f"unit-{i}-{j}#x" for j in range(count)]
            data = rng.standard_normal((count, dim)).astype(np.float32)
            path = tmp_path / f"m{i}.demb"
            write_matrix(EmbeddingMatrix(ids=ids, data=data), path)
            back = read_matrix(path)
            assert back.ids == ids
            assert back.data.dtype == np.float32
            assert back.data.tobytes() == data.tobytes()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes need os.mkfifo")
    def test_fifo_is_rejected_without_blocking(self, tmp_path):
        # opening a FIFO blocks until a writer comes; run the read in a child
        # process so that a read that blocks fails the test rather than hangs it
        fifo = tmp_path / "fifo.demb"
        os.mkfifo(fifo)
        probe = ("import sys, chunkalign\n"
                 "try:\n"
                 "    chunkalign.read_matrix(sys.argv[1])\n"
                 "except FileNotFoundError as exc:\n"
                 "    print(exc)\n")
        src = str(Path(embed_store.__file__).resolve().parents[1])
        result = subprocess.run([sys.executable, "-c", probe, str(fifo)], capture_output=True,
                                text=True, timeout=30, env={**os.environ, "PYTHONPATH": src})
        assert result.stdout == f"embeddings file not found: {fifo}\n"

    def test_unicode_ids_survive(self, tmp_path):
        ids = ["déjà#0", "日本語#1"]
        m = EmbeddingMatrix(ids=ids, data=np.eye(2, dtype=np.float32))
        path = tmp_path / "u.demb"
        write_matrix(m, path)
        assert read_matrix(path).ids == ids

    def _write_sample(self, tmp_path):
        path = tmp_path / "m.demb"
        data = np.arange(12, dtype=np.float32).reshape(3, 4)
        write_matrix(EmbeddingMatrix(ids=["a", "b", "c"], data=data), path)
        return path

    def test_bad_magic(self, tmp_path):
        path = self._write_sample(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="bad magic"):
            read_matrix(path)

    def test_unsupported_version(self, tmp_path):
        path = self._write_sample(tmp_path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<H", blob, 4, 9)
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="unsupported format version 9"):
            read_matrix(path)

    def test_zero_dim_header(self, tmp_path):
        path = tmp_path / "m.demb"
        path.write_bytes(struct.pack("<4sHIQ", b"DEMB", 1, 0, 0))
        with pytest.raises(ValueError, match="dim=0"):
            read_matrix(path)

    def test_truncated_payload(self, tmp_path):
        path = self._write_sample(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(ValueError, match="payload size mismatch"):
            read_matrix(path)

    def test_trailing_garbage(self, tmp_path):
        path = self._write_sample(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00\x01")
        with pytest.raises(ValueError, match="payload size mismatch"):
            read_matrix(path)

    def test_truncated_id_table(self, tmp_path):
        path = self._write_sample(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:struct.calcsize("<4sHIQ") + 2])
        with pytest.raises(ValueError, match="truncated id table"):
            read_matrix(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "m.demb"
        path.write_bytes(b"DEMB\x01")
        with pytest.raises(ValueError, match="truncated header"):
            read_matrix(path)

    def test_duplicate_ids_in_file(self, tmp_path):
        path = tmp_path / "m.demb"
        blob = struct.pack("<4sHIQ", b"DEMB", 1, 2, 2)
        for _ in range(2):
            blob += struct.pack("<I", 3) + b"dup"
        blob += np.zeros((2, 2), dtype="<f4").tobytes()
        path.write_bytes(blob)
        with pytest.raises(ValueError, match="duplicate id 'dup'"):
            read_matrix(path)

    def test_empty_matrix_round_trip(self, tmp_path):
        path = tmp_path / "empty.demb"
        write_matrix(EmbeddingMatrix(ids=[], data=np.empty((0, 7), dtype=np.float32)), path)
        back = read_matrix(path)
        assert len(back) == 0
        assert back.dim == 7

    def test_write_makes_no_payload_copy(self, tmp_path):
        rows = np.random.default_rng(5).standard_normal((20_000, 64)).astype(np.float32)
        matrix = EmbeddingMatrix(ids=[f"d{i}#0" for i in range(len(rows))], data=rows)
        path = tmp_path / "big.demb"
        tracemalloc.start()
        try:
            write_matrix(matrix, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the id table is about 0.2 MB; one copy of the payload would be 5.1 MB
        assert peak < rows.nbytes / 4
        assert read_matrix(path).data.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("reader", [read_matrix, read_normalized])
    def test_oversized_header_allocates_nothing_large(self, tmp_path, reader):
        # one row of the largest dim (u32) claimed, 16 GiB; 8 payload bytes present
        path = tmp_path / "huge.demb"
        path.write_bytes(struct.pack("<4sHIQ", b"DEMB", 1, 2**32 - 1, 1)
                         + struct.pack("<I", 1) + b"a" + bytes(8))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=(
                    r"payload size mismatch \(expected 17179869180 bytes for "
                    r"1 x 4294967295 float32, found 8\)$")):
                reader(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("reader", [read_matrix, read_normalized])
    def test_oversized_id_length_allocates_nothing_large(self, tmp_path, reader):
        # the first id claims the largest length (u32), 4 GiB; 9 bytes follow
        path = tmp_path / "huge_id.demb"
        path.write_bytes(struct.pack("<4sHIQ", b"DEMB", 1, 2, 1)
                         + struct.pack("<I", 2**32 - 1) + b"a" + bytes(8))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="truncated id table$"):
                reader(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_read_normalized_holds_one_copy(self, tmp_path):
        rows = np.random.default_rng(6).standard_normal((20_000, 256)).astype(np.float32)
        path = tmp_path / "big.demb"
        write_matrix(EmbeddingMatrix(ids=[f"d{i}#0" for i in range(len(rows))], data=rows), path)
        tracemalloc.start()
        try:
            matrix = read_normalized(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the rows are 20.5 MB and the ids about 2.5 MB; the file's bytes, a
        # payload copy or a second normalized array would each add 20.5 MB
        assert peak < 1.25 * rows.nbytes
        assert matrix.data.tobytes() == normalize(EmbeddingMatrix(matrix.ids, rows)).data.tobytes()


# rows of a .demb payload: zero rows, finite rows of any scale, and rows
# holding a NaN or an infinity
_rows = st.integers(1, 3).flatmap(lambda dim: st.lists(
    st.lists(st.just(0.0), min_size=dim, max_size=dim)
    | st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
               min_size=dim, max_size=dim)
    | st.lists(st.floats(width=32), min_size=dim, max_size=dim),
    max_size=12))


def _outcome(read, path):
    try:
        matrix = read(path)
    except ValueError as exc:
        return str(exc)
    return matrix.ids, matrix.data.dtype, matrix.data.shape, matrix.data.tobytes()


class TestReadNormalizedProperties:
    # blocks of 1 to 3 rows make a dozen rows span several of them
    @settings(max_examples=300, deadline=None)
    @given(rows=_rows, data=st.data(),
           block_rows=st.sampled_from([1, 2, 3, embed_store._NORMALIZE_BLOCK_ROWS]))
    def test_equals_normalize_of_read_matrix(self, rows, data, block_rows):
        dim = len(rows[0]) if rows else data.draw(st.integers(1, 3))
        matrix = EmbeddingMatrix(ids=[f"r{i}" for i in range(len(rows))],
                                 data=np.array(rows, dtype=np.float32).reshape(len(rows), dim))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.demb"
            write_matrix(matrix, path)
            if data.draw(st.booleans()):  # a truncated file fails in read_matrix first
                blob = path.read_bytes()
                path.write_bytes(blob[:data.draw(st.integers(0, len(blob)))])
            with mock.patch.object(embed_store, "_NORMALIZE_BLOCK_ROWS", block_rows):
                expected = _outcome(lambda p: normalize(read_matrix(p)), path)
                assert _outcome(read_normalized, path) == expected


@pytest.fixture
def quick_retries(monkeypatch):
    """Retries 10 ms apart, where the client waits 0.5 s and more."""
    monkeypatch.setattr(service, "RETRY_WAIT", 0.01)


class TestFetch:
    def test_batching_order_and_normalization(self, embed_server):
        url, state = embed_server
        ids = [f"u#{i}" for i in range(5)]
        texts = [f"text number {i}" for i in range(5)]
        matrix = fetch_vectors(ids, texts, url, batch_size=2)
        assert state["requests"] == 3
        assert matrix.ids == ids
        for row, text in zip(matrix.data, texts):
            raw = np.asarray(vector_for_text(text), dtype=np.float32)
            np.testing.assert_allclose(row, raw / np.linalg.norm(raw), atol=1e-6)

    def test_retries_then_succeeds(self, quick_retries, embed_server):
        url, state = embed_server
        state["fail_remaining"] = 2
        matrix = fetch_vectors(["a"], ["hello"], url)
        assert len(matrix) == 1
        assert state["requests"] == 3

    def test_gives_up_after_attempts(self, quick_retries, embed_server):
        url, state = embed_server
        state["fail_remaining"] = 99
        with pytest.raises(RuntimeError, match="failed after 3 attempts"):
            fetch_vectors(["a"], ["hello"], url)
        assert state["requests"] == 3

    def test_client_error_not_retried(self, quick_retries, embed_server):
        url, state = embed_server
        state["fail_remaining"] = 99
        state["fail_status"] = 400
        with pytest.raises(ValueError, match="HTTP 400"):
            fetch_vectors(["a"], ["hello"], url)
        assert state["requests"] == 1

    def test_rate_limit_retried(self, quick_retries, embed_server):
        url, state = embed_server
        state["fail_remaining"] = 2
        state["fail_status"] = 429
        matrix = fetch_vectors(["a"], ["hello"], url)
        assert len(matrix) == 1
        assert state["requests"] == 3

    @pytest.mark.parametrize("status", [301, 302, 307, 308])
    def test_redirect_not_followed(self, quick_retries, embed_server, status):
        url, state = embed_server
        state["fail_remaining"] = 99
        state["fail_status"] = status
        with pytest.raises(ValueError, match=f"with redirect HTTP {status}, which is not followed"):
            fetch_vectors(["a"], ["hello"], url)
        assert state["requests"] == 1

    def test_body_not_json_not_retried(self, quick_retries, embed_server):
        url, state = embed_server
        state["body"] = b"<html/>\n\n"
        with pytest.raises(ValueError, match="HTTP 200 with a body that is not JSON"):
            fetch_vectors(["a"], ["hello"], url)
        assert state["requests"] == 1

    def test_unreachable_service_retried(self, quick_retries, monkeypatch):
        monkeypatch.setattr(service, "ATTEMPTS", 2)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        # nothing listens on the port once the probe socket is closed
        with pytest.raises(RuntimeError, match="failed after 2 attempts"):
            fetch_vectors(["a"], ["hello"], f"http://127.0.0.1:{port}/embed")

    def test_count_mismatch_not_retried(self, embed_server):
        url, state = embed_server
        state["drop_one"] = True
        with pytest.raises(ValueError, match="returned 2 vectors for 3 texts"):
            fetch_vectors(["a", "b", "c"], ["x", "y", "z"], url)
        assert state["requests"] == 1

    def test_nan_vector_names_unit(self, embed_server):
        url, state = embed_server
        state["nan_text"] = "poisoned"
        with pytest.raises(ValueError, match="non-finite embedding for id 'doc9#4'"):
            fetch_vectors(["a#0", "doc9#4"], ["fine", "poisoned"], url)

    def test_zero_vector_names_unit(self, embed_server):
        url, state = embed_server
        state["zero_text"] = "void"
        with pytest.raises(ValueError, match="zero-norm embedding for id 'z#0'"):
            fetch_vectors(["a#0", "z#0"], ["fine", "void"], url)

    # a short vector in the same batch as a full one, or in a batch of its own
    @pytest.mark.parametrize("batch_size, requests", [(32, 1), (1, 2)])
    def test_ragged_vectors_rejected(self, embed_server, batch_size, requests):
        url, state = embed_server
        state["short_text"] = "stub"
        with pytest.raises(ValueError, match="embedding service vectors have differing dimensions"):
            fetch_vectors(["a#0", "s#0"], ["fine", "stub"], url, batch_size=batch_size)
        assert state["requests"] == requests

    @pytest.mark.parametrize("vector", [["x", 1.0], 1.0, [True, False]])
    def test_non_number_vector_names_unit(self, quick_retries, embed_server, vector):
        url, state = embed_server
        state["raw_vectors"] = {"odd": vector}
        with pytest.raises(ValueError, match="vector for id 'o#1' is not a list of numbers"):
            fetch_vectors(["a#0", "o#1"], ["fine", "odd"], url)
        assert state["requests"] == 1

    # the fixture's other vectors have 8 dimensions
    @pytest.mark.parametrize("value", [1e39, -1e39, 10**400], ids=["1e39", "-1e39", "1e400_int"])
    def test_out_of_range_vector_names_unit(self, quick_retries, embed_server, value):
        url, state = embed_server
        state["raw_vectors"] = {"huge": [1.0] * 7 + [value]}
        with pytest.raises(ValueError, match="embedding service vector for id 'h#1' has a value "
                                             "outside the float32 range"):
            fetch_vectors(["a#0", "h#1"], ["fine", "huge"], url)
        assert state["requests"] == 1

    def test_ids_and_texts_must_pair_up(self, embed_server):
        url, state = embed_server
        with pytest.raises(ValueError, match="^2 ids for 1 texts$"):
            fetch_vectors(["a#0", "b#0"], ["hello"], url)
        assert state["requests"] == 0

    def test_empty_units_rejected(self):
        with pytest.raises(ValueError, match="nothing to embed"):
            fetch_vectors([], [], "http://unused.invalid")

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected_before_any_request(self, embed_server, batch_size):
        url, state = embed_server
        with pytest.raises(ValueError, match=f"^batch_size must be >= 1, got {batch_size}$"):
            fetch_vectors(["a#0"], ["hello"], url, batch_size=batch_size)
        assert state["requests"] == 0


class TestFetchDedupe:
    def test_repeated_texts_sent_once(self, embed_server):
        url, state = embed_server
        texts = ["a", "b", "a", "c", "b", "d", "a", "e", "e", "c"]
        ids = [f"u#{i}" for i in range(len(texts))]
        fetch_vectors(ids, texts, url, batch_size=2)
        assert state["texts"] == {text: 1 for text in "abcde"}
        assert state["requests"] == 3  # ceil(5 distinct / 2)

    def test_rows_bit_identical_to_fetch_without_repeats(self, embed_server):
        url, state = embed_server
        # repeats land in other batches and other normalize blocks than their
        # first occurrence
        texts = [f"boilerplate {i % 7}" if i % 3 == 0 else f"sentence {i}" for i in range(2500)]
        ids = [f"d{i // 10}#{i % 10}" for i in range(len(texts))]
        matrix = fetch_vectors(ids, texts, url, batch_size=32)
        assert sum(state["texts"].values()) == len(set(texts))
        assert matrix.ids == ids
        # one row per id, every text embedded and normalized on its own
        reference = matrix_from_vectors(ids, [vector_for_text(text) for text in texts], "test")
        assert matrix.data.tobytes() == reference.data.tobytes()

    @pytest.mark.parametrize("vector, problem", [
        ([float("nan")] * 8, "non-finite embedding for id 'b#2'"),
        ([0.0] * 8, "zero-norm embedding for id 'b#2'"),
        ([True] * 8, "vector for id 'b#2' is not a list of numbers"),
    ], ids=["nan", "zero", "bool"])
    def test_bad_vector_for_repeated_text_names_first_id(self, embed_server, vector, problem):
        url, state = embed_server
        state["raw_vectors"] = {"bad": vector}
        with pytest.raises(ValueError, match=problem):
            fetch_vectors(["a#0", "b#2", "c#5", "d#1"], ["fine", "bad", "other", "bad"],
                          url, batch_size=1)

    @pytest.mark.parametrize("texts", [["same", "same"], ["one", "two"]],
                             ids=["equal", "distinct"])
    def test_duplicate_ids_rejected(self, embed_server, texts):
        url, state = embed_server
        with pytest.raises(ValueError, match="duplicate id 'a#0'"):
            fetch_vectors(["a#0", "a#0"], texts, url)
        assert state["requests"] == 0

    def test_funnel_line_counts_retries(self, quick_retries, embed_server, caplog):
        url, state = embed_server
        state["fail_remaining"] = 1
        caplog.set_level(logging.DEBUG, logger="chunkalign")
        fetch_vectors([f"u#{i}" for i in range(6)], ["x", "y", "x", "z", "y", "x"], url,
                      batch_size=2)
        funnel = [record.getMessage() for record in caplog.records
                  if record.name == "chunkalign.embed_store" and record.levelno == logging.DEBUG]
        assert funnel == ["fetch funnel: 6 texts, 3 distinct, 3 requests, 1 retries"]


class TestFetchSession:
    def test_batches_share_one_connection(self, keepalive_embed_server):
        url, state = keepalive_embed_server
        fetch_vectors([f"u#{i}" for i in range(5)], [f"t{i}" for i in range(5)], url,
                      batch_size=2)
        assert state["requests"] == 3
        assert state["connections"] == 1

    def test_idle_connection_closed_between_batches(self, keepalive_embed_server, embed_server,
                                                    caplog):
        url, state = keepalive_embed_server
        state["close_idle"] = True
        caplog.set_level(logging.DEBUG, logger="chunkalign")
        # the next batch goes out on the kept-alive connection as soon as a
        # reply is read, before the close arrives; it is sent again at once on
        # a new connection, without a warning, an attempt or a backoff
        ids = [f"u#{i}" for i in range(10)]
        texts = [f"t{i}" for i in range(10)]
        started = time.perf_counter()
        matrix = fetch_vectors(ids, texts, url, batch_size=1)
        elapsed = time.perf_counter() - started
        assert elapsed < 0.5  # one backoff at the default RETRY_WAIT alone takes 0.5 s
        assert [r.levelno for r in caplog.records if r.levelno >= logging.WARNING] == []
        funnel = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        assert funnel == ["fetch funnel: 10 texts, 10 distinct, 10 requests, 0 retries"]
        assert state["requests"] == 10
        assert state["connections"] == 10
        reference = fetch_vectors(ids, texts, embed_server[0], batch_size=1)
        assert matrix.ids == ids
        assert matrix.data.tobytes() == reference.data.tobytes()


class TestFetchSendAhead:
    @pytest.mark.parametrize("server", ["embed_server", "keepalive_embed_server"])
    def test_clean_fetch_sends_one_request_per_batch(self, request, server):
        url, state = request.getfixturevalue(server)
        fetch_vectors([f"u#{i}" for i in range(7)], [f"t{i}" for i in range(7)], url,
                      batch_size=2)
        assert state["requests"] == 4
        assert state["texts"] == {f"t{i}": 1 for i in range(7)}

    # the bad text sits in the reply to batch `index` (one distinct text per
    # batch) and is repeated by a later unit
    @pytest.mark.parametrize("index", [0, 3])
    @pytest.mark.parametrize("server", ["embed_server", "keepalive_embed_server"])
    def test_bad_reply_stops_sending(self, request, server, index):
        url, state = request.getfixturevalue(server)
        state["raw_vectors"] = {"bad": [True] * 8}
        texts = [f"t{i}" for i in range(8)]
        texts[index] = "bad"
        ids = [f"u#{i}" for i in range(8)]
        with pytest.raises(ValueError, match=f"vector for id 'u#{index}' is not a list of numbers"):
            fetch_vectors(ids + ["late#0"], texts + ["bad"], url, batch_size=1)
        assert index + 1 <= state["requests"] <= index + 2

    def test_range_fault_stops_at_its_reply(self, embed_server):
        # batch 1 holds a value beyond float32 and batch 3 a vector that is
        # not a list of numbers; the first faulty reply ends the fetch
        url, state = embed_server
        state["raw_vectors"] = {"huge": [1.0] * 7 + [1e39], "odd": ["x"] * 8}
        with pytest.raises(ValueError, match="embedding service vector for id 'h#0' has a value "
                                             "outside the float32 range"):
            fetch_vectors(["h#0", "a#1", "o#2"], ["huge", "fine", "odd"], url, batch_size=1)
        assert state["requests"] <= 2

    def test_earlier_zero_reported_before_later_nan(self, embed_server):
        # each reply is normalized as it arrives, not once all are in
        url, state = embed_server
        state.update(zero_text="t1", nan_text="t3")
        with pytest.raises(ValueError, match="zero-norm embedding for id 'u#1'"):
            fetch_vectors([f"u#{i}" for i in range(6)], [f"t{i}" for i in range(6)], url,
                          batch_size=2)

    @pytest.mark.parametrize("fault, problem", [
        ({"drop_one": True}, "returned 1 vectors for 2 texts"),
        ({"body": b"<html/>\n\n"}, "with a body that is not JSON"),
        ({"body": b'{"vectors": null}'}, "^embedding service response has no 'vectors' list$"),
        ({"body": b"[[1.0], [2.0]]"}, "^embedding service response has no 'vectors' list$"),
        ({"raw_vectors": {"t1": [1.0] * 7}}, "vectors have differing dimensions"),
        ({"nan_text": "t0"}, "non-finite embedding for id 'u#0'"),
        ({"zero_text": "t1"}, "zero-norm embedding for id 'u#1'"),
        # wrapped before normalize: a width of 0 is not taken for zero rows
        ({"raw_vectors": {"t0": [], "t1": []}}, "embedding dimension must be >= 1"),
    ], ids=["count", "not_json", "null_vectors", "top_level_list", "ragged", "nan", "zero",
            "zero_width"])
    def test_first_bad_reply_stops_sending(self, keepalive_embed_server, fault, problem):
        url, state = keepalive_embed_server
        state.update(fault)
        with pytest.raises(ValueError, match=problem):
            fetch_vectors([f"u#{i}" for i in range(10)], [f"t{i}" for i in range(10)], url,
                          batch_size=2)
        assert 1 <= state["requests"] <= 2


def _basic(user, password):
    return "Basic " + base64.b64encode(f"{user}:{password}".encode()).decode()


class TestFetchEnvironment:
    @pytest.fixture(autouse=True)
    def clean_environment(self, monkeypatch, tmp_path):
        for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
            monkeypatch.delenv(name, raising=False)
            monkeypatch.delenv(name.upper(), raising=False)
        monkeypatch.setenv("HOME", str(tmp_path))  # no ~/.netrc unless a test writes one

    def test_http_proxy_gets_absolute_form(self, embed_server, monkeypatch):
        url, state = embed_server
        proxy = url.removesuffix("/embed").replace("http://", "http://pu:pp@")
        monkeypatch.setenv("HTTP_PROXY", proxy)
        matrix = fetch_vectors(["a#0"], ["hello"], "http://embed.invalid/embed?v=1")
        assert matrix.ids == ["a#0"]
        [(method, target, headers)] = state["seen"]
        assert (method, target) == ("POST", "http://embed.invalid/embed?v=1")
        assert headers["Host"] == "embed.invalid"
        assert headers["Proxy-Authorization"] == _basic("pu", "pp")
        assert headers["Authorization"] is None

    def test_no_proxy_bypasses_dead_proxy(self, embed_server, monkeypatch):
        url, state = embed_server
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        monkeypatch.setenv("HTTP_PROXY", f"http://127.0.0.1:{port}")
        monkeypatch.setattr(service, "ATTEMPTS", 1)
        # nothing listens on the proxy's port
        with pytest.raises(RuntimeError, match="failed after 1 attempts"):
            fetch_vectors(["a#0"], ["hello"], url)
        assert state["requests"] == 0
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        fetch_vectors(["a#0"], ["hello"], url)
        assert state["requests"] == 1

    @pytest.mark.parametrize("endpoint, authority", [
        ("https://user:pw@embed.invalid/embed", "embed.invalid:443"),
        # an IPv6 host keeps its brackets, whatever http.client does with them
        ("https://[::1]:8443/embed", "[::1]:8443"),
    ])
    def test_https_goes_through_connect_tunnel(self, embed_server, monkeypatch, endpoint,
                                               authority):
        url, state = embed_server
        monkeypatch.setenv("HTTPS_PROXY", url.removesuffix("/embed"))
        monkeypatch.setattr(service, "ATTEMPTS", 1)
        with pytest.raises(RuntimeError, match="failed after 1 attempts: Tunnel connection failed"):
            fetch_vectors(["a#0"], ["hello"], endpoint)
        [(method, target, headers)] = state["seen"]
        assert (method, target, headers["Host"]) == ("CONNECT", authority, authority)

    def test_userinfo_credentials_stay_out_of_host(self, embed_server):
        url, state = embed_server
        authority = url.removeprefix("http://").removesuffix("/embed")
        fetch_vectors(["a#0"], ["hello"], f"http://us%40er:p%3Ass@{authority}/embed")
        [(_, target, headers)] = state["seen"]
        assert target == "/embed"
        assert headers["Host"] == authority
        assert headers["Authorization"] == _basic("us@er", "p:ss")

    def test_netrc_credentials(self, embed_server, tmp_path):
        url, state = embed_server
        netrc = tmp_path / ".netrc"
        netrc.write_text("machine 127.0.0.1 login nu password np\n")
        netrc.chmod(0o600)
        fetch_vectors(["a#0"], ["hello"], url)
        # credentials in the URL win over ~/.netrc
        fetch_vectors(["a#0"], ["hello"], url.replace("http://", "http://uu:up@"))
        assert [headers["Authorization"] for _, _, headers in state["seen"]] == [
            _basic("nu", "np"), _basic("uu", "up")]

    def test_netrc_without_entry_for_host_ignored(self, embed_server, tmp_path):
        url, state = embed_server
        netrc = tmp_path / ".netrc"
        netrc.write_text("machine other.invalid login nu password np\n")
        netrc.chmod(0o600)
        assert fetch_vectors(["a#0"], ["hello"], url).ids == ["a#0"]
        [(_, _, headers)] = state["seen"]
        assert headers["Authorization"] is None

    def test_undecodable_netrc_ignored(self, embed_server, tmp_path):
        url, state = embed_server
        netrc = tmp_path / ".netrc"
        # not UTF-8; a locale that decodes it finds no entry for the host
        netrc.write_bytes(b"machine other.invalid login nu password n\xffp\n")
        netrc.chmod(0o600)
        assert fetch_vectors(["a#0"], ["hello"], url).ids == ["a#0"]
        [(_, _, headers)] = state["seen"]
        assert headers["Authorization"] is None
