import socket
import struct

import numpy as np
import pytest

from chunkalign import embed_store
from chunkalign.embed_store import (
    EmbeddingMatrix,
    fetch_vectors,
    normalize,
    read_matrix,
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

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            EmbeddingMatrix(ids=[], data=np.empty((0, 0)))

    def test_select_orders_rows(self):
        m = EmbeddingMatrix(ids=["a", "b", "c"], data=np.eye(3))
        sub = m.select(["c", "a"])
        assert sub.ids == ["c", "a"]
        np.testing.assert_array_equal(sub.data, np.eye(3)[[2, 0]])

    def test_select_unknown_id(self):
        m = EmbeddingMatrix(ids=["a"], data=np.ones((1, 2)))
        with pytest.raises(KeyError, match="no embedding for id 'zz'"):
            m.select(["zz"])

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

    def test_retries_then_succeeds(self, embed_server):
        url, state = embed_server
        state["fail_remaining"] = 2
        matrix = fetch_vectors(["a"], ["hello"], url, retry_wait=0.01)
        assert len(matrix) == 1
        assert state["requests"] == 3

    def test_gives_up_after_attempts(self, embed_server):
        url, state = embed_server
        state["fail_remaining"] = 99
        with pytest.raises(RuntimeError, match="failed after 3 attempts"):
            fetch_vectors(["a"], ["hello"], url, retry_wait=0.01)
        assert state["requests"] == 3

    def test_client_error_not_retried(self, embed_server):
        url, state = embed_server
        state["fail_remaining"] = 99
        state["fail_status"] = 400
        with pytest.raises(ValueError, match="HTTP 400"):
            fetch_vectors(["a"], ["hello"], url, retry_wait=0.01)
        assert state["requests"] == 1

    def test_rate_limit_retried(self, embed_server):
        url, state = embed_server
        state["fail_remaining"] = 2
        state["fail_status"] = 429
        matrix = fetch_vectors(["a"], ["hello"], url, retry_wait=0.01)
        assert len(matrix) == 1
        assert state["requests"] == 3

    def test_body_not_json_not_retried(self, embed_server):
        url, state = embed_server
        state["bad_body"] = True
        with pytest.raises(ValueError, match="HTTP 200 with a body that is not JSON"):
            fetch_vectors(["a"], ["hello"], url, retry_wait=0.01)
        assert state["requests"] == 1

    def test_unreachable_service_retried(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        # nothing listens on the port once the probe socket is closed
        with pytest.raises(RuntimeError, match="failed after 2 attempts"):
            fetch_vectors(["a"], ["hello"], f"http://127.0.0.1:{port}/embed",
                          attempts=2, retry_wait=0.01)

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
    def test_non_number_vector_names_unit(self, embed_server, vector):
        url, state = embed_server
        state["raw_vectors"] = {"odd": vector}
        with pytest.raises(ValueError, match="vector for id 'o#1' is not a list of numbers"):
            fetch_vectors(["a#0", "o#1"], ["fine", "odd"], url, retry_wait=0.01)
        assert state["requests"] == 1

    # the fixture's other vectors have 8 dimensions
    @pytest.mark.parametrize("value", [1e39, -1e39, 10**400], ids=["1e39", "-1e39", "1e400_int"])
    def test_out_of_range_vector_names_unit(self, embed_server, value):
        url, state = embed_server
        state["raw_vectors"] = {"huge": [1.0] * 7 + [value]}
        with pytest.raises(ValueError, match="embedding service vector for id 'h#1' has a value "
                                             "outside the float32 range"):
            fetch_vectors(["a#0", "h#1"], ["fine", "huge"], url, retry_wait=0.01)
        assert state["requests"] == 1

    def test_empty_units_rejected(self):
        with pytest.raises(ValueError, match="nothing to embed"):
            fetch_vectors([], [], "http://unused.invalid")
