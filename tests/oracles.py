"""Brute-force reference implementations, written independently of the library.

These recompute search and margin results with plain per-query loops and
lexsort-based ranking so the library's blocked/batched paths have something
honest to be compared against; candidate_union_oracle keeps the sort-based
candidate union that the miner's block-wise membership test replaced, and
dac_reference composes the stage oracles into the whole dac path.
read_matrix_reference keeps the whole-file reader that the file-level one
replaced, and load_corpus_reference, read_units_tsv_reference,
read_vectors_reference, load_gold_reference and load_pairs_reference the
text-mode readers that the one byte reader replaced; pooled_reference
composes the stage oracles into the whole pooled path, and
inject_noise_reference samples noise documents from its definition.  They
also hold the conversions between the miner's array candidates and plain
(src_id, tgt_id, cosine, margin) tuples.
"""

import json
import math
import struct
import unicodedata
from collections import Counter
from pathlib import Path

import numpy as np

from chunkalign import knn
from chunkalign.corpus import Document
from chunkalign.dac import DocPairScore
from chunkalign.evaluation import GoldSet
from chunkalign.embed_store import EmbeddingMatrix
from chunkalign.miner import AlignedUnitPair, Candidates


def read_matrix_reference(path):
    """embed_store.read_matrix parsing the file's bytes read whole, then
    copying the payload out of them."""
    path = Path(path)
    blob = path.read_bytes()
    header = struct.Struct("<4sHIQ")
    if len(blob) < header.size:
        raise ValueError(f"{path}: truncated header")
    magic, version, dim, count = header.unpack_from(blob, 0)
    if magic != b"DEMB":
        raise ValueError(f"{path}: bad magic, not an embedding matrix file")
    if version != 1:
        raise ValueError(f"{path}: unsupported format version {version}")
    if dim < 1:
        raise ValueError(f"{path}: invalid header (dim={dim})")
    offset = header.size
    ids = []
    for _ in range(count):
        if offset + 4 > len(blob):
            raise ValueError(f"{path}: truncated id table")
        (id_len,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        if offset + id_len > len(blob):
            raise ValueError(f"{path}: truncated id table")
        ids.append(blob[offset:offset + id_len].decode("utf-8"))
        offset += id_len
    expected = 4 * dim * count
    if len(blob) - offset != expected:
        raise ValueError(
            f"{path}: payload size mismatch (expected {expected} bytes for "
            f"{count} x {dim} float32, found {len(blob) - offset})"
        )
    data = np.frombuffer(blob, dtype="<f4", count=dim * count, offset=offset)
    return EmbeddingMatrix(ids=ids, data=data.reshape(count, dim).copy())


def _require_utf8(path, lineno, key, text):
    """The rule of corpus.json_records for a text key: it encodes as UTF-8."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"{path}:{lineno}: {key} holds a lone surrogate, "
                         "which is not UTF-8 text") from None


def load_corpus_reference(manifest_path):
    """corpus.load_corpus with pathlib paths and sentence files read in text
    mode, whose universal newlines turn CRLF and CR into LF."""
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise FileNotFoundError(f"manifest not found: {manifest_path}")
    documents = []
    seen = set()
    with open(manifest_path, encoding="utf-8-sig") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{manifest_path}:{lineno}: invalid JSON: {exc}") from None
            if not isinstance(entry, dict) or not {"doc_id", "lang", "path"} <= entry.keys():
                raise ValueError(f"{manifest_path}:{lineno}: entry must carry doc_id, lang and path")
            for key in ("doc_id", "lang", "path"):
                _require_utf8(manifest_path, lineno, key, str(entry[key]))
            doc_id = str(entry["doc_id"])
            if doc_id in seen:
                raise ValueError(f"{manifest_path}:{lineno}: duplicate doc_id {doc_id!r}")
            seen.add(doc_id)
            path = manifest_path.parent / str(entry["path"])
            if not path.is_file():
                raise FileNotFoundError(f"sentence file for doc {doc_id!r} not found: {path}")
            sentences = tuple(
                stripped
                for raw in path.read_text(encoding="utf-8-sig").split("\n")
                if (stripped := raw.strip())
            )
            if not sentences:
                raise ValueError(f"document {doc_id!r} is empty (no non-blank lines): {path}")
            try:
                documents.append(Document(doc_id=doc_id, lang=str(entry["lang"]),
                                          sentences=sentences))
            except ValueError as exc:
                raise ValueError(f"{manifest_path}:{lineno}: {exc}") from None
    if not documents:
        raise ValueError(f"manifest {manifest_path} lists no documents")
    return documents


def read_units_tsv_reference(path):
    """corpus.read_units_tsv reading the file in text mode."""
    rows = []
    seen = set()
    with open(path, encoding="utf-8-sig") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line or line.startswith("#"):
                continue
            unit_id, sep, text = line.partition("\t")
            if not sep or not unit_id:
                raise ValueError(f"{path}:{lineno}: expected unit_id<TAB>text")
            if unit_id in seen:
                raise ValueError(f"{path}:{lineno}: duplicate unit id {unit_id!r}")
            seen.add(unit_id)
            rows.append((unit_id, text))
    if not rows:
        raise ValueError(f"units file {path} is empty")
    return rows


def read_vectors_reference(path):
    """The unit id -> vector dict that import-embeddings built from a
    JSON-lines vectors file read in text mode."""
    vectors = {}
    with open(path, encoding="utf-8-sig") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from None
            if not isinstance(record, dict) or "unit_id" not in record or "vector" not in record:
                raise ValueError(f"{path}:{lineno}: record must carry unit_id and vector")
            unit_id = str(record["unit_id"])
            _require_utf8(path, lineno, "unit_id", unit_id)
            if unit_id in vectors:
                raise ValueError(f"{path}:{lineno}: duplicate vector for {unit_id!r}")
            vectors[unit_id] = record["vector"]
    return vectors


def load_gold_reference(path):
    """evaluation.load_gold reading the file in text mode."""
    pairs = []
    with open(path, encoding="utf-8-sig") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) < 2 or not parts[0] or not parts[1]:
                raise ValueError(f"{path}:{lineno}: expected src_doc<TAB>tgt_doc")
            pairs.append((parts[0], parts[1]))
    return GoldSet.from_pairs(pairs)


def load_pairs_reference(path):
    """evaluation.load_pairs reading the file in text mode."""
    pairs = []
    seen = set()
    with open(path, encoding="utf-8-sig") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) < 2 or not parts[0] or not parts[1]:
                raise ValueError(f"{path}:{lineno}: expected at least src<TAB>tgt")
            pair = (parts[0], parts[1])
            if pair in seen:
                raise ValueError(f"{path}:{lineno}: duplicate pair {pair!r}")
            seen.add(pair)
            pairs.append(pair)
    return pairs


def brute_force_topk(index_rows, queries, k):
    """Per-query exact top-k by inner product; ties broken by ascending row."""
    index_rows = np.asarray(index_rows, dtype=np.float64)
    all_scores, all_rows = [], []
    depth = min(k, index_rows.shape[0])
    for query in np.asarray(queries, dtype=np.float64):
        scores = index_rows @ query
        order = np.lexsort((np.arange(len(scores)), -scores))[:depth]
        all_rows.append(order)
        all_scores.append(scores[order])
    return np.array(all_scores), np.array(all_rows)


def margin_oracle(x_rows, y_rows, k):
    """Dense-matrix margins for the union of forward/backward top-k candidates.

    Returns {(i, j): (cosine, margin)}; candidates with a zero denominator are
    left out, mirroring the declared behavior.
    """
    x_rows = np.asarray(x_rows, dtype=np.float64)
    y_rows = np.asarray(y_rows, dtype=np.float64)
    n, m = x_rows.shape[0], y_rows.shape[0]
    sims = np.array([[float(np.dot(xr, yr)) for yr in y_rows] for xr in x_rows])
    kx = min(k, m)
    ky = min(k, n)
    fwd = [np.lexsort((np.arange(m), -sims[i]))[:kx] for i in range(n)]
    bwd = [np.lexsort((np.arange(n), -sims[:, j]))[:ky] for j in range(m)]
    avg_x = [sims[i, fwd[i]].mean() for i in range(n)]
    avg_y = [sims[bwd[j], j].mean() for j in range(m)]
    candidates = {}
    for i in range(n):
        for j in fwd[i]:
            candidates.setdefault((i, int(j)), sims[i, j])
    for j in range(m):
        for i in bwd[j]:
            candidates.setdefault((int(i), j), sims[i, j])
    out = {}
    for (i, j), cos in candidates.items():
        denominator = 0.5 * (avg_x[i] + avg_y[j])
        if denominator == 0.0:
            continue
        out[(i, j)] = (cos, cos / denominator)
    return out


def candidate_union_oracle(x, y, k, workers=1):
    """margin_scores(x, y, MarginParams(k=k), workers), with the candidate
    union taken by np.unique over pair keys.

    The forward and backward pairs are concatenated, each pair is kept at its
    first occurrence, and the kept pairs stay in concatenation order, so a
    pair found in both directions keeps its forward cosine.
    """
    (fwd_scores, fwd_rows), (bwd_scores, bwd_rows) = knn.search_arrays(
        knn.build(y), x.data, k, workers=workers)
    avg_src = fwd_scores.mean(axis=1)
    avg_tgt = bwd_scores.mean(axis=1)
    n, m = len(x), len(y)
    src = np.concatenate([np.repeat(np.arange(n), fwd_rows.shape[1]), bwd_rows.ravel()])
    tgt = np.concatenate([fwd_rows.ravel(), np.repeat(np.arange(m), bwd_rows.shape[1])])
    cosines = np.concatenate([fwd_scores.ravel(), bwd_scores.ravel()])
    _, first = np.unique(src * m + tgt, return_index=True)
    first.sort()
    src, tgt, cosines = src[first], tgt[first], cosines[first]
    denominators = 0.5 * (avg_src[src] + avg_tgt[tgt])
    kept = denominators != 0.0
    return Candidates(
        src_rows=src[kept],
        tgt_rows=tgt[kept],
        cosines=cosines[kept],
        margins=cosines[kept] / denominators[kept],
        src_ids=x.ids,
        tgt_ids=y.ids,
        zero_denominators=len(kept) - int(np.count_nonzero(kept)),
        below_min_margin=0,
    )


def candidate_tuples(candidates):
    """A Candidates value as a list of (src_id, tgt_id, cosine, margin)."""
    return [
        (candidates.src_ids[i], candidates.tgt_ids[j], cosine, margin)
        for i, j, cosine, margin in zip(candidates.src_rows.tolist(), candidates.tgt_rows.tolist(),
                                        candidates.cosines.tolist(), candidates.margins.tolist())
    ]


def candidates_from_tuples(tuples, src_ids=None, tgt_ids=None):
    """Candidates holding the given (src_id, tgt_id, cosine, margin) tuples.

    Each side's ids default to their order of first appearance.
    """
    tuples = list(tuples)
    if src_ids is None:
        src_ids = list(dict.fromkeys(t[0] for t in tuples))
    if tgt_ids is None:
        tgt_ids = list(dict.fromkeys(t[1] for t in tuples))
    src_row = {unit_id: row for row, unit_id in enumerate(src_ids)}
    tgt_row = {unit_id: row for row, unit_id in enumerate(tgt_ids)}
    return Candidates(
        src_rows=np.array([src_row[t[0]] for t in tuples], dtype=np.int64),
        tgt_rows=np.array([tgt_row[t[1]] for t in tuples], dtype=np.int64),
        cosines=np.array([t[2] for t in tuples], dtype=np.float64),
        margins=np.array([t[3] for t in tuples], dtype=np.float64),
        src_ids=list(src_ids),
        tgt_ids=list(tgt_ids),
        zero_denominators=0,
        below_min_margin=0,
    )


def greedy_oracle(tuples):
    """Greedy one-to-one matching over (src_id, tgt_id, cosine, margin) tuples.

    Sorts the tuples by (-margin, -cosine, src_id, tgt_id), keeps a pair iff
    neither id is taken yet, and returns the kept pairs sorted by ids.
    """
    ordered = sorted(tuples, key=lambda c: (-c[3], -c[2], c[0], c[1]))
    taken_src, taken_tgt, accepted = set(), set(), []
    for src_id, tgt_id, cosine, margin in ordered:
        if src_id in taken_src or tgt_id in taken_tgt:
            continue
        taken_src.add(src_id)
        taken_tgt.add(tgt_id)
        accepted.append(AlignedUnitPair(src_id=src_id, tgt_id=tgt_id, cosine=cosine, margin=margin))
    accepted.sort(key=lambda p: (p.src_id, p.tgt_id))
    return accepted


def dac_reference(src_docs, tgt_docs, src_embeddings, tgt_embeddings, g, k, threshold,
                  one_to_one=True, min_margin=None):
    """The dac path from its definitions: (mined pairs, document-pair scores,
    selected pairs).

    Each side is chunked by a loop of its own, g sentences a chunk, which
    records each chunk's document as it makes the chunk.  Then margin_oracle,
    greedy_oracle, the min_margin floor after matching, and per document pair
    n_aligned, margin_sum (added in mined order) and
    dac = 2 * n_aligned / (n_src + n_tgt).  The selection keeps the pairs with
    dac >= threshold, ranks them by (-dac, -margin_sum, src_doc, tgt_doc) and,
    one-to-one, keeps a pair iff neither of its documents is taken.
    """
    def chunks(docs, embeddings):
        row_of = {unit_id: row for row, unit_id in enumerate(embeddings.ids)}
        ids, doc_of, count = [], {}, Counter()
        for doc in docs:
            for start in range(0, len(doc.sentences), g):
                unit_id = f"{doc.doc_id}#{start // g}"
                ids.append(unit_id)
                doc_of[unit_id] = doc.doc_id
                count[doc.doc_id] += 1
        return ids, doc_of, count, embeddings.data[[row_of[unit_id] for unit_id in ids]]

    src_ids, src_doc_of, n_src, x_rows = chunks(src_docs, src_embeddings)
    tgt_ids, tgt_doc_of, n_tgt, y_rows = chunks(tgt_docs, tgt_embeddings)
    margins = margin_oracle(x_rows, y_rows, k)
    pairs = greedy_oracle([(src_ids[i], tgt_ids[j], float(cosine), float(margin))
                           for (i, j), (cosine, margin) in margins.items()])
    if min_margin is not None:
        pairs = [pair for pair in pairs if pair.margin >= min_margin]
    groups = {}
    for pair in pairs:
        key = (src_doc_of[pair.src_id], tgt_doc_of[pair.tgt_id])
        n_aligned, margin_sum = groups.get(key, (0, 0.0))
        groups[key] = (n_aligned + 1, margin_sum + pair.margin)
    scores = [DocPairScore(src, tgt, n_src[src], n_tgt[tgt], n_aligned, margin_sum)
              for (src, tgt), (n_aligned, margin_sum) in sorted(groups.items())]
    # the dac each score derives, against the definition
    for s in scores:
        assert s.dac == 2 * s.n_aligned / (s.n_src + s.n_tgt)
    ranked = sorted((s for s in scores if s.dac >= threshold),
                    key=lambda s: (-s.dac, -s.margin_sum, s.src_doc, s.tgt_doc))
    selected, taken_src, taken_tgt = [], set(), set()
    for s in ranked:
        if one_to_one and (s.src_doc in taken_src or s.tgt_doc in taken_tgt):
            continue
        taken_src.add(s.src_doc)
        taken_tgt.add(s.tgt_doc)
        selected.append(s)
    selected.sort(key=lambda s: (s.src_doc, s.tgt_doc))
    return pairs, scores, selected


def pooled_oracle(rows, weights):
    """Plain-loop weighted mean, normalized."""
    total = np.zeros(np.asarray(rows).shape[1])
    for row, weight in zip(rows, weights):
        total += weight * np.asarray(row, dtype=np.float64)
    return total / np.linalg.norm(total)


def pooling_weights_oracle(documents, method):
    """Per document, the plain-loop weight of each sentence under a pooling
    method ("mp", "lp", "idf" or "lidf"), with idf ln((1 + N) / (1 + df)) + 1
    over the given documents."""
    def tokens(sentence):
        return [unicodedata.normalize("NFC", word) for word in sentence.split()]

    df = Counter(token for doc in documents
                 for token in {t for sentence in doc.sentences for t in tokens(sentence)})
    idf = {token: math.log((1 + len(documents)) / (1 + count)) + 1 for token, count in df.items()}
    weights = []
    for doc in documents:
        doc_weights = []
        for sentence in doc.sentences:
            words = tokens(sentence)
            mean_idf = sum(idf[word] for word in words) / len(words)
            doc_weights.append({"mp": 1.0, "lp": len(words), "idf": mean_idf,
                                "lidf": len(words) * mean_idf}[method.value])
        weights.append(doc_weights)
    return weights


def pooled_vectors_reference(docs, embeddings, method):
    """One side's document vectors, a row per document in order, pooled over
    that side alone: the weights of pooling_weights_oracle, the weighted sum
    and normalization of pooled_oracle, stored as float32."""
    row_of = {unit_id: row for row, unit_id in enumerate(embeddings.ids)}
    return np.array([
        pooled_oracle(embeddings.data[[row_of[f"{doc.doc_id}#{i}"]
                                       for i in range(len(doc.sentences))]], weights)
        for doc, weights in zip(docs, pooling_weights_oracle(docs, method))
    ], dtype=np.float32)


def pooled_reference(src_docs, tgt_docs, src_embeddings, tgt_embeddings, method, k,
                     min_margin=None):
    """The pooled path from its definitions: the mined document pairs.

    Each side's documents are pooled by pooled_vectors_reference, then
    margin_oracle, greedy_oracle and the min_margin floor after matching.
    """
    margins = margin_oracle(pooled_vectors_reference(src_docs, src_embeddings, method),
                            pooled_vectors_reference(tgt_docs, tgt_embeddings, method), k)
    pairs = greedy_oracle([(src_docs[i].doc_id, tgt_docs[j].doc_id, float(cosine), float(margin))
                           for (i, j), (cosine, margin) in margins.items()])
    if min_margin is not None:
        pairs = [pair for pair in pairs if pair.margin >= min_margin]
    return pairs


def inject_noise_reference(alignable, noise_pool, config):
    """evaluation.inject_noise from its definition: the alignable documents
    in order, then the pool documents at
    Generator(PCG64(seed)).choice(len(pool), size=floor(ratio * n),
    replace=False), the product taken in float arithmetic.

    Raises ValueError for a pool id that repeats, for a pool id that the
    corpus holds and for a pool smaller than the count, in that order; each
    message is the leading words of the library's.
    """
    pool_ids = Counter(doc.doc_id for doc in noise_pool)
    if any(count > 1 for count in pool_ids.values()):
        raise ValueError("noise pool contains duplicate doc ids")
    if any(doc.doc_id in pool_ids for doc in alignable):
        raise ValueError("noise pool shares doc ids with the corpus")
    product = config.ratio * len(alignable)
    if not math.isfinite(product) or math.floor(product) > len(noise_pool):
        raise ValueError(f"noise pool has {len(noise_pool)} docs but")
    generator = np.random.Generator(np.random.PCG64(config.seed))
    chosen = generator.choice(len(noise_pool), size=math.floor(product), replace=False)
    return list(alignable) + [noise_pool[i] for i in chosen]
