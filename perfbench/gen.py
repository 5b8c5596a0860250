"""Seeded synthetic inputs for the pipeline benchmark.

The embedding rows follow the planted-corpus construction of the test suite
(``planted_corpus`` in tests/synth.py with ``orthogonal_noise=False``): every
planted parallel chunk pair shares one random unit vector, each side adds its
own scaled random perturbation, a fraction of each side's planted rows is
replaced by fresh random rows, and noise documents get random unit vectors
over the whole space.  The construction is copied here rather than imported
so that later edits to the test helpers cannot change the benchmark inputs.

On top of that the generator writes real text: words drawn from a Zipf
vocabulary (so idf statistics look like natural text), one file per
document, JSON-lines manifests, ``.demb`` matrices and a gold TSV.  For the
ingest workload a share of the sentences is boilerplate repeated across
documents.  Everything is a function of the seed and the workload spec; the
sha256 over all written files is returned so that two checkouts can show
that they read identical inputs.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

_DEMB_HEADER = struct.Struct("<4sHIQ")
_DEMB_ID_LEN = struct.Struct("<I")

# Syllables per language; the target side uses accented vowels so its text
# is non-ASCII UTF-8.
_SYLLABLES = {
    "xx": [c + v for c in "bdfgklmnprstvz" for v in "aeiou"],
    "yy": [c + v for c in "bcdhjlmnqrstwx" for v in "aéiöu"],
}
VOCAB_SIZE = 30000
ZIPF_EXPONENT = 1.07
SENTENCE_TOKENS = (4, 24)  # half-open range of tokens per sentence


def _unit_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    rows = rng.standard_normal((count, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows


def planted_vectors(rng, n_pairs, chunks_per_doc, n_noise, dim, perturbation, replace_frac):
    """(src_rows, tgt_rows): planted rows for n_pairs docs, then noise rows."""
    n_true = n_pairs * chunks_per_doc
    shared = _unit_rows(rng, n_true, dim)

    def side_vectors():
        rows = shared + _unit_rows(rng, n_true, dim) * perturbation
        replaced = rng.random(n_true) < replace_frac
        rows[replaced] = _unit_rows(rng, int(replaced.sum()), dim)
        return rows / np.linalg.norm(rows, axis=1, keepdims=True)

    src_true = side_vectors()
    tgt_true = side_vectors()
    src_noise = _unit_rows(rng, n_noise * chunks_per_doc, dim)
    tgt_noise = _unit_rows(rng, n_noise * chunks_per_doc, dim)
    return np.vstack([src_true, src_noise]), np.vstack([tgt_true, tgt_noise])


class Vocabulary:
    """VOCAB_SIZE words of one language, drawn with Zipf rank frequencies."""

    def __init__(self, lang: str):
        syllables = _SYLLABLES[lang]
        base = len(syllables)
        self.words = []
        for rank in range(VOCAB_SIZE):
            n, parts = rank + 1, []
            while n:
                n, digit = divmod(n, base)
                parts.append(syllables[digit])
            self.words.append("".join(parts))
        weights = 1.0 / np.arange(1, VOCAB_SIZE + 1) ** ZIPF_EXPONENT
        self.probs = weights / weights.sum()

    def sentences(self, rng: np.random.Generator, count: int) -> list[str]:
        lengths = rng.integers(*SENTENCE_TOKENS, size=count)
        tokens = rng.choice(VOCAB_SIZE, size=int(lengths.sum()), p=self.probs).tolist()
        words = self.words
        out, pos = [], 0
        for length in lengths.tolist():
            out.append(" ".join([words[t] for t in tokens[pos:pos + length]]))
            pos += length
        return out


def write_demb(path: Path, ids: list[str], rows: np.ndarray) -> None:
    """The .demb layout: header, u32-length-prefixed ids, float32 payload."""
    blob = bytearray(_DEMB_HEADER.pack(b"DEMB", 1, rows.shape[1], rows.shape[0]))
    for unit_id in ids:
        raw = unit_id.encode("utf-8")
        blob += _DEMB_ID_LEN.pack(len(raw)) + raw
    blob += np.ascontiguousarray(rows, dtype="<f4").tobytes()
    path.write_bytes(bytes(blob))


def _write_side(root: Path, lang: str, doc_ids: list[str], sentences: list[list[str]]) -> None:
    docs_dir = root / "docs"
    docs_dir.mkdir(parents=True)
    with open(root / "manifest.jsonl", "w", encoding="utf-8", newline="\n") as manifest:
        for doc_id, lines in zip(doc_ids, sentences):
            (docs_dir / f"{doc_id}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
            manifest.write(json.dumps({"doc_id": doc_id, "lang": lang,
                                       "path": f"docs/{doc_id}.txt"}) + "\n")


def _doc_sentences(vocab, rng, n_docs, per_doc, boilerplate_frac=0.0, boilerplate_pool=0):
    flat = vocab.sentences(rng, n_docs * per_doc)
    if boilerplate_frac:
        pool = vocab.sentences(rng, boilerplate_pool)
        repeated = np.flatnonzero(rng.random(len(flat)) < boilerplate_frac)
        picks = rng.integers(boilerplate_pool, size=repeated.size)
        for slot, pick in zip(repeated.tolist(), picks.tolist()):
            flat[slot] = pool[pick]
    return [flat[d * per_doc:(d + 1) * per_doc] for d in range(n_docs)]


def content_hash(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in sorted path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _generate(root: Path, spec: dict, seed: int) -> None:
    corpus = spec["corpus"]
    per_doc = corpus["sentences_per_doc"]
    text_rng = np.random.default_rng([seed, 1])
    if spec["kind"] == "ingest":
        n_docs = corpus["n_docs"]
        sentences = _doc_sentences(Vocabulary("xx"), text_rng, n_docs, per_doc,
                                   corpus["boilerplate_frac"], corpus["boilerplate_pool"])
        _write_side(root / "src", "xx", [f"d{d:05d}" for d in range(n_docs)], sentences)
        return
    n_pairs, n_noise = corpus["n_pairs"], corpus["n_noise"]
    src_rows, tgt_rows = planted_vectors(
        np.random.default_rng(seed), n_pairs, per_doc, n_noise, corpus["dim"],
        corpus["perturbation"], corpus["replace_frac"],
    )
    for side, lang, prefix, rows in (("src", "xx", "s", src_rows), ("tgt", "yy", "t", tgt_rows)):
        doc_ids = [f"{prefix}{d:05d}" for d in range(n_pairs)]
        doc_ids += [f"{prefix}noise{d:05d}" for d in range(n_noise)]
        sentences = _doc_sentences(Vocabulary(lang), text_rng, len(doc_ids), per_doc)
        _write_side(root / side, lang, doc_ids, sentences)
        unit_ids = [f"{doc_id}#{i}" for doc_id in doc_ids for i in range(per_doc)]
        write_demb(root / f"{side}.demb", unit_ids, rows)
    with open(root / "gold.tsv", "w", encoding="utf-8", newline="\n") as gold:
        gold.write("# src_doc\ttgt_doc\n")
        for d in range(n_pairs):
            gold.write(f"s{d:05d}\tt{d:05d}\n")


def generate(root: Path, spec: dict, seed: int) -> str:
    """Write the inputs for one workload and seed under root; returns their hash."""
    _generate(root, spec, seed)
    return content_hash(root)
