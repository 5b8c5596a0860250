"""Corpus loading and segmentation into alignment units."""

from __future__ import annotations

import codecs
import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

logger = logging.getLogger(__name__)

# Chunk texts are sentences joined with this separator, so the original
# sentence stream can be rebuilt by re-joining the unit stream with it.
JOINER = " "


@dataclass(frozen=True)
class Document:
    """One document: an ordered, non-empty sequence of sentences with id and language tag."""

    doc_id: str
    lang: str
    sentences: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.doc_id:
            raise ValueError("document id must be non-empty")
        # unit ids, units TSVs, gold and pairs files all carry the doc id in a
        # tab-separated line where a leading '#' marks a comment
        if self.doc_id.startswith("#") or any(c in self.doc_id for c in "\t\r\n"):
            raise ValueError(
                f"document id {self.doc_id!r} must not start with '#' "
                "or contain a tab, CR or LF"
            )
        if not self.sentences:
            raise ValueError(f"document {self.doc_id!r} has no sentences")
        if not all(map(str.strip, self.sentences)):
            i = next(i for i, sentence in enumerate(self.sentences) if not sentence.strip())
            raise ValueError(f"document {self.doc_id!r} has a blank sentence at position {i}")


@dataclass(frozen=True)
class Granularity:
    """Unit size in sentences."""

    sentences: int = 1

    def __post_init__(self) -> None:
        if self.sentences < 1:
            raise ValueError(f"granularity must be >= 1, got {self.sentences}")

    @classmethod
    def from_string(cls, text: str) -> "Granularity":
        """Parse a granularity given as a positive integer."""
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"granularity must be a positive integer, got {text!r}") from None
        return cls(sentences=value)

    def __str__(self) -> str:
        return str(self.sentences)


@dataclass(frozen=True)
class ChunkUnit:
    """A run of consecutive sentences from one document; the unit of alignment."""

    unit_id: str
    doc_id: str
    text: str


def load_corpus(manifest_path: str | Path) -> list[Document]:
    """Load the documents listed in a JSON-lines manifest.

    Each non-blank manifest line is an object with doc_id, lang and path, and
    a manifest without one is an error; relative paths are resolved against
    the manifest's directory.  Sentence files are UTF-8,
    with or without a BOM, and hold one sentence per line; a line ends at LF,
    CRLF or CR only, so other Unicode line breaks (U+2028, NEL, ...) stay
    inside their sentence.  Blank lines are dropped and the remaining lines
    are trimmed.  A sentence file that is not UTF-8 is an error naming its
    document, its path and the offset of the first byte that does not decode.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise FileNotFoundError(f"manifest not found: {manifest_path}")
    # sentence paths are plain strings, joined and checked with os.path: a
    # Path per document costs more than reading its file.  Messages show
    # Path(path), which reads as manifest_path.parent / entry path does.
    base = str(manifest_path.parent)
    documents: list[Document] = []
    seen: set[str] = set()
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
            doc_id = str(entry["doc_id"])
            if doc_id in seen:
                raise ValueError(f"duplicate doc_id {doc_id!r} in manifest {manifest_path}")
            seen.add(doc_id)
            path = os.path.join(base, str(entry["path"]))
            # checked before open: opening a FIFO would block
            if not os.path.isfile(path):
                raise FileNotFoundError(f"sentence file for doc {doc_id!r} not found: {Path(path)}")
            sentences = tuple(filter(None, map(str.strip, _sentence_lines(doc_id, path))))
            if not sentences:
                raise ValueError(f"document {doc_id!r} is empty (no non-blank lines): {Path(path)}")
            documents.append(Document(doc_id=doc_id, lang=str(entry["lang"]), sentences=sentences))
    if not documents:
        raise ValueError(f"manifest {manifest_path} lists no documents")
    logger.info("loaded %d documents from %s", len(documents), manifest_path)
    return documents


def _sentence_lines(doc_id: str, path: str) -> list[str]:
    """A sentence file's lines, split at LF, CRLF and CR only, BOM dropped.

    The file is read unbuffered as bytes and decoded in one call: text mode
    gives the same lines through a decoder object per file, at twice the cost.
    """
    with open(path, "rb", buffering=0) as handle:
        raw = handle.read()
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the codec counts from after a BOM
        offset = exc.start + (len(codecs.BOM_UTF8) if raw.startswith(codecs.BOM_UTF8) else 0)
        raise ValueError(
            f"sentence file for doc {doc_id!r} is not UTF-8 "
            f"(undecodable byte at offset {offset}): {Path(path)}"
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def make_unit_id(doc_id: str, chunk_index: int) -> str:
    """The id of a document's chunk, "<doc_id>#<chunk_index>"; nothing parses it back."""
    return f"{doc_id}#{chunk_index}"


def segment(doc: Document, g: Granularity) -> list[ChunkUnit]:
    """Split a document into consecutive chunks of g.sentences sentences.

    The final chunk keeps whatever remains, so it may be shorter.  Unit ids
    come from make_unit_id, with chunk indices counted from zero.
    """
    size = g.sentences
    return [
        ChunkUnit(make_unit_id(doc.doc_id, index), doc.doc_id,
                  JOINER.join(doc.sentences[start:start + size]))
        for index, start in enumerate(range(0, len(doc.sentences), size))
    ]


def write_units_tsv(units: Iterable[ChunkUnit], path: str | Path) -> None:
    """Write unit_id<TAB>text lines for the embedding step."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("# unit_id\ttext\n")
        for unit in units:
            handle.write(f"{unit.unit_id}\t{unit.text}\n")


def read_units_tsv(path: str | Path) -> list[tuple[str, str]]:
    """Read (unit_id, text) rows; the text is everything after the first tab.

    Lines starting with '#' are comments, so unit ids cannot start with '#'.
    """
    rows: list[tuple[str, str]] = []
    seen: set[str] = set()
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
    return rows
