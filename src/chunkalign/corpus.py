"""Corpus loading and segmentation into alignment units."""

from __future__ import annotations

import json
import logging
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
        for i, sentence in enumerate(self.sentences):
            if not sentence.strip():
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
    chunk_index: int
    text: str
    sentence_count: int
    token_count: int


def load_corpus(manifest_path: str | Path) -> list[Document]:
    """Load the documents listed in a JSON-lines manifest.

    Each manifest line is an object with doc_id, lang and path; relative paths
    are resolved against the manifest's directory.  Sentence files are UTF-8,
    with or without a BOM, and hold one sentence per line; a line ends at LF,
    CRLF or CR only, so other Unicode line breaks (U+2028, NEL, ...) stay
    inside their sentence.  Blank lines are dropped and the remaining lines
    are trimmed.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise FileNotFoundError(f"manifest not found: {manifest_path}")
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
            path = manifest_path.parent / str(entry["path"])
            if not path.is_file():
                raise FileNotFoundError(f"sentence file for doc {doc_id!r} not found: {path}")
            sentences = tuple(
                stripped
                # read_text turns CRLF and CR into LF; splitlines would split more
                for raw in path.read_text(encoding="utf-8-sig").split("\n")
                if (stripped := raw.strip())
            )
            if not sentences:
                raise ValueError(f"document {doc_id!r} is empty (no non-blank lines): {path}")
            documents.append(Document(doc_id=doc_id, lang=str(entry["lang"]), sentences=sentences))
    logger.info("loaded %d documents from %s", len(documents), manifest_path)
    return documents


def make_unit_id(doc_id: str, chunk_index: int) -> str:
    """The id of a document's chunk: "<doc_id>#<chunk_index>"."""
    return f"{doc_id}#{chunk_index}"


def segment(doc: Document, g: Granularity) -> list[ChunkUnit]:
    """Split a document into consecutive chunks of g.sentences sentences.

    The final chunk keeps whatever remains, so it may be shorter.  Unit ids
    come from make_unit_id, with chunk indices counted from zero.
    """
    size = g.sentences
    units: list[ChunkUnit] = []
    for index, start in enumerate(range(0, len(doc.sentences), size)):
        group = doc.sentences[start:start + size]
        text = JOINER.join(group)
        units.append(
            ChunkUnit(
                unit_id=make_unit_id(doc.doc_id, index),
                doc_id=doc.doc_id,
                chunk_index=index,
                text=text,
                sentence_count=len(group),
                token_count=len(text.split()),
            )
        )
    return units


def parse_unit_id(unit_id: str) -> tuple[str, int]:
    """Split "<doc_id>#<chunk_index>" back into its parts.

    Splits on the last '#', so doc ids that themselves contain '#' survive
    the round trip.
    """
    doc_id, sep, raw_index = unit_id.rpartition("#")
    if not sep or not doc_id or not raw_index.isdigit():
        raise ValueError(f"malformed unit id: {unit_id!r}")
    return doc_id, int(raw_index)


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
