"""Corpus loading and segmentation into alignment units."""

from __future__ import annotations

import codecs
import json
import logging
import os
from dataclasses import dataclass
from itertools import compress, count
from pathlib import Path
from typing import Iterable, Iterator

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

    def __str__(self) -> str:
        return str(self.sentences)


@dataclass(frozen=True)
class ChunkUnit:
    """A run of consecutive sentences from one document; the unit of alignment."""

    unit_id: str
    doc_id: str
    text: str


def require_file(path: str | Path, what: str) -> None:
    """Fail naming `what` unless path is a regular file: opening a FIFO would block."""
    if not os.path.isfile(path):
        raise FileNotFoundError(f"{what} not found: {Path(path)}")


# bytes read at a time; read_lines decodes the whole lines they complete
_BLOCK = 1 << 16


def read_lines(path: str | Path, what: str) -> Iterator[tuple[int, str]]:
    """(line number, line without its end) of each non-blank line of a file.

    The file is UTF-8, BOM dropped; LF, CRLF and CR alone end a line, and
    lines are numbered as in text mode.  A byte that does not decode is a
    fault of its line, raised after the lines before it as an error naming
    `what`, the path and the byte's offset.  The file is decoded in blocks
    cut after an LF or a CR, bytes that no multi-byte UTF-8 character holds:
    memory stays flat.
    """
    require_file(path, what)
    with open(path, "rb", buffering=0) as handle:
        # the bytes not decoded yet, their offset, the number of their first line
        pending, start, lineno, fault = bytearray(), 0, 1, None
        while True:
            block = handle.read(_BLOCK)
            pending += block
            # the lines read whole, up to the last LF or the last CR with a byte
            # after it (a final CR may begin a CRLF); at the end, which a regular
            # file (require_file) marks with a short read, all that is left
            last = len(block) < _BLOCK
            fresh = max(len(pending) - len(block) - 1, 0)
            end = len(pending) if last else max(pending.rfind(b"\n", fresh),
                                                 pending.rfind(b"\r", fresh, -1)) + 1
            bom = len(codecs.BOM_UTF8) if not start and pending.startswith(codecs.BOM_UTF8) else 0
            try:
                text = pending[bom:end].decode("utf-8")
            except UnicodeDecodeError as exc:
                # the byte's line starts after the last line break before it
                bad = bom + exc.start
                line_start = max(pending.rfind(b"\n", 0, bad), pending.rfind(b"\r", 0, bad)) + 1
                text = pending[bom:line_start].decode("utf-8")
                fault = ValueError(f"{what} is not UTF-8 (undecodable byte at offset "
                                   f"{start + bad}): {Path(path)}")
            if "\r" in text:  # a scan that costs less than replacing nothing
                text = text.replace("\r\n", "\n").replace("\r", "\n")
            lines = text.split("\n")
            yield from compress(zip(count(lineno), lines), map(str.strip, lines))
            if fault:
                raise fault
            if last:
                return
            lineno += len(lines) - 1
            del pending[:end]
            start += end


def tsv_lines(path: str | Path, what: str) -> Iterator[tuple[int, str]]:
    """The (line number, line) pairs of read_lines that are not '#' comments."""
    return ((lineno, line) for lineno, line in read_lines(path, what) if not line.startswith("#"))


def json_records(path: str | Path, what: str, noun: str, text_keys: tuple[str, ...],
                 other_keys: tuple[str, ...] = ()) -> Iterator[tuple[int, dict]]:
    """(line number, record) of each line of read_lines, a JSON-lines file.

    A record, a `noun` in messages, is an object carrying text_keys and
    other_keys; a text key's value, an id or a path, is a string or an
    integer, turned into its decimal text, and a string must encode as UTF-8:
    a JSON escape of a lone surrogate, such as \\ud800, does not.  Faults name
    the file and line.
    """
    keys = text_keys + other_keys
    for lineno, line in read_lines(path, what):
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:  # also too many digits, too deep
            raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from None
        if not isinstance(record, dict) or not all(key in record for key in keys):
            raise ValueError(f"{path}:{lineno}: {noun} must carry "
                             f"{', '.join(keys[:-1])} and {keys[-1]}")
        for key in text_keys:
            if type(record[key]) not in (str, int):  # so a bool, whose type is bool, fails
                raise ValueError(f"{path}:{lineno}: {key} must be a string or an integer")
            record[key] = str(record[key])
            try:
                record[key].encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(f"{path}:{lineno}: {key} holds a lone surrogate, "
                                 "which is not UTF-8 text") from None
        yield lineno, record


def load_corpus(manifest_path: str | Path) -> list[Document]:
    """Load the documents listed in a JSON-lines manifest.

    Each non-blank manifest line is an object with doc_id, lang and path, and
    a manifest without one is an error; relative paths are resolved against
    the manifest's directory.  A sentence file holds one sentence, trimmed,
    per line of read_lines.
    """
    manifest_path = Path(manifest_path)
    # sentence paths stay strings for os.path: a Path per document costs more
    # than reading its file.  Messages show Path(path), as a Path join would.
    base = str(manifest_path.parent)
    documents: dict[str, Document] = {}
    for lineno, entry in json_records(manifest_path, "manifest", "entry",
                                      ("doc_id", "lang", "path")):
        doc_id = entry["doc_id"]
        if doc_id in documents:
            raise ValueError(f"{manifest_path}:{lineno}: duplicate doc_id {doc_id!r}")
        path = os.path.join(base, entry["path"])
        sentences = tuple(line.strip() for _, line in read_lines(
            path, f"sentence file for doc {doc_id!r}"))
        if not sentences:
            raise ValueError(f"document {doc_id!r} is empty (no non-blank lines): {Path(path)}")
        try:
            documents[doc_id] = Document(doc_id=doc_id, lang=entry["lang"], sentences=sentences)
        except ValueError as exc:  # a doc id no unit id or TSV line can carry
            raise ValueError(f"{manifest_path}:{lineno}: {exc}") from None
    if not documents:
        raise ValueError(f"manifest {manifest_path} lists no documents")
    logger.info("loaded %d documents from %s", len(documents), manifest_path)
    return list(documents.values())


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
    """Read (unit_id, text) rows, at least one; the text is everything after the first tab.

    Lines starting with '#' are comments, so unit ids cannot start with '#'.
    """
    rows: dict[str, str] = {}
    for lineno, line in tsv_lines(path, "units file"):
        unit_id, sep, text = line.partition("\t")
        if not sep or not unit_id:
            raise ValueError(f"{path}:{lineno}: expected unit_id<TAB>text")
        if unit_id in rows:
            raise ValueError(f"{path}:{lineno}: duplicate unit id {unit_id!r}")
        rows[unit_id] = text
    if not rows:
        raise ValueError(f"units file {path} is empty")
    return list(rows.items())
