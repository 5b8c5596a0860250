"""Intrinsic evaluation: noise injection, exact-match scoring, threshold sweeps."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .corpus import Document, tsv_lines
from .dac import DocPairScore, require_thresholds, select_pairs


@dataclass(frozen=True)
class GoldSet:
    """Reference document pairs; one-to-one by construction."""

    pairs: frozenset[tuple[str, str]]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, str]]) -> "GoldSet":
        seen_src: set[str] = set()
        seen_tgt: set[str] = set()
        collected: set[tuple[str, str]] = set()
        for src_doc, tgt_doc in pairs:
            if src_doc in seen_src:
                raise ValueError(f"doc {src_doc!r} appears in more than one gold pair")
            if tgt_doc in seen_tgt:
                raise ValueError(f"doc {tgt_doc!r} appears in more than one gold pair")
            seen_src.add(src_doc)
            seen_tgt.add(tgt_doc)
            collected.add((src_doc, tgt_doc))
        return cls(pairs=frozenset(collected))

    def __len__(self) -> int:
        return len(self.pairs)


def _pair_rows(path: str | Path, what: str, expected: str) -> Iterator[tuple[int, tuple[str, str]]]:
    """(line number, (first column, second column)) of each row of a pairs TSV."""
    for lineno, line in tsv_lines(path, what):
        parts = line.split("\t", 2)
        if len(parts) < 2 or not parts[0] or not parts[1]:
            raise ValueError(f"{path}:{lineno}: expected {expected}")
        yield lineno, (parts[0], parts[1])


def load_gold(path: str | Path) -> GoldSet:
    """Read a gold TSV of src_doc<TAB>tgt_doc rows; '#' lines are comments."""
    # every row is parsed before from_pairs meets a document twice
    rows = _pair_rows(path, "gold file", "src_doc<TAB>tgt_doc")
    return GoldSet.from_pairs([pair for _, pair in rows])


def load_pairs(path: str | Path) -> list[tuple[str, str]]:
    """Read predicted pairs from a TSV, taking the first two columns of each row."""
    pairs: dict[tuple[str, str], None] = {}
    for lineno, pair in _pair_rows(path, "pairs file", "at least src<TAB>tgt"):
        if pair in pairs:
            raise ValueError(f"{path}:{lineno}: duplicate pair {pair!r}")
        pairs[pair] = None
    return list(pairs)


@dataclass(frozen=True)
class EvalReport:
    """Exact-match alignment quality for one run or one sweep point."""

    true_positives: int
    predicted_count: int
    gold_count: int
    precision: float
    recall: float
    f1: float
    threshold: float | None = None


def score(
    predicted: Sequence[tuple[str, str]],
    gold: GoldSet,
    threshold: float | None = None,
) -> EvalReport:
    """Exact set-intersection precision, recall and F1 against the gold pairs.

    Precision is 0 when nothing was predicted, and F1 is 0 when precision and
    recall are both 0.  Duplicate predicted pairs are an error.
    """
    seen: set[tuple[str, str]] = set()
    for pair in predicted:
        if pair in seen:
            raise ValueError(f"duplicate predicted pair {pair!r}")
        seen.add(pair)
    true_positives = len(seen & gold.pairs)
    precision = true_positives / len(predicted) if predicted else 0.0
    recall = true_positives / len(gold) if len(gold) else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return EvalReport(
        true_positives=true_positives,
        predicted_count=len(predicted),
        gold_count=len(gold),
        precision=precision,
        recall=recall,
        f1=f1,
        threshold=threshold,
    )


@dataclass(frozen=True)
class NoiseConfig:
    """How many unalignable documents to mix in, and the sampling seed."""

    ratio: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.ratio):
            raise ValueError(f"noise ratio must be finite, got {self.ratio}")
        if self.ratio < 0:
            raise ValueError(f"noise ratio must be >= 0, got {self.ratio}")
        if self.seed < 0:
            raise ValueError(f"noise seed must be >= 0, got {self.seed}")

    def per_side(self) -> tuple["NoiseConfig", "NoiseConfig"]:
        """(source, target) configs at this ratio, with independent seeds split from this seed."""
        src, tgt = (NoiseConfig(self.ratio, int(seed))
                    for seed in np.random.SeedSequence(self.seed).generate_state(2, np.uint64))
        return src, tgt


def inject_noise(
    alignable: Sequence[Document],
    noise_pool: Sequence[Document],
    config: NoiseConfig,
) -> list[Document]:
    """Append floor(ratio * len(alignable)) pool documents to the corpus.

    Sampling is without replacement from a PCG64 generator seeded with
    config.seed, so a given (corpus, pool, config) always yields the same
    mixed corpus.  Alignable documents keep their order; sampled noise comes
    after them.
    """
    pool_ids = [doc.doc_id for doc in noise_pool]
    if len(set(pool_ids)) != len(pool_ids):
        raise ValueError("noise pool contains duplicate doc ids")
    collisions = {doc.doc_id for doc in alignable} & set(pool_ids)
    if collisions:
        raise ValueError(f"noise pool shares doc ids with the corpus: {sorted(collisions)[:3]}")
    # compared before flooring: a huge finite ratio makes an infinite product
    wanted = config.ratio * len(alignable)
    if wanted >= len(noise_pool) + 1:
        count = math.floor(wanted) if math.isfinite(wanted) else f"more than {len(noise_pool)}"
        raise ValueError(f"noise pool has {len(noise_pool)} docs but {count} are needed "
                         f"(noise ratio {config.ratio} of {len(alignable)} docs)")
    needed = math.floor(wanted)
    mixed = list(alignable)
    if needed:
        rng = np.random.default_rng(config.seed)
        chosen = rng.choice(len(noise_pool), size=needed, replace=False)
        mixed.extend(noise_pool[int(i)] for i in chosen)
    return mixed


def sweep_thresholds(
    scores: Sequence[DocPairScore],
    gold: GoldSet,
    thresholds: Sequence[float],
    one_to_one: bool = True,
) -> list[EvalReport]:
    """Score select_pairs(scores, t, one_to_one) at each threshold t.

    Thresholds must be sorted ascending and lie in [0, 1]; an empty list
    yields an empty report list.  One selection at the lowest threshold
    serves them all: the pairs at or above a higher threshold are a prefix of
    select_pairs' ranking, led by dac, and greedy selection over a prefix
    makes the same choices, so the selection at t is the lowest threshold's
    selected pairs with dac >= t.
    """
    require_thresholds(thresholds)
    selected = select_pairs(scores, thresholds[0], one_to_one) if thresholds else []
    reports = []
    for threshold in thresholds:
        predicted = [(s.src_doc, s.tgt_doc) for s in selected if s.dac >= threshold]
        reports.append(score(predicted, gold, threshold=threshold))
    return reports


def _threshold_text(threshold: float | None) -> str:
    return "-" if threshold is None else f"{threshold:.6f}"


def report_to_dict(report: EvalReport) -> dict:
    return {
        "threshold": None if report.threshold is None else round(report.threshold, 6),
        "tp": report.true_positives,
        "predicted": report.predicted_count,
        "gold": report.gold_count,
        "precision": round(report.precision, 6),
        "recall": round(report.recall, 6),
        "f1": round(report.f1, 6),
    }


def write_reports_tsv(reports: Sequence[EvalReport], handle: IO[str]) -> None:
    """One row per report: threshold, tp, predicted, gold, precision, recall, f1."""
    handle.write("# threshold\ttp\tpredicted\tgold\tprecision\trecall\tf1\n")
    for report in reports:
        handle.write(
            f"{_threshold_text(report.threshold)}\t{report.true_positives}\t"
            f"{report.predicted_count}\t{report.gold_count}\t"
            f"{report.precision:.6f}\t{report.recall:.6f}\t{report.f1:.6f}\n"
        )


def write_reports_json(reports: Sequence[EvalReport], handle: IO[str]) -> None:
    json.dump([report_to_dict(report) for report in reports], handle, indent=2)
    handle.write("\n")
