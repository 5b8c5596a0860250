"""Span recorder for the traced benchmark run, and the per-layer metrics.

Run as a script, it installs wrappers around chunkalign's public functions,
calls ``chunkalign.cli.main(argv)`` in this process, and writes the spans to
a JSON file when the command ends::

    python3 tracer.py --spans spans.json --run-id dac-search-1 -- align ...

Each wrapper replaces the function at every module attribute where
chunkalign code looks it up (``from .corpus import segment`` binds
``chunkalign.dac.segment`` as well as ``chunkalign.corpus.segment``), so the
program's source is never edited.  A span holds its name, start, end, parent
span and run id, plus counts taken from the call's arguments and return
value after the span has ended.  Spans stay in memory until the command
returns.

Imported, the module only defines the metric computation used by run.py.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
import tracemalloc


def _arg(call, name):
    return call.arguments[name]


def _search_counts(call, result):
    index, queries = _arg(call, "index"), _arg(call, "queries")
    n, m, d = len(queries), index.size, index.dim
    return {"queries": n, "scores": n * m, "gemm_flop": 2 * n * m * d}


# (span name, module, attribute path, counter(call, result) -> dict or None,
#  whether to record the peak of traced allocations during the call)
TARGETS = [
    ("cli.main", "chunkalign.cli", "main", None, False),
    ("corpus.load_corpus", "chunkalign.corpus", "load_corpus",
     lambda call, r: {"docs": len(r)}, False),
    ("corpus.read_units_tsv", "chunkalign.corpus", "read_units_tsv", None, False),
    ("corpus.segment", "chunkalign.corpus", "segment", lambda call, r: {"units": len(r)}, False),
    ("corpus.write_units_tsv", "chunkalign.corpus", "write_units_tsv", None, False),
    ("embed_store.read_matrix", "chunkalign.embed_store", "read_matrix",
     lambda call, r: {"bytes": os.path.getsize(_arg(call, "path"))}, False),
    ("embed_store.normalize", "chunkalign.embed_store", "normalize", None, False),
    ("embed_store.select", "chunkalign.embed_store", "EmbeddingMatrix.select", None, False),
    ("embed_store.fetch_vectors", "chunkalign.embed_store", "fetch_vectors", None, False),
    ("embed_store.write_matrix", "chunkalign.embed_store", "write_matrix", None, False),
    ("knn.build", "chunkalign.knn", "build", None, False),
    ("knn.search_arrays", "chunkalign.knn", "search_arrays", _search_counts, True),
    ("miner.margin_scores", "chunkalign.miner", "margin_scores",
     lambda call, r: {"candidates": len(r)}, False),
    ("miner.greedy_match", "chunkalign.miner", "greedy_match",
     lambda call, r: {"pairs": len(r)}, False),
    ("miner.write_pairs_tsv", "chunkalign.miner", "write_pairs_tsv", None, False),
    ("dac.mine_chunk_pairs", "chunkalign.dac", "mine_chunk_pairs", None, False),
    ("dac.aggregate", "chunkalign.dac", "aggregate", lambda call, r: {"doc_pairs": len(r)}, False),
    ("dac.select_pairs", "chunkalign.dac", "select_pairs",
     lambda call, r: {"selected": len(r)}, False),
    ("dac.write_scores_tsv", "chunkalign.dac", "write_scores_tsv", None, False),
    ("pooling.build_idf", "chunkalign.pooling", "build_idf",
     lambda call, r: {"tokens": sum(len(s.split()) for doc in _arg(call, "documents")
                                    for s in doc.sentences)}, False),
    ("pooled.pool_corpus", "chunkalign.pooled", "pool_corpus", None, False),
    ("evaluation.load_gold", "chunkalign.evaluation", "load_gold", None, False),
    ("evaluation.score", "chunkalign.evaluation", "score", None, False),
    ("evaluation.sweep_thresholds", "chunkalign.evaluation", "sweep_thresholds",
     lambda call, r: {"thresholds": len(_arg(call, "thresholds"))}, False),
    ("evaluation.write_reports_tsv", "chunkalign.evaluation", "write_reports_tsv", None, False),
    ("evaluation.write_reports_json", "chunkalign.evaluation", "write_reports_json", None, False),
]

WRITERS = ["corpus.write_units_tsv", "miner.write_pairs_tsv", "dac.write_scores_tsv",
           "evaluation.write_reports_tsv", "evaluation.write_reports_json"]


class Recorder:
    """Collects spans in memory; one stack of open spans per thread."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, name, fn, counter, trace_alloc):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = {"name": name, "run": self.run_id, "parent": stack[-1] if stack else None}
            with self._lock:
                self.spans.append(span)
                index = len(self.spans) - 1
            stack.append(index)
            if trace_alloc:
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if trace_alloc:
                    span.setdefault("counts", {})["peak_alloc_bytes"] = \
                        tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if counter is not None:
                try:
                    call = signature.bind(*args, **kwargs)
                    call.apply_defaults()
                    span.setdefault("counts", {}).update(counter(call, result))
                except (AttributeError, KeyError, TypeError) as exc:
                    span["count_error"] = f"{type(exc).__name__}: {exc}"
            return result

        return wrapper

    def install(self) -> list[str]:
        """Wrap every target; returns the targets that were not found."""
        missing = []
        for name, module_name, attr, counter, trace_alloc in TARGETS:
            module = importlib.import_module(module_name)
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = getattr(holder, leaf, None)
            if original is None:
                missing.append(name)
                continue
            wrapper = self.wrap(name, original, counter, trace_alloc)
            if owner:
                setattr(holder, leaf, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "chunkalign" or mod_name.startswith("chunkalign."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
        return missing


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


class LayerView:
    """Sums of durations, self times and counts by span name."""

    def __init__(self, spans: list[dict]):
        self.inclusive: dict[str, float] = {}
        self.own: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        for span, own in zip(spans, self_times(spans)):
            name = span["name"]
            self.inclusive[name] = self.inclusive.get(name, 0.0) + span["end"] - span["start"]
            self.own[name] = self.own.get(name, 0.0) + own
            for key, value in span.get("counts", {}).items():
                full = f"{name}.{key}"
                self.counts[full] = self.counts.get(full, 0) + value
                self.maxima[full] = max(self.maxima.get(full, 0), value)

    def time(self, *names: str) -> float:
        return sum(self.inclusive.get(name, 0.0) for name in names)

    def self_time(self, name: str) -> float:
        return self.own.get(name, 0.0)

    def count(self, key: str) -> float:
        return self.counts.get(key, 0)

    def layer_shares(self, wall: float) -> dict[str, float]:
        """Self time per layer (span-name prefix) as a share of wall time."""
        shares: dict[str, float] = {}
        for name, own in self.own.items():
            layer = name.split(".")[0]
            shares[layer] = shares.get(layer, 0.0) + own / wall
        shares["unattributed"] = 1.0 - sum(shares.values())
        return shares


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(view: LayerView, stub: dict | None) -> dict[str, float]:
    """Every per-layer metric that comes from spans or the stub's counters."""
    stub = stub or {}
    candidates = view.count("miner.margin_scores.candidates")
    chunk_pairs = view.count("miner.greedy_match.pairs")
    return {
        "cli.write_s": view.time(*WRITERS),
        "corpus.load_s": view.time("corpus.load_corpus", "corpus.read_units_tsv"),
        "corpus.docs": view.count("corpus.load_corpus.docs"),
        "corpus.segment_s": view.time("corpus.segment"),
        "corpus.units": view.count("corpus.segment.units"),
        "embed_store.read_s": view.time("embed_store.read_matrix"),
        "embed_store.normalize_s": view.time("embed_store.normalize"),
        "embed_store.select_s": view.time("embed_store.select"),
        "embed_store.bytes_read": view.count("embed_store.read_matrix.bytes"),
        "embed_store.fetch_s": view.time("embed_store.fetch_vectors"),
        "embed_store.write_s": view.time("embed_store.write_matrix"),
        "embed_store.requests": stub.get("requests", 0),
        "embed_store.texts_sent": stub.get("texts", 0),
        "embed_store.unique_text_ratio": _ratio(stub.get("unique_texts", 0), stub.get("texts", 0)),
        "embed_store.service_s": stub.get("busy_s", 0.0),
        "knn.build_s": view.time("knn.build"),
        "knn.search_s": view.time("knn.search_arrays"),
        "knn.queries": view.count("knn.search_arrays.queries"),
        "knn.scores": view.count("knn.search_arrays.scores"),
        "knn.gemm_gflop": view.count("knn.search_arrays.gemm_flop") / 1e9,
        "knn.score_bytes": view.maxima.get("knn.search_arrays.peak_alloc_bytes", 0),
        "miner.margin_self_s": view.self_time("miner.margin_scores"),
        "miner.candidates": candidates,
        "miner.greedy_s": view.time("miner.greedy_match"),
        "miner.chunk_pairs": chunk_pairs,
        "miner.accept_ratio": _ratio(chunk_pairs, candidates),
        "dac.mine_chunk_pairs_self_s": view.self_time("dac.mine_chunk_pairs"),
        "dac.aggregate_s": view.time("dac.aggregate"),
        "dac.doc_pair_candidates": view.count("dac.aggregate.doc_pairs"),
        "dac.select_s": view.time("dac.select_pairs"),
        "dac.selected": view.count("dac.select_pairs.selected"),
        "pooling.build_idf_s": view.time("pooling.build_idf"),
        "pooled.pool_self_s": view.self_time("pooled.pool_corpus"),
        "pooling.tokens": view.count("pooling.build_idf.tokens"),
        "evaluation.load_gold_s": view.time("evaluation.load_gold"),
        "evaluation.score_s": view.time("evaluation.score"),
        "evaluation.sweep_s": view.time("evaluation.sweep_thresholds"),
        "evaluation.thresholds": view.count("evaluation.sweep_thresholds.thresholds"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one chunkalign command with tracing")
    parser.add_argument("--spans", required=True, help="where to write the spans JSON")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the CLI arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    recorder = Recorder(args.run_id)
    missing = recorder.install()
    from chunkalign import cli

    code = cli.main(argv)
    with open(args.spans, "w", encoding="utf-8") as handle:
        json.dump({"run": args.run_id, "exit_code": code, "missing": missing,
                   "spans": recorder.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
