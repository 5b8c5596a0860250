"""Command-line pipeline: segment, embed, pool, align, evaluate, sweep."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import __version__
from .corpus import (Granularity, json_records, load_corpus, read_units_tsv, require_file, segment,
                     write_units_tsv)

# Each command imports the modules it runs inside its prepare and run
# functions, and no parser type or default needs one, so segment, --help and
# usage errors skip numpy and fetch-embeddings skips the mining modules: those
# imports take most of a short command's startup.  The types read syntax only;
# each rule on a value runs in the prepare step, through the rule's owner.

ENDPOINT_ENV = "CHUNKALIGN_ENDPOINT"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the validation status."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _checked(convert, text: str, message: str):
    """convert(text); its ValueError becomes the usage error told as message."""
    try:
        return convert(text)
    except ValueError:
        raise argparse.ArgumentTypeError(message) from None


def _integer(text: str) -> int:
    return _checked(int, text, f"expected an integer, got {text!r}")


def _float(text: str) -> float:
    return _checked(float, text, f"expected a float, got {text!r}")


def _threshold_list(text: str) -> list[float]:
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("empty threshold list")
    return [_checked(float, part, "expected a comma-separated list of floats") for part in parts]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chunkalign", description=__doc__)
    parser.add_argument("--verbose", action="store_true", help="enable debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("segment", parents=[], help="split documents into units for embedding")
    p.add_argument("--manifest", required=True, help="JSON-lines corpus manifest")
    p.add_argument("-g", "--granularity", type=_integer, default=1,
                   help="sentences per unit (default 1)")
    p.add_argument("--out", required=True, help="output units TSV (unit_id<TAB>text)")

    p = sub.add_parser("fetch-embeddings", help="embed a units file via the HTTP service")
    p.add_argument("--units", required=True, help="units TSV from the segment step")
    p.add_argument("--endpoint", default=None,
                   help=f"embedding service URL (default: ${ENDPOINT_ENV})")
    p.add_argument("--batch-size", type=_integer, default=32)
    p.add_argument("--out", required=True, help="output embedding matrix file")

    p = sub.add_parser("import-embeddings", help="convert precomputed vectors to a matrix file")
    p.add_argument("--units", required=True, help="units TSV defining ids and row order")
    p.add_argument("--vectors", required=True,
                   help='JSON-lines file of {"unit_id": ..., "vector": [...]} records')
    p.add_argument("--out", required=True, help="output embedding matrix file")

    p = sub.add_parser("pool", help="pool sentence embeddings into document vectors")
    p.add_argument("--manifest", required=True)
    p.add_argument("--embeddings", required=True, help="sentence-level (granularity 1) matrix")
    p.add_argument("--method", default=None, help="MP, LP, IDF or LIDF (default MP)")
    p.add_argument("--out", required=True, help="output document matrix file")

    def add_align_inputs(p):
        p.add_argument("--src-manifest", required=True)
        p.add_argument("--tgt-manifest", required=True)
        p.add_argument("--src-embeddings", required=True,
                       help="matrix covering the source units at the chosen granularity")
        p.add_argument("--tgt-embeddings", required=True)
        p.add_argument("-k", type=_integer, default=None,
                       help="margin neighborhood size (default 16)")
        p.add_argument("--workers", type=_integer, default=1,
                       help="threads for the search stage (results are identical for any count)")
        p.add_argument("--noise-src-manifest", default=None,
                       help="pool of unalignable docs to mix into the source side")
        p.add_argument("--noise-tgt-manifest", default=None)
        p.add_argument("--noise-ratio", type=_float, default=0.5,
                       help="noise docs as a fraction of alignable docs (default 0.5)")
        p.add_argument("--noise-seed", type=_integer, default=0)
        p.add_argument("--min-margin", type=_float, default=None,
                       help="optional margin floor on mined pairs (disabled by default)")
        p.add_argument("--out-dir", required=True)

    p = sub.add_parser("align", help="align two corpora into document pairs")
    p.add_argument("--mode", choices=["dac", "pooled"], default="dac")
    add_align_inputs(p)
    p.add_argument("-g", "--granularity", type=_integer, default=None,
                   help="sentences per chunk for --mode dac (default 1)")
    p.add_argument("--threshold", type=_float, default=None,
                   help="document alignment coefficient cutoff for --mode dac (default 0.1)")
    p.add_argument("--method", default=None, help="pooling method for --mode pooled (default MP)")
    p.add_argument("--keep-all", action="store_true",
                   help="keep every pair above the threshold instead of one-to-one matching")
    p.add_argument("--dump-chunk-pairs", action="store_true",
                   help="also write the mined chunk pairs (--mode dac)")
    p.add_argument("--gold", default=None, help="gold pairs TSV; enables the report")

    p = sub.add_parser("sweep", help="score the dac path at several thresholds")
    add_align_inputs(p)
    p.add_argument("-g", "--granularity", type=_integer, default=1)
    p.add_argument("--thresholds", type=_threshold_list, required=True,
                   help="comma-separated ascending list, e.g. 0.0,0.1,0.2")
    p.add_argument("--keep-all", action="store_true")
    p.add_argument("--gold", required=True)
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")

    p = sub.add_parser("evaluate", help="score a predicted pairs file against gold")
    p.add_argument("--pairs", required=True, help="predicted pairs TSV (first two columns used)")
    p.add_argument("--gold", required=True)
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")
    p.add_argument("--out", default=None, help="report path (default: stdout)")

    return parser


def _require_out(path: str) -> None:
    """Reject an --out that names a directory or whose directory does not exist."""
    if os.path.isdir(path):
        raise ValueError(f"output path is a directory: {Path(path)}")
    if not os.path.isdir(Path(path).parent):
        raise ValueError(f"output directory not found: {Path(path).parent}")


# the files an align or sweep run writes into its --out-dir, and so clears from
# it first: an earlier run's, left in place, would pass for this run's
_RUN_OUTPUTS = ("config.json", "pairs.tsv", "report.tsv", "chunk_pairs.tsv", "reports.tsv",
                "reports.json")


def _require_out_dir(path: str) -> None:
    """Reject an --out-dir that a run could not make or write _RUN_OUTPUTS into."""
    out_dir = Path(path)
    existing = next(p for p in (out_dir, *out_dir.parents) if os.path.lexists(p))
    if not os.path.isdir(existing):
        raise ValueError(f"output path is not a directory: {existing}")
    for name in _RUN_OUTPUTS:
        if os.path.isdir(out_dir / name):
            raise ValueError(f"output path is a directory: {out_dir / name}")


# --- segment ---------------------------------------------------------------


def _prepare_segment(args) -> dict:
    args.granularity = Granularity(args.granularity)
    _require_out(args.out)
    return {"docs": load_corpus(args.manifest)}


def _run_segment(args, ctx) -> None:
    units = [unit for doc in ctx["docs"] for unit in segment(doc, args.granularity)]
    write_units_tsv(units, args.out)
    print(f"wrote {len(units)} units for {len(ctx['docs'])} documents to {args.out}")


# --- fetch-embeddings ------------------------------------------------------


def _prepare_fetch(args) -> dict:
    from .service import require_batch_size, route

    require_batch_size(args.batch_size)
    endpoint = args.endpoint or os.environ.get(ENDPOINT_ENV)
    if not endpoint:
        raise ValueError(f"no embedding endpoint: pass --endpoint or set ${ENDPOINT_ENV}")
    route(endpoint)  # a bad endpoint or proxy is invalid input, found before any path
    _require_out(args.out)
    require_file(args.units, "units file")
    return {"units": read_units_tsv(args.units), "endpoint": endpoint}


def _run_fetch(args, ctx) -> None:
    from .embed_store import fetch_vectors

    ids, texts = zip(*ctx["units"])
    matrix = fetch_vectors(ids, texts, ctx["endpoint"], batch_size=args.batch_size)
    _run_import(args, {"matrix": matrix})


# --- import-embeddings -----------------------------------------------------


def _prepare_import(args) -> dict:
    from .embed_store import matrix_from_vectors

    _require_out(args.out)
    require_file(args.units, "units file")
    require_file(args.vectors, "vectors file")
    ids = [unit_id for unit_id, _ in read_units_tsv(args.units)]
    vectors = _read_vectors(args.vectors)
    missing = [unit_id for unit_id in ids if unit_id not in vectors]
    if missing:
        raise ValueError(f"no vector for unit {missing[0]!r} ({len(missing)} missing in total)")
    return {"matrix": matrix_from_vectors(ids, [vectors[unit_id] for unit_id in ids], "imported")}


def _read_vectors(path: str) -> dict[str, list]:
    """unit id -> vector of each record of a JSON-lines vectors file."""
    vectors: dict[str, list] = {}
    for lineno, record in json_records(path, "vectors file", "record", ("unit_id",), ("vector",)):
        unit_id = record["unit_id"]
        if unit_id in vectors:
            raise ValueError(f"{path}:{lineno}: duplicate vector for {unit_id!r}")
        vectors[unit_id] = record["vector"]
    return vectors


def _run_import(args, ctx) -> None:
    from .embed_store import write_matrix

    matrix = ctx["matrix"]
    write_matrix(matrix, args.out)
    print(f"wrote {len(matrix)} x {matrix.dim} embeddings to {args.out}")


# --- pool ------------------------------------------------------------------


def _prepare_pool(args) -> dict:
    from .embed_store import read_normalized
    from .pooling import PoolingMethod

    args.method = PoolingMethod.from_string("MP" if args.method is None else args.method)
    _require_out(args.out)
    require_file(args.manifest, "manifest")
    require_file(args.embeddings, "embeddings file")
    return {"docs": load_corpus(args.manifest), "matrix": read_normalized(args.embeddings)}


def _run_pool(args, ctx) -> None:
    from .embed_store import write_matrix
    from .pooled import pool_corpus

    pooled = pool_corpus(ctx["docs"], ctx["matrix"], args.method)
    write_matrix(pooled, args.out)
    print(f"wrote {len(pooled)} document vectors ({args.method.name}) to {args.out}")


# --- align / sweep ---------------------------------------------------------


def _load_side(manifest: str, noise_manifest: str | None, noise):
    from .evaluation import inject_noise

    docs = load_corpus(manifest)
    if noise_manifest is not None:
        docs = inject_noise(docs, load_corpus(noise_manifest), noise)
    return docs


def _prepare_align_inputs(args) -> dict:
    from .embed_store import read_normalized
    from .evaluation import NoiseConfig, load_gold
    from .miner import MarginParams, require_same_dim, require_workers

    if args.k is None:
        args.k = MarginParams().k
    params = MarginParams(k=args.k, min_margin=args.min_margin)
    require_workers(args.workers)
    # checked even when no noise manifest uses it
    noise = NoiseConfig(ratio=args.noise_ratio, seed=args.noise_seed)
    _require_out_dir(args.out_dir)
    require_file(args.src_manifest, "source manifest")
    require_file(args.tgt_manifest, "target manifest")
    require_file(args.src_embeddings, "source embeddings file")
    require_file(args.tgt_embeddings, "target embeddings file")
    if args.noise_src_manifest is not None:
        require_file(args.noise_src_manifest, "source noise manifest")
    if args.noise_tgt_manifest is not None:
        require_file(args.noise_tgt_manifest, "target noise manifest")
    # only a noise manifest pays for numpy's RNG to split the seed
    noisy = args.noise_src_manifest is not None or args.noise_tgt_manifest is not None
    src_noise, tgt_noise = noise.per_side() if noisy else (noise, noise)
    src_docs = _load_side(args.src_manifest, args.noise_src_manifest, src_noise)
    tgt_docs = _load_side(args.tgt_manifest, args.noise_tgt_manifest, tgt_noise)
    gold = None if args.gold is None else load_gold(args.gold)
    src_matrix = read_normalized(args.src_embeddings)
    tgt_matrix = read_normalized(args.tgt_embeddings)
    require_same_dim(src_matrix, tgt_matrix)
    return {
        "params": params,
        "src_docs": src_docs,
        "tgt_docs": tgt_docs,
        "src_matrix": src_matrix,
        "tgt_matrix": tgt_matrix,
        "gold": gold,
    }


def _prepare_align(args) -> dict:
    if args.mode == "dac":
        from .dac import DEFAULT_THRESHOLD, require_threshold

        if args.method is not None:
            raise ValueError("--method is only valid with --mode pooled")
        args.granularity = Granularity(1 if args.granularity is None else args.granularity)
        if args.threshold is None:
            args.threshold = DEFAULT_THRESHOLD
        require_threshold(args.threshold)
    else:
        for given, name in [
            (args.granularity is not None, "--granularity"),
            (args.threshold is not None, "--threshold"),
            (args.keep_all, "--keep-all"),
            (args.dump_chunk_pairs, "--dump-chunk-pairs"),
        ]:
            if given:
                raise ValueError(f"{name} is only valid with --mode dac")
        from .pooling import PoolingMethod

        args.method = PoolingMethod.from_string("MP" if args.method is None else args.method)
    return _prepare_align_inputs(args)


def _prepare_sweep(args) -> dict:
    from .dac import require_thresholds

    args.granularity = Granularity(args.granularity)
    require_thresholds(args.thresholds)
    return _prepare_align_inputs(args)


def _write_run_config(args, command: str) -> Path:
    """Make the run's --out-dir, clear it of an earlier run's outputs, echo the
    resolved settings of an align or sweep run to config.json in it, return it."""
    mode = getattr(args, "mode", "dac")
    method = getattr(args, "method", None)
    noisy = bool(args.noise_src_manifest or args.noise_tgt_manifest)
    config = {
        "command": command,
        "version": __version__,
        "mode": mode,
        "src_manifest": args.src_manifest,
        "tgt_manifest": args.tgt_manifest,
        "src_embeddings": args.src_embeddings,
        "tgt_embeddings": args.tgt_embeddings,
        "noise_src_manifest": args.noise_src_manifest,
        "noise_tgt_manifest": args.noise_tgt_manifest,
        "gold": args.gold,
        "out_dir": args.out_dir,
        "granularity": None if args.granularity is None else str(args.granularity),
        "method": None if method is None else method.name,
        "k": args.k,
        "threshold": getattr(args, "threshold", None),
        "thresholds": getattr(args, "thresholds", None),
        "noise_ratio": args.noise_ratio if noisy else None,
        "noise_seed": args.noise_seed if noisy else None,
        "min_margin": args.min_margin,
        "keep_all": args.keep_all if mode == "dac" else None,
        "workers": args.workers,
    }
    payload = json.dumps(config, indent=2, sort_keys=True)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in _RUN_OUTPUTS:
        (out_dir / name).unlink(missing_ok=True)
    (out_dir / "config.json").write_text(payload + "\n", encoding="utf-8")
    return out_dir


def _write_report(reports, fmt: str, path: str | Path | None) -> None:
    """Write reports as fmt, json or tsv, to path, or to stdout when path is None."""
    from .evaluation import write_reports_json, write_reports_tsv

    write = write_reports_json if fmt == "json" else write_reports_tsv
    if path is None:
        write(reports, sys.stdout)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            write(reports, handle)


def _run_align(args, ctx) -> None:
    from .dac import mine_chunk_pairs, select_pairs, write_scores_tsv
    from .evaluation import score
    from .miner import write_pairs_tsv

    out_dir = _write_run_config(args, "align")
    if args.mode == "dac":
        pairs, scores = mine_chunk_pairs(
            ctx["src_docs"], ctx["tgt_docs"], ctx["src_matrix"], ctx["tgt_matrix"],
            args.granularity, ctx["params"], args.workers,
        )
        if args.dump_chunk_pairs:
            write_pairs_tsv(pairs, out_dir / "chunk_pairs.tsv")
        selected = select_pairs(scores, args.threshold, one_to_one=not args.keep_all)
        write_scores_tsv(selected, out_dir / "pairs.tsv")
        predicted = [(s.src_doc, s.tgt_doc) for s in selected]
    else:
        from .pooled import align_documents_pooled

        # handed over, not kept: pooling frees each side's sentence matrix
        mined = align_documents_pooled(
            ctx["src_docs"], ctx["tgt_docs"], ctx.pop("src_matrix"), ctx.pop("tgt_matrix"),
            args.method, ctx["params"], workers=args.workers,
        )
        write_pairs_tsv(mined, out_dir / "pairs.tsv")
        predicted = [(pair.src_id, pair.tgt_id) for pair in mined]
    print(f"aligned {len(predicted)} document pairs -> {out_dir / 'pairs.tsv'}")
    if ctx["gold"] is not None:
        # pooled mode has no threshold, so its report carries none
        report = score(predicted, ctx["gold"], threshold=args.threshold)
        _write_report([report], "tsv", out_dir / "report.tsv")
        print(
            f"precision {report.precision:.6f}, recall {report.recall:.6f}, "
            f"f1 {report.f1:.6f} against {args.gold}"
        )


def _run_sweep(args, ctx) -> None:
    from .dac import mine_chunk_pairs
    from .evaluation import sweep_thresholds

    out_dir = _write_run_config(args, "sweep")
    _, scores = mine_chunk_pairs(
        ctx["src_docs"], ctx["tgt_docs"], ctx["src_matrix"], ctx["tgt_matrix"],
        args.granularity, ctx["params"], args.workers,
    )
    reports = sweep_thresholds(scores, ctx["gold"], args.thresholds, one_to_one=not args.keep_all)
    report_path = out_dir / f"reports.{args.format}"
    _write_report(reports, args.format, report_path)
    print(f"wrote {len(reports)} sweep reports to {report_path}")


# --- evaluate ----------------------------------------------------------------


def _prepare_evaluate(args) -> dict:
    from .evaluation import load_gold, load_pairs

    if args.out is not None:
        _require_out(args.out)
    require_file(args.pairs, "pairs file")
    require_file(args.gold, "gold file")
    return {"predicted": load_pairs(args.pairs), "gold": load_gold(args.gold)}


def _run_evaluate(args, ctx) -> None:
    from .evaluation import score

    _write_report([score(ctx["predicted"], ctx["gold"])], args.format, args.out)
    if args.out is not None:
        print(f"wrote report to {args.out}")


_COMMANDS = {
    "segment": (_prepare_segment, _run_segment),
    "fetch-embeddings": (_prepare_fetch, _run_fetch),
    "import-embeddings": (_prepare_import, _run_import),
    "pool": (_prepare_pool, _run_pool),
    "align": (_prepare_align, _run_align),
    "sweep": (_prepare_sweep, _run_sweep),
    "evaluate": (_prepare_evaluate, _run_evaluate),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    # basicConfig leaves a root logger that already has handlers alone (a
    # host program's, pytest's), so the package logger follows --verbose too
    logging.getLogger("chunkalign").setLevel(logging.DEBUG if args.verbose else logging.NOTSET)
    prepare, run = _COMMANDS[args.command]
    try:
        ctx = prepare(args)
    except Exception as exc:
        print(f"chunkalign: invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        run(args, ctx)
    except Exception as exc:
        # str() of a KeyError is the repr of its message, quotes and all
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"chunkalign: error: {message}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
