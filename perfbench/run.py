"""Seeded end-to-end benchmark of the chunkalign command line.

    python3 perfbench/run.py --workload dac-search --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The benchmark generates the workload's
inputs from the seed (untimed, under .perfbench/), then launches the
real CLI from src/ as a separate process, one command at a time (a closed
loop with one client), until --seconds have passed.  Every run is checked;
a run whose exit code is non-zero or whose outputs fail a check counts as
failed.  With --trace 0 it prints the end-to-end metrics (medians over the
runs); with --trace 1 it also makes one traced run that times the calls into
each layer (see tracer.py) and prints the per-layer metrics.  The last line
of stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# One BLAS thread per process: --workers 2 search threads then use the two
# cores of the reference machine without oversubscribing them.  Set before
# numpy is imported here and inherited by every child.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import struct  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import urllib.request  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import stub  # noqa: E402
import tracer  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))["workloads"]
EXPECTED_PATH = HERE / "expected.json"

COMMAND_TIMEOUT_S = 60.0
DAC_THRESHOLD = 0.1  # the CLI's default; the dac workloads pass no --threshold
MIN_RUNS = 3
TRACE_MIN_UNTRACED = 2
STARTUP_SAMPLES = 5

# Metric names and units, and each workload's rationale, are declared once,
# in BENCHMARK.json at the root of the checkout.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
PER_LAYER_UNITS = {metric["name"]: metric["unit"] for metric in BENCHMARK["per_layer"]}
WHY = {workload["name"]: workload["why"] for workload in BENCHMARK["workloads"]}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Exit:
    """One finished child process, observed from outside."""

    code: int
    launched_at: float  # time.time() just before launch
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def launch(argv: list[str], log: Path) -> Exit:
    """Run argv to completion; rusage comes from this child alone (wait4)."""
    launched_at = time.time()
    started = time.perf_counter()
    with open(log, "wb") as handle:
        proc = subprocess.Popen(argv, stdout=handle, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
    timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(code=proc.returncode, launched_at=launched_at, wall_s=wall,
                cpu_s=usage.ru_utime + usage.ru_stime, peak_rss_mb=usage.ru_maxrss / 1024.0)


def cli_prefix(spans: Path | None, run_id: str) -> list[str]:
    if spans is None:
        return [sys.executable, "-m", "chunkalign.cli"]
    return [sys.executable, str(HERE / "tracer.py"), "--spans", str(spans), "--run-id", run_id,
            "--"]


class Stub:
    """The stub embedding service process, started before any timing."""

    def __init__(self, config: dict, dim: int, log: Path):
        self._log = open(log, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--dim", str(dim),
             "--per-request-ms", str(config["per_request_ms"]),
             "--per-text-ms", str(config["per_text_ms"])],
            stdout=subprocess.PIPE, stderr=self._log, env=child_env(), cwd=ROOT,
        )
        line = self.proc.stdout.readline().decode("ascii").split()
        if len(line) != 2 or line[0] != "port":
            self.close()
            raise RuntimeError("stub embedding service did not start")
        self.url = f"http://127.0.0.1:{line[1]}"

    def _call(self, path: str, payload: dict | None = None) -> dict:
        data = None if payload is None else json.dumps(payload).encode("utf-8")
        with urllib.request.urlopen(urllib.request.Request(self.url + path, data=data),
                                    timeout=60) as reply:
            return json.loads(reply.read())

    def warm(self, texts: list[str], batch: int = 256) -> None:
        """Fill the stub's reply cache so every timed run sees the same service."""
        for start in range(0, len(texts), batch):
            self._call("/embed", {"texts": texts[start:start + batch]})
        self.reset()

    def reset(self) -> None:
        self._call("/reset", {})

    def stats(self) -> dict:
        return self._call("/stats")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self._log.close()


# --- reading outputs independently of the program -------------------------


def read_demb(path: Path) -> tuple[list[str], np.ndarray]:
    blob = path.read_bytes()
    magic, version, dim, count = struct.unpack_from("<4sHIQ", blob, 0)
    if magic != b"DEMB" or version != 1:
        raise ValueError(f"{path.name}: not a version 1 .demb file")
    offset, ids = struct.calcsize("<4sHIQ"), []
    for _ in range(count):
        (length,) = struct.unpack_from("<I", blob, offset)
        ids.append(blob[offset + 4:offset + 4 + length].decode("utf-8"))
        offset += 4 + length
    data = np.frombuffer(blob, dtype="<f4", count=count * dim, offset=offset)
    return ids, data.reshape(count, dim)


def read_tsv(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split("\t") for line in lines if line and not line.startswith("#")]


def read_corpus(manifest: Path) -> list[tuple[str, list[str]]]:
    docs = []
    for line in manifest.read_text(encoding="utf-8").splitlines():
        entry = json.loads(line)
        text = (manifest.parent / entry["path"]).read_text(encoding="utf-8")
        docs.append((entry["doc_id"], [s.strip() for s in text.splitlines() if s.strip()]))
    return docs


def f1_text(predicted: list[tuple[str, str]], gold: set[tuple[str, str]]) -> str:
    tp = len(set(predicted) & gold)
    precision = tp / len(predicted) if predicted else 0.0
    recall = tp / len(gold) if gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return f"{f1:.6f}"


# --- workloads --------------------------------------------------------------


@dataclass
class Rep:
    """One run of a workload's command(s): measurements and check results."""

    wall_s: float = 0.0
    setup_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    gold_f1: str | None = None
    stub_stats: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


class Workload:
    """Inputs, commands and output checks of one named workload and seed."""

    def __init__(self, name: str, seed: int, stub_service: Stub | None, inputs: Path):
        self.name = name
        self.spec = WORKLOADS[name]
        self.kind = self.spec["kind"]
        self.seed = seed
        self.stub = stub_service
        self.inputs = inputs
        corpus = self.spec["corpus"]
        # Units at the mined granularity, both sides; for ingest, texts embedded.
        if self.kind == "ingest":
            self.units = corpus["n_docs"] * corpus["sentences_per_doc"]
        else:
            self.units = 2 * (corpus["n_pairs"] + corpus["n_noise"])
            if self.spec["mined_units"] == "chunks":
                self.units *= corpus["sentences_per_doc"]
        if self.kind == "ingest":
            self._units_expected = [
                (f"{doc_id}#{i}", sentence)
                for doc_id, sentences in read_corpus(inputs / "src" / "manifest.jsonl")
                for i, sentence in enumerate(sentences)
            ]
            rows = np.array([json.loads(stub.encode_vector(text, corpus["dim"]))
                             for _, text in self._units_expected])
            self._rows_expected = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        else:
            self._gold = {tuple(row[:2]) for row in read_tsv(inputs / "gold.tsv")}

    def texts(self) -> list[str]:
        return [text for _, text in self._units_expected]

    def run(self, out: Path, spans: Path | None = None, run_id: str = "") -> Rep:
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        rep = Rep()
        try:
            if self.kind == "ingest":
                self._run_ingest(out, spans, run_id, rep)
            else:
                self._run_align(out, spans, run_id, rep)
        except Exception as exc:  # a malformed output fails this run, not the benchmark
            rep.problems.append(f"output check raised {type(exc).__name__}: {exc}")
        return rep

    def _run_align(self, out: Path, spans: Path | None, run_id: str, rep: Rep) -> None:
        d = self.inputs
        argv = cli_prefix(spans, run_id) + [
            self.kind,
            "--src-manifest", str(d / "src" / "manifest.jsonl"),
            "--tgt-manifest", str(d / "tgt" / "manifest.jsonl"),
            "--src-embeddings", str(d / "src.demb"),
            "--tgt-embeddings", str(d / "tgt.demb"),
            "--gold", str(d / "gold.tsv"),
            "--out-dir", str(out / "run"),
        ] + self.spec["flags"]
        done = launch(argv, out / "log.txt")
        rep.wall_s, rep.cpu_s, rep.peak_rss_mb = done.wall_s, done.cpu_s, done.peak_rss_mb
        if done.code != 0:
            rep.problems.append(f"exit code {done.code} (see {out / 'log.txt'})")
            return
        run_dir = out / "run"
        config = run_dir / "config.json"
        if config.is_file():
            rep.setup_s = config.stat().st_mtime - done.launched_at
        else:
            rep.problems.append("no config.json written")
        outputs = ["reports.tsv"] if self.kind == "sweep" else ["pairs.tsv", "report.tsv"]
        for name in outputs:
            if not (run_dir / name).is_file():
                rep.problems.append(f"missing output {name}")
                return
            rep.digests[name] = sha256_file(run_dir / name)
        if self.kind == "sweep":
            self._check_sweep(run_dir / "reports.tsv", rep)
        else:
            self._check_pairs(run_dir, rep)

    def _check_pairs(self, run_dir: Path, rep: Rep) -> None:
        rows = read_tsv(run_dir / "pairs.tsv")
        predicted = [(row[0], row[1]) for row in rows]
        if len({p[0] for p in predicted}) != len(predicted) or \
                len({p[1] for p in predicted}) != len(predicted):
            rep.problems.append("pairs.tsv is not one-to-one")
        if self.spec["mined_units"] == "chunks":
            per_doc = self.spec["corpus"]["sentences_per_doc"]
            for row in rows:
                n_src, n_tgt, n_aligned, dac = int(row[2]), int(row[3]), int(row[4]), float(row[5])
                if (n_src, n_tgt) != (per_doc, per_doc) or \
                        f"{2 * n_aligned / (n_src + n_tgt):.6f}" != row[5] or dac < DAC_THRESHOLD:
                    rep.problems.append(f"pairs.tsv row {row} is inconsistent")
                    break
        rep.gold_f1 = f1_text(predicted, self._gold)
        report = read_tsv(run_dir / "report.tsv")
        if len(report) != 1 or report[0][6] != rep.gold_f1:
            rep.problems.append(f"report.tsv F1 differs from the recomputed {rep.gold_f1}")

    def _check_sweep(self, path: Path, rep: Rep) -> None:
        rows = read_tsv(path)
        thresholds = [f"{float(t):.6f}" for t in self.spec["flags"][
            self.spec["flags"].index("--thresholds") + 1].split(",")]
        if [row[0] for row in rows] != thresholds:
            rep.problems.append("reports.tsv thresholds differ from the sweep's")
            return
        gold = len(self._gold)
        previous = None
        for row in rows:
            tp, predicted, gold_count = int(row[1]), int(row[2]), int(row[3])
            recall = tp / gold
            if gold_count != gold or tp > predicted or f"{recall:.6f}" != row[5]:
                rep.problems.append(f"reports.tsv row {row} is inconsistent")
                return
            if previous is not None and (predicted > previous[0] or tp > previous[1]):
                rep.problems.append("reports.tsv counts grow with the threshold")
                return
            previous = (predicted, tp)
        rep.gold_f1 = max(rows, key=lambda row: float(row[6]))[6]

    def _run_ingest(self, out: Path, spans: Path | None, run_id: str, rep: Rep) -> None:
        units, matrix = out / "units.tsv", out / "units.demb"
        self.stub.reset()
        segment = launch(cli_prefix(spans and spans.with_suffix(".segment.json"), run_id) + [
            "segment", "--manifest", str(self.inputs / "src" / "manifest.jsonl"),
            "-g", "1", "--out", str(units)], out / "segment.log")
        fetch = None
        if segment.code == 0:
            fetch = launch(cli_prefix(spans and spans.with_suffix(".fetch.json"), run_id) + [
                "fetch-embeddings", "--units", str(units), "--endpoint", self.stub.url + "/embed",
                "--out", str(matrix)] + self.spec["flags"], out / "fetch.log")
        runs = [segment] + ([fetch] if fetch else [])
        rep.wall_s = runs[-1].launched_at + runs[-1].wall_s - segment.launched_at
        rep.cpu_s = sum(r.cpu_s for r in runs)
        rep.peak_rss_mb = max(r.peak_rss_mb for r in runs)
        rep.stub_stats = self.stub.stats()
        for label, r in zip(["segment", "fetch-embeddings"], runs):
            if r.code != 0:
                rep.problems.append(f"{label} exit code {r.code} (see {out})")
        if rep.problems:
            return
        rep.setup_s = rep.stub_stats["first_request_at"] - segment.launched_at
        rep.digests = {"units.tsv": sha256_file(units), "units.demb": sha256_file(matrix)}
        got_units = [tuple(row) for row in (line.split("\t", 1) for line in
                     units.read_text(encoding="utf-8").splitlines() if not line.startswith("#"))]
        if got_units != self._units_expected:
            rep.problems.append("units.tsv differs from the corpus sentences")
        ids, data = read_demb(matrix)
        if ids != [unit_id for unit_id, _ in self._units_expected]:
            rep.problems.append("units.demb ids differ from the units")
        elif np.abs(data - self._rows_expected).max() > 1e-6:
            rep.problems.append("units.demb rows differ from the stub's normalized vectors")


# --- one benchmark invocation ----------------------------------------------


def load_expected() -> dict:
    if EXPECTED_PATH.is_file():
        return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    return {}


def check_set(reps: list[Rep], recorded: dict | None) -> None:
    """Outputs must match the record for this seed, else the set's first run."""
    reference = recorded["outputs"] if recorded else next(
        (rep.digests for rep in reps if rep.digests), None)
    for rep in reps:
        if rep.digests and rep.digests != reference:
            rep.problems.append("output digests differ from "
                                + ("the recorded ones" if recorded else "the first run's"))
        if recorded and rep.gold_f1 is not None and rep.gold_f1 != recorded.get("gold_f1"):
            rep.problems.append(f"gold_f1 {rep.gold_f1} != recorded {recorded.get('gold_f1')}")


def measure_startup(samples: int, log: Path) -> list[float]:
    argv = [sys.executable, "-c", "import chunkalign.cli"]
    times = []
    for _ in range(samples):
        done = launch(argv, log)
        if done.code != 0:
            raise RuntimeError(f"import chunkalign.cli failed (see {log})")
        times.append(done.wall_s)
    return times


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def describe_environment() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = " ".join(f"{k}={v}" for k, v in THREAD_ENV.items())
    return (f"environment: nproc {os.cpu_count()}, Python {platform.python_version()}, "
            f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}, {threads}")


def run_reps(workload: Workload, work: Path, budget_s: float, min_runs: int) -> list[Rep]:
    reps: list[Rep] = []
    started = time.perf_counter()
    while True:
        rep = workload.run(work / f"rep{len(reps)}")
        reps.append(rep)
        elapsed = time.perf_counter() - started
        typical = statistics.median(r.wall_s for r in reps)
        if len(reps) >= min_runs and elapsed + typical > budget_s:
            return reps


def traced_rep(workload: Workload, work: Path) -> tuple[Rep, tracer.LayerView, list[str]]:
    out = work / "traced"
    spans_path = work / "spans.json"
    rep = workload.run(out, spans=spans_path, run_id=f"{workload.name}-{workload.seed}-traced")
    files = sorted(work.glob("spans*.json"))
    spans, notes = [], []
    for path in files:
        doc = json.loads(path.read_text(encoding="utf-8"))
        offset = len(spans)
        for span in doc["spans"]:
            if span["parent"] is not None:
                span["parent"] += offset
            if "count_error" in span:
                notes.append(f"{span['name']}: {span['count_error']}")
            spans.append(span)
        notes.extend(f"span target not found: {name}" for name in doc["missing"])
    if not files:
        rep.problems.append("the traced run wrote no spans")
    return rep, tracer.LayerView(spans), sorted(set(notes))


def print_result(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "chunkalign" / "cli.py").is_file():
        print(f"perfbench: no chunkalign sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    inputs = work / "inputs"
    input_hash = gen.generate(inputs, spec, args.seed)
    recorded = load_expected().get(args.workload, {}).get(str(args.seed))
    print(describe_environment())
    print(f"workload {args.workload} (seed {args.seed}): {WHY[args.workload]}")
    print(f"inputs sha256 {input_hash}"
          + ("" if recorded else " (seed not in expected.json: outputs checked within the set)"))
    input_problem = None
    if recorded and recorded["inputs"] != input_hash:
        input_problem = f"inputs sha256 differs from the recorded {recorded['inputs']}"

    service = None
    try:
        if spec["kind"] == "ingest":
            service = Stub(spec["stub"], spec["corpus"]["dim"], work / "stub.log")
        workload = Workload(args.workload, args.seed, service, inputs)
        if service is not None:
            service.warm(workload.texts())
        startup = measure_startup(STARTUP_SAMPLES if args.trace else 1, work / "startup.log")
        # The first run after generation is checked but not timed: it pays for
        # cold caches that no later run sees.
        warmup = workload.run(work / "warmup")
        budget = args.seconds / 2 if args.trace else args.seconds
        reps = run_reps(workload, work, budget, TRACE_MIN_UNTRACED if args.trace else MIN_RUNS)
        if args.trace:
            traced, view, notes = traced_rep(workload, work)
            reps_checked = [warmup] + reps + [traced]
        else:
            reps_checked = [warmup] + reps
        check_set(reps_checked, recorded)
    finally:
        if service is not None:
            service.close()
    if input_problem:
        reps_checked[0].problems.append(input_problem)

    failed = [rep for rep in reps_checked if not rep.ok]
    for index, rep in enumerate(reps_checked):
        traced_note = " (warm-up, untimed)" if index == 0 else \
            " (traced)" if args.trace and index == len(reps_checked) - 1 else ""
        print(f"run {index}{traced_note}: wall {rep.wall_s:.4f} s, setup {rep.setup_s:.4f} s, "
              f"cpu {rep.cpu_s:.4f} s, peak rss {rep.peak_rss_mb:.1f} MB")
        for problem in rep.problems:
            print(f"run {index} FAILED: {problem}")
    good = [rep for rep in reps if rep.ok] or reps
    f1s = sorted({rep.gold_f1 for rep in reps_checked if rep.gold_f1 is not None})
    if f1s:
        print(f"gold_f1: {', '.join(f1s)}"
              + (f" (recorded {recorded['gold_f1']})" if recorded else ""))
    print(f"error_rate: {len(failed)}/{len(reps_checked)} runs failed")

    samples = {
        "wall_s": [rep.wall_s for rep in good],
        "units_per_s": [workload.units / rep.wall_s for rep in good],
        "setup_s": [rep.setup_s for rep in good],
        "cpu_s": [rep.cpu_s for rep in good],
        "peak_rss_mb": [rep.peak_rss_mb for rep in good],
    }
    end_to_end = {name: statistics.median(samples[name]) for name in END_TO_END_UNITS}
    for name in END_TO_END_UNITS:
        low, high = quartiles(samples[name])
        print(f"{name}: {end_to_end[name]:.6g} {END_TO_END_UNITS[name]} "
              f"(median of {len(samples[name])}; quartiles {low:.6g} .. {high:.6g})")
    if not args.trace:
        print_result(not failed, len(reps_checked), len(failed), end_to_end, END_TO_END_UNITS)
        shutil.rmtree(work, ignore_errors=True)
        return 0

    layers = tracer.layer_metrics(view, traced.stub_stats)
    layers["cli.startup_s"] = statistics.median(startup)
    layers["trace.overhead_s"] = traced.wall_s - end_to_end["wall_s"]
    metrics = {name: layers[name] for name in PER_LAYER_UNITS}
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {PER_LAYER_UNITS[name]}")
    print(f"trace.overhead_s: traced run {traced.wall_s:.4f} s against untraced median "
          f"{end_to_end['wall_s']:.4f} s")
    shares = view.layer_shares(traced.wall_s)
    print("self-time split of the traced run: " + ", ".join(
        f"{layer} {share:.1%}" for layer, share in sorted(shares.items(), key=lambda x: -x[1])))
    for note in notes:
        print(f"note: {note}")
    print_result(not failed, len(reps_checked), len(failed), metrics, PER_LAYER_UNITS)
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
