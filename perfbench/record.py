"""Record the expected inputs hash, output digests and gold F1 per seed.

    python3 perfbench/record.py --seeds 0-63

Runs every workload once per seed with the checkout's chunkalign and writes
perfbench/expected.json, which run.py then holds every later run to.  Only
re-record when a change is meant to alter the inputs or the outputs; the
pipeline's outputs are otherwise required to stay byte-identical.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range such as 0-63")
    args = parser.parse_args()
    expected = run.load_expected()
    work = run.WORK / "record"
    for name in sorted(run.WORKLOADS):
        spec = run.WORKLOADS[name]
        service = None
        try:
            work.mkdir(parents=True, exist_ok=True)
            if spec["kind"] == "ingest":
                service = run.Stub(spec["stub"], spec["corpus"]["dim"], work / "stub.log")
            for seed in parse_seeds(args.seeds):
                inputs = work / "inputs"
                shutil.rmtree(inputs, ignore_errors=True)
                input_hash = run.gen.generate(inputs, spec, seed)
                workload = run.Workload(name, seed, service, inputs)
                if service is not None:
                    service.warm(workload.texts())
                rep = workload.run(work / "rep")
                if not rep.ok:
                    print(f"{name} seed {seed}: {'; '.join(rep.problems)}", file=sys.stderr)
                    return 1
                entry = {"inputs": input_hash, "outputs": rep.digests}
                if rep.gold_f1 is not None:
                    entry["gold_f1"] = rep.gold_f1
                expected.setdefault(name, {})[str(seed)] = entry
                print(f"{name} seed {seed}: gold_f1 {rep.gold_f1}", flush=True)
        finally:
            if service is not None:
                service.close()
    shutil.rmtree(work, ignore_errors=True)
    lines = []
    for name in sorted(expected):
        seeds = sorted(expected[name].items(), key=lambda item: int(item[0]))
        body = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(entry, sort_keys=True)}"
                          for seed, entry in seeds)
        lines.append(f" {json.dumps(name)}: {{\n{body}\n }}")
    run.EXPECTED_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
