"""indoorseg benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload {frame,cli,eval} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the package is imported from
`src/`, not installed). The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. The lines before it are the human-readable report; the full
record (provenance, every named metric, spans) goes to
``perfbench/results/<workload>-seed<N>-trace<T>.json``.
"""

import argparse
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def result_line(record: dict, spec: dict, trace: bool) -> dict:
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    values = record["per_layer"] if trace else record["end_to_end"]
    metrics = {}
    for entry in entries:
        value = values[entry["name"]]
        metrics[entry["name"]] = {"value": value if math.isfinite(value) else None,
                                  "unit": entry["unit"]}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "indoorseg" / "__init__.py").is_file():
        print(f"error: no indoorseg sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    record = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = harness.save(record, args.seed, bool(args.trace))
    for line in harness.report_lines(record):
        print(line)
    print(f"  record -> {path.relative_to(ROOT)}")
    print(json.dumps(result_line(record, spec, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
