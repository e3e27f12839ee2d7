"""Benchmark of the assocnet pipeline.

Run one workload from the root of a source checkout:

    python3 perfbench/run.py --workload study-m2000 --seed 1 --seconds 20 --trace 0

The last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1 the loop runs with
spans around every layer call and the metrics are the per-layer ones.
The line before it holds the run's environment (nproc, versions, BLAS,
commit, seed, op count). The full run record, spans included, goes to
.bench_out/ in the checkout.

`--workload all` runs every workload, untraced and traced, each in a
process of its own, and prints every metric with its unit and the
tracing overhead (traced minus untraced op time).

The package is imported from src/ of the checkout and from nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
# Closed loop on a 2-core box: at most two busy threads, which are the
# row-fit threads of estimate-a, so BLAS gets one.
BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("study-m2000", "estimate-a", "communities-m5000")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Put the checkout's src/ first on the path and import assocnet from it."""
    src = ROOT / "src"
    if not (src / "assocnet" / "__init__.py").is_file():
        sys.exit(f"error: no assocnet package under {src}")
    sys.path.insert(0, str(src))
    import assocnet

    if Path(assocnet.__file__).resolve().parent != src / "assocnet":
        sys.exit(f"error: assocnet was imported from {assocnet.__file__}, not {src}")


def run_one(args) -> int:
    for name in BLAS_VARIABLES:
        os.environ[name] = str(BLAS_THREADS)
    import_package()
    import harness

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    record = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, OUT_DIR)
    if not record["ops"]:
        sys.exit("error: no op completed")
    record["environment"] = harness.environment(ROOT, BLAS_THREADS)
    record["quality"] = harness.quality(record)
    if args.trace:
        result = harness.result_line(record, declared["per_layer"], harness.per_layer(record))
    else:
        result = harness.result_line(record, declared["end_to_end"], harness.end_to_end(record))
    record["result"] = result
    harness.write_record(record, OUT_DIR)
    print(json.dumps({**record["environment"], "workload": args.workload, "seed": args.seed,
                      "ops": len(record["ops"]), **record["quality"],
                      **harness.batch_dependence(record)}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload, untraced then traced, in its own process."""
    results = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                print(f"{name} trace={trace} exited {done.returncode}", file=sys.stderr)
                return done.returncode
            lines = done.stdout.strip().splitlines()
            results[(name, trace)] = (json.loads(lines[-2]), json.loads(lines[-1]))
    for name in WORKLOAD_NAMES:
        info, plain = results[(name, 0)]
        _, traced = results[(name, 1)]
        rates = "  ".join(f"{key}={info[key]}" for key in ("tpr", "fpr", "nmi"))
        print(f"== {name}  seed={info['seed']}  ops={info['ops']}  "
              f"attempted={plain['attempted']}  failed={plain['failed']}  {rates}")
        for label, result in (("end-to-end", plain), ("per-layer", traced)):
            for metric, entry in result["metrics"].items():
                print(f"  {label:10s} {metric:32s} {entry['value']:.6g} {entry['unit']}")
        overhead = traced["metrics"]["trace.op_s"]["value"] - plain["metrics"]["op_s"]["value"]
        print(f"  tracing overhead (traced - untraced op_s): {overhead:.6g} s")
    print(json.dumps({f"{n}/trace{t}": r for (n, t), (_, r) in results.items()}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
