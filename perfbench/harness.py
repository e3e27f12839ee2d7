"""Run one workload as a closed loop and turn what it measured into metrics.

Untraced runs give the end-to-end metrics. A traced run repeats the same
loop with spans around every layer call and gives the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import spans
import workloads

SETUP_REPEATS = 5
# An estimate-a op takes most of a run, so a run measures at least this
# many ops: one slow op then cannot set the median alone.
MIN_OPS = 3
LAYERS = ("simgen", "assoc", "ebayes", "community", "metrics", "fileio", "cli", "bench")

# Per-layer metric -> span name whose summed duration it reports.
SPAN_TIMES = {
    "simgen.generate_ground_truth_s": "simgen.generate_ground_truth",
    "simgen.generate_correlations_s": "simgen.generate_correlations",
    "assoc.fisher_z_s": "assoc.fisher_z",
    "ebayes.infer_adjacency_s": "ebayes.infer_adjacency",
    "ebayes.fit_rows_s": "ebayes.fit_rows",
    "community.select_k_s": "community.select_k",
    "community.detect_s": "community.detect",
    "community.eigsh_s": "community.eigsh",
    "community.baseline_s": "community.baseline",
    "fileio.read_s": "fileio.read",
    "fileio.write_s": "fileio.write",
    "cli.main_s": "cli.main",
}
# Per-layer metric -> counter the checks return for each op.
CHECK_COUNTS = {
    "ebayes.rows_w_at_floor": "rows_w_at_floor",
    "ebayes.rows_w_at_one": "rows_w_at_one",
    "ebayes.rows_a_at_bound": "rows_a_at_bound",
    "ebayes.rows_batch_dependent": "rows_batch_dependent",
    "ebayes.edges_kept": "edges_kept",
    "community.kmeans_restarts": "kmeans_restarts",
}


def _median(values) -> float | None:
    return float(statistics.median(values)) if values else None


def cold_import_s(root: Path) -> float:
    """Seconds to start an interpreter and import the package and its CLI."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import assocnet.cli"], env=env, cwd=root, check=True
    )
    return time.perf_counter() - start


def environment(root: Path, blas_threads: int) -> dict:
    """What the numbers depend on: machine, versions, BLAS, source revision."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        # The ceiling stops git from reporting an enclosing repository.
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
        ).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _scope(tracer, scope_id: str, name: str = "bench.op"):
    return tracer.scope(scope_id, name) if tracer else contextlib.nullcontext()


def run(name: str, seed: int, seconds: float, trace: bool, root: Path,
        out_dir: Path, spec: dict | None = None) -> dict:
    """Set up, then run and check ops until `seconds` of op time have passed.

    Returns the run record: per-op times and check results, set-up times,
    peak RSS, and in traced runs the spans.
    """
    workdir = out_dir / f"work-{name}-{os.getpid()}"
    workload = workloads.make(name, seed, workdir, spec)
    tracer = spans.Tracer() if trace else None
    record = {"workload": name, "seed": seed, "trace": trace, "setup_s": [],
              "op_s": [], "ops": [], "attempted": 0, "failed": 0}
    with tracer.install() if tracer else contextlib.nullcontext():
        for rep in range(SETUP_REPEATS):
            imported = cold_import_s(root)
            start = time.perf_counter()
            with _scope(tracer, f"setup{rep}", "bench.setup"):
                workload.setup()
            record["setup_s"].append(imported + time.perf_counter() - start)

        k = 0
        while k < MIN_OPS or sum(record["op_s"]) < seconds:
            record["attempted"] += 1
            try:
                with _scope(tracer, f"op{k}"):
                    start = time.perf_counter()
                    output = workload.op(k)
                    elapsed = time.perf_counter() - start
                result = workload.check(k, output)
            except Exception:
                # The program raised: count the op as failed and stop the loop.
                traceback.print_exc()
                record["failed"] += 1
                break
            record["op_s"].append(elapsed)
            record["ops"].append({"op": k, "s": elapsed, **dataclasses.asdict(result)})
            if result.problems:
                record["failed"] += 1
                print(f"op {k} failed its checks: {result.problems[:5]}", file=sys.stderr)
            k += 1
    shutil.rmtree(workdir, ignore_errors=True)
    record["pairs_per_op"] = workload.pairs_per_op
    record["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        record["spans"] = tracer.spans
        record["counters"] = {scope: dict(names) for scope, names in tracer.counts.items()}
        record["wrapper_calls"] = dict(tracer.calls)
        record["wrapper_cost_s"] = spans.wrapper_cost_s()
    return record


def quality(record: dict) -> dict:
    """TPR and FPR pooled over each op's inferences, NMI as the median over
    each op's partitions; each then the median over ops, None where the op
    makes no inference or no partition."""
    tprs, fprs, nmis = [], [], []
    for op in record["ops"]:
        if op["confusion"]:
            tp, fp, tn, fn = np.sum(op["confusion"], axis=0)
            tprs.append(tp / (tp + fn) if tp + fn else 0.0)
            fprs.append(fp / (fp + tn) if fp + tn else 0.0)
        if op["nmis"]:
            nmis.append(statistics.median(op["nmis"]))
    return {"tpr": _median(tprs), "fpr": _median(fprs), "nmi": _median(nmis)}


def batch_dependence(record: dict) -> dict:
    """The row-independence defect as measured: rows that differ, of rows checked."""
    counts = [op["counts"] for op in record["ops"]]
    return {
        "rows_batch_dependent": sum(c.get("rows_batch_dependent", 0) for c in counts),
        "rows_independence_checked": sum(c.get("rows_independence_checked", 0) for c in counts),
        "batch_dependence_max": max((c.get("batch_dependence_max", 0.0) for c in counts),
                                    default=0.0),
    }


def end_to_end(record: dict) -> dict:
    times = record["op_s"]
    return {
        "setup_s": _median(record["setup_s"]),
        "op_s": _median(times),
        "pairs_per_s": _median([record["pairs_per_op"] / t for t in times]),
        "peak_rss_mib": record["peak_rss_mib"],
    }


def _op_layer_metrics(op_spans: list[spans.Span], counts: dict) -> dict:
    """Per-layer values of one op from its span tree and counters."""
    selfs = spans.self_times(op_spans)
    layers = spans.layer_self_times(op_spans)
    out = {f"{layer}.self_s": layers.get(layer, 0.0) for layer in LAYERS}
    for metric, span_name in SPAN_TIMES.items():
        out[metric] = sum(s.end - s.start for s in op_spans if s.name == span_name)
    named = lambda n: [s for s in op_spans if s.name == n]  # noqa: E731
    out["simgen.pairs_drawn"] = sum(
        s.info.get("pairs", 0) for s in op_spans if s.layer == "simgen"
    )
    fits = named("ebayes.fit_rows")
    out["ebayes.fit_rows_calls"] = len(fits)
    out["ebayes.fit_wall_s"] = out["ebayes.fit_imbalance_s"] = out["ebayes.threshold_s"] = 0.0
    for infer in named("ebayes.infer_adjacency"):
        chunks = [s for s in fits if s.parent == infer.sid]
        if chunks:
            out["ebayes.fit_wall_s"] += max(s.end for s in chunks) - min(s.start for s in chunks)
            durations = [s.end - s.start for s in chunks]
            out["ebayes.fit_imbalance_s"] += max(durations) - min(durations)
        out["ebayes.threshold_s"] += selfs[infer.sid]
    out["ebayes.density_evals"] = counts.get("ebayes.density_evals", 0)
    out["community.eigsh_calls"] = len(named("community.eigsh"))
    out["fileio.bytes_read"] = sum(s.info.get("bytes", 0) for s in named("fileio.read"))
    out["fileio.bytes_written"] = sum(s.info.get("bytes", 0) for s in named("fileio.write"))
    out["cli.nonzero_exits"] = sum(1 for s in named("cli.main") if s.info.get("exit") != 0)
    out["trace.spans"] = len(op_spans)
    return out


def per_layer(record: dict) -> dict:
    """Medians over ops of each per-layer value, plus set-up and tracing figures."""
    by_scope: dict[str, list[spans.Span]] = {}
    for s in record["spans"]:
        by_scope.setdefault(s.op, []).append(s)

    per_op = []
    for op in record["ops"]:
        scope = f"op{op['op']}"
        values = _op_layer_metrics(by_scope[scope], record["counters"].get(scope, {}))
        for metric, key in CHECK_COUNTS.items():
            values[metric] = op["counts"].get(key, 0)
        per_op.append(values)
    metrics = {name: _median([v[name] for v in per_op]) for name in per_op[0]}

    setups = [spans.layer_self_times(by_scope[f"setup{rep}"]) for rep in range(SETUP_REPEATS)]
    for layer in ("simgen", "fileio"):
        metrics[f"setup.{layer}_s"] = _median([s.get(layer, 0.0) for s in setups])

    # A layer that does no work in a workload reads 0, like its timings.
    rates = {key: value or 0.0 for key, value in quality(record).items()}
    metrics["ebayes.tpr"], metrics["ebayes.fpr"] = rates["tpr"], rates["fpr"]
    metrics["community.nmi"] = rates["nmi"]
    metrics["checks.ops_failed_share"] = record["failed"] / record["attempted"]
    metrics["trace.op_s"] = _median(record["op_s"])
    metrics["trace.overhead_s"] = record["wrapper_cost_s"] * _median(
        [record["wrapper_calls"].get(f"op{op['op']}", 0) for op in record["ops"]]
    )
    return metrics


def result_line(record: dict, declared: list[dict], values: dict) -> dict:
    """The final JSON object: every declared metric, by name, with its unit."""
    metrics = {}
    for entry in declared:
        metrics[entry["name"]] = {"value": float(values[entry["name"]]), "unit": entry["unit"]}
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def write_record(record: dict, out_dir: Path) -> Path:
    path = out_dir / f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}.json"
    text = json.dumps(record, indent=1, sort_keys=True, default=spans.Span.to_dict)
    path.write_text(text + "\n", encoding="utf-8")
    return path
