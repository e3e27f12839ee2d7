"""Command-line pipeline driver.

Subcommands: infer (scores -> adjacency), communities (adjacency ->
partition), simulate (one synthetic dataset), study (grid of simulated
runs with metrics), evaluate (compare two partitions or adjacencies).
Every output directory receives exactly one manifest.json with input
hashes, configuration, and timings; all other outputs are byte-stable
for a fixed seed. Exit codes: 0 success, 2 usage error, 3 data error,
4 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .assoc import (
    SymmetricMatrix,
    correlation_from_covariance,
    fisher_z,
    pvalues_to_z,
)
from .community import SpectralConfig, detect_communities_report, select_num_communities
from .ebayes import infer_adjacency
from .errors import AssocnetError, ConvergenceError, InvalidInputError, ParameterError
from .fileio import (
    canonical_json,
    read_edges_tsv,
    read_matrix_auto,
    read_partition_tsv,
    sniff_kind,
    write_edges_tsv,
    write_manifest,
    write_matrix_bin,
    write_matrix_csv,
    write_mixture_fit_json,
    write_partition_tsv,
    write_records_jsonl,
    write_summary_csv,
)
from .graphs import SparseAdjacency
from .metrics import edge_confusion, edge_density, nmi
from .simgen import (
    SimConfig,
    expand_grid,
    generate_correlations,
    generate_ground_truth,
    run_study,
)


class UsageError(AssocnetError):
    """Flag or argument combinations the parser cannot express."""


def _out_dir(args) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_tau(text: str):
    if text == "auto":
        return "auto"
    try:
        value = float(text)
    except ValueError:
        raise UsageError('--tau must be "auto" or a finite nonnegative number')
    return value


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path}: malformed JSON ({exc})") from exc


def cmd_infer(args) -> int:
    start = time.perf_counter()
    if args.kind == "pvalue":
        if args.nu is not None:
            raise UsageError("--nu does not apply to p-value input")
    else:
        if args.nu is None:
            raise UsageError(f"--nu is required for {args.kind} input")
    values, _ = read_matrix_auto(args.input)
    matrix = SymmetricMatrix(values, args.kind)
    if args.kind == "covariance":
        matrix = correlation_from_covariance(matrix)
    if args.kind == "pvalue":
        assoc = pvalues_to_z(matrix)
    else:
        assoc = fisher_z(matrix, args.nu)
    adjacency, fit = infer_adjacency(
        assoc, estimate_a=args.estimate_a, threads=args.threads
    )
    out = _out_dir(args)
    write_edges_tsv(out / "edges.tsv", adjacency)
    params = {
        "input": os.fspath(args.input),
        "kind": args.kind,
        "nu": args.nu,
        "estimate_a": bool(args.estimate_a),
        "m": adjacency.m,
        "edge_count": adjacency.edge_count,
    }
    write_mixture_fit_json(out / "mixture_fit.json", fit, params)
    write_manifest(
        out,
        "infer",
        __version__,
        {"input": args.input},
        params,
        None,
        {"total_s": time.perf_counter() - start},
    )
    return 0


def cmd_communities(args) -> int:
    start = time.perf_counter()
    adjacency = read_edges_tsv(args.input)
    k = select_num_communities(adjacency, None if args.auto_k else args.K)
    config = SpectralConfig(
        K=k,
        tau=_parse_tau(args.tau),
        restarts=args.restarts,
        seed=args.seed,
        row_normalize=not args.no_row_normalize,
    )
    partition, report = detect_communities_report(adjacency, config)
    out = _out_dir(args)
    write_partition_tsv(out / "partition.tsv", partition)
    report["auto_k"] = bool(args.auto_k)
    with open(out / "report.json", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canonical_json(report) + "\n")
    write_manifest(
        out,
        "communities",
        __version__,
        {"input": args.input},
        {"K": k, "tau": args.tau, "restarts": args.restarts, "auto_k": args.auto_k},
        args.seed,
        {"total_s": time.perf_counter() - start},
    )
    return 0


def cmd_simulate(args) -> int:
    start = time.perf_counter()
    mapping = _load_json(args.config)
    if args.seed is not None:
        mapping["seed"] = args.seed
    config = SimConfig.from_dict(mapping)
    truth = generate_ground_truth(config)
    corr = generate_correlations(
        truth.adjacency, config.r_gen, config.nu, config.seed
    )
    out = _out_dir(args)
    write_edges_tsv(out / "truth_edges.tsv", truth.adjacency)
    write_partition_tsv(out / "planted_partition.tsv", truth.partition)
    if args.format == "bin":
        write_matrix_bin(out / "correlations.bin", corr.values)
    else:
        write_matrix_csv(out / "correlations.csv", corr.values)
    write_manifest(
        out,
        "simulate",
        __version__,
        {"config": args.config},
        config.to_dict(),
        config.seed,
        {"total_s": time.perf_counter() - start},
    )
    return 0


def cmd_study(args) -> int:
    start = time.perf_counter()
    grid = _load_json(args.grid)
    configs = expand_grid(grid)
    records, summary = run_study(
        configs,
        repetitions=args.repetitions,
        seed=args.seed,
        estimate_a=args.estimate_a,
        baseline=args.baseline == "spectral-direct",
    )
    out = _out_dir(args)
    write_records_jsonl(out / "records.jsonl", records)
    write_summary_csv(out / "summary.csv", summary)
    write_manifest(
        out,
        "study",
        __version__,
        {"grid": args.grid},
        {
            "grid": grid,
            "repetitions": args.repetitions,
            "baseline": args.baseline,
            "estimate_a": bool(args.estimate_a),
            "points": len(configs),
        },
        args.seed,
        {"total_s": time.perf_counter() - start},
    )
    return 0


def cmd_evaluate(args) -> int:
    start = time.perf_counter()
    kind_a = sniff_kind(args.truth)
    kind_b = sniff_kind(args.candidate)
    if kind_a != kind_b:
        raise UsageError("cannot compare a partition with an adjacency")
    rows = []
    if kind_a == "partition":
        truth = read_partition_tsv(args.truth)
        candidate = read_partition_tsv(args.candidate)
        rows.append({"metric": "nmi", "value": nmi(truth, candidate)})
    else:
        truth = read_edges_tsv(args.truth)
        candidate = read_edges_tsv(args.candidate)
        confusion = edge_confusion(candidate, truth)
        rows.extend(
            [
                {"metric": "tpr", "value": confusion.tpr},
                {"metric": "fpr", "value": confusion.fpr},
                {"metric": "tp", "value": confusion.tp},
                {"metric": "fp", "value": confusion.fp},
                {"metric": "tn", "value": confusion.tn},
                {"metric": "fn", "value": confusion.fn},
                {"metric": "truth_density", "value": edge_density(truth).overall},
                {
                    "metric": "candidate_density",
                    "value": edge_density(candidate).overall,
                },
            ]
        )
    out = _out_dir(args)
    write_summary_csv(out / "metrics.csv", rows)
    for row in rows:
        print(f"{row['metric']}={row['value']}")
    write_manifest(
        out,
        "evaluate",
        __version__,
        {"truth": args.truth, "candidate": args.candidate},
        {"kind": kind_a},
        None,
        {"total_s": time.perf_counter() - start},
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="assocnet",
        description=(
            "Infer sparse networks from pairwise association scores and "
            "detect their communities."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_infer = sub.add_parser("infer", help="score matrix -> adjacency")
    p_infer.add_argument("input", help="matrix file (CSV or binary)")
    p_infer.add_argument(
        "--kind",
        required=True,
        choices=["covariance", "correlation", "pvalue"],
        help="what the input entries are",
    )
    p_infer.add_argument("--nu", type=float, help="degrees of freedom (> 3)")
    p_infer.add_argument("--estimate-a", action="store_true", dest="estimate_a")
    p_infer.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    p_infer.add_argument("--output-dir", default=".")
    p_infer.set_defaults(func=cmd_infer)

    p_comm = sub.add_parser("communities", help="adjacency -> partition")
    p_comm.add_argument("input", help="edge-list TSV")
    group = p_comm.add_mutually_exclusive_group(required=True)
    group.add_argument("-K", type=int, help="number of communities")
    group.add_argument("--auto-k", action="store_true", dest="auto_k")
    p_comm.add_argument("--tau", default="auto")
    p_comm.add_argument("--restarts", type=int, default=10)
    p_comm.add_argument("--seed", type=int, default=0)
    p_comm.add_argument(
        "--no-row-normalize", action="store_true", dest="no_row_normalize"
    )
    p_comm.add_argument("--output-dir", default=".")
    p_comm.set_defaults(func=cmd_communities)

    p_sim = sub.add_parser("simulate", help="generate one synthetic dataset")
    p_sim.add_argument("--config", required=True, help="SimConfig JSON file")
    p_sim.add_argument("--seed", type=int, help="override the config seed")
    p_sim.add_argument("--format", choices=["csv", "bin"], default="csv")
    p_sim.add_argument("--output-dir", default=".")
    p_sim.set_defaults(func=cmd_simulate)

    p_study = sub.add_parser("study", help="simulation grid with metrics")
    p_study.add_argument("--grid", required=True, help="grid JSON file")
    p_study.add_argument("--repetitions", type=int, required=True)
    p_study.add_argument("--seed", type=int, default=0)
    p_study.add_argument("--baseline", choices=["spectral-direct"])
    p_study.add_argument("--estimate-a", action="store_true", dest="estimate_a")
    p_study.add_argument("--output-dir", default=".")
    p_study.set_defaults(func=cmd_study)

    p_eval = sub.add_parser("evaluate", help="compare partitions or adjacencies")
    p_eval.add_argument("truth")
    p_eval.add_argument("candidate")
    p_eval.add_argument("--output-dir", default=".")
    p_eval.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
