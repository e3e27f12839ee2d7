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
import dataclasses
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
from .errors import ConvergenceError, InvalidInputError, ParameterError
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
from .metrics import edge_confusion, edge_density, nmi
from .simgen import (
    SimConfig,
    expand_grid,
    generate_correlations,
    generate_ground_truth,
    run_study,
)


def _out_dir(args) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


class _StageClock:
    """Wall time of consecutive stages of one command, for manifest.json."""

    def __init__(self) -> None:
        self.start = self.mark = time.perf_counter()
        self.stages: dict[str, float] = {}

    def lap(self, stage: str) -> None:
        """Close the stage that ran since the last lap (or the start)."""
        now = time.perf_counter()
        self.stages[f"{stage}_s"] = now - self.mark
        self.mark = now

    def timings(self) -> dict[str, float]:
        return {**self.stages, "total_s": time.perf_counter() - self.start}


def _parse_tau(text: str):
    if text == "auto":
        return "auto"
    try:
        value = float(text)
    except ValueError:
        raise ParameterError('--tau must be "auto" or a finite nonnegative number')
    return value


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # skips a byte-order mark
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path}: malformed JSON ({exc})") from exc


def cmd_infer(args, clock: _StageClock):
    # Every setting is checked before the input is read.
    if args.threads < 1:
        raise ParameterError("--threads must be at least 1")
    if args.kind == "pvalue":
        if args.nu is not None:
            raise ParameterError("--nu does not apply to p-value input")
    elif args.nu is None:
        raise ParameterError(f"--nu is required for {args.kind} input")
    elif not np.isfinite(args.nu) or args.nu <= 3:
        raise ParameterError("--nu must be a finite number greater than 3")
    values = read_matrix_auto(args.input)
    matrix = SymmetricMatrix(values, args.kind)
    clock.lap("read")
    if args.kind == "covariance":
        matrix = correlation_from_covariance(matrix)
    if args.kind == "pvalue":
        assoc = pvalues_to_z(matrix)
    else:
        assoc = fisher_z(matrix, args.nu)
    del values, matrix  # the fit holds only the score matrix
    clock.lap("standardize")
    adjacency, fit = infer_adjacency(
        assoc, estimate_a=args.estimate_a, threads=args.threads
    )
    clock.lap("infer")
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
    clock.lap("write")
    return {"input": args.input}, params, None


def cmd_communities(args, clock: _StageClock):
    # Built before the input is read, with K = 1 standing in for --auto-k,
    # so that every setting is checked before the read or any eigensolve.
    # K <= m needs the input, so select_num_communities checks it.
    config = SpectralConfig(
        K=1 if args.auto_k else args.K,
        tau=_parse_tau(args.tau),
        restarts=args.restarts,
        seed=args.seed,
        row_normalize=not args.no_row_normalize,
    )
    adjacency = read_edges_tsv(args.input)
    clock.lap("read")
    k = select_num_communities(adjacency, None if args.auto_k else args.K, config.tau)
    clock.lap("select_k")
    config = dataclasses.replace(config, K=k)
    partition, report = detect_communities_report(adjacency, config)
    clock.lap("detect")
    out = _out_dir(args)
    write_partition_tsv(out / "partition.tsv", partition)
    report["auto_k"] = bool(args.auto_k)
    with open(out / "report.json", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canonical_json(report) + "\n")
    clock.lap("write")
    params = {"K": k, "tau": args.tau, "restarts": args.restarts, "auto_k": args.auto_k}
    return {"input": args.input}, params, args.seed


def cmd_simulate(args, clock: _StageClock):
    if args.seed is not None and args.seed < 0:
        raise ParameterError("--seed must be nonnegative")
    config = SimConfig.from_dict(_load_json(args.config))
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    truth = generate_ground_truth(config)
    corr = generate_correlations(
        truth.adjacency, config.r_gen, config.nu, config.seed
    )
    clock.lap("generate")
    out = _out_dir(args)
    write_edges_tsv(out / "truth_edges.tsv", truth.adjacency)
    write_partition_tsv(out / "planted_partition.tsv", truth.partition)
    if args.format == "bin":
        write_matrix_bin(out / "correlations.bin", corr.values)
    else:
        write_matrix_csv(out / "correlations.csv", corr.values)
    clock.lap("write")
    return {"config": args.config}, config.to_dict(), config.seed


def cmd_study(args, clock: _StageClock):
    if args.repetitions < 1:
        raise ParameterError("--repetitions must be at least 1")
    if args.seed < 0:
        raise ParameterError("--seed must be nonnegative")
    grid = _load_json(args.grid)
    configs = expand_grid(grid)
    records, summary = run_study(
        configs,
        repetitions=args.repetitions,
        seed=args.seed,
        estimate_a=args.estimate_a,
        baseline=args.baseline == "spectral-direct",
    )
    clock.lap("run")
    out = _out_dir(args)
    write_records_jsonl(out / "records.jsonl", records)
    write_summary_csv(out / "summary.csv", summary)
    clock.lap("write")
    params = {
        "grid": grid,
        "repetitions": args.repetitions,
        "baseline": args.baseline,
        "estimate_a": bool(args.estimate_a),
        "points": len(configs),
    }
    return {"grid": args.grid}, params, args.seed


def cmd_evaluate(args, clock: _StageClock):
    kind = sniff_kind(args.truth)
    if sniff_kind(args.candidate) != kind:
        raise ParameterError("cannot compare a partition with an adjacency")
    read = read_partition_tsv if kind == "partition" else read_edges_tsv
    truth, candidate = read(args.truth), read(args.candidate)
    clock.lap("read")
    if kind == "partition":
        rows = [("nmi", nmi(truth, candidate))]
    else:
        confusion = edge_confusion(candidate, truth)
        rows = [
            (name, getattr(confusion, name))
            for name in ("tpr", "fpr", "tp", "fp", "tn", "fn")
        ]
        rows += [
            ("truth_density", edge_density(truth).overall),
            ("candidate_density", edge_density(candidate).overall),
        ]
    clock.lap("compare")
    out = _out_dir(args)
    write_summary_csv(out / "metrics.csv", [{"metric": n, "value": v} for n, v in rows])
    for name, value in rows:
        print(f"{name}={value}")
    clock.lap("write")
    return {"truth": args.truth, "candidate": args.candidate}, {"kind": kind}, None


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
    """Run one command and write its manifest.json; returns the exit code.

    A command laps its stages on the clock and returns (inputs, config,
    seed) for the manifest. A command that fails writes no manifest.
    """
    args = build_parser().parse_args(argv)
    clock = _StageClock()
    try:
        inputs, config, seed = args.func(args, clock)
        write_manifest(
            _out_dir(args), args.command, __version__, inputs, config, seed, clock.timings()
        )
        return 0
    except ParameterError as exc:
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
