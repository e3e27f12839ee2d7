"""The three benchmark workloads: set-up, one op, and the op's checks.

Every call into the package goes through a module attribute
(``simgen.generate_ground_truth``) or ``assocnet.cli.main``, so the traced
run can time it by swapping that attribute. Configs come from
workloads.json next to this file.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from assocnet import assoc, cli, community, ebayes, fileio, metrics, simgen

import checks

SPEC = json.loads((Path(__file__).with_name("workloads.json")).read_text())["workloads"]


def pairs(m: int) -> int:
    return m * (m - 1) // 2


def sub_seed(seed: int, *key: int) -> int:
    """A nonnegative 32-bit seed derived from the benchmark seed and a key."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


@dataclass
class OpResult:
    """What the checks found in one op, and the quality it reached."""

    problems: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    confusion: list = field(default_factory=list)  # (tp, fp, tn, fn) per inference
    nmis: list[float] = field(default_factory=list)
    by_input: dict = field(default_factory=dict)  # counts per score matrix

    def add_counts(self, counts: dict) -> None:
        for key, value in counts.items():
            if key == "batch_dependence_max":
                self.counts[key] = max(self.counts.get(key, 0.0), value)
            else:
                self.counts[key] = self.counts.get(key, 0) + value


def _sim_config(config: dict, seed: int) -> simgen.SimConfig:
    return simgen.SimConfig(**config, seed=seed)


def _scores(config: simgen.SimConfig):
    truth = simgen.generate_ground_truth(config)
    corr = simgen.generate_correlations(truth.adjacency, config.r_gen, config.nu, config.seed)
    return truth, corr, assoc.fisher_z(corr, config.nu)


def _counts(confusion) -> tuple:
    return (confusion.tp, confusion.fp, confusion.tn, confusion.fn)


class Study:
    """study-m2000: one run_single-equivalent pass per op, fresh seed each op."""

    name = "study-m2000"

    def __init__(self, spec: dict, seed: int, workdir: Path) -> None:
        self.spec, self.seed = spec, seed
        self.pairs_per_op = pairs(spec["config"]["m"])

    def setup(self) -> None:
        pass

    def op(self, k: int):
        config = _sim_config(self.spec["config"], sub_seed(self.seed, k))
        truth, corr, scores = _scores(config)
        adjacency, fit = ebayes.infer_adjacency(
            scores, estimate_a=self.spec["estimate_a"], threads=self.spec["threads"]
        )
        spectral = community.SpectralConfig(K=self.spec["K"], seed=config.seed)
        partition = community.detect_communities(adjacency, spectral)
        direct = community.spectral_on_continuous(corr, spectral)
        confusion = metrics.edge_confusion(adjacency, truth.adjacency)
        nmis = [metrics.nmi(partition, truth.partition), metrics.nmi(direct, truth.partition)]
        return scores, adjacency, fit, confusion, nmis, spectral.restarts

    def check(self, k: int, output) -> OpResult:
        scores, adjacency, fit, confusion, nmis, restarts = output
        result = OpResult(nmis=nmis)
        result.confusion.append(_counts(confusion))
        problems, counts = checks.check_inference(
            scores.z, fit, adjacency, self.spec["estimate_a"],
            np.random.default_rng(sub_seed(self.seed, k, 1)),
        )
        result.problems += problems
        result.add_counts(counts)
        result.add_counts({"kmeans_restarts": 2 * restarts})
        return result


class EstimateA:
    """estimate-a: the joint (w, a) fit on two fixed score matrices per op."""

    name = "estimate-a"

    def __init__(self, spec: dict, seed: int, workdir: Path) -> None:
        self.spec, self.seed = spec, seed
        self.pairs_per_op = sum(pairs(c["m"]) for c in spec["configs"].values())

    def setup(self) -> None:
        self.inputs = []
        for index, config in enumerate(self.spec["configs"].values()):
            truth, _, scores = _scores(_sim_config(config, sub_seed(self.seed, index)))
            self.inputs.append((truth, scores))

    def op(self, k: int):
        return [
            ebayes.infer_adjacency(
                scores, estimate_a=self.spec["estimate_a"], threads=self.spec["threads"]
            )
            for _, scores in self.inputs
        ]

    def check(self, k: int, output) -> OpResult:
        result = OpResult()
        rng = np.random.default_rng(sub_seed(self.seed, k, 1))
        for label, (truth, scores), (adjacency, fit) in zip(
            self.spec["configs"], self.inputs, output
        ):
            result.confusion.append(_counts(metrics.edge_confusion(adjacency, truth.adjacency)))
            problems, counts = checks.check_inference(
                scores.z, fit, adjacency, self.spec["estimate_a"], rng
            )
            result.problems += problems
            result.add_counts(counts)
            result.by_input[label] = {**counts, "median_w": float(np.median(fit.w))}
        return result


class Communities:
    """communities-m5000: the CLI's communities and evaluate commands on files."""

    name = "communities-m5000"
    OUTPUTS = ("partition.tsv", "report.json")

    def __init__(self, spec: dict, seed: int, workdir: Path) -> None:
        self.spec, self.seed, self.workdir = spec, seed, workdir
        self.pairs_per_op = pairs(spec["config"]["m"])
        self.reference: dict[str, bytes] | None = None

    def setup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        truth = simgen.generate_ground_truth(_sim_config(self.spec["config"], sub_seed(self.seed, 0)))
        self.truth_edges = self.workdir / "truth_edges.tsv"
        self.planted = self.workdir / "planted_partition.tsv"
        fileio.write_edges_tsv(self.truth_edges, truth.adjacency)
        fileio.write_partition_tsv(self.planted, truth.partition)

    def op(self, k: int):
        out = self.workdir / f"op{k}"
        runs = {
            "auto": ["communities", str(self.truth_edges), "--auto-k"],
            "fixed": ["communities", str(self.truth_edges), "-K", str(self.spec["K"])],
            "evaluate": [
                "evaluate", str(self.planted), str(out / "fixed" / "partition.tsv")
            ],
        }
        codes = {}
        with contextlib.redirect_stdout(io.StringIO()):
            for label, argv in runs.items():
                codes[label] = cli.main(argv + ["--output-dir", str(out / label)])
        return out, codes

    def _outputs(self, out: Path) -> dict[str, bytes]:
        return {
            f"{label}/{name}": (out / label / name).read_bytes()
            for label in ("auto", "fixed") for name in self.OUTPUTS
        }

    def check(self, k: int, output) -> OpResult:
        result = OpResult()
        out, codes = output
        bad = {label: code for label, code in codes.items() if code != 0}
        if bad:
            result.problems.append(f"nonzero exit codes {bad}")
            return result
        outputs = self._outputs(out)
        if self.reference is None:
            # The first op's files become the reference; one extra run checks them.
            self.reference = outputs
            rerun, _ = self.op(-1)
            outputs = self._outputs(rerun)
            shutil.rmtree(rerun)
        for name, data in outputs.items():
            if data != self.reference[name]:
                result.problems.append(f"{name} differs on rerun")
        report = json.loads(outputs["fixed/report.json"])
        if report["K"] != self.spec["K"]:
            result.problems.append(f"report.json has K={report['K']}")
        result.add_counts({"kmeans_restarts": sum(
            len(json.loads(outputs[f"{label}/report.json"])["restart_wcss"])
            for label in ("auto", "fixed")
        )})
        planted = fileio.read_partition_tsv(self.planted)
        for label in ("auto", "fixed"):
            partition = fileio.read_partition_tsv(out / label / "partition.tsv")
            result.nmis.append(metrics.nmi(planted, partition))
        with open(out / "evaluate" / "metrics.csv", newline="", encoding="utf-8") as fh:
            reported = {row["metric"]: float(row["value"]) for row in csv.DictReader(fh)}
        if reported.get("nmi") != result.nmis[-1]:
            result.problems.append(
                f"evaluate reports nmi={reported.get('nmi')}, nmi() gives {result.nmis[-1]}"
            )
        shutil.rmtree(out)
        return result


WORKLOADS = {cls.name: cls for cls in (Study, EstimateA, Communities)}


def make(name: str, seed: int, workdir: Path, spec: dict | None = None):
    return WORKLOADS[name](spec or SPEC[name], seed, workdir)
