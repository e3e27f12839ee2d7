"""Smoke tests of the benchmark at tiny sizes (m of 40 to 60)."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from assocnet import assoc, ebayes, simgen  # noqa: E402

TINY = {
    "study-m2000": {
        "config": {"m": 60, "k": 2, "community_size": 20, "theta_in": 50.0,
                   "theta_out": 1.0, "r_gen": 0.8, "nu": 200},
        "K": 2, "threads": 1, "estimate_a": False,
    },
    "estimate-a": {
        "configs": {
            "strong": {"m": 60, "k": 2, "community_size": 20, "theta_in": 50.0,
                       "theta_out": 1.0, "r_gen": 0.8, "nu": 200},
            "weak": {"m": 40, "k": 2, "community_size": 10, "theta_in": 50.0,
                     "theta_out": 1.0, "r_gen": 0.1, "nu": 200},
        },
        "threads": 2, "estimate_a": True,
    },
    "communities-m5000": {
        "config": {"m": 60, "k": 2, "community_size": 20, "theta_in": 20.0,
                   "theta_out": 1.0, "r_gen": 0.8, "nu": 200},
        "K": 2,
    },
}
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=sorted(TINY))
def traced(request, tmp_path_factory):
    name = request.param
    out = tmp_path_factory.mktemp(name)
    return harness.run(name, 3, 0.0, True, ROOT, out, spec=TINY[name])


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    assert set(TINY) == set(workloads.SPEC) == set(workloads.WORKLOADS)


def test_every_metric_is_emitted_with_its_unit(traced):
    assert traced["attempted"] >= 1 and traced["failed"] == 0
    for declared, values in (
        (DECLARED["end_to_end"], harness.end_to_end(traced)),
        (DECLARED["per_layer"], harness.per_layer(traced)),
    ):
        line = harness.result_line(traced, declared, values)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [d["name"] for d in declared]
        for d in declared:
            entry = line["metrics"][d["name"]]
            assert entry["unit"] == d["unit"]
            assert math.isfinite(entry["value"])
        json.dumps(line, allow_nan=False)
    for d in DECLARED["end_to_end"]:
        assert harness.end_to_end(traced)[d["name"]] > 0.0


def test_self_times_sum_to_op_wall_time(traced):
    by_scope = {}
    for s in traced["spans"]:
        by_scope.setdefault(s.op, []).append(s)
    assert any(scope.startswith("op") for scope in by_scope)
    for scope, tree in by_scope.items():
        (root,) = [s for s in tree if s.parent is None]
        selfs = spans.self_times(tree)
        assert sum(selfs.values()) == pytest.approx(root.end - root.start, rel=1e-9, abs=1e-12)
        assert min(selfs.values()) >= 0.0


def test_concurrent_children_share_the_overlap():
    root = spans.Span(0, "bench.op", 0.0, 10.0, None, "op0")
    fit_a = spans.Span(1, "ebayes.fit_rows", 2.0, 6.0, 3, "op0")
    fit_b = spans.Span(2, "ebayes.fit_rows", 2.0, 8.0, 3, "op0")
    infer = spans.Span(3, "ebayes.infer_adjacency", 1.0, 9.0, 0, "op0")
    selfs = spans.self_times([root, fit_a, fit_b, infer])
    assert selfs == pytest.approx({0: 2.0, 3: 2.0, 1: 2.0, 2: 4.0})


def _tiny_inference(estimate_a: bool):
    config = simgen.SimConfig(**TINY["study-m2000"]["config"], seed=5)
    truth = simgen.generate_ground_truth(config)
    corr = simgen.generate_correlations(truth.adjacency, config.r_gen, config.nu, config.seed)
    scores = assoc.fisher_z(corr, config.nu)
    adjacency, fit = ebayes.infer_adjacency(scores, estimate_a=estimate_a)
    return scores.z, adjacency, fit


def test_checks_pass_on_true_outputs():
    z, adjacency, fit = _tiny_inference(False)
    problems, counts = checks.check_inference(z, fit, adjacency, False, np.random.default_rng(0))
    assert problems == []
    assert counts["rows_batch_dependent"] == 0


def test_checks_catch_a_corrupted_edge_set():
    z, adjacency, fit = _tiny_inference(False)
    rows = checks.sample_rows(z.shape[0], np.random.default_rng(0))
    pairs = checks.sample_pairs(z, fit, rows, np.random.default_rng(0))
    present = set(map(tuple, adjacency.edges.tolist()))
    edge = next(p for p in pairs if p in present)
    dropped = type(adjacency)(adjacency.m, np.array(sorted(present - {edge})))
    assert checks.and_rule(z, fit, adjacency, pairs) == []
    assert len(checks.and_rule(z, fit, dropped, pairs)) == 1


def test_checks_catch_a_perturbed_weight():
    z, adjacency, fit = _tiny_inference(True)
    rows = checks.sample_rows(z.shape[0], np.random.default_rng(0))
    assert checks.local_optimality(z, fit, rows, True) == []
    w = fit.w.copy()
    row = next(i for i in rows if w[i] < 0.5)
    w[row] *= 1.1
    moved = type(fit)(w, fit.a, fit.loglik, fit.estimated_a)
    assert checks.local_optimality(z, moved, rows, True)
    differ, largest = checks.row_independence(z, moved, rows, True)
    assert differ >= 1 and largest > 0.0


def test_run_fails_without_the_package(tmp_path):
    """In a directory with only the benchmark's files it exits nonzero, printing no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "study-m2000",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
