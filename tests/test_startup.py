"""What a fresh interpreter loads of SciPy, and what it may load on threads.

The package reaches SciPy only as ``scipy.<part>.<name>`` at each call
site, so SciPy imports a part on its first use. These tests run the CLI,
or one library call, in a new interpreter and compare the SciPy parts in
``sys.modules``: module sets, not seconds, so they do not depend on the
machine's load.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import assocnet
from assocnet.cli import main
from assocnet.fileio import (
    read_edges_tsv,
    write_edges_tsv,
    write_matrix_csv,
    write_partition_tsv,
)
from assocnet.simgen import SimConfig, generate_correlations, generate_ground_truth

SRC = Path(assocnet.__file__).resolve().parents[1]
PARTS = ("scipy.special", "scipy.sparse", "scipy.sparse.linalg", "scipy.optimize",
         "scipy.stats", "scipy.linalg")

# Imports the package, then runs cli.main on each argv of argv[1] in turn.
# Prints [exit code, SciPy parts loaded] after the import and after each run.
LOADED_SCRIPT = f"""
import json, sys
PARTS = {PARTS!r}
def loaded():
    return [name for name in PARTS if name in sys.modules]
import assocnet
import assocnet.cli
seen = [[None, loaded()]]
for argv in json.loads(sys.argv[1]):
    try:
        code = assocnet.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    seen.append([code, loaded()])
print(json.dumps(seen))
"""

# Imports the package, finds one nonzero posterior median and prints the
# SciPy parts loaded.
MEDIAN_SCRIPT = f"""
import json, sys
import assocnet
assert assocnet.posterior_median(5.0, 0.5, 0.5).nonzero
print(json.dumps([name for name in {PARTS!r} if name in sys.modules]))
"""

# Runs cli.main on argv[1] and prints the name of the thread that first
# asked the import system for scipy.special.
FIRST_LOAD_SCRIPT = """
import json, sys, threading
class Watch:
    threads = []
    def find_spec(self, name, path=None, target=None):
        if name == "scipy.special":
            self.threads.append(threading.current_thread().name)
        return None
sys.meta_path.insert(0, Watch())
import assocnet.cli
code = assocnet.cli.main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "threads": Watch.threads}))
"""


def run_fresh(script: str, payload, cwd: Path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(payload)],
        cwd=cwd, env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def write_inputs(tmp_path: Path) -> None:
    config = SimConfig(m=40, k=2, community_size=10, theta_in=30.0, theta_out=1.0,
                       r_gen=0.8, nu=100, seed=3)
    truth = generate_ground_truth(config)
    corr = generate_correlations(truth.adjacency, config.r_gen, config.nu, 3)
    write_matrix_csv(tmp_path / "corr.csv", corr.values)
    write_edges_tsv(tmp_path / "edges.tsv", truth.adjacency)
    write_partition_tsv(tmp_path / "part.tsv", truth.partition)


def infer_argv(threads: int, out: str) -> list[str]:
    return ["infer", "corr.csv", "--kind", "correlation", "--nu", "100",
            "--threads", str(threads), "--output-dir", out]


def test_version_evaluate_and_usage_errors_load_no_scipy_part(tmp_path):
    write_inputs(tmp_path)
    runs = [
        ["--version"],
        ["evaluate", "edges.tsv", "edges.tsv", "--output-dir", "adjacency"],
        ["evaluate", "part.tsv", "part.tsv", "--output-dir", "partition"],
        ["communities", "edges.tsv", "-K", "0"],
    ]
    seen = run_fresh(LOADED_SCRIPT, runs, tmp_path)
    assert seen == [[None, []], [0, []], [0, []], [0, []], [2, []]]


def test_infer_loads_special_and_no_sparse(tmp_path):
    write_inputs(tmp_path)
    (_, at_import), (code, after) = run_fresh(LOADED_SCRIPT, [infer_argv(1, "out")], tmp_path)
    assert (at_import, code) == ([], 0)
    assert "scipy.special" in after
    assert "scipy.sparse" not in after


def test_communities_loads_no_special(tmp_path):
    write_inputs(tmp_path)
    runs = [["communities", "edges.tsv", "--auto-k", "--output-dir", "auto"],
            ["communities", "edges.tsv", "-K", "2", "--output-dir", "fixed"]]
    (_, at_import), *after_runs = run_fresh(LOADED_SCRIPT, runs, tmp_path)
    assert at_import == []
    for code, after in after_runs:
        assert code == 0
        assert "scipy.sparse.linalg" in after
        assert "scipy.special" not in after


def test_study_with_the_direct_baseline_loads_no_optimize_or_stats(tmp_path):
    # m = 40 > DENSE_CUTOFF, so the baseline's eigensolve reads its packed
    # Laplacian through scipy.linalg.blas.dspmv.
    grid = {"m": 40, "k": 2, "community_size": 10, "theta_in": 30.0, "theta_out": 1.0,
            "r_gen": 0.8, "nu": 100}
    (tmp_path / "grid.json").write_text(json.dumps(grid), encoding="utf-8")
    runs = [["study", "--grid", "grid.json", "--repetitions", "1",
             "--baseline", "spectral-direct", "--output-dir", "study"]]
    (_, at_import), (code, after) = run_fresh(LOADED_SCRIPT, runs, tmp_path)
    assert (at_import, code) == ([], 0)
    assert after == ["scipy.special", "scipy.sparse", "scipy.sparse.linalg", "scipy.linalg"]


def test_posterior_median_loads_special_and_no_optimize(tmp_path):
    loaded = run_fresh(MEDIAN_SCRIPT, None, tmp_path)
    assert "scipy.special" in loaded
    assert "scipy.optimize" not in loaded


def test_first_special_load_on_two_threads_matches_one_thread(tmp_path, monkeypatch):
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    first = run_fresh(FIRST_LOAD_SCRIPT, infer_argv(2, "two"), tmp_path)
    assert first["code"] == 0
    # The import system looks scipy.special up once, from a row-fit worker.
    assert len(first["threads"]) == 1
    assert first["threads"][0] != "MainThread"
    assert main(infer_argv(1, "one")) == 0
    for name in ("edges.tsv", "mixture_fit.json"):
        two = (tmp_path / "two" / name).read_bytes()
        assert two == (tmp_path / "one" / name).read_bytes(), name
    assert read_edges_tsv(tmp_path / "two" / "edges.tsv").edge_count > 0
