"""End-to-end tests of the command-line pipeline.

The oracle for each subcommand is the library call chain it wraps: a
CLI run must produce byte-for-byte the files that the corresponding
direct function calls produce, and seeded reruns must be byte-identical
except for manifest.json (which carries timings).
"""

from __future__ import annotations

import csv
import json
import weakref

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence
from scipy.sparse.linalg import eigsh as scipy_eigsh
from scipy.special import ndtr

from conftest import from_dense, to_dense

from assocnet import __version__, cli, community, ebayes
from assocnet.assoc import SymmetricMatrix, fisher_z, pvalues_to_z
from assocnet.cli import main
from assocnet.ebayes import detection_threshold, infer_adjacency
from assocnet.fileio import (
    read_edges_tsv,
    read_matrix_bin,
    read_matrix_csv,
    read_partition_tsv,
    write_edges_tsv,
    write_matrix_csv,
    write_partition_tsv,
)
from assocnet.graphs import Partition, SparseAdjacency
from assocnet.metrics import nmi
from assocnet.simgen import (
    SimConfig,
    expand_grid,
    generate_correlations,
    generate_ground_truth,
    run_study,
)

SIM = dict(
    m=40,
    k=2,
    community_size=10,
    theta_in=30.0,
    theta_out=1.0,
    r_gen=0.8,
    nu=100,
    seed=3,
)
GRID = {name: value for name, value in SIM.items() if name != "seed"}


@pytest.fixture()
def corr_values() -> np.ndarray:
    config = SimConfig(**SIM)
    truth = generate_ground_truth(config)
    return generate_correlations(truth.adjacency, config.r_gen, config.nu, 3).values


def two_cliques(m_half: int):
    dense = np.zeros((2 * m_half, 2 * m_half), dtype=np.int64)
    dense[:m_half, :m_half] = 1
    dense[m_half:, m_half:] = 1
    np.fill_diagonal(dense, 0)
    labels = np.repeat([1, 2], m_half)
    return from_dense(dense), Partition(labels, 2)


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def non_manifest_files(directory):
    return sorted(
        p.name for p in directory.iterdir() if p.name != "manifest.json"
    )


def assert_same_bytes(dir_a, dir_b):
    names = non_manifest_files(dir_a)
    assert names == non_manifest_files(dir_b)
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name


class TestInfer:
    def test_correlation_input_matches_library_pipeline(self, tmp_path, corr_values):
        scores = tmp_path / "corr.csv"
        write_matrix_csv(scores, corr_values)
        out = tmp_path / "out"
        code = main(
            [
                "infer",
                str(scores),
                "--kind",
                "correlation",
                "--nu",
                "100",
                "--threads",
                "1",
                "--output-dir",
                str(out),
            ]
        )
        assert code == 0
        expected_adj, expected_fit = infer_adjacency(
            fisher_z(SymmetricMatrix(corr_values, "correlation"), 100)
        )
        got = read_edges_tsv(out / "edges.tsv")
        assert np.array_equal(to_dense(got), to_dense(expected_adj))
        fit = read_json(out / "mixture_fit.json")
        assert fit["estimated_a"] is False
        assert fit["w"] == [float(x) for x in expected_fit.w]
        assert fit["params"]["m"] == 40
        assert fit["params"]["edge_count"] == expected_adj.edge_count
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["command"] == "infer"
        assert set(manifest["inputs"]) == {"input"}

    def test_written_thresholds_decide_the_written_edges(self, tmp_path, corr_values):
        scores = tmp_path / "corr.csv"
        write_matrix_csv(scores, corr_values)
        out = tmp_path / "out"
        code = main(["infer", str(scores), "--kind", "correlation", "--nu", "100",
                     "--output-dir", str(out)])
        assert code == 0
        fit = read_json(out / "mixture_fit.json")
        t = np.array(fit["threshold"])
        assert t.shape == (40,)
        for w, a, t_i in zip(fit["w"], fit["a"], t):
            assert t_i == detection_threshold(w, a)
        z = fisher_z(SymmetricMatrix(corr_values, "correlation"), 100).z
        edges = read_edges_tsv(out / "edges.tsv").edges
        assert len(edges) > 0
        for i, j in edges:
            assert abs(z[i, j]) > max(t[i], t[j])

    def test_unconverged_weight_solve_exits_4(self, tmp_path, corr_values, monkeypatch):
        scores = tmp_path / "corr.csv"
        write_matrix_csv(scores, corr_values)
        monkeypatch.setattr(ebayes, "_HALVINGS", 2)
        out = tmp_path / "out"
        code = main(["infer", str(scores), "--kind", "correlation", "--nu", "100",
                     "--output-dir", str(out)])
        assert code == 4
        assert not (out / "edges.tsv").exists()
        assert not (out / "manifest.json").exists()

    def test_fit_lists_its_boundary_rows(self, tmp_path):
        config = SimConfig(m=60, k=4, community_size=15, theta_in=50.0,
                           theta_out=1.0, r_gen=0.1, nu=200, seed=3)
        truth = generate_ground_truth(config)
        scores = tmp_path / "corr.csv"
        write_matrix_csv(scores, generate_correlations(truth.adjacency, 0.1, 200, 3).values)
        out = tmp_path / "out"
        code = main(["infer", str(scores), "--kind", "correlation", "--nu", "200",
                     "--estimate-a", "--output-dir", str(out)])
        assert code == 0
        fit = read_json(out / "mixture_fit.json")
        w, a = np.array(fit["w"]), np.array(fit["a"])
        floor = ebayes.weight_lower_bound(59, a)
        expected = {
            "w_at_floor": np.flatnonzero(w <= floor * (1 + 1e-12)).tolist(),
            "w_at_one": np.flatnonzero(w == 1.0).tolist(),
            "a_at_bound": np.flatnonzero((a <= ebayes.A_MIN) | (a >= ebayes.A_MAX)).tolist(),
        }
        for key, rows in expected.items():
            assert fit[key] == rows
            assert rows  # the weak signal puts rows on every boundary
        assert set(fit["w_at_one"]).isdisjoint(fit["w_at_floor"])

    def test_unconverged_spread_search_exits_4(self, tmp_path, corr_values, monkeypatch):
        scores = tmp_path / "corr.csv"
        write_matrix_csv(scores, corr_values)
        monkeypatch.setattr(ebayes, "_A_STEPS", 2)
        out = tmp_path / "out"
        code = main(["infer", str(scores), "--kind", "correlation", "--nu", "100",
                     "--estimate-a", "--output-dir", str(out)])
        assert code == 4
        assert not (out / "edges.tsv").exists()
        assert not (out / "manifest.json").exists()

    def test_pvalue_input_gives_the_same_network(self, tmp_path, corr_values):
        # upper-tail p-values carry the same evidence as the scores they
        # were computed from, so the inferred network must match
        z = fisher_z(SymmetricMatrix(corr_values, "correlation"), 100).z
        pvals = ndtr(-z)
        np.fill_diagonal(pvals, 1.0)
        path = tmp_path / "pvals.csv"
        write_matrix_csv(path, pvals)
        out = tmp_path / "out"
        code = main(
            [
                "infer",
                str(path),
                "--kind",
                "pvalue",
                "--output-dir",
                str(out),
            ]
        )
        assert code == 0
        expected_adj, _ = infer_adjacency(
            pvalues_to_z(SymmetricMatrix(pvals, "pvalue"))
        )
        got = read_edges_tsv(out / "edges.tsv")
        assert np.array_equal(to_dense(got), to_dense(expected_adj))
        direct, _ = infer_adjacency(
            fisher_z(SymmetricMatrix(corr_values, "correlation"), 100)
        )
        assert np.array_equal(to_dense(got), to_dense(direct))

    def test_covariance_input_gives_the_same_network(self, tmp_path, corr_values):
        # scaling to an arbitrary covariance must not change the result
        scale = np.linspace(0.5, 3.0, corr_values.shape[0])
        cov = (corr_values + np.eye(corr_values.shape[0])) * np.outer(scale, scale)
        path = tmp_path / "cov.csv"
        write_matrix_csv(path, cov)
        out = tmp_path / "out"
        code = main(
            [
                "infer",
                str(path),
                "--kind",
                "covariance",
                "--nu",
                "100",
                "--output-dir",
                str(out),
            ]
        )
        assert code == 0
        direct, _ = infer_adjacency(
            fisher_z(SymmetricMatrix(corr_values, "correlation"), 100)
        )
        got = read_edges_tsv(out / "edges.tsv")
        assert np.array_equal(to_dense(got), to_dense(direct))

    def test_nu_with_pvalues_is_a_usage_error(self, tmp_path):
        path = tmp_path / "p.csv"
        write_matrix_csv(path, np.eye(3))
        code = main(["infer", str(path), "--kind", "pvalue", "--nu", "50"])
        assert code == 2

    def test_missing_nu_is_a_usage_error(self, tmp_path):
        path = tmp_path / "c.csv"
        write_matrix_csv(path, np.eye(3))
        assert main(["infer", str(path), "--kind", "correlation"]) == 2

    def test_missing_input_file_is_a_data_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["infer", str(tmp_path / "nope.csv"), "--kind", "correlation", "--nu", "50",
             "--output-dir", str(out)]
        )
        assert code == 3
        assert "error:" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "setting, message",
        [(["--nu", "50", "--threads", "0"], "--threads must be at least 1"),
         (["--nu", "2"], "--nu must be a finite number greater than 3"),
         (["--nu", "nan"], "--nu must be a finite number greater than 3")],
        ids=["threads-0", "nu-2", "nu-nan"],
    )
    def test_bad_setting_is_a_usage_error_before_the_input_is_read(
        self, tmp_path, capsys, setting, message
    ):
        out = tmp_path / "out"
        code = main(["infer", str(tmp_path / "nope.csv"), "--kind", "correlation", *setting,
                     "--output-dir", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_blank_matrix_file_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "blank.csv"
        path.write_text("\n  \n\n", encoding="utf-8")
        code = main(["infer", str(path), "--kind", "correlation", "--nu", "50",
                     "--output-dir", str(tmp_path / "out")])
        assert code == 3
        assert "empty matrix file" in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_zero_variance_column_is_named(self, tmp_path, capsys):
        cov = np.eye(4)
        cov[2, 2] = 0.0
        path = tmp_path / "cov.csv"
        write_matrix_csv(path, cov)
        code = main(
            ["infer", str(path), "--kind", "covariance", "--nu", "50",
             "--output-dir", str(tmp_path / "out")]
        )
        assert code == 3
        assert "variable 2" in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_seedless_rerun_is_byte_identical(self, tmp_path, corr_values):
        scores = tmp_path / "corr.csv"
        write_matrix_csv(scores, corr_values)
        dirs = [tmp_path / "a", tmp_path / "b"]
        for out in dirs:
            argv = [
                "infer", str(scores), "--kind", "correlation", "--nu", "100",
                "--threads", "2", "--output-dir", str(out),
            ]
            assert main(argv) == 0
        assert_same_bytes(dirs[0], dirs[1])

    @pytest.mark.parametrize("kind", ["correlation", "covariance"])
    def test_fit_holds_no_input_matrix(self, tmp_path, corr_values, monkeypatch, kind):
        values = corr_values
        if kind == "covariance":
            scale = np.linspace(0.5, 3.0, values.shape[0])
            values = (values + np.eye(values.shape[0])) * np.outer(scale, scale)
        path = tmp_path / "scores.csv"
        write_matrix_csv(path, values)
        read, to_correlation, fit = (
            cli.read_matrix_auto, cli.correlation_from_covariance, cli.infer_adjacency
        )
        arrays, alive_at_fit = [], []

        def read_and_watch(*args):
            result = read(*args)
            arrays.append(weakref.ref(result))
            return result

        def to_correlation_and_watch(*args):
            result = to_correlation(*args)
            arrays.append(weakref.ref(result.values))
            return result

        def fit_and_check(*args, **kwargs):
            alive_at_fit.extend(ref() is not None for ref in arrays)
            return fit(*args, **kwargs)

        monkeypatch.setattr(cli, "read_matrix_auto", read_and_watch)
        monkeypatch.setattr(cli, "correlation_from_covariance", to_correlation_and_watch)
        monkeypatch.setattr(cli, "infer_adjacency", fit_and_check)
        argv = ["infer", str(path), "--kind", kind, "--nu", "100",
                "--output-dir", str(tmp_path / "out")]
        assert main(argv) == 0
        assert alive_at_fit == [False] * (2 if kind == "covariance" else 1)


class TestCommunities:
    def test_two_cliques_are_split_exactly(self, tmp_path):
        adj, planted = two_cliques(8)
        edges = tmp_path / "edges.tsv"
        write_edges_tsv(edges, adj)
        out = tmp_path / "out"
        code = main(
            ["communities", str(edges), "-K", "2", "--output-dir", str(out)]
        )
        assert code == 0
        part = read_partition_tsv(out / "partition.tsv")
        assert nmi(part, planted) == pytest.approx(1.0)
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["auto_k"] is False
        assert len(report["eigenvalues"]) == 2

    def test_auto_k_recovers_planted_blocks(self, tmp_path):
        rng = np.random.default_rng(42)
        m, blocks = 120, 4
        labels = np.repeat(np.arange(1, blocks + 1), m // blocks)
        prob = np.where(labels[:, None] == labels[None, :], 0.5, 0.02)
        dense = (rng.random((m, m)) < prob).astype(np.int64)
        dense = np.triu(dense, 1)
        dense = dense + dense.T
        edges = tmp_path / "edges.tsv"
        write_edges_tsv(edges, from_dense(dense))
        out = tmp_path / "out"
        code = main(["communities", str(edges), "--auto-k", "--output-dir", str(out)])
        assert code == 0
        part = read_partition_tsv(out / "partition.tsv")
        assert part.K == blocks
        assert nmi(part, Partition(labels, blocks)) == pytest.approx(1.0)

    def test_auto_k_solver_failure_exits_4(self, tmp_path, monkeypatch):
        # 30 planted blocks of 20: the eigengap search needs a second,
        # larger eigensolve, and that one fails to converge.
        rng = np.random.default_rng(46)
        labels = np.repeat(np.arange(30), 20)
        prob = np.where(labels[:, None] == labels[None, :], 0.9, 0.005)
        dense = np.triu((rng.random((600, 600)) < prob).astype(np.int64), 1)
        edges = tmp_path / "edges.tsv"
        write_edges_tsv(edges, from_dense(dense + dense.T))
        asked = []

        def eigsh(lap, k, **kwargs):
            asked.append(k)
            if k > community.EIGENGAP_FIRST_REQUEST:
                raise ArpackNoConvergence("no convergence", np.zeros(3), np.zeros((600, 3)))
            return scipy_eigsh(lap, k=k, **kwargs)

        monkeypatch.setattr(community, "eigsh", eigsh)
        out = tmp_path / "out"
        assert main(["communities", str(edges), "--auto-k", "--output-dir", str(out)]) == 4
        assert asked == [community.EIGENGAP_FIRST_REQUEST, 48]
        assert not (out / "partition.tsv").exists()
        assert not (out / "manifest.json").exists()

    def test_k_larger_than_node_count_is_a_usage_error(self, tmp_path):
        adj, _ = two_cliques(3)
        edges = tmp_path / "edges.tsv"
        write_edges_tsv(edges, adj)
        out = tmp_path / "out"
        argv = ["communities", str(edges), "-K", str(adj.m + 1), "--output-dir", str(out)]
        assert main(argv) == 2
        assert not (out / "partition.tsv").exists()

    def test_k_and_auto_k_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["communities", "x.tsv", "-K", "2", "--auto-k"])
        assert excinfo.value.code == 2

    def test_bad_tau_is_a_usage_error(self, tmp_path, monkeypatch):
        adj, _ = two_cliques(3)
        edges = tmp_path / "edges.tsv"
        write_edges_tsv(edges, adj)
        out = tmp_path / "out"
        solves = []
        monkeypatch.setattr(community, "_leading_eigenpairs", lambda *a, **kw: solves.append(a))
        for count in (["-K", "2"], ["--auto-k"]):
            for tau in ("soft", "nan", "inf"):
                argv = ["communities", str(edges), *count, "--tau", tau, "--output-dir", str(out)]
                assert main(argv) == 2
        assert solves == []
        assert not out.exists()

    def test_edgeless_graph_needs_no_eigensolve(self, tmp_path, monkeypatch):
        edges = tmp_path / "edges.tsv"
        edges.write_text("# m=5000\n", encoding="utf-8")
        solves = []
        monkeypatch.setattr(community, "_leading_eigenpairs", lambda *a, **kw: solves.append(a))
        reports, partitions = [], []
        for count in (["--auto-k"], ["-K", "2"]):
            out = tmp_path / count[0].strip("-")
            assert main(["communities", str(edges), *count, "--output-dir", str(out)]) == 0
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            assert report.pop("auto_k") is (count == ["--auto-k"])
            reports.append(report)
            partitions.append((out / "partition.tsv").read_bytes())
        part = read_partition_tsv(tmp_path / "auto-k" / "partition.tsv")
        assert part.K == 2
        assert np.all(part.labels == 1)
        assert reports[0] == reports[1]
        assert partitions[0] == partitions[1]
        assert solves == []

    def test_seeded_rerun_is_byte_identical(self, tmp_path):
        adj, _ = two_cliques(10)
        edges = tmp_path / "edges.tsv"
        write_edges_tsv(edges, adj)
        dirs = [tmp_path / "a", tmp_path / "b"]
        for out in dirs:
            argv = [
                "communities", str(edges), "-K", "2", "--seed", "11",
                "--output-dir", str(out),
            ]
            assert main(argv) == 0
        assert_same_bytes(dirs[0], dirs[1])

    def test_edges_with_a_byte_order_mark(self, tmp_path):
        adj, _ = two_cliques(8)
        edges = tmp_path / "edges.tsv"
        write_edges_tsv(edges, adj)
        marked = tmp_path / "marked.tsv"
        marked.write_bytes("\ufeff".encode("utf-8") + edges.read_bytes())
        dirs = [tmp_path / "plain", tmp_path / "marked"]
        for path, out in zip((edges, marked), dirs):
            assert main(["communities", str(path), "-K", "2", "--output-dir", str(out)]) == 0
        assert_same_bytes(dirs[0], dirs[1])

    def test_rejected_edge_is_named_by_its_line(self, tmp_path, capsys):
        edges = tmp_path / "edges.tsv"
        edges.write_text("# m=3\n1\t2\n\n2\t5\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["communities", str(edges), "-K", "2", "--output-dir", str(out)]) == 3
        assert f"{edges}:4: id above m=3" in capsys.readouterr().err
        assert not (out / "partition.tsv").exists()
        assert not (out / "manifest.json").exists()


class TestSimulate:
    def write_config(self, tmp_path, **overrides):
        payload = dict(SIM)
        payload.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def test_outputs_match_the_library(self, tmp_path):
        config_path = self.write_config(tmp_path)
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(config_path), "--output-dir", str(out)])
        assert code == 0
        config = SimConfig(**SIM)
        truth = generate_ground_truth(config)
        corr = generate_correlations(
            truth.adjacency, config.r_gen, config.nu, config.seed
        )
        got_adj = read_edges_tsv(out / "truth_edges.tsv")
        assert np.array_equal(to_dense(got_adj), to_dense(truth.adjacency))
        assert read_partition_tsv(out / "planted_partition.tsv") == truth.partition
        values = read_matrix_csv(out / "correlations.csv")
        assert np.array_equal(values, corr.values)

    def test_config_with_a_byte_order_mark(self, tmp_path):
        plain = self.write_config(tmp_path)
        marked = tmp_path / "marked.json"
        marked.write_bytes("\ufeff".encode("utf-8") + plain.read_bytes())
        dirs = [tmp_path / "plain", tmp_path / "marked"]
        for path, out in zip((plain, marked), dirs):
            assert main(["simulate", "--config", str(path), "--output-dir", str(out)]) == 0
        assert_same_bytes(dirs[0], dirs[1])

    def test_seed_override_reaches_the_generator(self, tmp_path):
        config_path = self.write_config(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["simulate", "--config", str(config_path), "--seed", "9",
             "--output-dir", str(out)]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["seed"] == 9
        truth = generate_ground_truth(SimConfig(**{**SIM, "seed": 9}))
        got = read_edges_tsv(out / "truth_edges.tsv")
        assert np.array_equal(to_dense(got), to_dense(truth.adjacency))

    def test_binary_format_holds_the_same_matrix(self, tmp_path):
        config_path = self.write_config(tmp_path)
        out_csv, out_bin = tmp_path / "csv", tmp_path / "bin"
        assert main(["simulate", "--config", str(config_path),
                     "--output-dir", str(out_csv)]) == 0
        assert main(["simulate", "--config", str(config_path), "--format", "bin",
                     "--output-dir", str(out_bin)]) == 0
        csv_values = read_matrix_csv(out_csv / "correlations.csv")
        bin_values = read_matrix_bin(out_bin / "correlations.bin")
        assert np.array_equal(csv_values, bin_values)

    def test_malformed_config_is_a_data_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--output-dir", str(out)]) == 3
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "field, value",
        [("m", 60.0), ("theta_in", "x"), ("m", [60, 80]), ("theta_in", float("nan"))],
        ids=["m-float", "theta_in-text", "m-list", "theta_in-nan"],
    )
    def test_mistyped_field_is_a_usage_error(self, tmp_path, capsys, field, value):
        config_path = self.write_config(tmp_path, **{field: value})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config_path), "--output-dir", str(out)]) == 2
        assert f"error: {field} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1, 2]", "config must be a JSON object"),
            (json.dumps({"m": 40, "k": 2}), "missing config fields: ['community_size'"),
        ],
        ids=["list", "missing-fields"],
    )
    def test_partial_config_is_a_usage_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "config.json"
        path.write_text(text, encoding="utf-8")
        assert main(["simulate", "--config", str(path), "--output-dir",
                     str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    def test_out_of_range_field_is_a_usage_error(self, tmp_path):
        config_path = self.write_config(tmp_path, nu=3)
        assert main(["simulate", "--config", str(config_path)]) == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        config_path = self.write_config(tmp_path)
        dirs = [tmp_path / "a", tmp_path / "b"]
        for out in dirs:
            assert main(["simulate", "--config", str(config_path),
                         "--output-dir", str(out)]) == 0
        assert_same_bytes(dirs[0], dirs[1])


class TestStudy:
    def write_grid(self, tmp_path):
        payload = dict(SIM, m=60, community_size=15, r_gen=[0.8])
        del payload["seed"]
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path, payload

    def test_records_match_the_library(self, tmp_path):
        grid_path, payload = self.write_grid(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["study", "--grid", str(grid_path), "--repetitions", "2",
             "--seed", "5", "--baseline", "spectral-direct",
             "--output-dir", str(out)]
        )
        assert code == 0
        expected_records, _ = run_study(
            expand_grid(payload), repetitions=2, seed=5, baseline=True
        )
        lines = (out / "records.jsonl").read_text(encoding="utf-8").splitlines()
        got = [json.loads(line) for line in lines]
        assert got == expected_records
        assert len(got) == 4  # 2 repetitions x 2 methods
        with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert {row["method"] for row in rows} == {
            "threshold-spectral",
            "spectral-direct",
        }

    def test_zero_repetitions_is_a_usage_error(self, tmp_path):
        grid_path, _ = self.write_grid(tmp_path)
        assert main(["study", "--grid", str(grid_path), "--repetitions", "0"]) == 2

    def test_unknown_grid_field_is_a_usage_error(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(dict(SIM, deterministic_alpha=True)), encoding="utf-8")
        assert main(["study", "--grid", str(path), "--repetitions", "1",
                     "--output-dir", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize(
        "payload",
        # a NaN second grid point: no run starts and no record is written
        [dict(GRID, theta_in=[30.0, float("nan")]), [GRID]],
        ids=["nan-point", "list"],
    )
    def test_bad_grid_is_a_usage_error(self, tmp_path, payload):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["study", "--grid", str(path), "--repetitions", "1",
                     "--output-dir", str(out)]) == 2
        assert not out.exists()

    def test_empty_sweep_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(dict(GRID, r_gen=[])), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["study", "--grid", str(path), "--repetitions", "1",
                     "--output-dir", str(out)]) == 2
        assert "r_gen" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        grid_path, _ = self.write_grid(tmp_path)
        dirs = [tmp_path / "a", tmp_path / "b"]
        for out in dirs:
            argv = [
                "study", "--grid", str(grid_path), "--repetitions", "2",
                "--seed", "5", "--output-dir", str(out),
            ]
            assert main(argv) == 0
        assert_same_bytes(dirs[0], dirs[1])


class TestEvaluate:
    def test_adjacency_confusion_counts(self, tmp_path, capsys):
        truth = SparseAdjacency(6, np.array([[0, 1], [2, 3]]))
        candidate = SparseAdjacency(6, np.array([[0, 1], [4, 5]]))
        truth_path, cand_path = tmp_path / "truth.tsv", tmp_path / "cand.tsv"
        write_edges_tsv(truth_path, truth)
        write_edges_tsv(cand_path, candidate)
        out = tmp_path / "out"
        code = main(
            ["evaluate", str(truth_path), str(cand_path), "--output-dir", str(out)]
        )
        assert code == 0
        printed = dict(
            line.split("=", 1) for line in capsys.readouterr().out.splitlines()
        )
        assert float(printed["tpr"]) == 0.5
        assert float(printed["fpr"]) == pytest.approx(1.0 / 13.0)
        assert int(printed["tp"]) == 1
        assert int(printed["fp"]) == 1
        assert int(printed["fn"]) == 1
        assert int(printed["tn"]) == 12
        with open(out / "metrics.csv", newline="", encoding="utf-8") as fh:
            rows = {row["metric"]: row["value"] for row in csv.DictReader(fh)}
        assert float(rows["tpr"]) == 0.5
        assert float(rows["truth_density"]) == pytest.approx(2.0 / 15.0)

    def test_partition_nmi(self, tmp_path, capsys):
        a = Partition(np.array([1, 1, 2, 2]), 2)
        b = Partition(np.array([2, 2, 1, 1]), 2)
        path_a, path_b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_partition_tsv(path_a, a)
        write_partition_tsv(path_b, b)
        code = main(
            ["evaluate", str(path_a), str(path_b), "--output-dir", str(tmp_path / "o")]
        )
        assert code == 0
        assert "nmi=1.0" in capsys.readouterr().out

    def test_mixed_kinds_are_rejected(self, tmp_path):
        adj, planted = two_cliques(3)
        edges, part = tmp_path / "e.tsv", tmp_path / "p.tsv"
        write_edges_tsv(edges, adj)
        write_partition_tsv(part, planted)
        assert main(["evaluate", str(edges), str(part)]) == 2

    def test_headerless_file_is_a_data_error(self, tmp_path):
        path = tmp_path / "raw.tsv"
        path.write_text("1\t2\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["evaluate", str(path), str(path), "--output-dir", str(out)]) == 3
        assert not (out / "manifest.json").exists()

    def test_non_integer_header_is_a_data_error(self, tmp_path):
        edges, part = tmp_path / "e.tsv", tmp_path / "p.tsv"
        edges.write_text("# m=abc\n1\t2\n", encoding="utf-8")
        part.write_text("# K=x\n1\t1\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["communities", str(edges), "-K", "1", "--output-dir", str(out)]) == 3
        assert main(["evaluate", str(edges), str(edges), "--output-dir", str(out)]) == 3
        assert main(["evaluate", str(part), str(part), "--output-dir", str(out)]) == 3
        assert not out.exists()


class TestManifest:
    STAGES = {
        "infer": ["read_s", "standardize_s", "infer_s", "write_s"],
        "communities": ["read_s", "select_k_s", "detect_s", "write_s"],
        "simulate": ["generate_s", "write_s"],
        "study": ["run_s", "write_s"],
        "evaluate": ["read_s", "compare_s", "write_s"],
    }

    @staticmethod
    def argv(command, tmp_path, corr_values):
        if command == "infer":
            path = tmp_path / "corr.csv"
            write_matrix_csv(path, corr_values)
            return ["infer", str(path), "--kind", "correlation", "--nu", "100"]
        if command in ("communities", "evaluate"):
            path = tmp_path / "edges.tsv"
            write_edges_tsv(path, two_cliques(8)[0])
            if command == "communities":
                return ["communities", str(path), "--auto-k"]
            return ["evaluate", str(path), str(path)]
        path = tmp_path / "config.json"
        if command == "simulate":
            path.write_text(json.dumps(SIM), encoding="utf-8")
            return ["simulate", "--config", str(path)]
        path.write_text(json.dumps(GRID), encoding="utf-8")
        return ["study", "--grid", str(path), "--repetitions", "1"]

    @pytest.mark.parametrize("command", list(STAGES))
    def test_manifest_times_each_stage(self, tmp_path, corr_values, command):
        out = tmp_path / "out"
        assert main(self.argv(command, tmp_path, corr_values) + ["--output-dir", str(out)]) == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["command"] == command
        timings = manifest["timings"]
        stages = self.STAGES[command]
        assert sorted(timings) == sorted(stages + ["total_s"])
        assert all(timings[name] >= 0.0 for name in stages)
        assert sum(timings[name] for name in stages) <= timings["total_s"]


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == __version__

    def test_negative_seed_is_a_usage_error(self, tmp_path, monkeypatch):
        edges = tmp_path / "edges.tsv"
        write_edges_tsv(edges, two_cliques(3)[0])
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(GRID), encoding="utf-8")
        solves = []
        monkeypatch.setattr(community, "_leading_eigenpairs", lambda *a, **kw: solves.append(a))
        out = tmp_path / "out"
        for argv in (["communities", str(edges), "-K", "2"],
                     ["study", "--grid", str(grid_path), "--repetitions", "1"]):
            assert main(argv + ["--seed", "-1", "--output-dir", str(out)]) == 2
        assert solves == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [(["communities", "nope.tsv", "-K", "0"], "K must be at least 1"),
         (["study", "--grid", "nope.json", "--repetitions", "0"],
          "--repetitions must be at least 1"),
         (["study", "--grid", "nope.json", "--repetitions", "1", "--seed", "-1"],
          "--seed must be nonnegative"),
         (["simulate", "--config", "nope.json", "--seed", "-1"], "--seed must be nonnegative")],
        ids=["communities-K-0", "study-repetitions-0", "study-seed-negative",
             "simulate-seed-negative"],
    )
    def test_bad_setting_is_a_usage_error_before_the_input_is_read(
        self, tmp_path, monkeypatch, capsys, argv, message
    ):
        monkeypatch.chdir(tmp_path)  # the named input files do not exist there
        assert main([*argv, "--output-dir", "out"]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
