"""Tests for spectral community detection.

Independent oracles, defined before any assertions use them:

* ``dense_regularized_laplacian`` — explicit construction of the
  degree-regularized normalization in plain numpy.
* ``np.linalg.eigh`` on that dense matrix — reference spectrum for the
  iterative solver path.
* well-separated Gaussian blobs / planted blocks — clustering ground
  truth with a unique correct answer.
"""

import tracemalloc

import numpy as np
import pytest

from assocnet import community
from assocnet.assoc import SymmetricMatrix
from assocnet.community import (
    DENSE_CUTOFF,
    EIGENGAP_FIRST_REQUEST,
    SpectralConfig,
    _embed,
    _kmeans_runs,
    _leading_eigenpairs,
    detect_communities,
    detect_communities_report,
    select_num_communities,
    spectral_on_continuous,
)
from assocnet.errors import InvalidInputError, ParameterError
from assocnet.graphs import Partition, SparseAdjacency
from assocnet.metrics import nmi

# ----------------------------------------------------------------- oracles


def dense_regularized_laplacian(dense_adj, tau):
    """D_tau^{-1/2} A D_tau^{-1/2} built with explicit dense algebra."""
    degrees = dense_adj.sum(axis=1).astype(np.float64)
    reg = degrees + tau
    scale = np.where(reg > 0.0, 1.0 / np.sqrt(np.where(reg > 0.0, reg, 1.0)), 0.0)
    lap = scale[:, None] * dense_adj * scale[None, :]
    return (lap + lap.T) / 2.0


def eigengap_oracle(adj):
    """Eigengap K from the full dense spectrum of the regularized Laplacian."""
    dense = adj.to_dense().astype(np.float64)
    lap = dense_regularized_laplacian(dense, dense.sum(axis=1).mean())
    magnitudes = np.sort(np.abs(np.linalg.eigvalsh(lap)))[::-1]
    k_max = min(max(2, min(adj.m // 10, 150)), adj.m - 2)
    gaps = magnitudes[1:k_max] - magnitudes[2 : k_max + 1]
    return int(gaps.argmax()) + 2


def random_graph(rng, m, p):
    dense = (rng.random((m, m)) < p).astype(np.int8)
    dense = np.triu(dense, k=1)
    return SparseAdjacency.from_dense(dense + dense.T)


def planted_blocks(rng, sizes, p_in, p_out):
    m = int(np.sum(sizes))
    labels = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    u = rng.random((m, m))
    same = labels[:, None] == labels[None, :]
    dense = np.where(same, u < p_in, u < p_out).astype(np.int8)
    dense = np.triu(dense, k=1)
    return SparseAdjacency.from_dense(dense + dense.T), Partition(labels, len(sizes))


def two_cliques(size):
    dense = np.zeros((2 * size, 2 * size), dtype=np.int8)
    dense[:size, :size] = 1
    dense[size:, size:] = 1
    np.fill_diagonal(dense, 0)
    truth = Partition([1] * size + [2] * size, 2)
    return SparseAdjacency.from_dense(dense), truth


def gaussian_blobs(rng, centers, per_blob, spread):
    points, labels = [], []
    for idx, center in enumerate(centers, start=1):
        points.append(center + spread * rng.standard_normal((per_blob, len(center))))
        labels.extend([idx] * per_blob)
    return np.vstack(points), Partition(labels, len(centers))


# ------------------------------------------------------------ eigensolver


class TestLeadingEigenpairs:
    def test_sparse_path_matches_dense_spectrum(self):
        rng = np.random.default_rng(30)
        for _ in range(8):
            m = int(rng.integers(DENSE_CUTOFF + 1, 90))
            adj = random_graph(rng, m, 0.15)
            lap = dense_regularized_laplacian(
                adj.to_dense().astype(np.float64), tau=1.0
            )
            vals_sparse, vecs_sparse = _leading_eigenpairs(lap, 6, method="sparse")
            vals_dense, _ = _leading_eigenpairs(lap, 6, method="dense")
            np.testing.assert_allclose(vals_sparse, vals_dense, atol=1e-6)
            gram = vecs_sparse.T @ vecs_sparse
            np.testing.assert_allclose(gram, np.eye(6), atol=1e-8)

    def test_dense_path_matches_numpy_reference(self):
        rng = np.random.default_rng(31)
        adj = random_graph(rng, 20, 0.3)
        lap = dense_regularized_laplacian(adj.to_dense().astype(np.float64), 0.5)
        vals, _ = _leading_eigenpairs(lap, 5, method="dense")
        reference = np.linalg.eigvalsh(lap)
        top = reference[np.argsort(-np.abs(reference), kind="stable")[:5]]
        np.testing.assert_allclose(vals, top, atol=1e-12)

    def test_sorted_by_absolute_value(self):
        rng = np.random.default_rng(32)
        adj = random_graph(rng, 50, 0.2)
        lap = dense_regularized_laplacian(adj.to_dense().astype(np.float64), 1.0)
        vals, _ = _leading_eigenpairs(lap, 8)
        mags = np.abs(vals)
        assert np.all(np.diff(mags) <= 1e-12)

    def test_rejects_bad_k(self):
        lap = np.eye(4)
        with pytest.raises(ParameterError):
            _leading_eigenpairs(lap, 0)
        with pytest.raises(ParameterError):
            _leading_eigenpairs(lap, 5)
        with pytest.raises(ParameterError):
            _leading_eigenpairs(lap, 2, method="banana")


# -------------------------------------------------------------- embedding


def embed(adj, config):
    """The K-dimensional embedding detect_communities clusters."""
    vecs, _, _ = _embed(adj.to_csr(), adj.degrees().astype(np.float64), config, config.K)
    return vecs


def cluster(points, k, seed=0):
    """Best-of-10-restarts k-means labels as a Partition with labels 1..k."""
    labels, _, _, _ = _kmeans_runs(points, k, 10, seed)
    return Partition(labels + 1, k)


class TestRegularizedEmbedding:
    def test_columns_orthonormal_without_row_normalization(self):
        rng = np.random.default_rng(33)
        adj = random_graph(rng, 60, 0.15)
        config = SpectralConfig(K=4, row_normalize=False)
        vecs = embed(adj, config)
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(4), atol=1e-8)

    def test_rows_unit_norm_with_row_normalization(self):
        rng = np.random.default_rng(34)
        adj = random_graph(rng, 60, 0.2)
        vecs = embed(adj, SpectralConfig(K=3))
        norms = np.linalg.norm(vecs, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-10)

    def test_zero_degree_row_stays_zero(self):
        dense = np.zeros((40, 40), dtype=np.int8)
        dense[:39, :39] = 1
        np.fill_diagonal(dense, 0)
        adj = SparseAdjacency.from_dense(dense)
        vecs = embed(adj, SpectralConfig(K=2, tau=0.0))
        assert np.all(vecs[39] == 0.0)
        assert np.all(np.isfinite(vecs))

    def test_needs_enough_nodes(self):
        with pytest.raises(InvalidInputError):
            detect_communities_report(SparseAdjacency(3, [[0, 1]]), SpectralConfig(K=4))


class TestRegularizedLaplacian:
    """The dense branch scales and symmetrizes one new m x m buffer in place."""

    @staticmethod
    def symmetric_weights(m, order):
        weights = np.abs(np.random.default_rng(m).standard_normal((m, m)))
        weights = np.asarray(weights + weights.T, order=order)
        np.fill_diagonal(weights, 0.0)
        return weights

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_dense_branch_matches_oracle_bytes(self, order):
        weights = self.symmetric_weights(300, order)  # not a multiple of the tile
        for tau in (0.0, 2.5, "auto"):
            lap, tau_value = community._regularized_laplacian(
                weights, weights.sum(axis=1), tau
            )
            expected = dense_regularized_laplacian(weights, tau_value)
            assert lap.flags.c_contiguous and expected.flags.c_contiguous
            assert lap.tobytes() == expected.tobytes()

    def test_dense_branch_holds_one_new_matrix(self):
        weights = self.symmetric_weights(400, "C")
        degrees = weights.sum(axis=1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            community._regularized_laplacian(weights, degrees, "auto")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * weights.nbytes


# ----------------------------------------------------------------- kmeans


class TestKmeans:
    def test_separated_blobs_recovered_exactly(self):
        rng = np.random.default_rng(35)
        points, truth = gaussian_blobs(
            rng, [(0.0, 0.0), (100.0, 0.0), (0.0, 100.0)], 40, 0.5
        )
        part = cluster(points, 3, seed=0)
        assert nmi(part, truth) == 1.0

    def test_labels_cover_one_to_k(self):
        rng = np.random.default_rng(36)
        points = rng.standard_normal((50, 2))
        part = cluster(points, 4, seed=1)
        assert part.K == 4
        assert part.labels.min() >= 1
        assert part.labels.max() <= 4

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(37)
        points = rng.standard_normal((80, 3))
        first = _kmeans_runs(points, 5, 10, 9)
        second = _kmeans_runs(points, 5, 10, 9)
        np.testing.assert_array_equal(first[0], second[0])
        assert first[1:] == second[1:]

    def test_single_cluster(self):
        rng = np.random.default_rng(38)
        part = cluster(rng.standard_normal((12, 2)), 1)
        assert np.all(part.labels == 1)

    def test_k_equals_point_count(self):
        points = np.arange(6, dtype=np.float64)[:, None] * 10.0
        part = cluster(points, 6, seed=0)
        assert sorted(part.labels.tolist()) == [1, 2, 3, 4, 5, 6]

    def test_coincident_points_do_not_crash(self):
        points = np.ones((10, 2))
        part = cluster(points, 3, seed=0)
        assert part.m == 10
        occupied = np.flatnonzero(part.sizes()[1:]) + 1
        assert occupied.size == 1

    def test_rejects_bad_parameters(self):
        points = np.zeros((3, 2))
        with pytest.raises(InvalidInputError):
            _kmeans_runs(points, 4, 10, 0)
        with pytest.raises(ParameterError):
            _kmeans_runs(points, 0, 10, 0)
        with pytest.raises(InvalidInputError):
            _kmeans_runs(np.zeros(3), 1, 10, 0)


# -------------------------------------------------------- model selection


class TestSelectNumCommunities:
    def test_override_wins(self):
        rng = np.random.default_rng(39)
        adj = random_graph(rng, 50, 0.2)
        assert select_num_communities(adj, override=15) == 15

    def test_override_validated(self):
        adj = SparseAdjacency(10)
        with pytest.raises(ParameterError):
            select_num_communities(adj, override=0)
        with pytest.raises(ParameterError):
            select_num_communities(adj, override=11)

    def test_two_cliques_give_two(self):
        adj, _ = two_cliques(20)
        assert select_num_communities(adj) == 2

    def test_planted_four_blocks_give_four(self):
        rng = np.random.default_rng(42)
        adj, _ = planted_blocks(rng, [30] * 4, 0.5, 0.02)
        assert select_num_communities(adj) == 4

    def test_tiny_graphs_capped(self):
        assert select_num_communities(SparseAdjacency(1)) == 1
        assert select_num_communities(SparseAdjacency(3)) == 2

    @pytest.fixture()
    def requests(self, monkeypatch):
        """The eigenpair counts select_num_communities asks for, in order."""
        asked = []
        solve = community._leading_eigenpairs

        def spy(lap, k, *args, **kwargs):
            asked.append(k)
            return solve(lap, k, *args, **kwargs)

        monkeypatch.setattr(community, "_leading_eigenpairs", spy)
        return asked

    # With m = 120, K_max + 1 = 13 eigenpairs are all solved for at once.
    # With K_max + 1 = 41 or 61 > EIGENGAP_FIRST_REQUEST = 24, the clear
    # gap at 8 is found by the first solve, the gap at 30 by the doubled
    # one, and the gap at 60 only by the K_max + 1 solve that the
    # doubling is capped at.
    @pytest.mark.parametrize(
        "blocks, size, p_in, p_out, asked",
        [
            (4, 30, 0.5, 0.02, [13]),
            (8, 50, 0.3, 0.01, [24]),
            (30, 20, 0.9, 0.005, [24, 48]),
            (60, 10, 0.9, 0.005, [24, 48, 61]),
        ],
    )
    def test_eigengap_search_matches_the_full_spectrum(
        self, requests, blocks, size, p_in, p_out, asked
    ):
        rng = np.random.default_rng(46)
        adj, _ = planted_blocks(rng, [size] * blocks, p_in, p_out)
        k = select_num_communities(adj)
        assert requests == asked
        assert k == eigengap_oracle(adj) == blocks

    def test_empty_graph_stops_after_one_solve(self, requests):
        # Every gap is zero, |lambda_24| too: the first zero gap already
        # wins any tie with gaps not yet computed.
        assert select_num_communities(SparseAdjacency(400)) == 2
        assert requests == [EIGENGAP_FIRST_REQUEST]


# --------------------------------------------------------------- detection


class TestDetectCommunities:
    def test_two_cliques_exact(self):
        adj, truth = two_cliques(10)
        part = detect_communities(adj, SpectralConfig(K=2, seed=0))
        assert nmi(part, truth) == 1.0

    def test_planted_blocks_exact(self):
        rng = np.random.default_rng(43)
        adj, truth = planted_blocks(rng, [30] * 4, 0.5, 0.02)
        part = detect_communities(adj, SpectralConfig(K=4, seed=0))
        assert nmi(part, truth) == 1.0

    def test_deterministic(self):
        rng = np.random.default_rng(44)
        adj = random_graph(rng, 70, 0.1)
        config = SpectralConfig(K=3, seed=5)
        first = detect_communities(adj, config)
        second = detect_communities(adj, config)
        np.testing.assert_array_equal(first.labels, second.labels)

    def test_node_permutation_equivariance(self):
        adj, _ = two_cliques(20)
        rng = np.random.default_rng(45)
        perm = rng.permutation(40)
        dense = adj.to_dense()[np.ix_(perm, perm)]
        part_perm = detect_communities(
            SparseAdjacency.from_dense(dense), SpectralConfig(K=2, seed=0)
        )
        part_orig = detect_communities(adj, SpectralConfig(K=2, seed=0))
        relabeled = Partition(part_orig.labels[perm], 2)
        assert nmi(part_perm, relabeled) == 1.0

    def test_isolated_node_joins_largest_cluster(self):
        dense = np.zeros((13, 13), dtype=np.int8)
        dense[:7, :7] = 1
        dense[7:12, 7:12] = 1
        np.fill_diagonal(dense, 0)
        adj = SparseAdjacency.from_dense(dense)
        part, report = detect_communities_report(adj, SpectralConfig(K=2, seed=0))
        assert report["zero_degree_nodes"] == 1
        big_label = part.labels[0]
        assert part.labels[12] == big_label

    def test_empty_graph_collapses_to_one_community(self):
        part, report = detect_communities_report(
            SparseAdjacency(9), SpectralConfig(K=3, seed=0)
        )
        assert np.all(part.labels == 1)
        assert report["empty_clusters"] == 2
        assert report["eigenvalues"] == []
        assert report["restart_iterations"] == []

    def test_report_records_each_restarts_iterations(self, monkeypatch):
        counts = []
        lloyd = community._lloyd

        def spy(points, k, rng, max_iter=300):
            labels, wcss, iterations = lloyd(points, k, rng, max_iter=max_iter)
            counts.append(iterations)
            return labels, wcss, iterations

        monkeypatch.setattr(community, "_lloyd", spy)
        rng = np.random.default_rng(47)
        adj, _ = planted_blocks(rng, [20] * 3, 0.5, 0.05)
        _, report = detect_communities_report(adj, SpectralConfig(K=3, restarts=5))
        assert report["restart_iterations"] == counts
        assert len(counts) == 5
        assert all(isinstance(n, int) and 1 <= n <= 300 for n in counts)

    def test_report_structure(self):
        adj, _ = two_cliques(25)
        config = SpectralConfig(K=2, restarts=4, seed=2)
        _, report = detect_communities_report(adj, config)
        assert report["K"] == 2
        assert len(report["eigenvalues"]) == 2
        assert len(report["restart_wcss"]) == 4
        assert report["wcss"] == min(report["restart_wcss"])
        assert len(report["restart_iterations"]) == 4
        assert report["tau"] == pytest.approx(24.0)  # mean degree of 25-cliques
        assert report["zero_degree_nodes"] == 0

    def test_explicit_tau_zero_with_isolated_node(self):
        dense = np.zeros((36, 36), dtype=np.int8)
        dense[:35, :35] = 1
        np.fill_diagonal(dense, 0)
        adj = SparseAdjacency.from_dense(dense)
        part = detect_communities(adj, SpectralConfig(K=2, tau=0.0, seed=0))
        assert part.m == 36

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            SpectralConfig(K=0)
        with pytest.raises(ParameterError):
            SpectralConfig(K=2, restarts=0)
        with pytest.raises(ParameterError):
            SpectralConfig(K=2, tau=-1.0)
        with pytest.raises(ParameterError):
            SpectralConfig(K=2, tau="banana")
        with pytest.raises(ParameterError):
            SpectralConfig(K=2, tau=float("nan"))

    def test_more_communities_than_nodes_rejected(self):
        adj, _ = two_cliques(3)
        with pytest.raises(InvalidInputError):
            detect_communities(adj, SpectralConfig(K=7))


# ------------------------------------------------------ continuous baseline


class TestSpectralOnContinuous:
    def test_block_correlation_recovered(self):
        m = 60
        values = np.full((m, m), 0.05)
        values[:30, :30] = 0.6
        values[30:, 30:] = 0.6
        np.fill_diagonal(values, 1.0)
        corr = SymmetricMatrix(values, "correlation")
        truth = Partition([1] * 30 + [2] * 30, 2)
        part = spectral_on_continuous(corr, SpectralConfig(K=2, seed=0))
        assert nmi(part, truth) == 1.0

    def test_negative_correlations_count_by_magnitude(self):
        m = 40
        values = np.full((m, m), 0.02)
        values[:20, :20] = -0.7
        values[20:, 20:] = -0.7
        np.fill_diagonal(values, 1.0)
        corr = SymmetricMatrix(values, "correlation")
        truth = Partition([1] * 20 + [2] * 20, 2)
        part = spectral_on_continuous(corr, SpectralConfig(K=2, seed=0))
        assert nmi(part, truth) == 1.0

    def test_requires_correlation_kind(self):
        cov = SymmetricMatrix(np.eye(5), "covariance")
        with pytest.raises(InvalidInputError):
            spectral_on_continuous(cov, SpectralConfig(K=2))

    def test_all_zero_matrix_single_community(self):
        values = np.eye(6)
        corr = SymmetricMatrix(values, "correlation")
        part = spectral_on_continuous(corr, SpectralConfig(K=3, seed=0))
        assert np.all(part.labels == 1)
