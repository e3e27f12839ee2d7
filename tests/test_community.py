"""Tests for spectral community detection.

Independent oracles, defined before any assertions use them:

* ``dense_regularized_laplacian`` — explicit construction of the
  degree-regularized normalization in plain numpy, with the upper
  triangle mirrored onto the lower one; ``packed`` reads its upper
  triangle row after row, the layout of the dense Laplacian build.
* ``matmul_regularized_laplacian`` — the sparse build through
  ``sp.diags`` and two matmuls, kept as the byte reference.
* ``np.linalg.eigh`` on that dense matrix — reference spectrum for the
  iterative solver path.
* well-separated Gaussian blobs / planted blocks — clustering ground
  truth with a unique correct answer.
* ``reference_lloyd`` / ``reference_kmeans_plusplus`` — the k-means
  that summed clusters with ``np.add.at`` and allocated fresh arrays on
  every step, kept verbatim: k-means output must match it bit for bit.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import from_dense, to_dense

from assocnet import community
from assocnet.assoc import SymmetricMatrix
from assocnet.community import (
    DENSE_CUTOFF,
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
    return np.where(np.tri(len(lap), k=-1, dtype=bool), lap.T, lap)  # upper mirrored


def packed(full):
    """The upper triangle of a square matrix, row after row: L[0, 0:], L[1, 1:], ..."""
    return full[np.triu_indices(len(full))]


def matmul_regularized_laplacian(csr, tau):
    """The sparse build that scaled through sp.diags, two matmuls and an average."""
    degrees = np.diff(csr.indptr).astype(np.float64)
    tau_value = float(np.mean(degrees)) if tau == "auto" else float(tau)
    reg = degrees + tau_value
    with np.errstate(divide="ignore"):
        scale = np.where(reg > 0.0, 1.0 / np.sqrt(np.maximum(reg, 1e-300)), 0.0)
    diag = sp.diags(scale)
    lap = diag @ csr @ diag
    return ((lap + lap.T) * 0.5).tocsr()


def eigengap_oracle(adj):
    """Eigengap K from the full dense spectrum of the regularized Laplacian."""
    dense = to_dense(adj).astype(np.float64)
    lap = dense_regularized_laplacian(dense, dense.sum(axis=1).mean())
    magnitudes = np.sort(np.abs(np.linalg.eigvalsh(lap)))[::-1]
    k_max = min(max(2, min(adj.m // 10, 150)), adj.m - 2)
    gaps = magnitudes[1:k_max] - magnitudes[2 : k_max + 1]
    return int(gaps.argmax()) + 2


def reference_kmeans_plusplus(points, k, rng):
    """k-means++ seeding; duplicates the first pick when points coincide."""
    m = points.shape[0]
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(m)
    d2 = np.square(points - points[chosen[0]]).sum(axis=1)
    for idx in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            chosen[idx] = chosen[0]
        else:
            chosen[idx] = rng.choice(m, p=d2 / total)
        d2 = np.minimum(d2, np.square(points - points[chosen[idx]]).sum(axis=1))
    return points[chosen].copy()


def reference_lloyd(points, k, rng, max_iter=300):
    """One seeded k-means run; returns (labels, wcss, iterations).

    Ties in the assignment step go to the lowest-index centroid. An
    empty cluster is re-seeded at the point farthest from its assigned
    centroid; when every distance is zero it is left empty.
    """
    m = points.shape[0]
    centroids = reference_kmeans_plusplus(points, k, rng)
    labels = None
    sq_points = np.square(points).sum(axis=1)
    for iteration in range(max_iter):
        d2 = (
            sq_points[:, None]
            - 2.0 * points @ centroids.T
            + np.square(centroids).sum(axis=1)[None, :]
        )
        np.maximum(d2, 0.0, out=d2)
        new_labels = d2.argmin(axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels

        sums = np.zeros_like(centroids)
        np.add.at(sums, labels, points)
        counts = np.bincount(labels, minlength=k)
        occupied = counts > 0
        centroids = np.where(
            occupied[:, None], sums / np.maximum(counts, 1)[:, None], centroids
        )
        if not occupied.all():
            assigned_d2 = d2[np.arange(m), labels]
            farthest = np.argsort(-assigned_d2, kind="stable")
            cursor = 0
            for cluster in np.flatnonzero(~occupied):
                if cursor < m and assigned_d2[farthest[cursor]] > 0.0:
                    centroids[cluster] = points[farthest[cursor]]
                    cursor += 1
    wcss = float(d2[np.arange(m), labels].sum())
    return labels, wcss, iteration + 1


def random_graph(rng, m, p):
    dense = (rng.random((m, m)) < p).astype(np.int8)
    dense = np.triu(dense, k=1)
    return from_dense(dense + dense.T)


def planted_blocks(rng, sizes, p_in, p_out):
    m = int(np.sum(sizes))
    labels = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    u = rng.random((m, m))
    same = labels[:, None] == labels[None, :]
    dense = np.where(same, u < p_in, u < p_out).astype(np.int8)
    dense = np.triu(dense, k=1)
    return from_dense(dense + dense.T), Partition(labels, len(sizes))


def two_cliques(size):
    dense = np.zeros((2 * size, 2 * size), dtype=np.int8)
    dense[:size, :size] = 1
    dense[size:, size:] = 1
    np.fill_diagonal(dense, 0)
    truth = Partition([1] * size + [2] * size, 2)
    return from_dense(dense), truth


def gaussian_blobs(rng, centers, per_blob, spread):
    points, labels = [], []
    for idx, center in enumerate(centers, start=1):
        points.append(center + spread * rng.standard_normal((per_blob, len(center))))
        labels.extend([idx] * per_blob)
    return np.vstack(points), Partition(labels, len(centers))


@pytest.fixture()
def requests(monkeypatch):
    """The eigenpair counts asked of _leading_eigenpairs, in order."""
    asked = []
    solve = community._leading_eigenpairs

    def spy(lap, k, *args, **kwargs):
        asked.append(k)
        return solve(lap, k, *args, **kwargs)

    monkeypatch.setattr(community, "_leading_eigenpairs", spy)
    return asked


# ------------------------------------------------------------ eigensolver


class TestLeadingEigenpairs:
    def test_sparse_path_matches_dense_spectrum(self):
        rng = np.random.default_rng(30)
        for _ in range(8):
            m = int(rng.integers(DENSE_CUTOFF + 1, 90))
            adj = random_graph(rng, m, 0.15)
            lap = dense_regularized_laplacian(
                to_dense(adj).astype(np.float64), tau=1.0
            )
            vals_sparse, vecs_sparse = _leading_eigenpairs(packed(lap), 6)
            vals_dense = np.linalg.eigh(lap)[0]
            vals_dense = vals_dense[np.argsort(-np.abs(vals_dense), kind="stable")[:6]]
            np.testing.assert_allclose(vals_sparse, vals_dense, atol=1e-6)
            gram = vecs_sparse.T @ vecs_sparse
            np.testing.assert_allclose(gram, np.eye(6), atol=1e-8)

    def test_dense_path_matches_numpy_reference(self):
        rng = np.random.default_rng(31)
        adj = random_graph(rng, 20, 0.3)
        lap = dense_regularized_laplacian(to_dense(adj).astype(np.float64), 0.5)
        vals, _ = _leading_eigenpairs(packed(lap), 5)
        reference = np.linalg.eigvalsh(lap)
        top = reference[np.argsort(-np.abs(reference), kind="stable")[:5]]
        np.testing.assert_allclose(vals, top, atol=1e-12)

    def test_sorted_by_absolute_value(self):
        rng = np.random.default_rng(32)
        adj = random_graph(rng, 50, 0.2)
        lap = dense_regularized_laplacian(to_dense(adj).astype(np.float64), 1.0)
        vals, _ = _leading_eigenpairs(packed(lap), 8)
        mags = np.abs(vals)
        assert np.all(np.diff(mags) <= 1e-12)

    def test_rejects_bad_k(self):
        lap = packed(np.eye(4))
        with pytest.raises(ParameterError):
            _leading_eigenpairs(lap, 0)
        with pytest.raises(ParameterError):
            _leading_eigenpairs(lap, 5)


# -------------------------------------------------------------- embedding


def embed(adj, config):
    """The K-dimensional embedding detect_communities clusters."""
    lap, _, _ = community._regularized_laplacian(adj.to_csr(), config.tau)
    vecs, _ = _embed(lap, config, config.K)
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
        adj = from_dense(dense)
        vecs = embed(adj, SpectralConfig(K=2, tau=0.0))
        assert np.all(vecs[39] == 0.0)
        assert np.all(np.isfinite(vecs))

    def test_needs_enough_nodes(self):
        with pytest.raises(InvalidInputError):
            detect_communities_report(SparseAdjacency(3, [[0, 1]]), SpectralConfig(K=4))


class TestRegularizedLaplacian:
    """The dense branch builds the packed upper triangle alone, one row
    at a time.
    """

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
            lap, _, tau_value = community._regularized_laplacian(weights, tau)
            expected = packed(dense_regularized_laplacian(weights, tau_value))
            assert lap.shape == (300 * 301 // 2,) and lap.flags.c_contiguous
            assert lap.tobytes() == expected.tobytes()

    def test_dense_upper_triangle_scales_by_row_then_column(self):
        weights = self.symmetric_weights(130, "C")
        lap, degrees, tau_value = community._regularized_laplacian(weights, "auto")
        scale = 1.0 / np.sqrt(degrees + tau_value)
        row_then_col = weights * scale[:, None] * scale[None, :]
        col_then_row = weights * scale[None, :] * scale[:, None]
        # Rounding tells the two orders apart at some pair, so averaging
        # the triangles would move that pair off the row-then-column product.
        assert np.any(np.triu(row_then_col != col_then_row, 1))
        assert lap.tobytes() == packed(row_then_col).tobytes()

    def test_dense_branch_holds_one_new_matrix(self, mapped_bytes):
        weights = self.symmetric_weights(400, "C")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            community._regularized_laplacian(weights, "auto")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert mapped_bytes == [400 * 401 // 2 * 8]  # one packed triangle
        assert peak + sum(mapped_bytes) < 0.6 * weights.nbytes

    @staticmethod
    def graph_with_isolated_nodes(seed):
        rng = np.random.default_rng(seed)
        dense = np.triu((rng.random((90, 90)) < 0.08).astype(np.int8), k=1)
        dense[:, [3, 40, 89]] = 0
        dense[[3, 40, 89], :] = 0
        return from_dense(dense + dense.T)

    @pytest.mark.parametrize("tau", [0.0, 2.5, "auto"])
    def test_sparse_branch_matches_oracle(self, tau):
        adj = self.graph_with_isolated_nodes(60)
        assert np.count_nonzero(np.bincount(adj.edges.ravel(), minlength=adj.m) == 0) == 3
        lap, _, tau_value = community._regularized_laplacian(adj.to_csr(), tau)
        expected = dense_regularized_laplacian(to_dense(adj).astype(np.float64), tau_value)
        assert lap.toarray().tobytes() == expected.tobytes()

    @pytest.mark.parametrize("tau", [0.0, 2.5, "auto"])
    def test_sparse_branch_matches_matmul_build_bytes(self, tau):
        for seed in (61, 62):
            csr = self.graph_with_isolated_nodes(seed).to_csr()
            lap, _, _ = community._regularized_laplacian(csr, tau)
            expected = matmul_regularized_laplacian(csr, tau)
            assert type(lap) is type(expected)
            assert lap.has_sorted_indices == expected.has_sorted_indices
            for name in ("data", "indices", "indptr"):
                got, want = getattr(lap, name), getattr(expected, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_sparse_branch_leaves_its_input(self):
        csr = self.graph_with_isolated_nodes(63).to_csr()
        before = csr.data.copy()
        community._regularized_laplacian(csr, "auto")
        assert csr.data.tobytes() == before.tobytes()

    def test_sparse_degrees_are_the_graph_degrees(self):
        adj = self.graph_with_isolated_nodes(64)
        _, degrees, _ = community._regularized_laplacian(adj.to_csr(), "auto")
        assert degrees.dtype == np.float64
        assert np.array_equal(degrees, np.bincount(adj.edges.ravel(), minlength=adj.m))

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_dense_degrees_are_absolute_row_sums(self, layout):
        values = np.random.default_rng(65).uniform(-1.0, 1.0, (301, 301))
        values = (values + values.T) / 2.0
        np.fill_diagonal(values, 1.0)
        if layout == "strided":
            values = values[::2, ::2]
        else:
            values = np.asarray(values, order=layout)
        weights = np.abs(values)  # the same layout as values
        np.fill_diagonal(weights, 0.0)
        expected = weights.sum(axis=1)
        lap, degrees, _ = community._regularized_laplacian(values, "auto")
        assert lap.flags.c_contiguous
        assert degrees.tobytes() == expected.tobytes()
        exact = [math.fsum(row) for row in weights]
        np.testing.assert_allclose(degrees, exact, rtol=1e-13)


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

    @staticmethod
    def assert_matches_reference(monkeypatch, points, k, restarts=10, seed=0):
        got = _kmeans_runs(points, k, restarts, seed)
        with monkeypatch.context() as patch:
            patch.setattr(community, "_lloyd", reference_lloyd)
            expected = _kmeans_runs(points, k, restarts, seed)
        np.testing.assert_array_equal(got[0], expected[0])
        assert got[1:] == expected[1:]  # wcss, restart_wcss, restart_iterations

    @pytest.mark.parametrize("k", [1, 2, 4, 10, 11])
    def test_matches_the_add_at_reference_bit_for_bit(self, monkeypatch, k):
        rng = np.random.default_rng(100 + k)
        points = rng.standard_normal((600, k))
        points /= np.linalg.norm(points, axis=1, keepdims=True)  # like a row-normalized embedding
        self.assert_matches_reference(monkeypatch, points, k, seed=k)
        self.assert_matches_reference(monkeypatch, np.asfortranarray(points), k, seed=k)

    def test_matches_the_reference_when_seeding_runs_out_of_points(self, monkeypatch):
        # Three distinct points and K = 5: once all three are picked every
        # distance is zero, so k-means++ takes its duplicate-the-first branch.
        points = np.repeat([[0.0, 1.0], [2.0, -1.0], [5.0, 5.0]], [7, 3, 5], axis=0)
        self.assert_matches_reference(monkeypatch, points, 5)

    def test_matches_the_reference_when_a_cluster_empties(self, monkeypatch):
        points = np.array([[0.0], [-6.0], [-6.0], [-1.0], [-5.0], [-5.0], [-6.0], [3.0]])
        reseeds = []

        class Numpy:
            """numpy, with argsort (called only to re-seed an empty cluster) spied on."""

            def __getattr__(self, name):
                return getattr(np, name)

            def argsort(self, values, **kwargs):
                reseeds.append(bool((values < 0.0).any()))  # some point is off its centroid
                return np.argsort(values, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(community, "np", Numpy())
            _kmeans_runs(points, 3, 6, 0)
        assert any(reseeds)
        self.assert_matches_reference(monkeypatch, points, 3, restarts=6)

    @staticmethod
    def choice_seeding(columns, k, rng):
        """k-means++ seeding on the same distances, each pick drawn by rng.choice."""
        m = columns.shape[1]
        chosen = np.empty(k, dtype=np.int64)
        chosen[0] = rng.integers(m)
        d2 = np.full(m, np.inf)
        for idx in range(1, k):
            dist = np.square(columns - columns[:, chosen[idx - 1], None]).sum(axis=0)
            d2 = np.minimum(d2, dist)
            total = d2.sum()
            chosen[idx] = chosen[0] if total <= 0.0 else rng.choice(m, p=d2 / total)
        return columns[:, chosen].T

    def test_seeding_draws_as_generator_choice(self):
        data = np.random.default_rng(40)
        for state in range(200):
            points = data.standard_normal((40, 3))
            points[data.integers(40, size=10)] = points[0]  # some zero distances
            columns = np.ascontiguousarray(points.T)
            got_rng, choice_rng = np.random.default_rng(state), np.random.default_rng(state)
            got = community._kmeans_plusplus(columns, 6, got_rng)
            expected = self.choice_seeding(columns, 6, choice_rng)
            assert got.tobytes() == expected.tobytes()
            assert got_rng.bit_generator.state == choice_rng.bit_generator.state

    def test_distance_ties_go_to_the_lowest_centroid(self, monkeypatch):
        centroids = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        points = np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        # Squared distances, centroid by centroid: (2, 2, 2, 2), (8, 4, 4, 8),
        # (0, 4, 4, 0), (1, 1, 5, 1) and (4, 0, 8, 4), all exact.
        monkeypatch.setattr(
            community, "_kmeans_plusplus", lambda columns, k, rng: centroids.copy()
        )
        labels, _, _ = community._lloyd(points, 4, np.random.default_rng(0), max_iter=1)
        assert labels.tolist() == [0, 1, 0, 0, 1]

    def test_layout_does_not_change_the_result(self):
        # Ten columns: numpy sums a contiguous row of eight or more pairwise,
        # a strided one in order, so only one layout may reach the sums.
        points = np.random.default_rng(41).standard_normal((500, 10))
        wide = np.zeros((1000, 20))
        wide[::2, 1::2] = points
        expected = _kmeans_runs(points, 6, 5, 3)
        for view in (np.asfortranarray(points), wide[::2, 1::2]):
            got = _kmeans_runs(view, 6, 5, 3)
            np.testing.assert_array_equal(got[0], expected[0])
            assert got[1:] == expected[1:]

    def test_coincident_points_do_not_crash(self):
        points = np.ones((10, 2))
        part = cluster(points, 3, seed=0)
        assert part.m == 10
        occupied = np.flatnonzero(part.sizes()[1:]) + 1
        assert occupied.size == 1


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

    def test_empty_graph_needs_no_eigensolve(self, requests):
        assert select_num_communities(SparseAdjacency(5000)) == 2
        assert requests == []


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

    def test_repeated_reports_identical_on_a_ring(self):
        # The uniform start vector is an eigenvector of a regular graph, so
        # the eigensolver restarts; its restart vectors must be seeded too.
        m = 200
        ring = SparseAdjacency(m, np.column_stack([np.arange(m), (np.arange(m) + 1) % m]))
        config = SpectralConfig(K=4, seed=0)
        reports = {
            json.dumps(detect_communities_report(ring, config)[1], sort_keys=True)
            for _ in range(3)
        }
        assert len(reports) == 1

    def test_node_permutation_equivariance(self):
        adj, _ = two_cliques(20)
        rng = np.random.default_rng(45)
        perm = rng.permutation(40)
        dense = to_dense(adj)[np.ix_(perm, perm)]
        part_perm = detect_communities(
            from_dense(dense), SpectralConfig(K=2, seed=0)
        )
        part_orig = detect_communities(adj, SpectralConfig(K=2, seed=0))
        relabeled = Partition(part_orig.labels[perm], 2)
        assert nmi(part_perm, relabeled) == 1.0

    def test_isolated_node_joins_largest_cluster(self):
        dense = np.zeros((13, 13), dtype=np.int8)
        dense[:7, :7] = 1
        dense[7:12, 7:12] = 1
        np.fill_diagonal(dense, 0)
        adj = from_dense(dense)
        part, report = detect_communities_report(adj, SpectralConfig(K=2, seed=0))
        assert report["zero_degree_nodes"] == 1
        big_label = part.labels[0]
        assert part.labels[12] == big_label

    def test_empty_graph_collapses_to_one_community(self, requests):
        part, report = detect_communities_report(
            SparseAdjacency(9), SpectralConfig(K=3, seed=0)
        )
        assert np.all(part.labels == 1)
        assert report["empty_clusters"] == 2
        assert report["eigenvalues"] == []
        assert report["restart_iterations"] == []
        assert requests == []

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

    @pytest.mark.parametrize("size, solver", [(10, "dense"), (30, "arpack"), (0, None)])
    def test_report_names_the_eigensolver(self, size, solver):
        adj = two_cliques(size)[0] if size else SparseAdjacency(40)
        _, report = detect_communities_report(adj, SpectralConfig(K=2))
        assert report["eigensolver"] == solver

    def test_explicit_tau_zero_with_isolated_node(self):
        dense = np.zeros((36, 36), dtype=np.int8)
        dense[:35, :35] = 1
        np.fill_diagonal(dense, 0)
        adj = from_dense(dense)
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

    def test_all_zero_matrix_single_community(self, requests):
        values = np.eye(6)
        corr = SymmetricMatrix(values, "correlation")
        part = spectral_on_continuous(corr, SpectralConfig(K=3, seed=0))
        assert np.all(part.labels == 1)
        assert requests == []

    @staticmethod
    def block_correlations(m, order):
        rng = np.random.default_rng(m)
        groups = np.arange(m) * 4 // m
        values = np.where(groups[:, None] == groups[None, :], 0.5, 0.05)
        values = values + 0.1 * rng.standard_normal((m, m))
        values = np.clip((values + values.T) / 2.0, -1.0, 1.0)
        np.fill_diagonal(values, 1.0)
        return SymmetricMatrix(np.asarray(values, order=order), "correlation")

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_a_plain_numpy_pipeline(self, order):
        corr = self.block_correlations(300, order)
        weights = np.abs(corr.values)
        np.fill_diagonal(weights, 0.0)
        degrees = weights.sum(axis=1)
        config = SpectralConfig(K=4, seed=3)
        expected, _ = community._detect_on_weights(weights, config)
        _, returned, _ = community._regularized_laplacian(corr.values, config.tau)
        assert returned.tobytes() == degrees.tobytes()
        assert spectral_on_continuous(corr, config) == expected

    # m <= DENSE_CUTOFF, and K = m - 1 above it: eigh on the unpacked triangle.
    @pytest.mark.parametrize("m, k", [(DENSE_CUTOFF, 3), (40, 39)])
    def test_dense_fallback_decomposes_the_oracle(self, monkeypatch, m, k):
        def no_eigsh(*args, **kwargs):
            raise AssertionError("the dense fallback calls no iterative solver")

        monkeypatch.setattr(community, "eigsh", no_eigsh)
        corr = self.block_correlations(m, "C")
        weights = np.abs(corr.values)
        np.fill_diagonal(weights, 0.0)
        lap, _, tau_value = community._regularized_laplacian(corr.values, "auto")
        vals, vecs = _leading_eigenpairs(lap, k)
        ref_vals, ref_vecs = np.linalg.eigh(dense_regularized_laplacian(weights, tau_value))
        order = np.argsort(-np.abs(ref_vals), kind="stable")[:k]
        assert vals.tobytes() == ref_vals[order].tobytes()
        assert vecs.tobytes() == ref_vecs[:, order].tobytes()
        config = SpectralConfig(K=k, seed=1)
        expected, report = community._detect_on_weights(weights, config)
        assert report["eigensolver"] == "dense"
        assert spectral_on_continuous(corr, config) == expected

    def test_holds_one_m_by_m_matrix(self, mapped_bytes):
        # The eigensolver's and k-means' O(m) buffers per node add about
        # 0.13 of the input at m = 400 and 0.065 at m = 800.
        corr = self.block_correlations(800, "C")
        before = corr.values.copy()
        spectral_on_continuous(self.block_correlations(60, "C"), SpectralConfig(K=4))
        mapped_bytes.clear()  # the warm-up above loads what SciPy loads lazily
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            spectral_on_continuous(corr, SpectralConfig(K=4, seed=0))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert mapped_bytes == [800 * 801 // 2 * 8]  # one packed triangle
        assert peak + sum(mapped_bytes) < 0.6 * corr.values.nbytes
        assert corr.values.tobytes() == before.tobytes()
