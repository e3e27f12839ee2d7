"""Tests for the canonical edge list of SparseAdjacency."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from assocnet import graphs
from assocnet.errors import InvalidInputError
from assocnet.graphs import SparseAdjacency


def canonical_pairs(rng, m, count):
    ids = np.sort(rng.choice(m * (m - 1) // 2, size=count, replace=False))
    rows, cols = np.triu_indices(m, k=1)
    return np.column_stack([rows[ids], cols[ids]])


class TestCanonicalEdges:
    def test_canonical_input_is_not_sorted_again(self, monkeypatch):
        edges = canonical_pairs(np.random.default_rng(0), 50, 200)

        def no_sort(*args, **kwargs):
            raise AssertionError("canonical edges were sorted again")

        monkeypatch.setattr(np, "lexsort", no_sort)
        adj = SparseAdjacency(50, edges)
        np.testing.assert_array_equal(adj.edges, edges)

    @pytest.mark.parametrize("scramble", ["shuffled", "reversed-pairs", "both"])
    def test_scrambled_input_comes_out_canonical(self, scramble):
        rng = np.random.default_rng(1)
        edges = canonical_pairs(rng, 50, 200)
        scrambled = edges.copy()
        if scramble != "reversed-pairs":
            scrambled = scrambled[rng.permutation(len(scrambled))]
        if scramble != "shuffled":
            flip = rng.random(len(scrambled)) < 0.5
            scrambled[flip] = scrambled[flip, ::-1]
        np.testing.assert_array_equal(SparseAdjacency(50, scrambled).edges, edges)

    def test_the_callers_array_is_not_kept(self):
        edges = np.array([[0, 1], [0, 2], [1, 2]])
        adj = SparseAdjacency(3, edges)
        edges[0] = [1, 2]
        np.testing.assert_array_equal(adj.edges, [[0, 1], [0, 2], [1, 2]])

    @pytest.mark.parametrize("at", [3, 4, 5])
    def test_order_is_checked_across_chunk_boundaries(self, monkeypatch, at):
        # Chunks of 4 edges: rows 3 and 4 straddle the first boundary.
        monkeypatch.setattr(graphs, "_CHECK_ROWS", 4)
        edges = canonical_pairs(np.random.default_rng(2), 20, 12)
        swapped = edges.copy()
        swapped[[at - 1, at]] = swapped[[at, at - 1]]
        np.testing.assert_array_equal(SparseAdjacency(20, swapped).edges, edges)
        repeated = edges.copy()
        repeated[at] = repeated[at - 1]
        with pytest.raises(InvalidInputError, match="duplicate"):
            SparseAdjacency(20, repeated)

    def test_canonical_build_holds_one_edge_array(self):
        # 2M canonical edges: 2000 rows of 1000 neighbours each.
        k = np.arange(2_000_000)
        edges = np.column_stack([k // 1000, k // 1000 + 1 + k % 1000])
        del k
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            adj = SparseAdjacency(3001, edges)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert adj.edge_count == 2_000_000
        assert peak < 1.3 * edges.nbytes

    @pytest.mark.parametrize(
        "edges",
        [[[0, 1], [0, 1]], [[1, 0], [0, 1]], [[0, 0]], [[0, 3]], [[-1, 1]]],
        ids=["duplicate", "duplicate-reversed", "self-loop", "past-m", "negative"],
    )
    def test_invalid_edges_are_still_rejected(self, edges):
        with pytest.raises(InvalidInputError):
            SparseAdjacency(3, np.array(edges))


class TestMatrixViews:
    """to_csr against a COO build, and its row counts against np.add.at counts."""

    @staticmethod
    def coo_csr(adj):
        rows = np.concatenate([adj.edges[:, 0], adj.edges[:, 1]])
        cols = np.concatenate([adj.edges[:, 1], adj.edges[:, 0]])
        data = np.ones(rows.shape[0], dtype=np.float64)
        return sp.csr_matrix((data, (rows, cols)), shape=(adj.m, adj.m))

    @staticmethod
    def add_at_degrees(adj):
        deg = np.zeros(adj.m, dtype=np.int64)
        np.add.at(deg, adj.edges[:, 0], 1)
        np.add.at(deg, adj.edges[:, 1], 1)
        return deg

    @pytest.mark.parametrize(
        "m, count", [(1, 0), (2, 1), (50, 300), (300, 0), (2000, 20000)]
    )
    def test_match_the_coo_build_and_add_at_counts(self, m, count):
        adj = SparseAdjacency(m, canonical_pairs(np.random.default_rng(m), m, count))
        got, expected = adj.to_csr(), self.coo_csr(adj)
        assert got.format == "csr" and got.shape == (m, m)
        assert got.has_canonical_format
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(expected, name)
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        # The row counts are the degrees that community detection reads.
        np.testing.assert_array_equal(np.diff(got.indptr), self.add_at_degrees(adj))
