"""Tests for the canonical edge list of SparseAdjacency."""

import numpy as np
import pytest

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

    @pytest.mark.parametrize(
        "edges",
        [[[0, 1], [0, 1]], [[1, 0], [0, 1]], [[0, 0]], [[0, 3]], [[-1, 1]]],
        ids=["duplicate", "duplicate-reversed", "self-loop", "past-m", "negative"],
    )
    def test_invalid_edges_are_still_rejected(self, edges):
        with pytest.raises(InvalidInputError):
            SparseAdjacency(3, np.array(edges))
