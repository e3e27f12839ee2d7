"""Tests for partition and edge-recovery metrics.

Independent oracles, defined before any assertions use them:

* ``loop_nmi`` — contingency-table mutual information in plain python
  loops with natural logarithms.
* ``loop_confusion`` — O(m^2) pair-by-pair classification on dense
  matrices.
"""

import math
from collections import Counter

import numpy as np
import pytest

from conftest import from_dense, to_dense

from assocnet.errors import InvalidInputError
from assocnet.graphs import Partition, SparseAdjacency
from assocnet.metrics import (
    ConfusionCounts,
    DensitySummary,
    edge_confusion,
    edge_density,
    nmi,
)

# ----------------------------------------------------------------- oracles


def loop_nmi(p, q):
    """2 I(P;Q) / (H(P) + H(Q)) from explicit contingency counts."""
    m = len(p)
    joint = Counter(zip(p, q))
    rows, cols = Counter(p), Counter(q)
    h_p = -sum(c / m * math.log(c / m) for c in rows.values())
    h_q = -sum(c / m * math.log(c / m) for c in cols.values())
    if h_p == 0.0 and h_q == 0.0:
        return 1.0
    if h_p == 0.0 or h_q == 0.0:
        return 0.0
    info = sum(
        c / m * math.log((c / m) / ((rows[a] / m) * (cols[b] / m)))
        for (a, b), c in joint.items()
    )
    return 2.0 * info / (h_p + h_q)


def loop_confusion(inferred_dense, truth_dense):
    """Pair-by-pair confusion counts via nested loops."""
    m = inferred_dense.shape[0]
    tp = fp = tn = fn = 0
    for i in range(m):
        for j in range(i + 1, m):
            got = bool(inferred_dense[i, j])
            want = bool(truth_dense[i, j])
            if got and want:
                tp += 1
            elif got:
                fp += 1
            elif want:
                fn += 1
            else:
                tn += 1
    return tp, fp, tn, fn


def random_partition(rng, m, K):
    return Partition(rng.integers(1, K + 1, size=m), K)


def random_adjacency(rng, m, p):
    dense = (rng.random((m, m)) < p).astype(np.int8)
    dense = np.triu(dense, k=1)
    dense = dense + dense.T
    return from_dense(dense)


# --------------------------------------------------------------------- NMI


class TestNmi:
    def test_identical_partitions(self):
        rng = np.random.default_rng(0)
        p = random_partition(rng, 200, 5)
        assert nmi(p, p) == 1.0

    def test_relabeled_partition_is_equivalent(self):
        assert nmi(Partition([1, 1, 2, 2], 2), Partition([2, 2, 1, 1], 2)) == 1.0

    @pytest.mark.parametrize(
        "p, q, expected",
        [
            # frozen from loop_nmi
            ([1, 1, 2, 2], [1, 1, 1, 2], 0.3437110184854508),
            ([1, 1, 2, 2, 3, 3], [1, 1, 2, 2, 2, 2], 0.733680436651211),
        ],
    )
    def test_frozen_oracle_values(self, p, q, expected):
        got = nmi(Partition(p, max(p)), Partition(q, max(q)))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = int(rng.integers(5, 120))
            p = random_partition(rng, m, int(rng.integers(1, 6)))
            q = random_partition(rng, m, int(rng.integers(1, 6)))
            expected = loop_nmi(p.labels.tolist(), q.labels.tolist())
            assert nmi(p, q) == pytest.approx(expected, abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = random_partition(rng, 80, 4)
            q = random_partition(rng, 80, 3)
            assert nmi(p, q) == pytest.approx(nmi(q, p), abs=1e-14)

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(3)
        p = random_partition(rng, 150, 6)
        q = random_partition(rng, 150, 4)
        perm = np.concatenate([[0], rng.permutation(np.arange(1, 7))])
        p_permuted = Partition(perm[p.labels], 6)
        assert nmi(p_permuted, q) == pytest.approx(nmi(p, q), abs=1e-12)

    def test_independent_labelings_near_zero(self):
        rng = np.random.default_rng(4)
        p = random_partition(rng, 10_000, 4)
        q = random_partition(rng, 10_000, 4)
        assert 0.0 <= nmi(p, q) < 0.01

    def test_constant_against_informative_is_zero(self):
        constant = Partition(np.ones(60, dtype=np.int64), 1)
        rng = np.random.default_rng(5)
        other = random_partition(rng, 60, 3)
        assert nmi(constant, other) == 0.0

    def test_both_constant_is_one(self):
        p = Partition(np.ones(10, dtype=np.int64), 1)
        assert nmi(p, p) == 1.0

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            m = int(rng.integers(3, 40))
            p = random_partition(rng, m, int(rng.integers(1, 5)))
            q = random_partition(rng, m, int(rng.integers(1, 5)))
            value = nmi(p, q)
            assert 0.0 <= value <= 1.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            nmi(Partition([1, 1], 1), Partition([1, 1, 1], 1))


# --------------------------------------------------------------- confusion


class TestEdgeConfusion:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            m = int(rng.integers(3, 40))
            inferred = random_adjacency(rng, m, 0.2)
            truth = random_adjacency(rng, m, 0.2)
            counts = edge_confusion(inferred, truth)
            tp, fp, tn, fn = loop_confusion(to_dense(inferred), to_dense(truth))
            assert (counts.tp, counts.fp, counts.tn, counts.fn) == (tp, fp, tn, fn)

    def test_perfect_recovery(self):
        rng = np.random.default_rng(8)
        truth = random_adjacency(rng, 30, 0.3)
        counts = edge_confusion(truth, truth)
        assert counts.tp == truth.edge_count
        assert counts.fp == counts.fn == 0
        assert counts.tpr == 1.0 and counts.fpr == 0.0

    def test_empty_inference(self):
        rng = np.random.default_rng(9)
        truth = random_adjacency(rng, 20, 0.4)
        empty = SparseAdjacency(20)
        counts = edge_confusion(empty, truth)
        assert counts.tpr == 0.0
        assert counts.fpr == 0.0
        assert counts.fn == truth.edge_count

    def test_undefined_rates_report_zero(self):
        empty = SparseAdjacency(5)
        counts = edge_confusion(empty, empty)
        assert counts.tpr == 0.0
        assert counts.fp + counts.tn == 10

        full_dense = 1 - np.eye(3, dtype=np.int8)
        full = from_dense(full_dense)
        counts = edge_confusion(full, full)
        assert counts.fpr == 0.0
        assert counts.tpr == 1.0

    def test_counts_cover_all_pairs(self):
        rng = np.random.default_rng(10)
        inferred = random_adjacency(rng, 25, 0.3)
        truth = random_adjacency(rng, 25, 0.1)
        counts = edge_confusion(inferred, truth)
        assert counts.tp + counts.fp + counts.tn + counts.fn == 25 * 24 // 2

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            edge_confusion(SparseAdjacency(3), SparseAdjacency(4))


# ----------------------------------------------------------------- density


def star_adjacency(m):
    dense = np.zeros((m, m), dtype=np.int8)
    dense[0, 1:] = 1
    dense[1:, 0] = 1
    return from_dense(dense)


class TestEdgeDensity:
    def test_star_overall_density(self):
        summary = edge_density(star_adjacency(5))
        assert summary.overall == pytest.approx(4 / 10)
        assert summary.within is None and summary.between is None

    def test_partition_split(self):
        # two triangles joined by a single bridge edge
        dense = np.zeros((6, 6), dtype=np.int8)
        for block in ([0, 1, 2], [3, 4, 5]):
            for i in block:
                for j in block:
                    if i != j:
                        dense[i, j] = 1
        dense[2, 3] = dense[3, 2] = 1
        adj = from_dense(dense)
        partition = Partition([1, 1, 1, 2, 2, 2], 2)
        summary = edge_density(adj, partition)
        assert summary.within == pytest.approx(1.0)
        assert summary.between == pytest.approx(1 / 9)
        assert summary.within_pairs == 6
        assert summary.between_pairs == 9

    def test_background_nodes_count_as_between(self):
        dense = np.zeros((4, 4), dtype=np.int8)
        dense[0, 1] = dense[1, 0] = 1
        dense[2, 3] = dense[3, 2] = 1
        adj = from_dense(dense)
        partition = Partition([1, 1, 0, 0], 1)
        summary = edge_density(adj, partition)
        assert summary.within == pytest.approx(1.0)
        assert summary.within_pairs == 1
        assert summary.between == pytest.approx(1 / 5)

    def test_empty_graph(self):
        summary = edge_density(SparseAdjacency(7), Partition(np.ones(7, np.int64), 1))
        assert summary.overall == 0.0
        assert summary.within == 0.0
        assert summary.between == 0.0

    def test_single_node(self):
        assert edge_density(SparseAdjacency(1)).overall == 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            edge_density(SparseAdjacency(3), Partition([1, 1], 1))


# ------------------------------------------------------------------ degrees


def degree_histogram(adj):
    """counts[d] = number of nodes with degree d; covers 0..max degree."""
    return np.bincount(np.bincount(adj.edges.ravel(), minlength=adj.m), minlength=1)


class TestDegreeHistogram:
    def test_star_degrees(self):
        hist = degree_histogram(star_adjacency(5))
        assert hist.tolist() == [0, 4, 0, 0, 1]

    def test_handshake_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            adj = random_adjacency(rng, int(rng.integers(2, 50)), 0.25)
            hist = degree_histogram(adj)
            assert int((np.arange(hist.size) * hist).sum()) == 2 * adj.edge_count

    def test_empty_graph_all_isolated(self):
        hist = degree_histogram(SparseAdjacency(6))
        assert hist.tolist() == [6]
