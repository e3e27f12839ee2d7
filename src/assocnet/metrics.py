"""Metrics comparing inferred structure to ground truth.

Covers normalized mutual information between partitions, confusion
counts over unordered node pairs, and edge-density summaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .graphs import Partition, SparseAdjacency


@dataclass(frozen=True)
class ConfusionCounts:
    """Edge classification counts over all unordered node pairs."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def tpr(self) -> float:
        """Sensitivity tp/(tp+fn); 0.0 when there are no true edges."""
        denom = self.tp + self.fn
        return self.tp / denom if denom else 0.0

    @property
    def fpr(self) -> float:
        """1 - specificity fp/(fp+tn); 0.0 when every pair is a true edge."""
        denom = self.fp + self.tn
        return self.fp / denom if denom else 0.0


def _entropy(counts: np.ndarray, total: int) -> float:
    probs = counts[counts > 0] / total
    return float(-(probs * np.log(probs)).sum())


def nmi(p: Partition, q: Partition) -> float:
    """Normalized mutual information 2 I(P;Q) / (H(P) + H(Q)).

    Natural logarithms throughout. If both partitions have zero entropy
    they agree perfectly and the value is 1.0; if exactly one does, the
    value is 0.0.
    """
    if p.m != q.m:
        raise InvalidInputError("partitions must cover the same nodes")
    m = p.m
    side_q = int(q.labels.max()) + 1
    joint = np.bincount(
        p.labels * side_q + q.labels, minlength=(int(p.labels.max()) + 1) * side_q
    ).reshape(-1, side_q)
    rows = joint.sum(axis=1)
    cols = joint.sum(axis=0)
    h_p = _entropy(rows, m)
    h_q = _entropy(cols, m)
    if h_p == 0.0 and h_q == 0.0:
        return 1.0
    if h_p == 0.0 or h_q == 0.0:
        return 0.0
    nz = joint > 0
    cells = joint[nz] / m
    outer = np.outer(rows, cols)[nz] / (m * m)
    info = float((cells * np.log(cells / outer)).sum())
    return float(min(max(2.0 * info / (h_p + h_q), 0.0), 1.0))


def edge_confusion(inferred: SparseAdjacency, truth: SparseAdjacency) -> ConfusionCounts:
    """Classify every unordered pair as tp/fp/tn/fn against the truth."""
    if inferred.m != truth.m:
        raise InvalidInputError("adjacencies must have the same node count")
    m = inferred.m
    total = m * (m - 1) // 2
    inf_ids = inferred.pair_ids()
    true_ids = truth.pair_ids()
    tp = int(np.intersect1d(inf_ids, true_ids, assume_unique=True).size)
    fp = inf_ids.size - tp
    fn = true_ids.size - tp
    tn = total - tp - fp - fn
    return ConfusionCounts(tp, fp, tn, fn)


@dataclass(frozen=True)
class DensitySummary:
    """Edge densities overall and split by a planted partition."""

    overall: float
    within: float | None = None
    between: float | None = None
    within_pairs: int | None = None
    between_pairs: int | None = None


def edge_density(adj: SparseAdjacency, partition: Partition | None = None) -> DensitySummary:
    """Overall density, plus within/between when a partition is given.

    Within-pairs share a non-background (nonzero) label; every other
    pair counts as between, background nodes included. A split with no
    eligible pairs reports density 0.0.
    """
    m = adj.m
    total = m * (m - 1) // 2
    overall = adj.edge_count / total if total else 0.0
    if partition is None:
        return DensitySummary(overall)
    if partition.m != m:
        raise InvalidInputError("partition must cover the same nodes")
    labels = partition.labels
    sizes = np.bincount(labels[labels > 0])
    within_pairs = int((sizes * (sizes - 1) // 2).sum())
    between_pairs = total - within_pairs
    if adj.edge_count:
        li = labels[adj.edges[:, 0]]
        lj = labels[adj.edges[:, 1]]
        within_edges = int(((li == lj) & (li > 0)).sum())
    else:
        within_edges = 0
    between_edges = adj.edge_count - within_edges
    within = within_edges / within_pairs if within_pairs else 0.0
    between = between_edges / between_pairs if between_pairs else 0.0
    return DensitySummary(overall, within, between, within_pairs, between_pairs)
