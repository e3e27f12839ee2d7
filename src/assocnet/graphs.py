"""Undirected graph and node-partition containers used across the package.

Adjacency is stored as a canonical edge list: each undirected edge appears
once as a pair (i, j) with i < j, rows sorted lexicographically. Node ids
are 0-based internally; file formats are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy

from .errors import InvalidInputError


_CHECK_ROWS = 1 << 20  # edges per chunk of the canonical-order check


def _in_canonical_order(edges: np.ndarray) -> bool:
    """Whether every row has i < j and the rows increase strictly.

    The check runs in chunks of _CHECK_ROWS edges, each overlapping the
    one before by a row, so its temporaries stay small for any E.
    """
    for start in range(0, len(edges), _CHECK_ROWS):
        chunk = edges[max(start - 1, 0) : start + _CHECK_ROWS]
        lo, hi = chunk[:, 0], chunk[:, 1]
        if not np.all(lo < hi):
            return False
        rises = lo[1:] > lo[:-1]
        rises |= (lo[1:] == lo[:-1]) & (hi[1:] > hi[:-1])
        if not rises.all():
            return False
    return True


def _canonical_edges(edges: np.ndarray) -> np.ndarray:
    """A copy of edges in canonical form; input already in it is not sorted again.

    Canonical input has neither self loops nor repeated pairs; sorted
    input is checked for both.
    """
    edges = np.array(edges, dtype=np.int64, order="C")  # our own copy, not the caller's array
    if edges.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise InvalidInputError("edge array must have shape (E, 2)")
    if _in_canonical_order(edges):
        return edges
    lo, hi = edges[:, 0], edges[:, 1]
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    order = np.lexsort((hi, lo))
    edges = np.column_stack([lo[order], hi[order]])
    if np.any(edges[:, 0] == edges[:, 1]):
        raise InvalidInputError("self loops are not allowed")
    if np.any((edges[:-1, 0] == edges[1:, 0]) & (edges[:-1, 1] == edges[1:, 1])):
        raise InvalidInputError("duplicate edges are not allowed")
    return edges


@dataclass(frozen=True)
class SparseAdjacency:
    """Sparse symmetric binary adjacency over m nodes with a zero diagonal."""

    m: int
    edges: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.int64))

    def __post_init__(self) -> None:
        if self.m < 1:
            raise InvalidInputError("adjacency needs at least one node")
        object.__setattr__(self, "edges", _canonical_edges(self.edges))
        e = self.edges
        if e.size and (e[:, 0].min() < 0 or e[:, 1].max() >= self.m):
            raise InvalidInputError("edge endpoint out of range")

    @property
    def edge_count(self) -> int:
        return int(self.edges.shape[0])

    def to_csr(self) -> scipy.sparse.csr_matrix:
        """Symmetric float64 CSR matrix, built from the upper triangle.

        Canonical edges are the upper triangle's entries in row-major
        order, so they are its CSR indices as they stand.
        """
        e = self.edges
        indptr = np.searchsorted(e[:, 0], np.arange(self.m + 1))
        data = np.ones(e.shape[0], dtype=np.float64)
        upper = scipy.sparse.csr_matrix((data, e[:, 1], indptr), shape=(self.m, self.m))
        return upper + upper.T

    def pair_ids(self) -> np.ndarray:
        """Linear ids i*m + j of the canonical edge pairs, for set algebra."""
        return self.edges[:, 0] * np.int64(self.m) + self.edges[:, 1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseAdjacency):
            return NotImplemented
        return self.m == other.m and np.array_equal(self.edges, other.edges)


@dataclass(frozen=True)
class Partition:
    """Node labels in {0, ..., K}; label 0 marks background nodes."""

    labels: np.ndarray
    K: int

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 1 or labels.size == 0:
            raise InvalidInputError("labels must be a non-empty vector")
        if self.K < 1:
            raise InvalidInputError("K must be at least 1")
        if labels.min() < 0 or labels.max() > self.K:
            raise InvalidInputError("labels must lie in {0, ..., K}")

    @property
    def m(self) -> int:
        return int(self.labels.shape[0])

    def sizes(self) -> np.ndarray:
        """Counts per label 0..K (unoccupied labels report zero)."""
        return np.bincount(self.labels, minlength=self.K + 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.K == other.K and np.array_equal(self.labels, other.labels)
