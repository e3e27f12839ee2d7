from __future__ import annotations

import numpy as np
import pytest

from assocnet import assoc, community, simgen
from assocnet.graphs import SparseAdjacency


def from_dense(dense) -> SparseAdjacency:
    """The adjacency whose edges are the nonzero upper-triangle entries of dense."""
    dense = np.asarray(dense)
    return SparseAdjacency(dense.shape[0], np.argwhere(np.triu(dense, 1)))


def to_dense(adj: SparseAdjacency) -> np.ndarray:
    """adj as a symmetric int8 0/1 matrix with a zero diagonal."""
    out = np.zeros((adj.m, adj.m), dtype=np.int8)
    out[adj.edges[:, 0], adj.edges[:, 1]] = 1
    out[adj.edges[:, 1], adj.edges[:, 0]] = 1
    return out


@pytest.fixture
def mapped_bytes(monkeypatch):
    """The sizes of the arrays the package maps through assoc.mapped_zeros
    while the test runs, one entry per map.

    tracemalloc sees only the heap, so a memory test adds these to its
    traced peak.
    """
    sizes = []
    mapped_zeros = assoc.mapped_zeros

    def counting(shape, dtype=np.float64):
        out = mapped_zeros(shape, dtype)
        sizes.append(out.nbytes)
        return out

    for module in (assoc, community, simgen):
        monkeypatch.setattr(module, "mapped_zeros", counting)
    return sizes
