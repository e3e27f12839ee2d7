"""Community detection by regularized spectral embedding plus k-means.

The adjacency (or a dense nonnegative weight matrix) is normalized as
L = D_tau^{-1/2} A D_tau^{-1/2} with D_tau = D + tau*I. The leading
eigenvectors by absolute eigenvalue form the embedding; optional row
normalization makes the fit degree-corrected. Lloyd's algorithm with
k-means++ seeding clusters the embedded nodes, deterministically for a
given seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy

from .assoc import SymmetricMatrix, mapped_zeros, mirror_upper_in_place
from .errors import ConvergenceError, InvalidInputError, ParameterError
from .graphs import Partition, SparseAdjacency

DENSE_CUTOFF = 32
# Eigenpairs asked for by the first eigengap solve; doubled while a later
# gap could still be the largest (see select_num_communities).
EIGENGAP_FIRST_REQUEST = 24


@dataclass(frozen=True)
class SpectralConfig:
    """Settings for spectral community detection.

    tau is the Laplacian regularizer; "auto" uses the mean degree.
    row_normalize rescales embedding rows to unit norm (degree
    correction). restarts counts independent k-means initializations.
    """

    K: int
    tau: float | str = "auto"
    restarts: int = 10
    seed: int = 0
    row_normalize: bool = True

    def __post_init__(self) -> None:
        if self.K < 1:
            raise ParameterError("K must be at least 1")
        if self.restarts < 1:
            raise ParameterError("restarts must be at least 1")
        if self.seed < 0:
            raise ParameterError("seed must be nonnegative")
        if isinstance(self.tau, str):
            if self.tau != "auto":
                raise ParameterError('tau must be "auto" or a finite nonnegative number')
        elif not 0 <= self.tau < np.inf:
            raise ParameterError("tau must be a finite nonnegative number")


def _regularized_laplacian(weights, tau):
    """Symmetrically scale a weight matrix by 1/sqrt(degree + tau).

    Returns (L, degrees, tau_value); the degrees are the row sums of the
    matrix that L scales. Rows whose regularized degree is zero are
    scaled by zero rather than dividing by it. A sparse matrix is a 0/1
    graph: its degrees are its entry counts per row, and a copy of its
    entries is scaled by s_i, then by s_j, which is symmetric to the bit.
    A dense matrix is read as |weights| with a zero diagonal, built in
    L, the one new matrix, mapped in the input's own layout; the caller's
    array is left as it is. L is scaled by s_i, then by s_j, and its upper
    triangle is mirrored onto the lower one.
    """
    if scipy.sparse.issparse(weights):
        lap = weights.copy()
        counts = np.diff(lap.indptr)
        degrees = counts.astype(np.float64)
    else:
        lap = mapped_zeros(weights.shape)
        lap = np.abs(weights, out=lap.T if np.isfortran(weights) else lap)
        np.fill_diagonal(lap, 0.0)
        degrees = lap.sum(axis=1)
        if not lap.flags.c_contiguous:
            lap = lap.T  # the same symmetric matrix, row-major
    tau_value = float(np.mean(degrees)) if tau == "auto" else float(tau)
    reg = degrees + tau_value
    with np.errstate(divide="ignore"):
        scale = np.where(reg > 0.0, 1.0 / np.sqrt(np.maximum(reg, 1e-300)), 0.0)
    if scipy.sparse.issparse(lap):
        lap.data *= np.repeat(scale, counts)
        lap.data *= scale[lap.indices]
        return lap, degrees, tau_value
    lap *= scale[:, None]
    lap *= scale[None, :]
    mirror_upper_in_place(lap)
    return lap, degrees, tau_value


def eigsh(lap, k, **kwargs):
    """scipy.sparse.linalg.eigsh, under a module name that callers can replace."""
    return scipy.sparse.linalg.eigsh(lap, k=k, **kwargs)


def _leading_eigenpairs(lap, k: int):
    """Top-k eigenpairs of a symmetric matrix by absolute eigenvalue.

    A dense decomposition serves small (m <= DENSE_CUTOFF) or near-full
    (k >= m - 1) problems and a Lanczos-style iterative solver the rest.
    Eigenpairs come back sorted by decreasing |eigenvalue| with a stable
    order on ties.
    """
    m = lap.shape[0]
    if not 1 <= k <= m:
        raise ParameterError("need 1 <= k <= m eigenpairs")
    if m <= DENSE_CUTOFF or k >= m - 1:
        dense = lap.toarray() if scipy.sparse.issparse(lap) else np.asarray(lap, dtype=np.float64)
        vals, vecs = np.linalg.eigh(dense)
    else:
        v0 = np.full(m, 1.0 / np.sqrt(m))
        try:
            vals, vecs = eigsh(lap, k=k, which="LM", tol=1e-8, v0=v0, rng=0)
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            raise ConvergenceError(
                f"eigensolver converged {len(exc.eigenvalues)} of {k} "
                f"requested eigenpairs"
            ) from exc
    order = np.argsort(-np.abs(vals), kind="stable")[:k]
    return vals[order], vecs[:, order]


def _embed(lap, config: SpectralConfig, k: int):
    """Eigenvector embedding of a regularized Laplacian.

    Returns (embedding, eigenvalues); the embedding is row normalized
    when the config asks for it, leaving zero rows at zero.
    """
    vals, vecs = _leading_eigenpairs(lap, k)
    if config.row_normalize:
        norms = np.sqrt(np.square(vecs).sum(axis=1))
        nonzero = norms > 0.0
        vecs = vecs.copy()
        vecs[nonzero] /= norms[nonzero, None]
    return vecs, vals


def _kmeans_plusplus(columns, k, rng):
    """k-means++ seeding on a (d, m) embedding; returns (k, d) centroids.

    Duplicates the first pick when points coincide. Each pick updates
    the running squared distance to the nearest chosen point through one
    d x m and one m-sized buffer, and draws the next point by the rule
    of Generator.choice(m, p=d2 / total): the cumulative sum of p,
    divided by its last entry, searched for one rng.random() draw.
    """
    m = columns.shape[1]
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(m)
    diff = np.empty_like(columns)
    dist = np.empty(m)
    d2 = np.full(m, np.inf)
    for idx in range(1, k):
        np.subtract(columns, columns[:, chosen[idx - 1], None], out=diff)
        np.square(diff, out=diff)
        np.sum(diff, axis=0, out=dist)
        np.minimum(d2, dist, out=d2)
        total = d2.sum()
        if total <= 0.0:
            chosen[idx] = chosen[0]
        else:
            cdf = np.cumsum(d2 / total)
            cdf /= cdf[-1]
            chosen[idx] = cdf.searchsorted(rng.random(), side="right")
    return columns[:, chosen].T.copy()


def _lloyd(points, k, rng, max_iter=300):
    """One seeded k-means run on (m, d) points; returns (labels, wcss, iterations).

    The work runs on the transposed (d, m) embedding, so every step is
    m long. Ties in the assignment step go to the lowest-index centroid.
    An empty cluster is re-seeded at the point farthest from its
    assigned centroid; when every distance is zero it is left empty.
    Squared distances are |x|^2 - c.(2x) + |c|^2 in one k x m buffer.
    Cluster sums come from one bincount over (column, cluster) cells,
    which adds each cell's points in increasing point order, from 0.0.
    """
    m, d = points.shape
    columns = np.ascontiguousarray(points.T)
    centroids = _kmeans_plusplus(columns, k, rng)
    labels = None
    sq_points = np.square(points).sum(axis=1)
    twice = 2.0 * columns
    cells = np.empty((d, m), dtype=np.int64)
    offsets = np.arange(0, d * k, k)[:, None]
    d2 = np.empty((k, m))
    best = np.empty(m)
    closer = np.empty(m, dtype=bool)
    for iteration in range(max_iter):
        np.matmul(centroids, twice, out=d2)
        np.subtract(sq_points, d2, out=d2)
        d2 += np.square(centroids).sum(axis=1)[:, None]
        np.maximum(d2, 0.0, out=d2)
        new_labels = np.zeros(m, dtype=np.int64)
        best[:] = d2[0]
        for cluster in range(1, k):
            np.less(d2[cluster], best, out=closer)
            new_labels[closer] = cluster
            np.minimum(best, d2[cluster], out=best)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels

        np.add(labels, offsets, out=cells)
        sums = np.bincount(cells.ravel(), weights=columns.ravel(), minlength=d * k)
        counts = np.bincount(labels, minlength=k)
        occupied = counts > 0
        centroids = np.where(
            occupied[:, None], sums.reshape(d, k).T / np.maximum(counts, 1)[:, None], centroids
        )
        if not occupied.all():
            farthest = np.argsort(-best, kind="stable")
            cursor = 0
            for cluster in np.flatnonzero(~occupied):
                if cursor < m and best[farthest[cursor]] > 0.0:
                    centroids[cluster] = points[farthest[cursor]]
                    cursor += 1
    wcss = float(best.sum())
    return labels, wcss, iteration + 1


def _kmeans_runs(points, k, restarts, seed):
    """Best-of-restarts k-means.

    Returns (labels, best_wcss, all_wcss, all_iterations), the last two
    with one entry per restart; an iteration count of 300 means that
    restart stopped at the cap without converging. The points are made
    C-contiguous once, so every restart sums the same rows alike.
    """
    points = np.ascontiguousarray(points)
    streams = np.random.SeedSequence(seed).spawn(restarts)
    best_labels, best_wcss, all_wcss, all_iterations = None, np.inf, [], []
    for stream in streams:
        labels, wcss, iterations = _lloyd(points, k, np.random.default_rng(stream))
        all_wcss.append(wcss)
        all_iterations.append(iterations)
        if wcss < best_wcss:
            best_labels, best_wcss = labels, wcss
    return best_labels, best_wcss, all_wcss, all_iterations


def select_num_communities(adj: SparseAdjacency, override: int | None = None) -> int:
    """Pick a community count: the override when given, else the eigengap.

    The eigengap rule maximizes |lambda_k| - |lambda_{k+1}| of the
    regularized Laplacian spectrum over k in [2, K_max] with
    K_max = min(m // 10, 150), clamped to keep k + 1 eigenpairs
    available; the first of equal gaps wins.

    The leading n = min(EIGENGAP_FIRST_REQUEST, K_max + 1) eigenpairs
    are computed first, and n is doubled (capped at K_max + 1) until it
    reaches K_max + 1 or the best gap among them is at least |lambda_n|.
    Stopping there is exact: eigenvalues come sorted by decreasing
    magnitude, so every gap not yet computed, |lambda_j| - |lambda_{j+1}|
    with j >= n, is at most |lambda_n|, and on a tie the earlier gap
    already wins. When the stop never holds, the last solve is the full
    K_max + 1 one.

    A graph with fewer than 4 nodes or with no edge gets K = min(2, m)
    with no eigensolve.
    """
    m = adj.m
    if override is not None:
        if not 1 <= override <= m:
            raise ParameterError("community count must lie in [1, m]")
        return int(override)
    if m < 4 or adj.edge_count == 0:
        return min(2, m)
    k_max = max(2, min(m // 10, 150))
    k_max = min(k_max, m - 2)
    lap, _, _ = _regularized_laplacian(adj.to_csr(), "auto")
    n = min(EIGENGAP_FIRST_REQUEST, k_max + 1)
    while True:
        vals, _ = _leading_eigenpairs(lap, n)
        magnitudes = np.abs(vals)
        gaps = magnitudes[1 : n - 1] - magnitudes[2:n]
        best = int(gaps.argmax())
        if n == k_max + 1 or gaps[best] >= magnitudes[-1]:
            return best + 2
        n = min(2 * n, k_max + 1)


def _detect_on_weights(weights, config: SpectralConfig):
    """Shared embed + cluster + zero-degree cleanup; returns (Partition, report).

    With no nonzero degree there is no signal: every node goes to
    community 1 and no eigensolve runs, whatever K is.
    """
    lap, degrees, tau_value = _regularized_laplacian(weights, config.tau)
    m = len(degrees)
    dangling = degrees == 0.0
    if dangling.all():
        labels = np.ones(m, dtype=np.int64)
        vals, best_wcss, all_wcss, all_iterations = [], 0.0, [], []
    else:
        if m < config.K:
            raise InvalidInputError("need at least K nodes")
        vecs, vals = _embed(lap, config, config.K)
        labels0, best_wcss, all_wcss, all_iterations = _kmeans_runs(
            vecs, config.K, config.restarts, config.seed
        )
        labels = labels0 + 1
        if dangling.any():
            sizes = np.bincount(labels[~dangling], minlength=config.K + 1)
            labels[dangling] = int(sizes[1:].argmax()) + 1

    partition = Partition(labels, config.K)
    report = {
        "K": config.K,
        "tau": tau_value,
        "eigenvalues": [float(v) for v in vals],
        "wcss": best_wcss,
        "restart_wcss": all_wcss,
        "restart_iterations": all_iterations,
        "zero_degree_nodes": int(dangling.sum()),
        "empty_clusters": int((partition.sizes()[1:] == 0).sum()),
        "row_normalize": config.row_normalize,
        "seed": config.seed,
    }
    return partition, report


def detect_communities_report(adj: SparseAdjacency, config: SpectralConfig):
    """detect_communities plus a run report (eigenvalues, WCSS, restarts).

    Zero-degree nodes carry no spectral information; they are assigned
    to the largest cluster and counted in the report. An edgeless graph
    is one community.
    """
    return _detect_on_weights(adj.to_csr(), config)


def detect_communities(adj: SparseAdjacency, config: SpectralConfig) -> Partition:
    """Partition a graph into config.K communities."""
    partition, _ = detect_communities_report(adj, config)
    return partition


def spectral_on_continuous(corr: SymmetricMatrix, config: SpectralConfig) -> Partition:
    """Cluster directly on |r| without thresholding (comparison baseline).

    Uses the same regularized embedding and k-means, but on the dense
    nonnegative matrix of absolute correlations with a zero diagonal.
    That matrix exists only as the scaled Laplacian, the one m x m
    array this call allocates.
    """
    if corr.kind != "correlation":
        raise InvalidInputError("expected a correlation matrix")
    partition, _ = _detect_on_weights(corr.values, config)
    return partition
