"""Association scores between variables, standardized to a common scale.

Correlations (or covariances reduced to correlations) and one-sided p-values
are mapped to score matrices whose entries behave like unit-variance normal
draws when no association is present. Downstream thresholding assumes that
standard scale.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np
import scipy

from .errors import DegenerateVarianceError, InvalidInputError, ParameterError

R_MAX = 1.0 - 1e-12
P_MIN = 1e-15

_KINDS = ("covariance", "correlation", "pvalue")
_TILE = 64  # rows and columns per tile of _mirror_tiles (32 KiB of float64)
# Anonymous maps are shared by default; private pages fault in and free about 30% faster.
_PRIVATE = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}


@dataclass(frozen=True)
class SymmetricMatrix:
    """Square symmetric matrix tagged with what its entries mean.

    kind == "correlation" requires entries in [-1, 1] with a diagonal of
    ones (classical matrices) or zeros (generated matrices that carry no
    self-association). kind == "pvalue" requires entries in [0, 1] with a
    unit diagonal.
    """

    values: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise InvalidInputError("matrix must be square")
        if self.kind not in _KINDS:
            raise ParameterError(f"unknown matrix kind: {self.kind!r}")
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("matrix entries must be finite")
        if not is_symmetric(values):
            raise InvalidInputError("matrix must be symmetric")
        diag = np.diag(values)
        if self.kind == "correlation":
            if np.any(values > 1.0) or np.any(values < -1.0):
                raise InvalidInputError("correlations must lie in [-1, 1]")
            if not (np.all(diag == 1.0) or np.all(diag == 0.0)):
                raise InvalidInputError("correlation diagonal must be all ones or all zeros")
        elif self.kind == "pvalue":
            if np.any(values < 0.0) or np.any(values > 1.0):
                raise InvalidInputError("p-values must lie in [0, 1]")
            if not np.all(diag == 1.0):
                raise InvalidInputError("p-value diagonal must be one")

    @property
    def m(self) -> int:
        return int(self.values.shape[0])


@dataclass(frozen=True)
class AssocMatrix:
    """Symmetric matrix of standardized association scores, zero diagonal."""

    z: np.ndarray

    def __post_init__(self) -> None:
        z = np.asarray(self.z, dtype=np.float64)
        object.__setattr__(self, "z", z)
        if z.ndim != 2 or z.shape[0] != z.shape[1]:
            raise InvalidInputError("score matrix must be square")
        if not np.all(np.isfinite(z)):
            raise InvalidInputError("scores must be finite")
        if not is_symmetric(z):
            raise InvalidInputError("score matrix must be symmetric")
        if np.any(np.diag(z) != 0.0):
            raise InvalidInputError("score diagonal must be zero")

    @property
    def m(self) -> int:
        return int(self.z.shape[0])


def covariance_matrix(samples: np.ndarray) -> SymmetricMatrix:
    """Sample covariance of an (n, m) sample matrix, normalized by n.

    Rows are observations, columns are variables. Requires n >= 2, m >= 2,
    finite entries.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2:
        raise InvalidInputError("samples must be a 2-D array")
    n, m = x.shape
    if n < 2:
        raise InvalidInputError("need at least two observations")
    if m < 2:
        raise InvalidInputError("need at least two variables")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("samples must be finite")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / n
    mirror_upper_in_place(cov)
    return SymmetricMatrix(cov, "covariance")


def correlation_from_covariance(cov: SymmetricMatrix) -> SymmetricMatrix:
    """Normalize a covariance to correlations; zero variances are an error."""
    if cov.kind != "covariance":
        raise ParameterError("input must be a covariance matrix")
    variances = np.diag(cov.values)
    if np.any(variances <= 0.0):
        bad = int(np.argmax(variances <= 0.0))
        raise DegenerateVarianceError(f"variable {bad} has non-positive variance")
    scale = 1.0 / np.sqrt(variances)
    # The one new m x m buffer; every later step works in place.
    corr = np.multiply(cov.values, scale[:, None], out=mapped_zeros(cov.values.shape))
    corr *= scale[None, :]
    np.clip(corr, -1.0, 1.0, out=corr)
    mirror_upper_in_place(corr)
    np.fill_diagonal(corr, 1.0)
    return SymmetricMatrix(corr, "correlation")


def _mirror_tiles(x: np.ndarray):
    """Yield (upper, lower, diagonal) for each pair of mirror tiles of a square x.

    upper is x[I, J] and lower is x[J, I] for a tile row I and a tile
    column J at or right of it, in row order; on the diagonal (I == J)
    both view the same tile. Walking these pairs keeps every temporary
    tile-sized, where an operation with the whole x.T would make an
    m x m one.
    """
    m = x.shape[0]
    for i in range(0, m, _TILE):
        for j in range(i, m, _TILE):
            yield x[i : i + _TILE, j : j + _TILE], x[j : j + _TILE, i : i + _TILE], i == j


def is_symmetric(x: np.ndarray) -> bool:
    """x == x.T entry for entry, compared one pair of mirror tiles at a time."""
    return all(np.array_equal(upper, lower.T) for upper, lower, _ in _mirror_tiles(x))


def mapped_zeros(shape, dtype=np.float64) -> np.ndarray:
    """A zeroed C-order array in an anonymous memory map of its own.

    Its pages count toward RSS once written and are unmapped with the last
    array that uses them. Correlation, score and Laplacian matrices live in
    one, so no freed matrix leaves a heap hole for smaller arrays to split.
    """
    n, dtype = int(np.prod(shape)), np.dtype(dtype)
    buffer = mmap.mmap(-1, max(1, n * dtype.itemsize), **_PRIVATE)
    return np.frombuffer(buffer, dtype=dtype, count=n).reshape(shape)


def mirror_upper_in_place(x: np.ndarray) -> None:
    """In place: copy the strict upper triangle of x onto the lower one.

    The one way a dense matrix is made symmetric: each builder computes
    its entries, then (j, i) takes the bytes of (i, j), one pair of
    mirror tiles at a time, however the lower triangle had rounded.
    """
    for upper, lower, diagonal in _mirror_tiles(x):
        if diagonal:
            np.copyto(upper, upper.T, where=np.tri(upper.shape[0], k=-1, dtype=bool))
        else:
            lower[...] = upper.T


def fisher_z(corr: SymmetricMatrix, dof: float) -> AssocMatrix:
    """Variance-stabilize correlations: z = sqrt(dof - 3) * atanh(r).

    The scaling makes null entries approximately standard normal. Entries
    are clamped to magnitude R_MAX before atanh so that r = +-1 stays
    finite. The diagonal of the result is zero.
    """
    if corr.kind != "correlation":
        raise ParameterError("input must be a correlation matrix")
    if not np.isfinite(dof) or dof <= 3:
        raise ParameterError("dof must be a finite number greater than 3")
    # The one new m x m buffer, row-major whatever the input's layout.
    z = np.clip(corr.values, -R_MAX, R_MAX, out=mapped_zeros(corr.values.shape))
    np.arctanh(z, out=z)
    z *= np.sqrt(dof - 3.0)
    mirror_upper_in_place(z)
    np.fill_diagonal(z, 0.0)
    return AssocMatrix(z)


def pvalues_to_z(pvals: SymmetricMatrix) -> AssocMatrix:
    """Map one-sided p-values to normal quantile scores.

    Small p-values map to large positive scores. P-values are clamped
    into [P_MIN, 1 - P_MIN] first, so degenerate 0/1 inputs stay finite.
    The diagonal of the result is zero.
    """
    if pvals.kind != "pvalue":
        raise ParameterError("input must be a p-value matrix")
    z = np.clip(pvals.values, P_MIN, 1.0 - P_MIN, out=mapped_zeros(pvals.values.shape))
    # Phi^{-1}(1 - p) == -Phi^{-1}(p) exactly; the right-hand form avoids the
    # precision loss of forming 1 - p in floating point when p is tiny, so the
    # significant (small-p) end keeps full accuracy.
    scipy.special.ndtri(z, out=z)
    np.negative(z, out=z)
    mirror_upper_in_place(z)
    np.fill_diagonal(z, 0.0)
    return AssocMatrix(z)


def cooccurrence_pvalues(incidence: np.ndarray) -> SymmetricMatrix:
    """Upper-tail overlap p-values for all entity pairs of an incidence matrix.

    incidence is an (n_items, m) binary matrix; column j flags the items
    entity j is associated with. For entities with item sets of sizes k_i
    and k_j overlapping in o items out of n, the entry is the probability
    that a uniformly random k_j-subset hits at least o of the k_i items.
    The tail depends only on (min(k_i, k_j), max(k_i, k_j), o), so
    scipy.stats.hypergeom.sf runs once per distinct triple. Diagonal is 1.

    Requires every column to contain at least one 1 and fewer than 2**21
    items, so that each triple packs into one exact int64 key.
    """
    inc = np.asarray(incidence)
    if inc.ndim != 2:
        raise InvalidInputError("incidence must be a 2-D array")
    if not np.isin(inc, (0, 1)).all():
        raise InvalidInputError("incidence entries must be 0 or 1")
    n_items, m = inc.shape
    if n_items < 1 or m < 2:
        raise InvalidInputError("incidence needs at least one item and two entities")
    if n_items >= 2**21:  # the largest key, (n_items + 1)**3 - 1, must fit in int64
        raise InvalidInputError(f"incidence has {n_items} items; at most {2**21 - 1} are allowed")
    inc = inc.astype(np.float64)
    sizes = inc.sum(axis=0).astype(np.int64)
    if np.any(sizes == 0):
        bad = int(np.argmax(sizes == 0))
        raise InvalidInputError(f"entity {bad} has an empty item set")

    # Each pair's (small size, large size, overlap) in base n_items + 1, the
    # same for (i, j) and (j, i): float64 BLAS counts are exact below 2**53.
    base = n_items + 1
    key = np.minimum.outer(sizes, sizes) * base + np.maximum.outer(sizes, sizes)
    key *= base
    key += (inc.T @ inc).astype(np.int64)
    keys, inverse = np.unique(key.ravel(), return_inverse=True)
    small_large, overlap = np.divmod(keys, base)
    small, large = np.divmod(small_large, base)
    pmat = scipy.stats.hypergeom.sf(overlap - 1, n_items, small, large)[inverse].reshape(m, m)
    np.fill_diagonal(pmat, 1.0)
    return SymmetricMatrix(pmat, "pvalue")
