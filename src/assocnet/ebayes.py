"""Sparse signal detection for rows of standardized association scores.

Each score is modeled as z = mu + noise with standard normal noise, where
mu is zero with probability 1 - w and otherwise drawn from a double
exponential (Laplace) slab with spread a. The weight w is fit per row by
marginal maximum likelihood, borrowing strength across the row. An entry
is kept when the posterior median of mu is nonzero, and an edge survives
only when both of its endpoint rows keep it.

All densities and tail masses are evaluated in log space so that scores
far into the tails (|z| in the hundreds after clamping) remain exact.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import log_ndtr

from .assoc import AssocMatrix
from .errors import InvalidInputError, ParameterError
from .graphs import SparseAdjacency

A_DEFAULT = 0.5
A_MIN = 0.05
A_MAX = 4.0

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)
_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
_A_TOL = 1e-6  # golden-section bracket width at which the search over a stops
_HALVINGS = 60  # bisection steps: a bracket of width 8 ends narrower than 1e-17


@dataclass(frozen=True)
class MixtureFit:
    """Per-row mixture estimates: weight, slab spread, maximized loglik."""

    w: np.ndarray
    a: np.ndarray
    loglik: np.ndarray
    estimated_a: bool

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=np.float64)
        a = np.asarray(self.a, dtype=np.float64)
        ll = np.asarray(self.loglik, dtype=np.float64)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "loglik", ll)
        if not (w.shape == a.shape == ll.shape) or w.ndim != 1:
            raise InvalidInputError("fit vectors must be 1-D and equally long")
        if np.any(w < 0.0) or np.any(w > 1.0):
            raise InvalidInputError("weights must lie in [0, 1]")
        if np.any(a <= 0.0):
            raise InvalidInputError("spreads must be positive")


@dataclass(frozen=True)
class PosteriorSummary:
    """Posterior-median decision for a single score."""

    z: float
    w: float
    a: float
    median: float
    nonzero: bool


def _log_norm_pdf(z):
    return -0.5 * np.square(z) - _LOG_SQRT_2PI


def _log_upper_slab(z, a, mu=0.0):
    """log of (a/2) * integral_{mu}^{inf} exp(-a t) * normal_pdf(z - t) dt, z >= 0."""
    return np.log(a / 2.0) + 0.5 * a * a - a * z + log_ndtr(z - a - mu)


def _log_lower_slab(z, a):
    """log of (a/2) * integral_{-inf}^{0} exp(a t) * normal_pdf(z - t) dt, z >= 0."""
    return np.log(a / 2.0) + 0.5 * a * a + a * z + log_ndtr(-z - a)


def log_laplace_normal_density(z, a):
    """Log density of the Laplace(spread a) + standard normal convolution."""
    a = np.asarray(a, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if np.any(a <= 0.0):
        raise ParameterError("spread a must be positive")
    return (
        np.log(a / 2.0)
        + 0.5 * a * a
        + np.logaddexp(-a * z + log_ndtr(z - a), a * z + log_ndtr(-z - a))
    )


def laplace_normal_density(z, a):
    """Density of mu + noise at z, mu ~ Laplace(a), noise ~ N(0, 1).

    Evaluated from log-space tail sums, so it stays finite and positive
    for arbitrarily large |z|.
    """
    return np.exp(log_laplace_normal_density(z, a))


def _log_detection_margin(z_abs, w, a):
    """log of w * D(z) minus log of phi(z), where D = U0 - L0 + phi.

    The posterior median at z is nonzero exactly when this margin is
    positive. U0 and L0 are the slab mass above and below zero.
    """
    l_u0 = _log_upper_slab(z_abs, a)
    l_l0 = _log_lower_slab(z_abs, a)
    l_phi = _log_norm_pdf(z_abs)
    ratio = np.exp(l_phi - l_u0) - np.exp(l_l0 - l_u0)
    log_d = l_u0 + np.log1p(ratio)
    with np.errstate(divide="ignore"):
        return np.log(w) + log_d - l_phi


def marginal_loglik(z_row, w, a) -> float:
    """Log-likelihood of a score row under the two-groups marginal.

    Sums log((1 - w) * phi(z) + w * g(z; a)) over the supplied entries;
    callers pass rows with the diagonal already removed.
    """
    z_row = np.asarray(z_row, dtype=np.float64)
    if z_row.ndim != 1 or z_row.size == 0:
        raise InvalidInputError("score row must be a non-empty vector")
    if not np.all(np.isfinite(z_row)):
        raise InvalidInputError("scores must be finite")
    if not 0.0 <= w <= 1.0:
        raise ParameterError("weight must lie in [0, 1]")
    if a <= 0.0:
        raise ParameterError("spread a must be positive")
    l_phi = _log_norm_pdf(z_row)
    l_g = log_laplace_normal_density(z_row, a)
    with np.errstate(divide="ignore"):
        return float(np.logaddexp(np.log1p(-w) + l_phi, np.log(w) + l_g).sum())


def universal_threshold(n: int) -> float:
    """sqrt(2 log n), the classical threshold for n independent null scores."""
    if n < 1:
        raise ParameterError("need at least one score")
    return float(np.sqrt(2.0 * np.log(n)))


def weight_lower_bound(n: int, a) -> float | np.ndarray:
    """Smallest admissible weight for rows of n scores.

    Chosen so that the detection threshold at this weight equals the
    universal threshold sqrt(2 log n); smaller weights would demand even
    larger scores and flatten the likelihood in w.
    """
    t = universal_threshold(n)
    a = np.asarray(a, dtype=np.float64)
    if np.any(a <= 0.0):
        raise ParameterError("spread a must be positive")
    out = np.exp(-_log_detection_margin(t, 1.0, a))
    return float(out) if out.ndim == 0 else out


def detection_threshold(w: float, a: float) -> float:
    """Smallest |z| whose posterior median is nonzero at weight w, spread a."""
    if not 0.0 < w <= 1.0:
        raise ParameterError("weight must lie in (0, 1]")
    if a <= 0.0:
        raise ParameterError("spread a must be positive")
    if w == 1.0:
        return 0.0

    def margin(t: float) -> float:
        return float(_log_detection_margin(np.float64(t), w, a))

    hi = 2.0
    while margin(hi) <= 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise ParameterError("detection threshold out of range")
    return float(brentq(margin, 0.0, hi, xtol=1e-9))


def posterior_median(z: float, w: float, a: float) -> PosteriorSummary:
    """Posterior median of mu given one score z at weight w, spread a.

    The median is zero unless the posterior mass strictly beyond zero on
    the side of z exceeds one half; in that case it solves the slab CDF
    equation by bracketed root-finding.
    """
    if not np.isfinite(z):
        raise InvalidInputError("score must be finite")
    if not 0.0 < w <= 1.0:
        raise ParameterError("weight must lie in (0, 1]")
    if a <= 0.0:
        raise ParameterError("spread a must be positive")
    z = float(z)
    z_abs = abs(z)
    if not _log_detection_margin(z_abs, w, a) > 0.0:
        return PosteriorSummary(z, w, a, 0.0, False)

    l_phi = _log_norm_pdf(z_abs)
    l_g = log_laplace_normal_density(z_abs, a)
    with np.errstate(divide="ignore"):
        l_marginal = np.logaddexp(np.log1p(-w) + l_phi, np.log(w) + l_g)
    target = float(l_marginal - np.log(2.0 * w))

    def excess(mu: float) -> float:
        return float(_log_upper_slab(z_abs, a, mu)) - target

    hi = max(z_abs, 1.0)
    while excess(hi) > 0.0:
        hi *= 2.0
    mu = brentq(excess, 0.0, hi, xtol=1e-9)
    return PosteriorSummary(z, w, a, float(np.copysign(mu, z)), True)


def threshold_row(z_row, w: float, a: float, self_index: int | None = None) -> np.ndarray:
    """Binary keep/kill decisions for one row of scores.

    Entry j is kept when the posterior median of its effect is nonzero,
    that is when |z_j| exceeds the detection threshold. self_index, when
    given, marks the row's own diagonal position and is forced to zero.
    """
    z_row = np.asarray(z_row, dtype=np.float64)
    if z_row.ndim != 1:
        raise InvalidInputError("score row must be a vector")
    keep = np.abs(z_row) > detection_threshold(w, a)
    if self_index is not None:
        keep[self_index] = False
    return keep


def _golden_max(f, lo, hi, tol: float):
    """Maximize f componentwise over per-row brackets [lo, hi].

    A five-point scan locates the best cell, golden-section iterations
    shrink it below tol, and exact boundary values are kept when they
    beat the interior optimum. f maps a vector of points (one per row)
    to a vector of objective values. Ties resolve toward smaller points.
    """
    lo = np.array(lo, dtype=np.float64, copy=True)
    hi = np.array(hi, dtype=np.float64, copy=True)
    span0 = hi - lo
    grid = [lo + frac * span0 for frac in (0.0, 0.25, 0.5, 0.75, 1.0)]
    grid_vals = np.vstack([f(x) for x in grid])
    best = grid_vals.argmax(axis=0)
    quarter = span0 / 4.0
    a = np.where(best == 0, lo, lo + (best - 1) * quarter)
    b = np.where(best == 4, hi, lo + (best + 1) * quarter)

    h = b - a
    # Per-row iteration counts keep every row's trajectory identical to a
    # standalone run on that row alone, so results cannot depend on how
    # rows are batched or chunked across threads.
    needed = np.zeros(h.shape, dtype=np.int64)
    wide = h > tol
    if np.any(wide):
        needed[wide] = np.ceil(
            np.log(tol / h[wide]) / np.log(_INVPHI)
        ).astype(np.int64)
        x1 = b - _INVPHI * h
        x2 = a + _INVPHI * h
        f1 = f(x1)
        f2 = f(x2)
        for step in range(int(needed.max())):
            active = needed > step
            left = f1 >= f2
            shrink_left = active & left
            shrink_right = active & ~left
            b = np.where(shrink_left, x2, b)
            a = np.where(shrink_right, x1, a)
            h = b - a
            fresh = np.where(left, b - _INVPHI * h, a + _INVPHI * h)
            f_fresh = f(fresh)
            old_x1, old_f1 = x1, f1
            x1 = np.where(shrink_left, fresh, np.where(shrink_right, x2, x1))
            f1 = np.where(shrink_left, f_fresh, np.where(shrink_right, f2, f1))
            x2 = np.where(shrink_left, old_x1, np.where(shrink_right, fresh, x2))
            f2 = np.where(shrink_left, old_f1, np.where(shrink_right, f_fresh, f2))

    x = (a + b) / 2.0
    fx = f(x)
    f_lo, f_hi = grid_vals[0], grid_vals[-1]
    take_hi = f_hi > fx
    x = np.where(take_hi, hi, x)
    fx = np.where(take_hi, f_hi, fx)
    take_lo = f_lo >= fx
    x = np.where(take_lo, lo, x)
    fx = np.where(take_lo, f_lo, fx)
    return x, fx


def _bisect(f, lo, hi):
    """Per-row sign change of an increasing f over brackets [lo, hi].

    Returns lo exactly where f(lo) > 0 and hi exactly where f(hi) <= 0.
    Elsewhere it halves the bracket a fixed number of times, keeping
    f(lo) <= 0 < f(hi), and returns the last lo. Every row takes the same
    steps whatever rows it is batched with, so results cannot depend on
    how rows are chunked across threads.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    below = f(lo) > 0.0
    above = ~below & (f(hi) <= 0.0)
    left, right = lo, hi
    for _ in range(_HALVINGS):
        mid = 0.5 * (left + right)
        up = f(mid) <= 0.0
        left = np.where(up, mid, left)
        right = np.where(up, right, mid)
    return np.where(below, lo, np.where(above, hi, left))


def fit_rows(z: np.ndarray, estimate_a: bool = False, a_fixed: float = A_DEFAULT):
    """Fit (w, a) for every row of an (R, L) score array by marginal ML.

    The row log-likelihood sum(log((1 - w) phi + w g)) is concave in w,
    so its maximizer over [weight_lower_bound, 1] is the root of the
    decreasing score sum(1 / (w + 1 / beta)), beta = g / phi - 1, found by
    bisection (Johnstone & Silverman 2004). This profile fit gives the
    best w and its loglik at a given a. With estimate_a false it runs once
    at a_fixed; with estimate_a true a golden-section search maximizes the
    profile loglik over a in [A_MIN, A_MAX]. Each row's result depends on
    that row alone.

    Returns (w, a, loglik) vectors of length R.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] < 1:
        raise InvalidInputError("need a 2-D array with at least one score per row")
    if not np.all(np.isfinite(z)):
        raise InvalidInputError("scores must be finite")
    if not estimate_a and a_fixed <= 0.0:
        raise ParameterError("spread a must be positive")
    rows, n = z.shape
    z_abs = np.abs(z)
    l_phi = _log_norm_pdf(z_abs)

    def profile(a):
        """ML weights and their logliks at per-row spreads a."""
        l_g = log_laplace_normal_density(z_abs, a[:, None])
        inv_beta = np.subtract(l_g, l_phi)  # log(g / phi), turned into 1 / beta in place
        with np.errstate(over="ignore", divide="ignore"):
            np.reciprocal(np.expm1(inv_beta, out=inv_beta), out=inv_beta)
        terms = np.empty_like(inv_beta)

        def neg_score(w):
            np.add(inv_beta, w[:, None], out=terms)
            return -np.reciprocal(terms, out=terms).sum(axis=1)

        w = _bisect(neg_score, weight_lower_bound(n, a), np.ones(rows))
        del inv_beta, terms  # freed before the loglik pass to lower peak memory
        with np.errstate(divide="ignore"):
            lw = np.log(w)[:, None]
            l1mw = np.log1p(-w)[:, None]
        return w, np.logaddexp(l1mw + l_phi, lw + l_g).sum(axis=1)

    if estimate_a:
        a, _ = _golden_max(
            lambda a_vec: profile(a_vec)[1],
            np.full(rows, A_MIN),
            np.full(rows, A_MAX),
            _A_TOL,
        )
    else:
        a = np.full(rows, float(a_fixed))
    w, ll = profile(a)
    return w, a, ll


def fit_row(z_row, estimate_a: bool = False, a_fixed: float = A_DEFAULT):
    """Fit (w, a, loglik) for a single score row (diagonal already removed)."""
    z_row = np.asarray(z_row, dtype=np.float64)
    if z_row.ndim != 1 or z_row.size < 2:
        raise InvalidInputError("score row must hold at least two entries")
    w, a, ll = fit_rows(z_row[None, :], estimate_a=estimate_a, a_fixed=a_fixed)
    return float(w[0]), float(a[0]), float(ll[0])


def infer_adjacency(
    assoc: AssocMatrix,
    estimate_a: bool = False,
    threads: int = 1,
) -> tuple[SparseAdjacency, MixtureFit]:
    """Infer a sparse adjacency from an association score matrix.

    Fits the row mixtures, keeps entry (i, j) when row i's posterior
    median at z_ij is nonzero, and retains the edge only when rows i and
    j both keep it. The conservative edge set is therefore a subset of
    every row-wise edge set. Row i keeps exactly the scores with
    |z_ij| > t_i, so an edge survives when |z_ij| > max(t_i, t_j).
    """
    if not isinstance(assoc, AssocMatrix):
        raise InvalidInputError("expected an AssocMatrix")
    m = assoc.m
    if m < 2:
        raise InvalidInputError("need at least two variables")
    z = assoc.z
    off_diag = z[~np.eye(m, dtype=bool)].reshape(m, m - 1)

    if threads > 1:
        chunks = np.array_split(np.arange(m), threads)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(
                pool.map(lambda idx: fit_rows(off_diag[idx], estimate_a), chunks)
            )
        w = np.concatenate([p[0] for p in parts])
        a = np.concatenate([p[1] for p in parts])
        ll = np.concatenate([p[2] for p in parts])
    else:
        w, a, ll = fit_rows(off_diag, estimate_a)

    # Every fitted w is at least weight_lower_bound, whose detection
    # threshold is universal_threshold(m - 1), so that bounds each t_i.
    t = _bisect(
        lambda t_vec: _log_detection_margin(t_vec, w, a),
        np.zeros(m),
        np.full(m, universal_threshold(m - 1)),
    )
    ii, jj = np.nonzero(np.triu(np.abs(z) > np.maximum.outer(t, t), k=1))
    adjacency = SparseAdjacency(m, np.column_stack([ii, jj]))
    fit = MixtureFit(w, a, ll, bool(estimate_a))
    return adjacency, fit
