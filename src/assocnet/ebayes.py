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
from .errors import ConvergenceError, InvalidInputError, ParameterError
from .graphs import SparseAdjacency

A_DEFAULT = 0.5
A_MIN = 0.05
A_MAX = 4.0

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)
_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
_A_TOL = 1e-6  # golden-section bracket width at which the search over a stops
# Steps of the detection-threshold bisection (a bracket of width 8 ends
# narrower than 1e-17) and the cap on the Newton steps of the weight solve.
_HALVINGS = 60
_STEP_RTOL = 1e-15  # a Newton step this small relative to w is at rounding level
_BLOCK_ENTRIES = 1 << 18  # scores per infer_adjacency row block (2 MiB)


@dataclass(frozen=True)
class MixtureFit:
    """Per-row mixture estimates: weight, slab spread, maximized loglik,
    and detection threshold t_i (the row keeps scores with |z| > t_i).

    infer_adjacency always fills threshold; it is None only in fits built
    by hand from the first four fields.
    """

    w: np.ndarray
    a: np.ndarray
    loglik: np.ndarray
    estimated_a: bool
    threshold: np.ndarray | None = None

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
        if self.threshold is not None:
            t = np.asarray(self.threshold, dtype=np.float64)
            object.__setattr__(self, "threshold", t)
            if t.shape != w.shape or np.any(t < 0.0):
                raise InvalidInputError("thresholds must be nonnegative, one per row")


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


def detection_threshold(w, a):
    """Smallest |z| whose posterior median is nonzero at weight w, spread a.

    w and a broadcast against each other. Each entry doubles an upper
    bracket from 2 until the detection margin there is positive, then
    bisects [0, bracket] a fixed number of times, so every threshold
    depends on its own (w, a) alone. Entries with w = 1 get exactly 0.0.
    Returns a float for scalar input and an array otherwise.
    """
    w, a = np.broadcast_arrays(
        np.asarray(w, dtype=np.float64), np.asarray(a, dtype=np.float64)
    )
    if not np.all((w > 0.0) & (w <= 1.0)):
        raise ParameterError("weight must lie in (0, 1]")
    if not np.all(a > 0.0):
        raise ParameterError("spread a must be positive")

    def margin(t):
        return _log_detection_margin(t, w, a)

    hi = np.full(w.shape, 2.0)
    while True:
        short = margin(hi) <= 0.0
        if not short.any():
            break
        hi = np.where(short, 2.0 * hi, hi)
        if np.any(hi > 1e6):
            raise ParameterError("detection threshold out of range")
    t = np.where(w == 1.0, 0.0, _bisect(margin, np.zeros(w.shape), hi))
    return float(t) if t.ndim == 0 else t


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


def _golden_max(f, lo, hi, tol: float):
    """Maximize f componentwise over per-row brackets [lo, hi].

    A five-point scan locates the best cell, golden-section iterations
    shrink it below tol, and the better of the two last golden points is
    returned unless an exact boundary value beats it. f maps a vector of
    points (one per row) to a vector of objective values. Ties resolve
    toward smaller points.
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
    needed = np.ceil(np.log(tol / np.maximum(h, tol)) / np.log(_INVPHI)).astype(np.int64)
    x1 = b - _INVPHI * h
    x2 = a + _INVPHI * h
    f1 = f(x1)
    f2 = f(x2)
    for step in range(int(needed.max(initial=0))):
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

    take_x1 = f1 >= f2
    x = np.where(take_x1, x1, x2)
    fx = np.where(take_x1, f1, f2)
    f_lo, f_hi = grid_vals[0], grid_vals[-1]
    take_hi = f_hi > fx
    x = np.where(take_hi, hi, x)
    fx = np.where(take_hi, f_hi, fx)
    return np.where(f_lo >= fx, lo, x)


def _bisect(f, lo, hi):
    """Per-row sign change of an increasing f over brackets [lo, hi].

    Returns lo exactly where f(lo) > 0 and hi exactly where f(hi) <= 0.
    Elsewhere it halves the bracket a fixed number of times, keeping
    f(lo) <= 0 < f(hi), and returns the last lo.
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


def _score_root(inv_beta: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Per-row root in [lo, 1] of the decreasing score S(w) = sum(1 / (w + c)).

    c is the (R, L) array inv_beta. Returns lo exactly where S(lo) < 0 and
    1.0 exactly where S(1) >= 0. Elsewhere it runs Newton's method on
    h(w) = w S(w), which is close to linear in w even when a few large
    scores make S behave like k / w, starting from sqrt(lo). Each row keeps
    a bracket with S > 0 at its lo and S <= 0 at its hi; a Newton step that
    leaves the bracket, or is more than half the step before last, is
    replaced by the bracket midpoint, so no row does worse than bisection.
    A row stops once its step is below _STEP_RTOL relative to w; a row
    still moving after _HALVINGS steps raises ConvergenceError. Every
    row's steps and stopping point depend on that row alone, so results
    cannot depend on how rows are batched or chunked across threads.
    """
    terms = np.empty_like(inv_beta)

    def score(w):
        np.add(inv_beta, w[:, None], out=terms)
        return np.reciprocal(terms, out=terms).sum(axis=1)

    lo = np.asarray(lo, dtype=np.float64)
    hi = np.ones_like(lo)
    at_lo = score(lo) < 0.0
    at_hi = ~at_lo & (score(hi) >= 0.0)
    live = ~(at_lo | at_hi)
    w = np.where(at_lo, lo, np.where(at_hi, hi, np.sqrt(lo)))
    step = step_old = hi - lo
    for _ in range(_HALVINGS):
        if not live.any():
            break
        s = score(w)
        h_prime = s - w * np.einsum("ij,ij->i", terms, terms)  # S + w S'
        right = s > 0.0
        lo = np.where(right, w, lo)
        hi = np.where(right, hi, w)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = w - w * s / h_prime
        # NaN fails both comparisons and so falls back to the midpoint too.
        keep = (newton >= lo) & (newton <= hi)
        keep &= np.abs(newton - w) <= 0.5 * step_old
        nxt = np.where(keep, newton, 0.5 * (lo + hi))
        step_old, step = step, np.abs(nxt - w)
        w = np.where(live, nxt, w)
        live &= step > _STEP_RTOL * nxt
    if live.any():
        raise ConvergenceError(
            f"weight solve still moving after {_HALVINGS} steps "
            f"in {int(live.sum())} of {live.size} rows"
        )
    return w


def fit_rows(z: np.ndarray, estimate_a: bool = False):
    """Fit (w, a) for every row of an (R, L) score array by marginal ML.

    The row log-likelihood sum(log((1 - w) phi + w g)) is concave in w,
    so its maximizer over [weight_lower_bound, 1] is the root of the
    decreasing score sum(1 / (w + 1 / beta)), beta = g / phi - 1
    (Johnstone & Silverman 2004), found by a safeguarded Newton iteration
    that stops each row once its step is at rounding level. This profile
    fit gives the best w and its loglik at a given a. With estimate_a
    false it runs once at A_DEFAULT; with estimate_a true a golden-section
    search maximizes the profile loglik over a in [A_MIN, A_MAX]. Each
    row's result depends on that row alone.

    Returns (w, a, loglik) vectors of length R.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] < 1:
        raise InvalidInputError("need a 2-D array with at least one score per row")
    if not np.all(np.isfinite(z)):
        raise InvalidInputError("scores must be finite")
    rows, n = z.shape
    z_abs = np.abs(z)
    l_phi = _log_norm_pdf(z_abs)

    def profile(a):
        """ML weights and their logliks at per-row spreads a."""
        l_g = log_laplace_normal_density(z_abs, a[:, None])
        inv_beta = np.subtract(l_g, l_phi)  # log(g / phi), turned into 1 / beta in place
        with np.errstate(over="ignore", divide="ignore"):
            np.reciprocal(np.expm1(inv_beta, out=inv_beta), out=inv_beta)
        w = _score_root(inv_beta, weight_lower_bound(n, a))
        del inv_beta  # freed before the loglik pass to lower peak memory
        with np.errstate(divide="ignore"):
            lw = np.log(w)[:, None]
            l1mw = np.log1p(-w)[:, None]
        return w, np.logaddexp(l1mw + l_phi, lw + l_g).sum(axis=1)

    if estimate_a:
        a = _golden_max(
            lambda a_vec: profile(a_vec)[1],
            np.full(rows, A_MIN),
            np.full(rows, A_MAX),
            _A_TOL,
        )
    else:
        a = np.full(rows, A_DEFAULT)
    w, ll = profile(a)
    return w, a, ll


def fit_row(z_row, estimate_a: bool = False):
    """Fit (w, a, loglik) for a single score row (diagonal already removed)."""
    z_row = np.asarray(z_row, dtype=np.float64)
    if z_row.ndim != 1 or z_row.size < 2:
        raise InvalidInputError("score row must hold at least two entries")
    w, a, ll = fit_rows(z_row[None, :], estimate_a=estimate_a)
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
    |z_ij| > t_i, t_i = detection_threshold(w_i, a_i), so an edge
    survives when |z_ij| > max(t_i, t_j); t_i is 0.0 where w_i = 1.
    A weight solve that does not converge raises ConvergenceError.

    Rows are fitted and thresholded in blocks of at most about
    _BLOCK_ENTRIES scores, at least one per thread, which the threads
    share; working memory beyond the input is O(threads * block + edges).
    Each row's fit depends on that row alone, so any thread count gives
    the same result.
    """
    if not isinstance(assoc, AssocMatrix):
        raise InvalidInputError("expected an AssocMatrix")
    m = assoc.m
    if m < 2:
        raise InvalidInputError("need at least two variables")
    if threads < 1:
        raise ParameterError("threads must be at least 1")
    z = assoc.z
    n_blocks = max(threads, -(-m * m // _BLOCK_ENTRIES))
    blocks = np.array_split(np.arange(m), min(m, n_blocks))

    def fit_block(rows):
        scores = z[rows[0] : rows[-1] + 1][np.arange(m) != rows[:, None]]
        return fit_rows(scores.reshape(rows.size, m - 1), estimate_a)

    def block_edges(rows):
        # Columns from the block's first row on, so triu keeps j > i.
        first, stop = rows[0], rows[-1] + 1
        t_pair = np.maximum(t[first:stop, None], t[first:])
        above = np.abs(z[first:stop, first:]) > t_pair
        return np.argwhere(np.triu(above, k=1)) + first

    with ThreadPoolExecutor(max_workers=threads) as pool:
        w, a, ll = map(np.concatenate, zip(*pool.map(fit_block, blocks)))
        t = detection_threshold(w, a)
        edges = np.concatenate(list(pool.map(block_edges, blocks)))
    adjacency = SparseAdjacency(m, edges)
    fit = MixtureFit(w, a, ll, bool(estimate_a), t)
    return adjacency, fit
