"""Sparse signal detection for rows of standardized association scores.

Each score is modeled as z = mu + noise with standard normal noise, where
mu is zero with probability 1 - w and otherwise drawn from a double
exponential (Laplace) slab with spread a. The weight w is fit per row by
marginal maximum likelihood, borrowing strength across the row. An entry
is kept when the posterior median of mu is nonzero, and an edge survives
only when both of its endpoint rows keep it.

One kernel evaluates the slab: _slab_ratio gives the slab-to-null ratio
g / phi from two scaled complementary error functions (erfcx), and
_log_ratio_overflow its log in closed form where the ratio overflows, so
scores far into the tails (|z| in the hundreds after clamping) stay
exact. The row fit, the detection threshold, the weight floor, the log
density and the posterior median all read g / phi, or the slab mass on
either side of zero, from that pair. Every row is fitted on its own |z|
sorted once, so its fit depends only on the multiset of its scores, not
on their order or on the other rows.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy

from .assoc import AssocMatrix
from .errors import ConvergenceError, InvalidInputError, ParameterError
from .graphs import SparseAdjacency

A_DEFAULT = 0.5
A_MIN = 0.05
A_MAX = 4.0

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)
_SQRT_HALF = np.sqrt(0.5)
_SQRT_HALF_PI = np.sqrt(0.5 * np.pi)
# A row's search over a stops at its last evaluated a once the next step
# would move a by at most _A_TOL; _A_STEPS caps its passes after the scan.
_A_TOL = 1e-8
_A_STEPS = 60
# Steps of the detection-threshold bisection (a bracket of width 8 ends
# narrower than 1e-17) and the cap on the Newton steps of the weight solve.
_HALVINGS = 60
_STEP_RTOL = 1e-15  # a Newton step this small relative to w is at rounding level
_BLOCK_ENTRIES = 1 << 16  # scores per infer_adjacency row block (512 KiB)


@dataclass(frozen=True)
class MixtureFit:
    """Per-row mixture estimates: weight, slab spread, maximized loglik,
    and detection threshold t_i (the row keeps scores with |z| > t_i).

    threshold is not a constructor argument: it is derived from (w, a) as
    detection_threshold(w, a).
    """

    w: np.ndarray
    a: np.ndarray
    loglik: np.ndarray
    estimated_a: bool
    threshold: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=np.float64)
        a = np.asarray(self.a, dtype=np.float64)
        ll = np.asarray(self.loglik, dtype=np.float64)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "loglik", ll)
        if not (w.shape == a.shape == ll.shape) or w.ndim != 1:
            raise InvalidInputError("fit vectors must be 1-D and equally long")
        if not np.all((w > 0.0) & (w <= 1.0)):
            raise InvalidInputError("weights must lie in (0, 1]")
        if not np.all((a > 0.0) & (a < np.inf)):
            raise InvalidInputError("spreads must be positive and finite")
        object.__setattr__(self, "threshold", detection_threshold(w, a))

    def boundary_rows(self) -> dict[str, list[int]]:
        """Indices of the rows whose fit sits on a boundary.

        w_at_floor: w at weight_lower_bound for rows of m - 1 scores (to a
        relative 1e-12), as in an m x m score matrix; w_at_one: w == 1;
        a_at_bound: a <= A_MIN or a >= A_MAX.
        """
        floor = weight_lower_bound(self.w.size - 1, self.a)
        return {
            "w_at_floor": np.flatnonzero(self.w <= floor * (1 + 1e-12)).tolist(),
            "w_at_one": np.flatnonzero(self.w == 1.0).tolist(),
            "a_at_bound": np.flatnonzero((self.a <= A_MIN) | (self.a >= A_MAX)).tolist(),
        }


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


def _check_spread(a) -> None:
    """Raise ParameterError unless every spread is positive and finite
    (NaN fails both comparisons)."""
    if not np.all((a > 0.0) & (a < np.inf)):
        raise ParameterError("spread a must be positive and finite")


def _slab_ratio(z_abs, a):
    """The slab-to-null ratio g / phi at |z| and the erfcx term T2 it sums.

    g / phi = (a/2) sqrt(pi/2) (T1 + T2) with T1 = erfcx((a - |z|) / sqrt 2)
    and T2 = erfcx((|z| + a) / sqrt 2), the Mills-ratio form of
    EBayesThresh's beta.laplace (Johnstone & Silverman 2005). The ratio is
    inf past |z| of about a + 37.7, or earlier when a > 1.6; there its log
    is _log_ratio_overflow to double precision.

    U0 / phi = c T1 and L0 / phi = c T2, c = (a/2) sqrt(pi/2), are the slab
    mass above and below zero over phi. Scalar inputs give 0-d arrays.
    """
    with np.errstate(over="ignore"):
        ratio = np.subtract(a, z_abs, out=np.empty(np.broadcast(a, z_abs).shape))
        ratio *= _SQRT_HALF
        scipy.special.erfcx(ratio, out=ratio)
        t2 = np.add(z_abs, a, out=np.empty_like(ratio))
        t2 *= _SQRT_HALF
        scipy.special.erfcx(t2, out=t2)
        ratio += t2
        ratio *= 0.5 * _SQRT_HALF_PI * a
    return ratio, t2


def _log_ratio_overflow(z_abs, a):
    """log(g / phi) = log(a sqrt(pi/2)) + (|z| - a)^2 / 2 where T1 dominates.

    T1 = 2 exp((|z| - a)^2 / 2) - erfcx((|z| - a) / sqrt 2) and T2 <= 1, so
    the form is exact in double precision wherever _slab_ratio overflows.
    Past |z| of about 1.3e154 it is inf, as log(g / phi) then is.
    """
    with np.errstate(over="ignore"):
        return np.log(a * _SQRT_HALF_PI) + 0.5 * np.square(z_abs - a)


def _slab_slope(z_abs, a, ratio, t2):
    """d log g / da from the outputs (ratio, t2) of _slab_ratio; t2 is overwritten.

    d log g / da = 1/a + a + |z| (T2 - T1) / (T1 + T2) - a phi / g, and
    (T2 - T1) / (T1 + T2) = a sqrt(pi/2) T2 / (g / phi) - 1, so it equals
    1/a + a - |z| + (a sqrt(pi/2) |z| T2 - a) / (g / phi). Where the ratio
    overflows that is the slope 1/a + a - |z| of _log_ratio_overflow.
    """
    slope = np.multiply(t2, z_abs, out=t2)
    slope *= a * _SQRT_HALF_PI
    slope -= a
    slope /= ratio
    slope -= z_abs
    slope += 1.0 / a + a
    return slope


def log_laplace_normal_density(z, a):
    """Log density of the Laplace(spread a) + standard normal convolution,
    log phi(z) + log(g / phi) with g / phi from _slab_ratio.

    Where g / phi overflows, the sum is log(a/2) + a^2/2 - a|z|: log phi
    plus _log_ratio_overflow with their z^2 / 2 terms cancelled by hand, so
    it stays exact for any finite z.
    """
    a = np.asarray(a, dtype=np.float64)
    z_abs = np.abs(np.asarray(z, dtype=np.float64))
    _check_spread(a)
    ratio = _slab_ratio(z_abs, a)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        log_g = _log_norm_pdf(z_abs) + np.log(ratio)
    return np.where(np.isinf(ratio), np.log(0.5 * a) + 0.5 * a * a - a * z_abs, log_g)


def _log_detection_margin(z_abs, w, a):
    """log of w * D(z) minus log of phi(z), where D = U0 - L0 + phi.

    The posterior median at z is nonzero exactly when this margin is
    positive. U0 and L0 are the slab mass above and below zero, so
    (U0 - L0) / phi = g / phi - 2 c T2 from _slab_ratio; where g / phi
    overflows, log(D / phi) is _log_ratio_overflow. At z = 0, T1 = T2 and
    the margin is log w exactly.
    """
    ratio, t2 = _slab_ratio(z_abs, a)
    t2 *= a * _SQRT_HALF_PI
    ratio -= t2
    log_d = np.where(np.isinf(ratio), _log_ratio_overflow(z_abs, a), np.log1p(ratio))
    with np.errstate(divide="ignore"):
        return np.log(w) + log_d


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
    _check_spread(a)
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
    a = np.asarray(a, dtype=np.float64)
    _check_spread(a)
    out = _weight_floor(n, a)[0]
    return float(out) if out.ndim == 0 else out


def _weight_floor(n: int, a):
    """The weight floor phi(t) / (U0 - L0 + phi(t)) at t = sqrt(2 log n),
    with (U0 - L0) / phi(t) and (U0 + L0) / phi(t), U0 and L0 the slab mass
    above and below zero, all from one _slab_ratio call as in the margin."""
    total, t2 = _slab_ratio(universal_threshold(n), a)
    diff = total - a * _SQRT_HALF_PI * t2
    return 1.0 / (1.0 + diff), diff, total


def _weight_floor_slope(n: int, a: np.ndarray) -> np.ndarray:
    """d weight_lower_bound(n, a) / da.

    dU0/da - dL0/da is (1/a + a)(U0 - L0) - t (U0 + L0), the phi(t) terms
    cancelling, with U0, L0 and t as in _weight_floor.
    """
    w_lo, diff, total = _weight_floor(n, a)
    return -w_lo * w_lo * ((1.0 / a + a) * diff - universal_threshold(n) * total)


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
    _check_spread(a)

    hi = np.full(w.shape, 2.0)
    while True:
        short = _log_detection_margin(hi, w, a) <= 0.0
        if not short.any():
            break
        hi = np.where(short, 2.0 * hi, hi)
        if np.any(hi > 1e6):
            raise ParameterError("detection threshold out of range")
    # The margin is log w <= 0 at 0 and positive at hi, so the bracket
    # [lo, hi] keeps margin(lo) <= 0 < margin(hi) as it halves.
    lo = np.zeros(w.shape)
    for _ in range(_HALVINGS):
        mid = 0.5 * (lo + hi)
        up = _log_detection_margin(mid, w, a) <= 0.0
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    t = np.where(w == 1.0, 0.0, lo)
    return float(t) if t.ndim == 0 else t


def posterior_median(z: float, w: float, a: float) -> PosteriorSummary:
    """Posterior median of mu given one score z at weight w, spread a.

    The median is zero unless the posterior mass strictly beyond zero on
    the side of z exceeds one half. Otherwise its size m > 0 solves
    Phi(|z| - a - m) = z0 = f(z) exp(a|z| - a^2/2) / (w a), f the marginal
    density, in closed form as EBayesThresh's postmed.laplace does
    (Johnstone & Silverman 2005). 1 - z0 is taken from log z0, so m stays
    exact near 0; where rounding puts m below 0 it is 0.
    """
    if not np.isfinite(z):
        raise InvalidInputError("score must be finite")
    if not 0.0 < w <= 1.0:
        raise ParameterError("weight must lie in (0, 1]")
    _check_spread(a)
    z = float(z)
    z_abs = abs(z)
    if not _log_detection_margin(z_abs, w, a) > 0.0:
        return PosteriorSummary(z, w, a, 0.0, False)

    # z0 = ((1 - w) / w + g / phi) phi(|z| - a) / a, as phi(z) exp(a|z| -
    # a^2/2) = phi(|z| - a). Where g / phi overflows, its share of z0 is
    # exactly 1/2: _log_ratio_overflow and log phi(|z| - a) / a cancel.
    ratio = _slab_ratio(z_abs, a)[0]
    with np.errstate(over="ignore", divide="ignore"):
        l_shift = _log_norm_pdf(z_abs - a) - np.log(a)
        l_slab = np.log(0.5) if np.isinf(ratio) else np.log(ratio) + l_shift
        log_z0 = np.logaddexp(np.log1p(-w) - np.log(w) + l_shift, l_slab)
    mu = max(0.0, float(z_abs - a + scipy.special.ndtri(-np.expm1(log_z0))))
    return PosteriorSummary(z, w, a, float(np.copysign(mu, z)), True)


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
    still moving after _HALVINGS steps raises ConvergenceError. The steps
    work on a copy of the rows still live after the end-point checks; a
    row that stops keeps its w while the others step on. Every row's steps
    and stopping point depend on that row alone, so results cannot depend
    on how rows are batched or chunked across threads.
    """
    buffer = np.empty_like(inv_beta)

    def score(c, w):
        terms = np.add(c, w[:, None], out=buffer[: c.shape[0]])
        return np.reciprocal(terms, out=terms).sum(axis=1), terms

    lo = np.asarray(lo, dtype=np.float64)
    at_lo = score(inv_beta, lo)[0] < 0.0
    at_hi = ~at_lo & (score(inv_beta, np.ones_like(lo))[0] >= 0.0)
    w = np.where(at_lo, lo, 1.0)
    rows = np.flatnonzero(~(at_lo | at_hi))  # the gathered rows, live or not
    live = np.ones(rows.size, dtype=bool)
    c = inv_beta[rows] if rows.size < w.size else inv_beta
    lo, hi = lo[rows], np.ones(rows.size)
    x = np.sqrt(lo)  # the weights of the gathered rows
    step = step_old = hi - lo
    for _ in range(_HALVINGS):
        if not live.any():
            break
        s, terms = score(c, x)
        h_prime = s - x * np.einsum("ij,ij->i", terms, terms)  # S + w S'
        right = s > 0.0
        lo = np.where(right, x, lo)
        hi = np.where(right, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - x * s / h_prime
        # NaN fails both comparisons and so falls back to the midpoint too.
        keep = (newton >= lo) & (newton <= hi)
        keep &= np.abs(newton - x) <= 0.5 * step_old
        nxt = np.where(keep, newton, 0.5 * (lo + hi))
        step_old, step = step, np.abs(nxt - x)
        x = np.where(live, nxt, x)
        live &= step > _STEP_RTOL * nxt
    if live.any():
        raise ConvergenceError(
            f"weight solve still moving after {_HALVINGS} steps "
            f"in {int(live.sum())} of {w.size} rows"
        )
    w[rows] = x
    return w


def _weights(beta, lo):
    """ML weights on [lo, 1] at slab-to-null ratios beta = g / phi - 1 (one
    row each), and w * beta in a new array."""
    with np.errstate(divide="ignore"):
        inv_beta = np.reciprocal(beta)
    w = _score_root(inv_beta, lo)
    return w, np.multiply(beta, w[:, None], out=inv_beta)


def _loglik(w_beta, z_abs, w, a, log_phi_sum):
    """Row logliks sum(log phi) + sum(log1p(w beta)) from w_beta = w * beta,
    which is overwritten; z_abs holds the rows' |z| in the order of w_beta.

    log((1 - w) phi + w g) = log phi + log1p(w beta). Where beta overflowed
    to inf the term is log w + log(g / phi) from _log_ratio_overflow; only
    rows whose sum came out inf are summed again.
    """
    terms = np.log1p(w_beta, out=w_beta)
    ll = terms.sum(axis=1)
    over = np.flatnonzero(np.isinf(ll))
    if over.size:
        sub = terms[over]
        big = np.isinf(sub)
        r = np.nonzero(big)[0]
        sub[big] = np.log(w[over][r]) + _log_ratio_overflow(z_abs[over][big], a[over][r])
        ll[over] = sub.sum(axis=1)
    return ll + log_phi_sum


def _profile_with_slope(z_abs, log_phi_sum, a):
    """Profile fit at per-row spreads a: (w, loglik, dL/da).

    L(a) is the loglik at a and its ML weight w(a); log_phi_sum holds each
    row's sum(log phi). Where w(a) is interior or pinned at 1, dL/da is the
    partial derivative in a (envelope theorem): the sum of the slab shares
    w g / mix = 1 - (1 - w) q, q = phi / mix = 1 / (1 + w beta), times
    d log g / da. Where w(a) sits at weight_lower_bound, the bound's slope
    times the weight score sum((g - phi) / mix) = sum(1 - q) / w is added.
    """
    n = z_abs.shape[1]
    a_col = a[:, None]
    ratio, t2 = _slab_ratio(z_abs, a_col)
    lo = weight_lower_bound(n, a)
    w, w_beta = _weights(ratio - 1.0, lo)
    q = np.add(w_beta, 1.0)
    np.reciprocal(q, out=q)
    loglik = _loglik(w_beta, z_abs, w, a, log_phi_sum)
    dlog_g = _slab_slope(z_abs, a_col, ratio, t2)
    floor = np.flatnonzero(w == lo)
    floor_score = (1.0 - q[floor]).sum(axis=1) / w[floor]
    share = np.multiply(q, (w - 1.0)[:, None], out=q)
    share += 1.0
    slope = np.einsum("ij,ij->i", share, dlog_g)
    slope[floor] += floor_score * _weight_floor_slope(n, a[floor])
    return w, loglik, slope


def _fit_spread(z_abs, log_phi_sum):
    """Per-row (w, a, loglik) at the a in [A_MIN, A_MAX] that maximizes the
    profile loglik L(a); the search is described in fit_rows."""
    rows = z_abs.shape[0]
    r = np.arange(rows)
    grid = A_MIN + np.array([0.0, 0.25, 0.5, 0.75, 1.0]) * (A_MAX - A_MIN)
    w_s, ll_s, d_s = map(np.stack, zip(*(
        _profile_with_slope(z_abs, log_phi_sum, np.full(rows, g)) for g in grid
    )))
    best = ll_s.argmax(axis=0)
    x, w, ll, d = grid[best], w_s[best, r], ll_s[best, r], d_s[best, r]
    # Each row's bracket joins its best scan point to the neighbour uphill
    # of it; a row at a bound whose slope points out of range is done.
    other = np.clip(best + np.sign(d).astype(np.int64), 0, grid.size - 1)
    x_prev, d_prev = grid[other], d_s[other, r]
    lo, hi = np.minimum(x, x_prev), np.maximum(x, x_prev)
    live = other != best
    # dL/da is smooth on either side of the a at which w reaches 1, but its
    # slope jumps there. So each secant pairs the newest point with the
    # latest earlier one on the same side (w == 1 or w < 1) if there is
    # one: last_x[side], last_d[side].
    last_x, last_d = np.full((2, rows), np.nan), np.full((2, rows), np.nan)
    for a_k, w_k, d_k in ((x_prev, w_s[other, r], d_prev), (x, w, d)):
        side = (w_k == 1.0).astype(np.int64)
        last_x[side, r], last_d[side, r] = a_k, d_k
    step = step_old = hi - lo
    for passes in range(_A_STEPS + 1):
        # The secant runs in 1/a: for large scores d log g / da is close to
        # 1/a - |z|, so dL/da is close to linear in 1/a.
        with np.errstate(divide="ignore", invalid="ignore"):
            v, v_prev = 1.0 / x, 1.0 / x_prev
            secant = 1.0 / (v - d * (v - v_prev) / (d - d_prev))
        # NaN fails every comparison and so falls back to the midpoint too.
        keep = (secant > lo) & (secant < hi) & (np.abs(secant - x) <= 0.5 * step_old)
        nxt = np.where(keep, secant, 0.5 * (lo + hi))
        step_old, step = step, np.abs(nxt - x)
        live &= step > _A_TOL
        if not live.any():
            break
        if passes == _A_STEPS:
            raise ConvergenceError(
                f"spread search still moving after {_A_STEPS} steps "
                f"in {int(live.sum())} of {rows} rows"
            )
        idx = np.flatnonzero(live)
        a_new = nxt[idx]
        sub = idx if idx.size < rows else slice(None)  # a view while every row is live
        w_new, ll_new, d_new = _profile_with_slope(z_abs[sub], log_phi_sum[sub], a_new)
        side = (w_new == 1.0).astype(np.int64)
        seen = ~np.isnan(last_x[side, idx])
        x_prev[idx] = np.where(seen, last_x[side, idx], x[idx])
        d_prev[idx] = np.where(seen, last_d[side, idx], d[idx])
        last_x[side, idx], last_d[side, idx] = a_new, d_new
        x[idx], w[idx], ll[idx], d[idx] = a_new, w_new, ll_new, d_new
        up = d_new > 0.0
        lo[idx] = np.where(up, a_new, lo[idx])
        hi[idx] = np.where(up, hi[idx], a_new)
    # A scan point that beats the search result wins, so the exact bounds
    # A_MIN and A_MAX are returned whenever they are best.
    scan_wins = ll_s[best, r] > ll
    return (
        np.where(scan_wins, w_s[best, r], w),
        np.where(scan_wins, grid[best], x),
        np.where(scan_wins, ll_s[best, r], ll),
    )


def fit_rows(z: np.ndarray, estimate_a: bool = False):
    """Fit (w, a) for every row of an (R, L) score array by marginal ML.

    The row log-likelihood sum(log((1 - w) phi + w g)) is concave in w,
    so its maximizer over [weight_lower_bound, 1] is the root of the
    decreasing score sum(1 / (w + 1 / beta)), beta = g / phi - 1
    (Johnstone & Silverman 2004), found by a safeguarded Newton iteration
    that stops each row once its step is at rounding level. This profile
    fit gives the best w and its loglik L(a) at a given a.

    With estimate_a false it runs once at A_DEFAULT. With estimate_a true
    it maximizes L over a in [A_MIN, A_MAX]. A five-point scan, each of
    whose passes also returns the analytic dL/da, picks each row's best
    point and the neighbour on its uphill side. A secant iteration on
    dL/da in 1/a then runs inside that bracket, falling back to the
    midpoint when a step leaves the bracket or is more than half the step
    before last (Johnstone & Silverman's EBayesThresh also fits (w, a)
    with the analytic gradient). A row stops at its last evaluated a once
    its next step is at most _A_TOL; a row still moving after _A_STEPS
    passes raises ConvergenceError. A scan point with a higher loglik
    than the search result is returned instead, so the exact bounds win
    when they are best.

    Either fit runs on each row's |z| sorted once, so a row's
    (w, a, loglik) depends only on the multiset of its scores, not on
    their order or on the other rows.

    Returns (w, a, loglik) vectors of length R.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] < 1:
        raise InvalidInputError("need a 2-D array with at least one score per row")
    if not np.all(np.isfinite(z)):
        raise InvalidInputError("scores must be finite")
    rows, n = z.shape
    # erfcx branches on the range of its argument, so it runs two to three
    # times faster on sorted rows; nothing is put back, so every sum of the
    # fit runs in sorted order too.
    z_abs = np.abs(z)
    z_abs.sort(axis=1)
    log_phi_sum = -0.5 * np.einsum("ij,ij->i", z_abs, z_abs) - n * _LOG_SQRT_2PI
    if estimate_a:
        return _fit_spread(z_abs, log_phi_sum)
    a = np.full(rows, A_DEFAULT)
    beta = _slab_ratio(z_abs, A_DEFAULT)[0]
    beta -= 1.0
    w, w_beta = _weights(beta, weight_lower_bound(n, a))
    return w, a, _loglik(w_beta, z_abs, w, a, log_phi_sum)


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
    share. Each block reads its own rows and fits them alone, so working
    memory beyond the input is O(threads * block + edges). Each row's fit
    depends on that row alone, so any thread count gives the same result.
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
        fit = MixtureFit(w, a, ll, bool(estimate_a))
        t = fit.threshold
        edges = np.concatenate(list(pool.map(block_edges, blocks)))
    return SparseAdjacency(m, edges), fit
