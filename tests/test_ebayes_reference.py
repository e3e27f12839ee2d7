"""The slab kernel against copies of its earlier log-space forms.

Every slab evaluation now reads g / phi, or the slab mass on either side
of zero, from the erfcx pair of ebayes._slab_ratio. Below are verbatim
copies of the log_ndtr forms it replaced: the half-slabs U0 and L0, the
detection margin, the weight floor and its slope, the density's tails,
and the fit that formed log g from those tails and combined them with
logaddexp. The margin, the floor and the density must agree with their
copies to within rounding. On simulated score matrices, including ones
whose largest scores make g / phi overflow, both fits must keep exactly
the same edges and agree on the weights to within rounding.
"""

import numpy as np
import pytest
import scipy.special

from assocnet import ebayes
from assocnet.assoc import fisher_z
from assocnet.ebayes import (
    _A_STEPS,
    _A_TOL,
    _HALVINGS,
    _STEP_RTOL,
    A_DEFAULT,
    A_MAX,
    A_MIN,
    _log_detection_margin,
    _log_norm_pdf,
    _weight_floor_slope,
    detection_threshold,
    infer_adjacency,
    log_laplace_normal_density,
    posterior_median,
    universal_threshold,
    weight_lower_bound,
)
from assocnet.errors import ConvergenceError
from assocnet.simgen import SimConfig, generate_correlations, generate_ground_truth

# --------------------------------------------------- log_ndtr slab forms


def _log_upper_slab(z, a):
    """log of (a/2) * integral_{0}^{inf} exp(-a t) * normal_pdf(z - t) dt, z >= 0."""
    return np.log(a / 2.0) + 0.5 * a * a - a * z + scipy.special.log_ndtr(z - a)


def _log_lower_slab(z, a):
    """log of (a/2) * integral_{-inf}^{0} exp(a t) * normal_pdf(z - t) dt, z >= 0."""
    return np.log(a / 2.0) + 0.5 * a * a + a * z + scipy.special.log_ndtr(-z - a)


def _log_slab_tails(z, a):
    """l_u = -a z + log Phi(z - a) and l_l = a z + log Phi(-z - a).

    The slab density is g = (a/2) exp(a^2/2) (exp(l_u) + exp(l_l)).
    """
    return -a * z + scipy.special.log_ndtr(z - a), a * z + scipy.special.log_ndtr(-z - a)


def log_space_density(z, a):
    """Log density of the Laplace(spread a) + standard normal convolution."""
    return np.log(a / 2.0) + 0.5 * a * a + np.logaddexp(*_log_slab_tails(z, a))


def log_space_margin(z_abs, w, a):
    """log of w * D(z) minus log of phi(z), where D = U0 - L0 + phi."""
    l_u0 = _log_upper_slab(z_abs, a)
    l_l0 = _log_lower_slab(z_abs, a)
    l_phi = _log_norm_pdf(z_abs)
    ratio = np.exp(l_phi - l_u0) - np.exp(l_l0 - l_u0)
    log_d = l_u0 + np.log1p(ratio)
    with np.errstate(divide="ignore"):
        return np.log(w) + log_d - l_phi


def log_space_weight_floor(n, a):
    return np.exp(-log_space_margin(universal_threshold(n), 1.0, a))


def log_space_weight_floor_slope(n, a):
    t = universal_threshold(n)
    w_lo = log_space_weight_floor(n, a)
    l_phi = _log_norm_pdf(t)
    upper = np.exp(_log_upper_slab(t, a) - l_phi)
    lower = np.exp(_log_lower_slab(t, a) - l_phi)
    return -w_lo * w_lo * ((1.0 / a + a) * (upper - lower) - t * (upper + lower))


# ------------------------------------------------- log-space reference fit


def _log_slab_and_slope(z, a, l_phi):
    """log g(z; a) and d log g / da from the same pair of log_ndtr passes.

    d log g / da = 1/a + a + z tanh((l_l - l_u) / 2) - a phi(z) / g, with
    the tails l_u, l_l of _log_slab_tails and l_phi = log phi(z). The
    value equals log_space_density bit for bit.
    """
    l_u, l_l = _log_slab_tails(z, a)
    l_g = np.logaddexp(l_u, l_l)
    l_g += np.log(a / 2.0) + 0.5 * a * a
    slope = np.subtract(l_l, l_u, out=l_l)
    slope *= 0.5
    np.tanh(slope, out=slope)
    slope *= z
    phi_over_g = np.subtract(l_phi, l_g, out=l_u)
    np.exp(phi_over_g, out=phi_over_g)
    phi_over_g *= a
    slope -= phi_over_g
    slope += 1.0 / a + a
    return l_g, slope


def _score_root(inv_beta: np.ndarray, lo: np.ndarray) -> np.ndarray:
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


def _weights_and_mixture(l_g, l_phi, lo):
    inv_beta = np.subtract(l_g, l_phi)  # log(g / phi), turned into 1 / beta in place
    with np.errstate(over="ignore", divide="ignore"):
        np.reciprocal(np.expm1(inv_beta, out=inv_beta), out=inv_beta)
    w = _score_root(inv_beta, lo)
    del inv_beta  # freed before the loglik pass to lower peak memory
    with np.errstate(divide="ignore"):
        lw = np.log(w)[:, None]
        l1mw = np.log1p(-w)[:, None]
    l_mix = l1mw + l_phi
    return w, np.logaddexp(l_mix, lw + l_g, out=l_mix)


def _profile_with_slope(z_abs, l_phi, a):
    n = z_abs.shape[1]
    l_g, dlog_g = _log_slab_and_slope(z_abs, a[:, None], l_phi)
    lo = log_space_weight_floor(n, a)
    w, l_mix = _weights_and_mixture(l_g, l_phi, lo)
    slab_share = np.log(w)[:, None] + l_g
    slab_share -= l_mix
    slope = np.einsum("ij,ij->i", np.exp(slab_share, out=slab_share), dlog_g)
    floor = w == lo
    if floor.any():
        l_mix_f = l_mix[floor]
        score = np.exp(l_g[floor] - l_mix_f) - np.exp(l_phi[floor] - l_mix_f)
        slope[floor] += score.sum(axis=1) * log_space_weight_floor_slope(n, a[floor])
    return w, l_mix.sum(axis=1), slope


def _fit_spread(z_abs, l_phi):
    rows = z_abs.shape[0]
    r = np.arange(rows)
    grid = A_MIN + np.array([0.0, 0.25, 0.5, 0.75, 1.0]) * (A_MAX - A_MIN)
    w_s, ll_s, d_s = map(np.stack, zip(*(
        _profile_with_slope(z_abs, l_phi, np.full(rows, g)) for g in grid
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
        w_new, ll_new, d_new = _profile_with_slope(z_abs[sub], l_phi[sub], a_new)
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


def log_space_fit_rows(z, estimate_a):
    """(w, a, loglik) of each row of z as the log-space fit_rows gave them."""
    rows, n = z.shape
    if estimate_a:
        z_abs = np.abs(z)
        return _fit_spread(z_abs, _log_norm_pdf(z_abs))
    a = np.full(rows, A_DEFAULT)
    l_g = log_space_density(np.abs(z), a[:, None])
    l_phi = _log_norm_pdf(z)
    w, l_mix = _weights_and_mixture(l_g, l_phi, log_space_weight_floor(n, a))
    return w, a, l_mix.sum(axis=1)


# ------------------------------------------------------------------ tests


def simulated_scores(r_gen, seed):
    config = SimConfig(m=120, k=3, community_size=30, theta_in=50.0, theta_out=1.0,
                       r_gen=r_gen, nu=200, seed=seed)
    truth = generate_ground_truth(config)
    return fisher_z(generate_correlations(truth.adjacency, r_gen, config.nu, seed), config.nu)


@pytest.mark.parametrize("estimate_a", [False, True], ids=["fixed-a", "estimated-a"])
@pytest.mark.parametrize("r_gen", [0.1, 0.8, 0.99])
@pytest.mark.parametrize("seed", [11, 12])
def test_fit_matches_the_log_space_fit(seed, r_gen, estimate_a):
    assoc = simulated_scores(r_gen, seed)
    z, m = assoc.z, assoc.m
    if r_gen == 0.99:  # the largest scores take the overflow branch
        assert np.isinf(ebayes._slab_ratio(np.abs(z), A_DEFAULT)[0]).any()
    rows = z[~np.eye(m, dtype=bool)].reshape(m, m - 1)
    w_ref, a_ref, _ = log_space_fit_rows(rows, estimate_a)
    adjacency, fit = infer_adjacency(assoc, estimate_a)
    np.testing.assert_allclose(fit.w, w_ref, rtol=1e-9 if estimate_a else 1e-13, atol=0.0)
    t = detection_threshold(w_ref, a_ref)
    upper = np.triu(np.abs(z) > np.maximum(t[:, None], t[None, :]), k=1)
    np.testing.assert_array_equal(adjacency.edges, np.argwhere(upper))


# |z| up to 200. There the margin is about 2e4, and both of its forms are
# off a 50-digit value by up to 6.5e-12 (about 3e-16 relative). So the
# margin's bound is 1e-12 absolute up to a value of 1 and relative past it.
Z_GRID = np.concatenate([np.linspace(0.0, 40.0, 801), np.linspace(40.0, 200.0, 321)])
A_GRID = np.linspace(A_MIN, A_MAX, 25)


def test_margin_matches_the_log_ndtr_margin():
    z = Z_GRID[:, None, None]
    w = np.array([1e-12, 1e-9, 1e-6, 1e-3, 0.05, 0.3, 0.7, 1.0])[None, :, None]
    a = A_GRID[None, None, :]
    assert np.isinf(ebayes._slab_ratio(z, a)[0]).any()  # the overflow branch
    new, ref = np.broadcast_arrays(_log_detection_margin(z, w, a), log_space_margin(z, w, a))
    np.testing.assert_array_less(np.abs(new - ref), 1e-12 * np.maximum(1.0, np.abs(ref)))
    # The signs agree at every z > 0. At z = 0 the new margin is log w
    # exactly (T1 = T2), which the reference misses by rounding at w = 1.
    assert np.all(np.abs(ref[1:]) > 1e-12)
    np.testing.assert_array_equal(new[1:] > 0.0, ref[1:] > 0.0)
    np.testing.assert_array_equal(new[0], np.broadcast_to(np.log(w[0]), new[0].shape))


def test_weight_floor_and_its_slope_match_the_log_ndtr_forms():
    for n in (2, 99, 1000, 10**6):
        np.testing.assert_allclose(
            weight_lower_bound(n, A_GRID), log_space_weight_floor(n, A_GRID), rtol=1e-13, atol=0.0
        )
        np.testing.assert_allclose(
            _weight_floor_slope(n, A_GRID), log_space_weight_floor_slope(n, A_GRID),
            rtol=1e-12, atol=1e-15,
        )


def test_density_matches_the_log_ndtr_density():
    # Past the overflow of g / phi the density is log(a/2) + a^2/2 - a|z|,
    # exact for any finite z, as the log_ndtr form is.
    z = np.concatenate([Z_GRID, [1e8, 1e200]])[:, None]
    new, ref = log_laplace_normal_density(z, A_GRID), log_space_density(z, A_GRID)
    np.testing.assert_array_less(np.abs(new - ref), 1e-13 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("z", [1e8, -1e8, 1e200, -1e200])
def test_median_of_a_far_score_is_the_score_less_the_spread(z):
    # There the slab's share of z0 is 1/2 up to exp(-huge), so the median
    # is |z| - a with the sign of z, to rounding.
    for w in (1e-12, 0.3, 1.0):
        for a in A_GRID:
            summary = posterior_median(z, w, a)
            assert summary.nonzero
            assert summary.median == np.copysign(abs(z) - a, z), (z, w, a)
