"""Tests for spike-plus-slab score thresholding.

Independent oracles, defined before any assertions use them:

* ``quad_log_slab_density`` — adaptive quadrature of the defining
  convolution (Laplace prior smoothed by a standard normal), evaluated in
  a shifted frame so the far tail stays well scaled.
* ``grid_posterior_median`` — brute-force posterior-CDF inversion on a
  fine mu-grid via cumulative Simpson integration.
* ``oracle_threshold`` — bisection on the posterior mass at or below
  zero, using quadrature only.
"""

import itertools
import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson, quad
from scipy.optimize import brentq

from conftest import to_dense

from assocnet import ebayes
from assocnet.assoc import AssocMatrix, fisher_z
from assocnet.ebayes import (
    A_DEFAULT,
    A_MAX,
    A_MIN,
    MixtureFit,
    PosteriorSummary,
    detection_threshold,
    fit_row,
    fit_rows,
    infer_adjacency,
    log_laplace_normal_density,
    marginal_loglik,
    posterior_median,
    universal_threshold,
    weight_lower_bound,
)
from assocnet.errors import ConvergenceError, InvalidInputError, ParameterError
from assocnet.simgen import SimConfig, generate_correlations, generate_ground_truth

SQRT_2PI = math.sqrt(2.0 * math.pi)


def norm_pdf(u):
    return np.exp(-0.5 * np.asarray(u) ** 2) / SQRT_2PI


def slab_density(z, a):
    return np.exp(log_laplace_normal_density(z, a))


# ----------------------------------------------------------------- oracles


def quad_log_slab_density(z, a):
    """log of the slab density by quadrature of the defining convolution.

    Integrates (a/2)·exp(-a|mu|)·phi(z - mu) dmu with the substitution
    mu = z + u and the dominant exp(-a|z|) factor pulled out, so the
    integrand stays O(1) even at |z| = 40.
    """
    z = abs(float(z))

    def integrand(u):
        # one exponent, so exp(a z) cannot overflow before phi(u) damps it
        return math.exp(a * z - a * abs(z + u) - 0.5 * u * u) / SQRT_2PI

    total = 0.0
    for lo, hi in ((-np.inf, -z), (-z, 0.0), (0.0, np.inf)):
        val, _ = quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=400)
        total += val
    return math.log(a / 2.0) - a * z + math.log(total)


def grid_posterior_median(z, w, a):
    """Posterior median by CDF inversion on a fine mu-grid.

    The continuous part is integrated with cumulative Simpson on a grid of
    step 2.5e-4; the atom at zero carries the remaining mass.
    """
    z = float(z)
    half_width = abs(z) + 12.0
    n = 2 * int(half_width / 0.00025) + 1
    grid = np.linspace(-half_width, half_width, n)
    cont = w * (a / 2.0) * np.exp(-a * np.abs(grid)) * norm_pdf(z - grid)
    cdf = cumulative_simpson(cont, x=grid, initial=0.0)
    atom = (1.0 - w) * float(norm_pdf(z))
    total = atom + cdf[-1]
    at_zero = cdf[n // 2]  # grid is symmetric, so index n//2 is mu = 0
    if at_zero <= total / 2.0 <= at_zero + atom:
        return 0.0
    if at_zero + atom < total / 2.0:
        level = total / 2.0 - atom
    else:
        level = total / 2.0
    return float(np.interp(level, cdf, grid))


def oracle_threshold(w, a):
    """Smallest z > 0 at which half the posterior mass sits above zero."""

    def slab_piece(z, lo, hi):
        val, _ = quad(
            lambda mu: (a / 2.0) * math.exp(-a * abs(mu)) * float(norm_pdf(z - mu)),
            lo,
            hi,
            epsabs=0.0,
            epsrel=1e-12,
            limit=300,
        )
        return val

    def mass_at_or_below_zero_minus_half(z):
        atom = (1.0 - w) * float(norm_pdf(z))
        below = w * slab_piece(z, -np.inf, 0.0)
        above = w * slab_piece(z, 0.0, np.inf)
        return (atom + below) - (atom + below + above) / 2.0

    hi = 1.0
    while mass_at_or_below_zero_minus_half(hi) > 0.0:
        hi *= 2.0
    return brentq(mass_at_or_below_zero_minus_half, 0.0, hi, xtol=1e-10)


def loop_marginal_loglik(z_row, w, a):
    """Plain python summation of the mixture log-likelihood."""
    total = 0.0
    for z in z_row:
        total += math.log(
            (1.0 - w) * float(norm_pdf(z)) + w * slab_density(z, a)
        )
    return total


def sample_mixture_row(n, w, a, rng):
    """Draw one row from the spike-plus-slab marginal itself."""
    signal = rng.random(n) < w
    mu = np.where(signal, rng.laplace(0.0, 1.0 / a, n), 0.0)
    return mu + rng.standard_normal(n)


def kernel_log_ratio(z_abs, a):
    """log(g / phi) from the fit's kernel, by its closed form where g / phi overflows."""
    ratio = ebayes._slab_ratio(z_abs, a)[0]
    return np.where(np.isinf(ratio), ebayes._log_ratio_overflow(z_abs, a), np.log(ratio))


# ------------------------------------------------------------ slab density


class TestSlabDensity:
    def test_matches_quadrature_at_zero(self):
        # frozen from quad_log_slab_density(0.0, 0.5)
        assert slab_density(0.0, 0.5) == pytest.approx(
            0.17480941736019903, rel=1e-10
        )

    def test_far_tail_log_space(self):
        # frozen from quad_log_slab_density(40.0, 0.5)
        assert float(log_laplace_normal_density(40.0, 0.5)) == pytest.approx(
            -21.26129436111989, abs=1e-8
        )

    @pytest.mark.parametrize("a", [0.1, 0.5, 2.0])
    def test_quadrature_grid(self, a):
        far = np.array([60.0, 100.0, 200.0])
        assert np.isinf(ebayes._slab_ratio(far, a)[0]).all()  # the overflow branch
        for z in np.concatenate([np.arange(-40.0, 40.5, 5.0), far, -far]):
            expected = quad_log_slab_density(z, a)
            obtained = float(log_laplace_normal_density(z, a))
            assert obtained == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("a", [0.1, 0.5, 2.0])
    def test_integrates_to_one(self, a):
        # the Laplace component has scale 1/a, so the integration range
        # must reach far enough for its tail mass to drop below 1e-8
        span = max(60.0, 30.0 / a)
        total, _ = quad(
            lambda z: slab_density(z, a),
            -span,
            span,
            epsabs=1e-12,
            epsrel=1e-12,
            limit=400,
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    @given(
        z=st.floats(-35.0, 35.0, allow_nan=False),
        a=st.floats(0.05, 4.0, allow_nan=False),
    )
    def test_symmetric_in_z(self, z, a):
        lhs = float(log_laplace_normal_density(z, a))
        rhs = float(log_laplace_normal_density(-z, a))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_decreasing_in_magnitude(self):
        z = np.linspace(0.0, 40.0, 401)
        logs = log_laplace_normal_density(z, 0.5)
        assert np.all(np.diff(logs) < 0.0)

    @pytest.mark.parametrize("a", [A_MIN, 0.5, 2.0, A_MAX])
    def test_slab_ratio_matches_quadrature(self, a):
        # Bisect for the first |z| at which g / phi overflows.
        lo, hi = a + 30.0, a + 40.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if np.isinf(ebayes._slab_ratio(np.array([mid]), a)[0][0]):
                hi = mid
            else:
                lo = mid
        z = np.concatenate([np.linspace(0.0, 45.0, 31), [lo, hi, 60.0, 100.0, 300.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ratio = ebayes._slab_ratio(z, a)[0]
            got = kernel_log_ratio(z, a)
        assert np.isfinite(ratio[z == lo]).all() and np.isinf(ratio[z >= hi]).all()
        for z_i, got_i in zip(z, got):
            expected = quad_log_slab_density(z_i, a) + 0.5 * z_i**2 + math.log(SQRT_2PI)
            assert abs(got_i - expected) <= 1e-13 * max(1.0, abs(expected)), z_i

    def test_slope_in_spread_matches_central_difference(self):
        z = np.linspace(0.0, 40.0, 81)[:, None]
        a = np.linspace(A_MIN, A_MAX, 40)[None, :]
        ratio, t2 = ebayes._slab_ratio(z, a)
        assert np.isinf(ratio).any()  # the overflow branch is covered
        slope = ebayes._slab_slope(z, a, ratio, t2)
        h = 1e-6
        central = (
            log_laplace_normal_density(z, a + h) - log_laplace_normal_density(z, a - h)
        ) / (2.0 * h)
        np.testing.assert_allclose(slope, central, rtol=1e-6, atol=1e-6)

    def test_rejects_bad_spread(self):
        for bad in (0.0, -1.0, np.nan, np.inf, np.array([0.5, np.nan])):
            with pytest.raises(ParameterError, match="spread a must be positive"):
                log_laplace_normal_density(1.0, bad)


# -------------------------------------------------------- marginal loglik


class TestMarginalLoglik:
    def test_pure_null_component(self):
        rng = np.random.default_rng(7)
        row = rng.standard_normal(50)
        expected = float(np.sum(np.log(norm_pdf(row))))
        assert marginal_loglik(row, 0.0, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_pure_signal_component(self):
        rng = np.random.default_rng(8)
        row = rng.standard_normal(50)
        expected = float(np.sum(log_laplace_normal_density(row, 0.5)))
        assert marginal_loglik(row, 1.0, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(9)
        row = rng.standard_normal(200) * 2.0
        expected = loop_marginal_loglik(row, 0.3, 0.5)
        assert marginal_loglik(row, 0.3, 0.5) == pytest.approx(expected, abs=1e-10)

    def test_rejects_bad_weight(self):
        with pytest.raises(ParameterError):
            marginal_loglik(np.ones(3), -0.1, 0.5)
        with pytest.raises(ParameterError):
            marginal_loglik(np.ones(3), 1.1, 0.5)
        with pytest.raises(ParameterError):
            marginal_loglik(np.ones(3), np.nan, 0.5)
        for bad in (np.nan, np.inf):
            with pytest.raises(ParameterError, match="spread a must be positive"):
                marginal_loglik(np.ones(3), 0.5, bad)


# ------------------------------------------------- thresholds and bounds


def bisect(f, lo, hi):
    """Per-row sign change of an increasing f over brackets [lo, hi].

    Returns lo exactly where f(lo) > 0 and hi exactly where f(hi) <= 0.
    Elsewhere it halves the bracket _HALVINGS times, keeping
    f(lo) <= 0 < f(hi), and returns the last lo.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    below = f(lo) > 0.0
    above = ~below & (f(hi) <= 0.0)
    left, right = lo, hi
    for _ in range(ebayes._HALVINGS):
        mid = 0.5 * (left + right)
        up = f(mid) <= 0.0
        left = np.where(up, mid, left)
        right = np.where(up, right, mid)
    return np.where(below, lo, np.where(above, hi, left))


def bisect_threshold(w, a):
    """detection_threshold by bisect over [0, hi], hi doubled from 2 as there."""

    def margin(t):
        return ebayes._log_detection_margin(t, w, a)

    hi = np.full(w.shape, 2.0)
    while np.any(margin(hi) <= 0.0):
        hi = np.where(margin(hi) <= 0.0, 2.0 * hi, hi)
    return np.where(w == 1.0, 0.0, bisect(margin, np.zeros(w.shape), hi))


class TestThresholds:
    def test_universal_threshold_values(self):
        assert universal_threshold(1) == 0.0
        assert universal_threshold(2) == pytest.approx(
            math.sqrt(2.0 * math.log(2.0)), rel=1e-15
        )
        with pytest.raises(ParameterError):
            universal_threshold(0)

    def test_single_score_weight_bound_is_one(self):
        assert weight_lower_bound(1, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_weight_bound_decreases_with_row_length(self):
        values = [weight_lower_bound(n, 0.5) for n in (2, 10, 100, 10_000)]
        assert all(b > c for b, c in zip(values, values[1:]))

    def test_weight_bound_inverts_universal_threshold(self):
        for n in (5, 50, 500):
            for a in (0.1, 0.5, 2.0):
                w_min = weight_lower_bound(n, a)
                assert detection_threshold(w_min, a) == pytest.approx(
                    universal_threshold(n), abs=1e-9
                )

    def test_full_weight_threshold_is_zero(self):
        assert detection_threshold(1.0, 0.5) == 0.0

    @pytest.mark.parametrize(
        "w, a, expected",
        [
            # frozen from oracle_threshold(w, a)
            (0.1, 0.5, 2.8163059350211754),
            (0.5, 0.5, 1.6743986106058077),
            (0.02, 2.0, 4.442658281474317),
            (0.3, 0.1, 2.5244822650294654),
        ],
    )
    def test_matches_mass_balance_oracle(self, w, a, expected):
        assert detection_threshold(w, a) == pytest.approx(expected, abs=1e-6)

    def test_vector_entries_equal_scalar_calls(self):
        rng = np.random.default_rng(26)
        w = np.concatenate([rng.uniform(1e-6, 1.0, 200), [1.0, 1e-12]])
        a = rng.uniform(A_MIN, A_MAX, w.size)
        t = detection_threshold(w, a)
        assert t.shape == w.shape
        for w_i, a_i, t_i in zip(w, a, t):
            scalar = detection_threshold(float(w_i), float(a_i))
            assert isinstance(scalar, float)
            assert scalar == t_i

    def test_bit_identical_to_bisection_with_end_point_checks(self):
        # 10^5 seeded (w, a), plus w = 1 and the weight floors of rows of
        # 1999 and 9 scores, at spreads across [A_MIN, A_MAX].
        rng = np.random.default_rng(31)
        a = rng.uniform(A_MIN, A_MAX, 100_000)
        w = np.exp(rng.uniform(np.log(1e-6), 0.0, a.size))
        w[::50] = 1.0
        w[1::50] = weight_lower_bound(1999, a[1::50])
        w[2::50] = weight_lower_bound(9, a[2::50])
        t = detection_threshold(w, a)
        assert t.tobytes() == bisect_threshold(w, a).tobytes()
        assert np.all(t[::50] == 0.0) and np.all(t[1::50] > 0.0)

    def test_broadcasts_weight_against_spread(self):
        w = np.array([0.1, 0.5, 1.0])
        t = detection_threshold(w[:, None], np.array([0.1, 0.5, 2.0]))
        assert t.shape == (3, 3)
        assert np.all(t[2] == 0.0) and np.all(t[:2] > 0.0)
        assert t[0, 1] == detection_threshold(0.1, 0.5)

    def test_threshold_sits_at_the_sign_change_of_the_margin(self):
        w = np.array([1e-9, 0.01, 0.3, 0.9])
        a = np.array([4.0, 0.05, 0.5, 2.0])
        t = detection_threshold(w, a)
        assert np.all(ebayes._log_detection_margin(t, w, a) <= 0.0)
        assert np.all(ebayes._log_detection_margin(np.nextafter(t, np.inf), w, a) > 0.0)

    def test_rejects_bad_weights_and_spreads(self):
        for w, a in [(np.array([0.5, 0.0]), 0.5), (np.array([0.5, 1.5]), 0.5),
                     (np.array([0.5, np.nan]), 0.5), (0.5, np.array([0.5, -1.0])),
                     (0.5, np.nan), (0.5, np.array([0.5, np.inf]))]:
            with pytest.raises(ParameterError):
                detection_threshold(w, a)
        for a in (-1.0, np.nan, np.inf, np.array([0.5, np.nan])):
            with pytest.raises(ParameterError, match="spread a must be positive"):
                weight_lower_bound(10, a)

    def test_threshold_nonincreasing_in_weight(self):
        for a in (0.1, 0.5, 2.0):
            thresholds = [
                detection_threshold(w, a) for w in np.linspace(0.01, 1.0, 40)
            ]
            assert all(
                left >= right - 1e-12
                for left, right in zip(thresholds, thresholds[1:])
            )


# -------------------------------------------------------- posterior median


class TestPosteriorMedian:
    def test_frozen_grid_oracle_value(self):
        # frozen from grid_posterior_median(5.0, 0.5, 0.5)
        summary = posterior_median(5.0, 0.5, 0.5)
        assert summary.nonzero
        assert summary.median == pytest.approx(4.499920595539688, abs=1e-6)

    def test_against_grid_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(12):
            z = float(rng.uniform(-8.0, 8.0))
            w = float(rng.uniform(0.02, 1.0))
            a = float(rng.uniform(0.05, 4.0))
            expected = grid_posterior_median(z, w, a)
            assert posterior_median(z, w, a).median == pytest.approx(
                expected, abs=1e-6
            )

    def test_zero_score_gives_zero(self):
        summary = posterior_median(0.0, 0.5, 0.5)
        assert summary.median == 0.0
        assert not summary.nonzero

    @pytest.mark.parametrize("z", [0.0, 1e-300, -1e-300])
    def test_score_at_zero_with_full_weight(self, z):
        # The detection margin at z = 0 is log 1 = 0 exactly, and so is not
        # positive; the median there must be 0.
        summary = posterior_median(z, 1.0, 1.8028153658576958)
        assert summary.median == 0.0
        assert not summary.nonzero

    def test_spike_dominates_moderate_score(self):
        summary = posterior_median(2.0, 0.1, 0.5)
        assert summary.median == 0.0
        assert not summary.nonzero

    @given(
        z=st.floats(-30.0, 30.0, allow_nan=False),
        w=st.floats(0.01, 1.0, allow_nan=False),
        a=st.floats(0.05, 4.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_odd_in_score(self, z, w, a):
        pos = posterior_median(z, w, a)
        neg = posterior_median(-z, w, a)
        assert pos.median == pytest.approx(-neg.median, abs=1e-9)
        assert pos.nonzero == neg.nonzero

    def test_nondecreasing_in_score(self):
        grid = np.linspace(-12.0, 12.0, 121)
        medians = [posterior_median(float(z), 0.2, 0.5).median for z in grid]
        assert all(b >= a - 1e-9 for a, b in zip(medians, medians[1:]))

    def test_threshold_property(self):
        for w, a in [(0.1, 0.5), (0.4, 2.0), (0.05, 0.1)]:
            t = detection_threshold(w, a)
            for z in np.linspace(0.05, 2.0 * t + 1.0, 100):
                summary = posterior_median(float(z), w, a)
                assert summary.nonzero == (z > t), (z, t, w, a)

    def test_medians_just_above_the_threshold_are_small_and_positive(self):
        for w, a in [(0.3, 0.5), (0.9, 2.0)]:
            z = detection_threshold(w, a) + 1e-12
            summary = posterior_median(z, w, a)
            assert summary.nonzero
            assert 0.0 < summary.median < 1e-9, (w, a, summary.median)

    def test_rejects_bad_parameters(self):
        for w in (0.0, np.nan):
            with pytest.raises(ParameterError):
                posterior_median(1.0, w, 0.5)
        for a in (0.0, np.nan, np.inf):
            with pytest.raises(ParameterError, match="spread a must be positive"):
                posterior_median(3.0, 0.3, a)
        with pytest.raises(InvalidInputError):
            posterior_median(float("nan"), 0.5, 0.5)

    def test_summary_carries_inputs(self):
        summary = posterior_median(3.0, 0.3, 0.7)
        assert isinstance(summary, PosteriorSummary)
        assert (summary.z, summary.w, summary.a) == (3.0, 0.3, 0.7)


# ------------------------------------------------------------ row decisions


class TestThresholdRow:
    """A row keeps exactly its scores with |z| > detection_threshold(w, a)."""

    def test_all_zero_row(self):
        out = np.abs(np.zeros(20)) > detection_threshold(0.3, 0.5)
        assert out.dtype == bool
        assert not out.any()

    def test_single_strong_entry(self):
        row = np.zeros(30)
        row[7] = 20.0
        row[3] = 1.0
        out = np.abs(row) > detection_threshold(0.1, 0.5)
        assert out[7]
        assert out.sum() == 1

    def test_monotone_in_magnitude(self):
        rng = np.random.default_rng(12)
        row = rng.uniform(-6.0, 6.0, 200)
        out = np.abs(row) > detection_threshold(0.2, 0.5)
        order = np.argsort(np.abs(row))
        sorted_out = out[order].astype(int)
        assert np.all(np.diff(sorted_out) >= 0)

    def test_matches_posterior_median_decisions(self):
        rng = np.random.default_rng(13)
        row = rng.uniform(-5.0, 5.0, 50)
        out = np.abs(row) > detection_threshold(0.3, 0.8)
        for z, kept in zip(row, out):
            assert kept == posterior_median(float(z), 0.3, 0.8).nonzero


# ------------------------------------------------------------------ fitting


class TestFitting:
    def test_all_zero_row_returns_weight_floor(self):
        row = np.zeros(100)
        w, a, _ = fit_row(row)
        assert w == pytest.approx(weight_lower_bound(100, A_DEFAULT), abs=0.0)
        assert a == A_DEFAULT

    def test_weight_recovery_from_model_draws(self):
        estimates = []
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            row = sample_mixture_row(2000, 0.1, 0.5, rng)
            w, _, _ = fit_row(row)
            estimates.append(w)
        assert 0.05 <= float(np.median(estimates)) <= 0.15

    def test_appending_evidence_never_lowers_weight(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            row = rng.standard_normal(150)
            w_before, _, _ = fit_row(row)
            stronger = np.concatenate([row, [8.0, -10.0, 15.0]])
            w_after, _, _ = fit_row(stronger)
            assert w_after >= w_before - 1e-9

    def test_scaled_row_gets_larger_weight(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            row = rng.standard_normal(120) * 1.5
            w_base, _, _ = fit_row(row)
            w_scaled, _, _ = fit_row(3.0 * row)
            assert w_scaled >= w_base - 1e-9

    def test_joint_fit_no_worse_than_fixed(self):
        rng = np.random.default_rng(16)
        z = np.vstack([sample_mixture_row(400, 0.2, 1.5, rng) for _ in range(4)])
        _, _, ll_fixed = fit_rows(z, estimate_a=False)
        _, a_joint, ll_joint = fit_rows(z, estimate_a=True)
        assert np.all(ll_joint >= ll_fixed - 1e-9)
        assert np.all((a_joint >= A_MIN) & (a_joint <= A_MAX))

    def test_score_root_beats_dense_weight_grid(self):
        rng = np.random.default_rng(17)
        row = sample_mixture_row(500, 0.15, 0.5, rng)
        w_hat, _, ll_hat = fit_row(row)
        w_min = weight_lower_bound(row.size, A_DEFAULT)
        grid = np.linspace(w_min, 1.0, 2001)
        grid_best = max(marginal_loglik(row, float(w), A_DEFAULT) for w in grid)
        assert ll_hat >= grid_best - 1e-7
        assert w_min <= w_hat <= 1.0

    def test_fit_rows_matches_fit_row(self):
        rng = np.random.default_rng(18)
        z = np.vstack([np.zeros(80), mixed_rows(rng, 80), rng.standard_normal((5, 80)) * 2.0])
        for estimate_a in (False, True):
            w_all, a_all, ll_all = fit_rows(z, estimate_a=estimate_a)
            if estimate_a:  # the batch mixes rows at the floor, at w = 1 and at a bound
                assert w_all[0] == weight_lower_bound(80, a_all[0])
                assert np.any(w_all == 1.0)
                assert np.any((a_all == A_MIN) | (a_all == A_MAX))
            for i in range(z.shape[0]):
                w_one, a_one, ll_one = fit_row(z[i], estimate_a=estimate_a)
                assert w_one == w_all[i]
                assert a_one == a_all[i]
                assert ll_one == ll_all[i]

    def test_single_score_rows_pin_weight_at_one(self):
        w, _, _ = fit_rows(np.array([[3.0], [0.0]]))
        np.testing.assert_allclose(w, [1.0, 1.0])

    def test_mixture_fit_validation(self):
        with pytest.raises(InvalidInputError):
            MixtureFit(np.array([0.5, 1.5]), np.array([0.5, 0.5]), np.array([0.0, 0.0]), False)
        for w, a in [(0.0, 0.5), (0.5, -1.0), (np.nan, 0.5), (0.5, np.nan), (0.5, np.inf)]:
            with pytest.raises(InvalidInputError):
                MixtureFit(np.array([w]), np.array([a]), np.array([0.0]), False)

    def test_mixture_fit_derives_its_thresholds(self):
        w, a = np.array([1e-6, 0.3, 1.0]), np.array([0.5, 2.0, 0.5])
        fit = MixtureFit(w, a, np.zeros(3), False)
        np.testing.assert_array_equal(fit.threshold, detection_threshold(w, a))
        assert fit.threshold[2] == 0.0
        with pytest.raises(TypeError):
            MixtureFit(w, a, np.zeros(3), False, threshold=np.ones(3))


# ------------------------------------------------------- weight score root


def inv_beta(z, a):
    """1 / beta, beta = g / phi - 1, for score rows z at per-row spreads a."""
    log_phi = -0.5 * z**2 - math.log(SQRT_2PI)
    log_ratio = log_laplace_normal_density(z, a[:, None]) - log_phi
    with np.errstate(over="ignore", divide="ignore"):
        return 1.0 / np.expm1(log_ratio)


def bisect_score_root(c, lo):
    """The weight by plain bisection on the same score sum(1 / (w + c))."""
    return bisect(lambda w: -np.sum(1.0 / (c + w[:, None]), axis=1), lo, np.ones(c.shape[0]))


def score_root_capped(monkeypatch, c, lo, cap):
    """_score_root with at most cap Newton steps; None when a row needs more."""
    with monkeypatch.context() as patch:
        patch.setattr(ebayes, "_HALVINGS", cap)
        try:
            return ebayes._score_root(c, lo)
        except ConvergenceError:
            return None


def mixed_rows(rng, n):
    rows = [sample_mixture_row(n, w, a, rng) for w in (0.02, 0.1, 0.3, 0.7)
            for a in (0.3, 0.5, 2.0)]
    rows += [rng.standard_normal(n) * scale for scale in (1.0, 1.0, 1.3, 1.6, 2.5)]
    return np.vstack(rows)


class TestScoreRoot:
    @pytest.mark.parametrize("n", [31, 300, 1001])
    def test_agrees_with_bisection(self, n):
        rng = np.random.default_rng(40 + n)
        z = mixed_rows(rng, n)
        a = np.full(z.shape[0], A_DEFAULT)
        c = inv_beta(z, a)
        lo = weight_lower_bound(n, a)
        w_newton = ebayes._score_root(c, lo)
        w_bisect = bisect_score_root(c, lo)
        assert np.sum((w_bisect > lo) & (w_bisect < 1.0)) >= 5
        np.testing.assert_array_less(
            np.abs(w_newton - w_bisect), 4.0 * np.finfo(float).eps * w_bisect
        )

    def test_all_zero_row_hits_the_floor_exactly(self):
        a = np.array([A_DEFAULT, 1.7])
        lo = weight_lower_bound(200, a)
        w = ebayes._score_root(inv_beta(np.zeros((2, 200)), a), lo)
        assert w[0] == lo[0] and w[1] == lo[1]

    def test_root_beyond_one_returns_exactly_one(self):
        z = np.vstack([np.full(50, 9.0), np.linspace(-12.0, 12.0, 50)])
        a = np.full(2, A_DEFAULT)
        c = inv_beta(z, a)
        assert np.all(np.sum(1.0 / (1.0 + c), axis=1) >= 0.0)
        w = ebayes._score_root(c, weight_lower_bound(50, a))
        assert w[0] == 1.0 and w[1] == 1.0

    def test_row_result_does_not_depend_on_its_batch(self, monkeypatch):
        rng = np.random.default_rng(41)
        z = np.vstack([np.zeros(257), mixed_rows(rng, 257)])
        a = np.linspace(0.2, 3.0, z.shape[0])
        c = inv_beta(z, a)
        lo = weight_lower_bound(257, a)
        batch = ebayes._score_root(c, lo)
        steps = []
        for i in range(z.shape[0]):
            alone = ebayes._score_root(c[i:i + 1], lo[i:i + 1])
            assert alone[0] == batch[i]
            for cap in range(ebayes._HALVINGS + 1):
                capped = score_root_capped(monkeypatch, c[i:i + 1], lo[i:i + 1], cap)
                if capped is not None:
                    assert capped[0] == alone[0]
                    steps.append(cap)
                    break
        # the batch mixes rows settled at once with rows that need more steps
        assert min(steps) == 0 and max(steps) >= 5

    def test_settled_rows_are_dropped_from_the_steps(self, monkeypatch):
        rng = np.random.default_rng(47)
        z = np.vstack([np.zeros((3, 257)), np.full((2, 257), 9.0), mixed_rows(rng, 257)])
        rows = z.shape[0]
        a = np.full(rows, A_DEFAULT)
        c = inv_beta(z, a)
        lo = weight_lower_bound(257, a)
        sizes = []  # rows in each Newton step's S' sum
        einsum = np.einsum

        def counting_einsum(subscripts, *operands):
            sizes.append(operands[0].shape[0])
            return einsum(subscripts, *operands)

        with monkeypatch.context() as patch:
            patch.setattr(np, "einsum", counting_einsum)
            batch = ebayes._score_root(c, lo)
        assert np.all(batch[:3] == lo[:3]) and np.all(batch[3:5] == 1.0)
        # The steps run on the rows whose root is interior, gathered once.
        interior = np.count_nonzero((batch > lo) & (batch < 1.0))
        assert interior < rows - 5 and sizes == [interior] * len(sizes)
        for i in range(rows):
            assert ebayes._score_root(c[i:i + 1], lo[i:i + 1])[0] == batch[i]
        with monkeypatch.context() as patch:
            patch.setattr(ebayes, "_HALVINGS", 2)
            with pytest.raises(ConvergenceError, match=rf"in \d+ of {rows} rows"):
                ebayes._score_root(c, lo)

    def test_every_row_of_a_simulated_matrix_settles_within_twelve_steps(
        self, monkeypatch
    ):
        config = SimConfig(m=300, k=3, community_size=60, theta_in=50.0,
                           theta_out=1.0, r_gen=0.8, nu=200, seed=5)
        truth = generate_ground_truth(config)
        corr = generate_correlations(truth.adjacency, config.r_gen, config.nu, 5)
        z = fisher_z(corr, config.nu).z
        rows = z[~np.eye(300, dtype=bool)].reshape(300, 299)
        for a_value in (0.1, A_DEFAULT, 1.0):
            a = np.full(300, a_value)
            c = inv_beta(rows, a)
            lo = weight_lower_bound(299, a)
            w = ebayes._score_root(c, lo)
            assert np.sum((w > lo) & (w < 1.0)) >= 100
            np.testing.assert_array_equal(score_root_capped(monkeypatch, c, lo, 12), w)

    def test_a_row_still_moving_at_the_cap_raises(self, monkeypatch):
        rng = np.random.default_rng(42)
        z = mixed_rows(rng, 300)
        a = np.full(z.shape[0], A_DEFAULT)
        c = inv_beta(z, a)
        lo = weight_lower_bound(300, a)
        assert score_root_capped(monkeypatch, c, lo, 2) is None
        with monkeypatch.context() as patch:
            patch.setattr(ebayes, "_HALVINGS", 2)
            with pytest.raises(ConvergenceError):
                infer_adjacency(_random_assoc(rng, 30, scale=2.5))


# ---------------------------------------------------------- spread search


def profile_passes(monkeypatch, z):
    """fit_rows(z, estimate_a=True) and the number of profile passes it made."""
    passes = []
    unpatched = ebayes._profile_with_slope

    def counting(z_abs, log_phi_sum, a):
        passes.append(a.size)
        return unpatched(z_abs, log_phi_sum, a)

    with monkeypatch.context() as patch:
        patch.setattr(ebayes, "_profile_with_slope", counting)
        fit = fit_rows(z, estimate_a=True)
    return fit, len(passes)


def simulated_rows(m, k, community_size, r_gen, seed):
    config = SimConfig(m=m, k=k, community_size=community_size, theta_in=50.0,
                       theta_out=1.0, r_gen=r_gen, nu=200, seed=seed)
    truth = generate_ground_truth(config)
    corr = generate_correlations(truth.adjacency, config.r_gen, config.nu, seed)
    z = fisher_z(corr, config.nu).z
    return z[~np.eye(m, dtype=bool)].reshape(m, m - 1)


class TestSpreadSearch:
    @pytest.mark.parametrize("case", ["floor", "one", "interior"])
    def test_profile_slope_matches_finite_difference(self, case):
        rng = np.random.default_rng(43)
        row = {
            "floor": np.zeros(100),
            "one": rng.standard_normal(100) * 1.6,
            "interior": sample_mixture_row(100, 0.2, 0.5, rng),
        }[case]
        a_value = {"floor": 0.7, "one": 2.6, "interior": 2.6}[case]
        h = 1e-5
        a = np.array([a_value - h, a_value, a_value + h])
        z_abs = np.tile(np.abs(row), (3, 1))
        log_phi_sum = (-0.5 * z_abs**2 - math.log(SQRT_2PI)).sum(axis=1)
        w, ll, slope = ebayes._profile_with_slope(z_abs, log_phi_sum, a)
        lo = weight_lower_bound(100, a)
        at = {"floor": w == lo, "one": w == 1.0, "interior": (w > lo) & (w < 1.0)}[case]
        assert np.all(at)
        central = (ll[2] - ll[0]) / (2.0 * h)
        assert slope[1] == pytest.approx(central, rel=1e-6, abs=1e-6)

    def test_weight_floor_slope_matches_finite_difference(self):
        a = np.linspace(A_MIN, A_MAX, 30)
        h = 1e-6
        for n in (2, 99, 1000):
            central = (weight_lower_bound(n, a + h) - weight_lower_bound(n, a - h)) / (2 * h)
            np.testing.assert_allclose(
                ebayes._weight_floor_slope(n, a), central, rtol=1e-6, atol=1e-12
            )

    def test_fitted_spread_beats_dense_spread_grid(self):
        rng = np.random.default_rng(44)
        rows = np.vstack([
            np.zeros(300),
            sample_mixture_row(300, 0.15, 0.5, rng),
            sample_mixture_row(300, 0.3, 2.0, rng),
            sample_mixture_row(300, 0.05, 0.1, rng),
            rng.standard_normal(300) * 1.5,
        ])
        w_hat, a_hat, ll_hat = fit_rows(rows, estimate_a=True)
        grid = np.linspace(A_MIN, A_MAX, 2001)
        for i, row in enumerate(rows):
            z_abs = np.tile(np.abs(row), (grid.size, 1))
            beta = ebayes._slab_ratio(z_abs, grid[:, None])[0] - 1.0
            w, w_beta = ebayes._weights(beta, weight_lower_bound(row.size, grid))
            log_phi_sum = (-0.5 * z_abs**2 - math.log(SQRT_2PI)).sum(axis=1)
            ll = ebayes._loglik(w_beta, z_abs, w, grid, log_phi_sum)
            assert ll_hat[i] >= ll.max() - 1e-7
            assert ll_hat[i] == pytest.approx(marginal_loglik(row, w_hat[i], a_hat[i]), abs=1e-9)
            assert A_MIN <= a_hat[i] <= A_MAX

    @pytest.mark.parametrize("rows", ["strong", "weak", "inflated null"])
    def test_at_most_eighteen_profile_passes_per_fit(self, monkeypatch, rows):
        z = {
            "strong": lambda: simulated_rows(300, 3, 60, 0.8, 5),
            # a matrix whose w = 1 rows need the same-side secant pairing
            "weak": lambda: simulated_rows(200, 4, 50, 0.1, 7),
            "inflated null": lambda: np.random.default_rng(45).standard_normal((100, 299)) * 1.5,
        }[rows]()
        (w, a, _), passes = profile_passes(monkeypatch, z)
        assert passes <= 18
        if rows == "strong":  # rows at the floor and at the bound A_MAX
            assert np.any(w == weight_lower_bound(299, a)) and np.any(a == A_MAX)
        else:  # most rows fit w = 1
            assert np.mean(w == 1.0) > 0.5

    def test_result_is_never_worse_than_the_scan(self, monkeypatch):
        # A profile with many local maxima: the search settles on one in its
        # bracket, which can lie below the best scan point.
        phase = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)

        def profile(a, p):
            return -((a - 2.0) ** 2) + 0.3 * np.sin(40.0 * a + p)

        def wiggly_profile(z_abs, log_phi_sum, a):
            p = z_abs[:, 0]
            slope = -2.0 * (a - 2.0) + 12.0 * np.cos(40.0 * a + p)
            return np.full(a.shape, 0.5), profile(a, p), slope

        monkeypatch.setattr(ebayes, "_profile_with_slope", wiggly_profile)
        _, a, ll = fit_rows(np.tile(phase[:, None], (1, 3)), estimate_a=True)
        grid = A_MIN + np.array([0.0, 0.25, 0.5, 0.75, 1.0]) * (A_MAX - A_MIN)
        np.testing.assert_array_equal(ll, profile(a, phase))
        assert np.all(ll >= profile(grid, phase[:, None]).max(axis=1))
        assert np.any(np.isin(a, grid)) and not np.all(np.isin(a, grid))

    def test_a_row_still_moving_at_the_cap_raises(self, monkeypatch):
        rng = np.random.default_rng(46)
        z = mixed_rows(rng, 300)
        fit, passes = profile_passes(monkeypatch, z)
        with monkeypatch.context() as patch:
            # passes counts the five scan passes; the cap counts the rest
            patch.setattr(ebayes, "_A_STEPS", passes - 5)
            for got, expected in zip(fit_rows(z, estimate_a=True), fit):
                np.testing.assert_array_equal(got, expected)
            patch.setattr(ebayes, "_A_STEPS", passes - 6)
            with pytest.raises(ConvergenceError, match="spread search"):
                fit_rows(z, estimate_a=True)
            patch.setattr(ebayes, "_A_STEPS", 2)
            with pytest.raises(ConvergenceError, match="spread search"):
                infer_adjacency(_random_assoc(rng, 30, scale=2.5), estimate_a=True)

    def test_fit_ignores_the_order_of_a_rows_scores(self):
        rng = np.random.default_rng(47)
        n = 200
        rows = mixed_rows(rng, n)
        ties = np.round(sample_mixture_row(n, 0.2, 0.5, rng), 1)  # rounding makes ties
        zeros = sample_mixture_row(n, 0.1, 0.5, rng)
        zeros[::3] = 0.0
        rows = np.vstack([rows, ties, -ties, zeros, np.zeros(n)])
        shuffled = rng.permuted(rows, axis=1)
        assert not np.array_equal(shuffled, rows)
        for estimate_a in (False, True):
            fit = fit_rows(rows, estimate_a=estimate_a)
            for got, expected in zip(fit_rows(shuffled, estimate_a=estimate_a), fit):
                np.testing.assert_array_equal(got, expected)
            w, floor = fit[0], weight_lower_bound(n, fit[1])
            assert np.any(w == 1.0) and np.any(w == floor)
            assert np.any((w > floor) & (w < 1.0))

    # Passes per block of infer_adjacency(estimate_a=True, threads=2) on the
    # benchmark's strong (m = 600, six blocks) and weak (m = 200, two blocks)
    # inputs, at simulation seeds 1, 2 and 3. Over seeds 1-40 the strong
    # blocks took 8 or 9 passes and the weak ones 12 to 16.
    PINNED_PASSES = {
        "strong": [(8, 9, 8, 8, 9, 8), (8, 8, 9, 8, 8, 9), (9, 8, 9, 8, 8, 8)],
        "weak": [(14, 15), (13, 14), (13, 13)],
    }

    @pytest.mark.parametrize("config", ["strong", "weak"])
    def test_passes_per_benchmark_block_are_pinned(self, monkeypatch, config):
        m, community_size, r_gen, blocks, passes_range = {
            "strong": (600, 150, 0.8, 6, range(8, 10)),
            "weak": (200, 50, 0.1, 2, range(12, 17)),
        }[config]
        for seed, pinned in zip((1, 2, 3), self.PINNED_PASSES[config]):
            z = simulated_rows(m, 4, community_size, r_gen, seed)
            passes = tuple(profile_passes(monkeypatch, block)[1]
                           for block in np.array_split(z, blocks))
            assert passes == pinned, seed
            assert all(p in passes_range for p in passes)


# --------------------------------------------------------- full inference


def _random_assoc(rng, m, scale=2.0):
    z = rng.standard_normal((m, m)) * scale
    z = (z + z.T) / 2.0
    np.fill_diagonal(z, 0.0)
    return AssocMatrix(z)


def _sparse_signal_assoc(rng, m):
    """Sparse strong signal over N(0, 1) noise, so the edge list stays small."""
    z = rng.standard_normal((m, m))
    z = (z + z.T) / np.sqrt(2.0)
    signal = np.triu(rng.random((m, m)) < 0.01, k=1)
    z[signal | signal.T] += 5.0
    np.fill_diagonal(z, 0.0)
    return AssocMatrix(z)


class TestInferAdjacency:
    def test_symmetric_zero_diagonal_fuzz(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            assoc = _random_assoc(rng, 25)
            adj, fit = infer_adjacency(assoc)
            dense = to_dense(adj)
            assert np.array_equal(dense, dense.T)
            assert not np.diag(dense).any()
            assert fit.w.shape == (25,)

    def test_and_rule_is_subset_of_each_row(self):
        rng = np.random.default_rng(20)
        assoc = _random_assoc(rng, 40, scale=3.0)
        adj, fit = infer_adjacency(assoc)
        dense = to_dense(adj).astype(bool)
        for i in range(40):
            row_keep = np.abs(assoc.z[i]) > detection_threshold(fit.w[i], fit.a[i])
            assert not np.any(dense[i] & ~row_keep)

    def test_all_zero_scores_give_empty_graph(self):
        assoc = AssocMatrix(np.zeros((12, 12)))
        adj, _ = infer_adjacency(assoc)
        assert adj.edge_count == 0

    def test_disagreement_drops_edge(self):
        # Node 0 sits in a dense strong block, so its fitted weight is
        # large and it accepts the moderate 2.5 score to node 29. Node 29
        # has no other signal, keeps the floor weight, and rejects the
        # same score — so the conservative rule must drop that edge.
        m = 30
        z = np.zeros((m, m))
        block = np.arange(15)
        z[np.ix_(block, block)] = 8.0
        np.fill_diagonal(z, 0.0)
        z[0, 29] = z[29, 0] = 2.5
        assoc = AssocMatrix(z)
        adj, fit = infer_adjacency(assoc)
        assert abs(z[0, 29]) > detection_threshold(fit.w[0], fit.a[0])
        assert abs(z[29, 0]) <= detection_threshold(fit.w[29], fit.a[29])
        dense = to_dense(adj)
        assert dense[0, 29] == 0
        assert adj.edge_count == 15 * 14 // 2

    def test_two_node_graph_supported(self):
        z = np.array([[0.0, 4.0], [4.0, 0.0]])
        adj, fit = infer_adjacency(AssocMatrix(z))
        assert adj.m == 2
        assert np.allclose(fit.w, 1.0)
        assert np.all(fit.threshold[fit.w == 1.0] == 0.0)
        # Rows of uniformly large scores pin w at 1 at any size; they keep
        # every nonzero score, with a threshold of exactly zero.
        z = np.full((30, 30), 9.0)
        np.fill_diagonal(z, 0.0)
        adj, fit = infer_adjacency(AssocMatrix(z))
        assert np.all(fit.w == 1.0)
        assert np.all(fit.threshold == 0.0)
        assert adj.edge_count == 30 * 29 // 2

    def test_single_node_rejected(self):
        with pytest.raises(InvalidInputError):
            infer_adjacency(AssocMatrix(np.zeros((1, 1))))
        with pytest.raises(InvalidInputError):
            infer_adjacency(np.zeros((5, 5)))

    def test_thread_count_does_not_change_result(self, monkeypatch):
        rng = np.random.default_rng(21)
        assoc = _random_assoc(rng, 30, scale=2.5)
        for estimate_a in (False, True):
            adj_one, fit_one = infer_adjacency(assoc, estimate_a, threads=1)
            runs = [infer_adjacency(assoc, estimate_a, threads=3)]
            block_sizes = []
            fit_rows_unpatched = ebayes.fit_rows

            def counting_fit_rows(z, *args, **kwargs):
                block_sizes.append(len(z))
                return fit_rows_unpatched(z, *args, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(ebayes, "_BLOCK_ENTRIES", assoc.m)
                patch.setattr(ebayes, "fit_rows", counting_fit_rows)
                runs += [infer_adjacency(assoc, estimate_a, threads=n) for n in (1, 3)]
            assert block_sizes == [1] * (2 * assoc.m)  # every row its own block
            for adj, fit in runs:
                assert adj == adj_one
                for field in ("w", "a", "loglik", "threshold"):
                    np.testing.assert_array_equal(
                        getattr(fit, field), getattr(fit_one, field)
                    )

    def test_working_memory_stays_below_the_input(self):
        # No m x m intermediate fits under the input's own size.
        assoc = _sparse_signal_assoc(np.random.default_rng(24), 2000)
        for threads in (1, 2):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                adj, _ = infer_adjacency(assoc, threads=threads)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert adj.edge_count > 0
            assert peak < assoc.z.nbytes, threads

    @pytest.mark.parametrize("estimate_a", [False, True])
    def test_working_memory_follows_the_block_size(self, estimate_a):
        # A thread fitting a block holds at most about 8.4 arrays of
        # _BLOCK_ENTRIES scores at once (measured on seeds 29-31, in the
        # spread search; 5.7 at the fixed spread).
        assoc = _sparse_signal_assoc(np.random.default_rng(29), 600)
        infer_adjacency(assoc, estimate_a)  # SciPy loads its special functions
        for threads in (1, 2):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                adj, _ = infer_adjacency(assoc, estimate_a, threads=threads)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert adj.edge_count > 0
            assert peak < 9 * threads * ebayes._BLOCK_ENTRIES * 8, threads

    @pytest.mark.parametrize("m", [2, 3, 7, 61])
    def test_block_size_does_not_change_the_fit(self, monkeypatch, m):
        rng = np.random.default_rng(26)
        assoc = _random_assoc(rng, m, scale=2.5)
        adj_one, fit_one = infer_adjacency(assoc, threads=1)
        for i in range(m):
            # The one-row fit behind fit_row, which needs two scores (m = 2 has one).
            w, a, ll = fit_rows(np.delete(assoc.z[i], i)[None, :])
            assert (fit_one.w[i], fit_one.a[i], fit_one.loglik[i]) == (w[0], a[0], ll[0])
        slab_ratio = ebayes._slab_ratio
        evaluated = []

        def counting_slab_ratio(z_abs, a):
            if np.ndim(z_abs) == 2:  # the fit's calls; thresholds and floors pass 0-D or 1-D
                evaluated.append(np.size(z_abs))
            return slab_ratio(z_abs, a)

        # Uneven blocks of about three rows, then one-row blocks.
        for entries in (3 * m + 1, m):
            with monkeypatch.context() as patch:
                patch.setattr(ebayes, "_BLOCK_ENTRIES", entries)
                patch.setattr(ebayes, "_slab_ratio", counting_slab_ratio)
                for threads in (1, 2, 3):
                    evaluated.clear()
                    adj, fit = infer_adjacency(assoc, threads=threads)
                    assert adj == adj_one
                    for field in ("w", "a", "loglik", "threshold"):
                        np.testing.assert_array_equal(
                            getattr(fit, field), getattr(fit_one, field)
                        )
            if entries == m:  # each one-row block evaluates its own m - 1 scores
                assert sum(evaluated) == m * (m - 1)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("failing", ["first-density", "last-density", "weight-solve"])
    def test_a_failing_block_cannot_hang_the_fit(self, monkeypatch, threads, failing):
        m = 40
        assoc = _random_assoc(np.random.default_rng(27), m, scale=2.5)
        monkeypatch.setattr(ebayes, "_BLOCK_ENTRIES", 8 * m)  # five blocks of eight rows
        if failing == "weight-solve":
            calls = itertools.count()
            score_root = ebayes._score_root

            def failing_score_root(*args):
                if next(calls) == 2:
                    raise ConvergenceError("injected")
                return score_root(*args)

            monkeypatch.setattr(ebayes, "_score_root", failing_score_root)
            expected = ConvergenceError
        else:
            slab_ratio = ebayes._slab_ratio
            # A block's sorted |z| rows: the first block holds row 0's, the
            # last block row m - 1's.
            row, end = {"first-density": (0, 0), "last-density": (m - 1, -1)}[failing]
            target = np.sort(np.abs(np.delete(assoc.z[row], row)))

            def failing_slab_ratio(z_abs, a):
                if np.ndim(z_abs) == 2 and np.array_equal(z_abs[end], target):
                    raise RuntimeError("injected")
                return slab_ratio(z_abs, a)

            monkeypatch.setattr(ebayes, "_slab_ratio", failing_slab_ratio)
            expected = RuntimeError
        outcome = []

        def run():
            try:
                infer_adjacency(assoc, threads=threads)
            except Exception as exc:
                outcome.append(exc)
            else:
                outcome.append(None)

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(60)
        assert not worker.is_alive()
        assert isinstance(outcome[0], expected)

    def test_thread_count_below_one_rejected(self):
        assoc = _random_assoc(np.random.default_rng(25), 5)
        with pytest.raises(ParameterError):
            infer_adjacency(assoc, threads=0)

    def test_estimated_a_flag_recorded(self):
        rng = np.random.default_rng(22)
        assoc = _random_assoc(rng, 10)
        _, fit_fixed = infer_adjacency(assoc, estimate_a=False)
        _, fit_joint = infer_adjacency(assoc, estimate_a=True)
        assert not fit_fixed.estimated_a
        assert fit_joint.estimated_a
        assert np.all(fit_fixed.a == A_DEFAULT)
