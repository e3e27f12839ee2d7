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

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson, quad
from scipy.optimize import brentq

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
    laplace_normal_density,
    log_laplace_normal_density,
    marginal_loglik,
    posterior_median,
    threshold_row,
    universal_threshold,
    weight_lower_bound,
)
from assocnet.errors import InvalidInputError, ParameterError
from assocnet.simgen import SimConfig, generate_correlations, generate_ground_truth

SQRT_2PI = math.sqrt(2.0 * math.pi)


def norm_pdf(u):
    return np.exp(-0.5 * np.asarray(u) ** 2) / SQRT_2PI


# ----------------------------------------------------------------- oracles


def quad_log_slab_density(z, a):
    """log of the slab density by quadrature of the defining convolution.

    Integrates (a/2)·exp(-a|mu|)·phi(z - mu) dmu with the substitution
    mu = z + u and the dominant exp(-a|z|) factor pulled out, so the
    integrand stays O(1) even at |z| = 40.
    """
    z = abs(float(z))

    def integrand(u):
        return math.exp(a * z - a * abs(z + u)) * float(norm_pdf(u))

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
            (1.0 - w) * float(norm_pdf(z)) + w * laplace_normal_density(z, a)
        )
    return total


def sample_mixture_row(n, w, a, rng):
    """Draw one row from the spike-plus-slab marginal itself."""
    signal = rng.random(n) < w
    mu = np.where(signal, rng.laplace(0.0, 1.0 / a, n), 0.0)
    return mu + rng.standard_normal(n)


# ------------------------------------------------------------ slab density


class TestSlabDensity:
    def test_matches_quadrature_at_zero(self):
        # frozen from quad_log_slab_density(0.0, 0.5)
        assert laplace_normal_density(0.0, 0.5) == pytest.approx(
            0.17480941736019903, rel=1e-10
        )

    def test_far_tail_log_space(self):
        # frozen from quad_log_slab_density(40.0, 0.5)
        assert float(log_laplace_normal_density(40.0, 0.5)) == pytest.approx(
            -21.26129436111989, abs=1e-8
        )

    @pytest.mark.parametrize("a", [0.1, 0.5, 2.0])
    def test_quadrature_grid(self, a):
        for z in np.arange(-40.0, 40.5, 5.0):
            expected = quad_log_slab_density(z, a)
            obtained = float(log_laplace_normal_density(z, a))
            assert obtained == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("a", [0.1, 0.5, 2.0])
    def test_integrates_to_one(self, a):
        # the Laplace component has scale 1/a, so the integration range
        # must reach far enough for its tail mass to drop below 1e-8
        span = max(60.0, 30.0 / a)
        total, _ = quad(
            lambda z: laplace_normal_density(z, a),
            -span,
            span,
            epsabs=1e-12,
            epsrel=1e-12,
            limit=400,
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_exp_consistency_vectorized(self):
        z = np.linspace(-30.0, 30.0, 101)
        dense = laplace_normal_density(z, 0.5)
        logs = log_laplace_normal_density(z, 0.5)
        np.testing.assert_allclose(dense, np.exp(logs), rtol=1e-14)

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

    def test_rejects_bad_spread(self):
        with pytest.raises(ParameterError):
            laplace_normal_density(1.0, 0.0)
        with pytest.raises(ParameterError):
            log_laplace_normal_density(1.0, -1.0)


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


# ------------------------------------------------- thresholds and bounds


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

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            posterior_median(1.0, 0.0, 0.5)
        with pytest.raises(ParameterError):
            posterior_median(1.0, 0.5, 0.0)
        with pytest.raises(InvalidInputError):
            posterior_median(float("nan"), 0.5, 0.5)

    def test_summary_carries_inputs(self):
        summary = posterior_median(3.0, 0.3, 0.7)
        assert isinstance(summary, PosteriorSummary)
        assert (summary.z, summary.w, summary.a) == (3.0, 0.3, 0.7)


# ------------------------------------------------------------ row decisions


class TestThresholdRow:
    def test_all_zero_row(self):
        out = threshold_row(np.zeros(20), 0.3, 0.5)
        assert out.dtype == bool
        assert not out.any()

    def test_single_strong_entry(self):
        row = np.zeros(30)
        row[7] = 20.0
        row[3] = 1.0
        out = threshold_row(row, 0.1, 0.5)
        assert out[7]
        assert out.sum() == 1

    def test_monotone_in_magnitude(self):
        rng = np.random.default_rng(12)
        row = rng.uniform(-6.0, 6.0, 200)
        out = threshold_row(row, 0.2, 0.5)
        order = np.argsort(np.abs(row))
        sorted_out = out[order].astype(int)
        assert np.all(np.diff(sorted_out) >= 0)

    def test_self_index_forced_off(self):
        row = np.full(10, 15.0)
        out = threshold_row(row, 0.5, 0.5, self_index=4)
        assert not out[4]
        assert out.sum() == 9

    def test_matches_posterior_median_decisions(self):
        rng = np.random.default_rng(13)
        row = rng.uniform(-5.0, 5.0, 50)
        out = threshold_row(row, 0.3, 0.8)
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
        z = rng.standard_normal((5, 80)) * 2.0
        w_all, a_all, ll_all = fit_rows(z)
        for i in range(5):
            w_one, a_one, ll_one = fit_row(z[i])
            assert w_one == w_all[i]
            assert a_one == a_all[i]
            assert ll_one == ll_all[i]

    def test_single_score_rows_pin_weight_at_one(self):
        w, _, _ = fit_rows(np.array([[3.0], [0.0]]))
        np.testing.assert_allclose(w, [1.0, 1.0])

    def test_mixture_fit_validation(self):
        with pytest.raises(InvalidInputError):
            MixtureFit(np.array([0.5, 1.5]), np.array([0.5, 0.5]),
                       np.array([0.0, 0.0]), False, np.array([1.0, 1.0]))
        with pytest.raises(InvalidInputError):
            MixtureFit(np.array([0.5]), np.array([-1.0]), np.array([0.0]), False,
                       np.array([1.0]))

    def test_mixture_fit_rejects_bad_thresholds(self):
        ones = np.ones(2)
        for bad in (np.array([1.0, -0.5]), np.array([1.0]), np.ones((2, 1))):
            with pytest.raises(InvalidInputError):
                MixtureFit(0.5 * ones, ones, ones, False, bad)


# ------------------------------------------------------- weight score root


def inv_beta(z, a):
    """1 / beta, beta = g / phi - 1, for score rows z at per-row spreads a."""
    log_phi = -0.5 * z**2 - math.log(SQRT_2PI)
    log_ratio = log_laplace_normal_density(z, a[:, None]) - log_phi
    with np.errstate(over="ignore", divide="ignore"):
        return 1.0 / np.expm1(log_ratio)


def bisect_score_root(c, lo):
    """The weight by plain bisection on the same score sum(1 / (w + c))."""
    return ebayes._bisect(
        lambda w: -np.sum(1.0 / (c + w[:, None]), axis=1), lo, np.ones(c.shape[0])
    )


def score_root_capped(monkeypatch, c, lo, cap):
    with monkeypatch.context() as patch:
        patch.setattr(ebayes, "_HALVINGS", cap)
        return ebayes._score_root(c, lo)


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
            steps.append(next(
                cap for cap in range(ebayes._HALVINGS + 1)
                if score_root_capped(monkeypatch, c[i:i + 1], lo[i:i + 1], cap)[0]
                == alone[0]
            ))
        # the batch mixes rows settled at once with rows that need more steps
        assert min(steps) == 0 and max(steps) >= 5

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


# --------------------------------------------------------- full inference


def _random_assoc(rng, m, scale=2.0):
    z = rng.standard_normal((m, m)) * scale
    z = (z + z.T) / 2.0
    np.fill_diagonal(z, 0.0)
    return AssocMatrix(z, "inverse-normal", None)


class TestInferAdjacency:
    def test_symmetric_zero_diagonal_fuzz(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            assoc = _random_assoc(rng, 25)
            adj, fit = infer_adjacency(assoc)
            dense = adj.to_dense()
            assert np.array_equal(dense, dense.T)
            assert not np.diag(dense).any()
            assert fit.w.shape == (25,)

    def test_and_rule_is_subset_of_each_row(self):
        rng = np.random.default_rng(20)
        assoc = _random_assoc(rng, 40, scale=3.0)
        adj, fit = infer_adjacency(assoc)
        dense = adj.to_dense().astype(bool)
        for i in range(40):
            row_keep = threshold_row(assoc.z[i], fit.w[i], fit.a[i], self_index=i)
            assert not np.any(dense[i] & ~row_keep)

    def test_all_zero_scores_give_empty_graph(self):
        assoc = AssocMatrix(np.zeros((12, 12)), "inverse-normal", None)
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
        assoc = AssocMatrix(z, "inverse-normal", None)
        adj, fit = infer_adjacency(assoc)
        keep_hub = threshold_row(z[0], fit.w[0], fit.a[0], self_index=0)
        keep_leaf = threshold_row(z[29], fit.w[29], fit.a[29], self_index=29)
        assert keep_hub[29] and not keep_leaf[0]
        dense = adj.to_dense()
        assert dense[0, 29] == 0
        assert adj.edge_count == 15 * 14 // 2

    def test_two_node_graph_supported(self):
        z = np.array([[0.0, 4.0], [4.0, 0.0]])
        adj, fit = infer_adjacency(AssocMatrix(z, "inverse-normal", None))
        assert adj.m == 2
        assert np.allclose(fit.w, 1.0)

    def test_single_node_rejected(self):
        with pytest.raises(InvalidInputError):
            infer_adjacency(AssocMatrix(np.zeros((1, 1)), "inverse-normal", None))
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

            def counting_fit_rows(z, *args):
                block_sizes.append(len(z))
                return fit_rows_unpatched(z, *args)

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
        # Sparse strong signal over N(0, 1) noise, so the edge list stays
        # small; no m x m intermediate fits under the input's own size.
        m = 2000
        rng = np.random.default_rng(24)
        z = rng.standard_normal((m, m))
        z = (z + z.T) / np.sqrt(2.0)
        signal = np.triu(rng.random((m, m)) < 0.01, k=1)
        z[signal | signal.T] += 5.0
        np.fill_diagonal(z, 0.0)
        assoc = AssocMatrix(z, "inverse-normal", None)
        del z, signal
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            adj, _ = infer_adjacency(assoc)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert adj.edge_count > 0
        assert peak < assoc.z.nbytes

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
