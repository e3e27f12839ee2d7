"""Tests for the generative study harness.

Oracles used here:

* the closed-form CDF of the bounded power-law distribution, checked
  against the quantile-function sampler by Kolmogorov-Smirnov;
* ``expected_density`` — the expected pair density by a 240-node
  Gauss-Legendre rule, itself checked against an adaptive double
  integral (scipy dblquad);
* the exact null law of the sample correlation of a bivariate Wishart
  draw with identity scale: r^2 ~ Beta(1/2, (nu - 1)/2);
* correlations built directly from the definition of a Wishart matrix
  (sums of outer products of correlated normal pairs), compared to the
  module's Bartlett-decomposition sampler by two-sample KS;
* the binomial law of edge counts when every pair shares one inclusion
  probability;
* numpy's own default_rng(SeedSequence(entropy=seed, spawn_key=key)) for
  the vectorized substream seeding, and sha256 digests of generated
  networks and correlations pinned from the per-row default_rng sampler
  it replaced.
"""

from __future__ import annotations

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import expit

from conftest import from_dense, to_dense

from assocnet import simgen
from assocnet.errors import ConvergenceError, InvalidInputError, ParameterError
from assocnet.graphs import Partition, SparseAdjacency
from assocnet.metrics import edge_density
from assocnet.simgen import (
    DEFAULT_ALPHA_OFFSET,
    DEFAULT_PARETO_EXPONENT,
    DEFAULT_PARETO_HIGH,
    DEFAULT_PARETO_LOW,
    SimConfig,
    expand_grid,
    generate_correlations,
    generate_ground_truth,
    generate_network,
    log_bounded_pareto_ppf,
    plant_communities,
    run_single,
    run_study,
    sample_alpha,
    summarize_records,
)


def small_config(**overrides) -> SimConfig:
    base = dict(
        m=60,
        k=2,
        community_size=15,
        theta_in=30.0,
        theta_out=1.0,
        r_gen=0.8,
        nu=50,
        seed=0,
    )
    base.update(overrides)
    return SimConfig(**base)


def bounded_pareto_cdf(x, low: float, high: float, exponent: float):
    """Closed-form CDF of the power law truncated to [low, high]."""
    x = np.asarray(x, dtype=np.float64)
    tail = 1.0 - (low / high) ** exponent
    return np.clip((1.0 - (low / x) ** exponent) / tail, 0.0, 1.0)


def complete_graph(m: int) -> SparseAdjacency:
    dense = np.zeros((m, m), dtype=np.int8)
    dense[np.triu_indices(m, 1)] = 1
    return from_dense(dense + dense.T)


_QUAD_NODES, _QUAD_WEIGHTS = np.polynomial.legendre.leggauss(240)
_QUAD_U = 0.5 * (_QUAD_NODES + 1.0)
_QUAD_W = 0.5 * _QUAD_WEIGHTS


def expected_density(theta: float, config: SimConfig) -> float:
    """E[sigmoid(alpha_i + alpha_j + theta)] for an i.i.d. pair, by quadrature."""
    t = (
        log_bounded_pareto_ppf(
            _QUAD_U, config.pareto_low, config.pareto_high, config.pareto_exponent
        )
        + config.alpha_offset
    )
    pair = t[:, None] + t[None, :] + theta
    return float(_QUAD_W @ expit(pair) @ _QUAD_W)


def upper(matrix_values: np.ndarray) -> np.ndarray:
    m = matrix_values.shape[0]
    return matrix_values[np.triu_indices(m, 1)]


def wishart_correlation_draws(
    r: float, nu: int, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Correlations of 2x2 Wishart(S, nu) draws built from the definition:
    S is accumulated as the sum of nu outer products of N(0, S) pairs."""
    chol = np.linalg.cholesky(np.array([[1.0, r], [r, 1.0]]))
    x = rng.standard_normal((n, nu, 2)) @ chol.T
    w11 = np.einsum("ij,ij->i", x[:, :, 0], x[:, :, 0])
    w22 = np.einsum("ij,ij->i", x[:, :, 1], x[:, :, 1])
    w12 = np.einsum("ij,ij->i", x[:, :, 0], x[:, :, 1])
    return w12 / np.sqrt(w11 * w22)


class TestBoundedParetoSampler:
    def test_ppf_matches_analytic_cdf(self):
        low, high, exponent = 1.0, 10.0, 2.0
        u = np.random.default_rng(0).random(100_000)
        draws = np.exp(log_bounded_pareto_ppf(u, low, high, exponent))
        result = stats.kstest(
            draws, lambda x: bounded_pareto_cdf(x, low, high, exponent)
        )
        assert result.statistic < 0.01
        assert result.pvalue > 1e-3

    def test_degenerate_support_collapses_to_low(self):
        u = np.linspace(0.0, 1.0, 11)
        draws = np.exp(log_bounded_pareto_ppf(u, 2.0, 2.0 + 1e-12, 1.5))
        assert np.allclose(draws, 2.0, rtol=1e-9)

    def test_ppf_is_increasing_and_spans_support(self):
        low, high, exponent = 1.0, 1e6, 0.01
        u = np.linspace(0.0, 1.0, 501)
        log_draws = log_bounded_pareto_ppf(u, low, high, exponent)
        assert np.all(np.diff(log_draws) > 0)
        assert log_draws[0] == pytest.approx(np.log(low), abs=1e-12)
        assert log_draws[-1] == pytest.approx(np.log(high), rel=1e-9)

    def test_stable_for_tiny_exponent(self):
        # the defaults put almost all mass near the lower endpoint and
        # must still produce finite log values across the support
        u = np.linspace(0.0, 1.0, 10_001)
        log_draws = log_bounded_pareto_ppf(
            u, DEFAULT_PARETO_LOW, DEFAULT_PARETO_HIGH, DEFAULT_PARETO_EXPONENT
        )
        assert np.all(np.isfinite(log_draws))
        assert np.all(np.diff(log_draws) > 0)


class TestSampleAlpha:
    def test_seeded_draws_are_reproducible(self):
        config = small_config(seed=5)
        first = sample_alpha(config)
        second = sample_alpha(config)
        assert np.array_equal(first, second)
        other = sample_alpha(small_config(seed=6))
        assert not np.array_equal(first, other)

    def test_values_stay_within_shifted_support(self):
        config = small_config(m=500)
        alpha = sample_alpha(config)
        lo = np.log(config.pareto_low) + config.alpha_offset
        hi = np.log(config.pareto_high) + config.alpha_offset
        assert np.all(alpha >= lo - 1e-12)
        assert np.all(alpha <= hi + 1e-12)


class TestPlantCommunities:
    def test_groups_are_disjoint_with_exact_sizes(self):
        config = small_config(m=100, k=3, community_size=20, seed=4)
        part = plant_communities(config)
        sizes = part.sizes()
        assert sizes[0] == 100 - 60
        assert np.array_equal(sizes[1:], [20, 20, 20])

    def test_groups_cover_everything_when_sizes_add_up(self):
        config = small_config(m=3000, k=20, community_size=150)
        part = plant_communities(config)
        sizes = part.sizes()
        assert sizes[0] == 0
        assert np.all(sizes[1:] == 150)

    def test_placement_is_seeded(self):
        config = small_config(m=100, k=3, community_size=20, seed=4)
        assert plant_communities(config) == plant_communities(config)
        moved = plant_communities(dataclasses.replace(config, seed=5))
        assert not np.array_equal(plant_communities(config).labels, moved.labels)


class TestGenerateNetwork:
    def test_constant_propensity_matches_binomial_density(self):
        # with equal propensities and a single theta every pair shares
        # p = sigmoid(2 alpha + theta); the realized density must sit
        # within three binomial standard errors of it
        m = 400
        alpha = np.full(m, -2.0)
        background = Partition(np.zeros(m, dtype=np.int64), 1)
        p = expit(-2.0 - 2.0 + 1.5)
        pairs = m * (m - 1) // 2
        se = np.sqrt(p * (1.0 - p) / pairs)
        for seed in (0, 1, 2):
            adj = generate_network(alpha, background, 1.5, 1.5, seed)
            assert abs(adj.edge_count / pairs - p) < 3.0 * se

    def test_seeds_give_distinct_graphs(self):
        m = 400
        alpha = np.full(m, -2.0)
        background = Partition(np.zeros(m, dtype=np.int64), 1)
        a0 = generate_network(alpha, background, 1.5, 1.5, 0)
        a1 = generate_network(alpha, background, 1.5, 1.5, 1)
        again = generate_network(alpha, background, 1.5, 1.5, 0)
        assert np.array_equal(to_dense(a0), to_dense(again))
        assert not np.array_equal(to_dense(a0), to_dense(a1))

    def test_saturated_propensities_give_complete_graph(self):
        m = 50
        alpha = np.full(m, 500.0)  # sigmoid saturates to 1.0 without overflow
        background = Partition(np.zeros(m, dtype=np.int64), 1)
        adj = generate_network(alpha, background, 0.0, 0.0, 3)
        assert adj.edge_count == m * (m - 1) // 2

    def test_equal_thetas_make_the_partition_irrelevant(self):
        # when theta_in == theta_out every pair has the same inclusion
        # probability, so the draw must be bit-identical across partitions
        config = small_config(m=80, k=2, community_size=20, seed=9)
        alpha = sample_alpha(config)
        plants = [
            plant_communities(dataclasses.replace(config, seed=s)) for s in (9, 10)
        ]
        plants.append(Partition(np.zeros(80, dtype=np.int64), 1))
        assert not np.array_equal(plants[0].labels, plants[1].labels)
        drawn = [
            to_dense(generate_network(alpha, part, -2.0, -2.0, 77))
            for part in plants
        ]
        assert np.array_equal(drawn[0], drawn[1])
        assert np.array_equal(drawn[0], drawn[2])

    def test_within_density_exceeds_between_when_theta_in_larger(self):
        truth = generate_ground_truth(small_config(m=300, k=4, community_size=75))
        dens = edge_density(truth.adjacency, truth.partition)
        assert dens.within > dens.between

    def test_rejects_mismatched_partition(self):
        alpha = np.zeros(10)
        part = Partition(np.zeros(11, dtype=np.int64), 1)
        with pytest.raises(InvalidInputError):
            generate_network(alpha, part, 1.0, 0.0, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["alpha", "theta_in", "theta_out"])
    def test_rejects_nonfinite_inputs(self, name, bad):
        # a NaN propensity used to give a node no edges, silently
        args = dict(alpha=np.zeros(4), theta_in=1.0, theta_out=0.0)
        args[name] = np.array([0.0, bad, 0.0, 0.0]) if name == "alpha" else bad
        part = Partition(np.array([1, 1, 0, 0]), 1)
        with pytest.raises(ParameterError, match=name):
            generate_network(args["alpha"], part, args["theta_in"], args["theta_out"], 0)

    @pytest.mark.parametrize(
        "theta_in, k, community_size",
        [(50.0, 4, 250), (1.0, 2, 1000)],
        ids=["study-config", "within-pairs-far-above-edges"],
    )
    def test_peak_memory_follows_the_block_and_the_edges(self, theta_in, k, community_size):
        # The heap holds the returned edges and a few block buffers' worth
        # of temporaries (the block buffers and the edge list themselves sit
        # in anonymous maps, which tracemalloc does not see); the second
        # case has about a million within pairs but few edges, so no
        # temporary may grow with the within pairs either
        config = small_config(m=2000, k=k, community_size=community_size,
                              theta_in=theta_in, seed=3)
        alpha, part = sample_alpha(config), plant_communities(config)
        generate_network(alpha, part, theta_in, 1.0, 3)  # load expit first
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            adj = generate_network(alpha, part, theta_in, 1.0, 3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        block_buffer = 8 * simgen._row_blocks(2000)[0]
        assert block_buffer < 2000 * 2000 * 8 // 16
        assert peak < adj.edges.nbytes + 6 * block_buffer

    def test_realized_densities_track_the_expected_values(self):
        # large-scale check: realized within/between densities against
        # the quadrature expectation across a ladder of theta_in values
        for theta_in, seed in [(50.0, 0), (30.0, 1), (20.0, 2), (10.0, 3)]:
            config = SimConfig(
                m=3000,
                k=20,
                community_size=150,
                theta_in=theta_in,
                theta_out=1.0,
                r_gen=0.8,
                nu=200,
                seed=seed,
            )
            truth = generate_ground_truth(config)
            dens = edge_density(truth.adjacency, truth.partition)
            assert dens.within == pytest.approx(
                expected_density(theta_in, config), abs=0.03
            )
            assert dens.between == pytest.approx(
                expected_density(1.0, config), abs=5e-4
            )


class TestExpectedDensity:
    def test_matches_adaptive_double_integral(self):
        config = small_config()

        def t(u):
            return (
                log_bounded_pareto_ppf(
                    u, DEFAULT_PARETO_LOW, DEFAULT_PARETO_HIGH, DEFAULT_PARETO_EXPONENT
                )
                + DEFAULT_ALPHA_OFFSET
            )

        for theta in (50.0, 1.0):
            reference, _ = integrate.dblquad(
                lambda v, u: expit(t(u) + t(v) + theta),
                0.0,
                1.0,
                0.0,
                1.0,
                epsabs=1e-11,
                epsrel=1e-11,
            )
            assert expected_density(theta, config) == pytest.approx(
                reference, abs=1e-9
            )

    def test_increasing_in_theta(self):
        config = small_config()
        values = [expected_density(t, config) for t in (1.0, 10.0, 20.0, 30.0, 50.0)]
        assert np.all(np.diff(values) > 0)

    def test_calibration_hits_the_target_density(self):
        # the module docstring's claim for the default Pareto shape and offset
        config = small_config()
        for theta, target in [(50.0, 0.81), (30.0, 0.34), (20.0, 0.15), (10.0, 0.039),
                              (config.theta_out, 0.0013)]:
            assert expected_density(theta, config) == pytest.approx(target, rel=0.05)


class TestGenerateCorrelations:
    def test_null_squared_correlation_follows_exact_beta_law(self):
        # with identity scale the squared sample correlation of a 2x2
        # Wishart(nu) draw is Beta(1/2, (nu - 1)/2) exactly
        nu = 12
        m = 450
        values = upper(generate_correlations(SparseAdjacency(m), 0.5, nu, 3).values)
        result = stats.kstest(values**2, stats.beta(0.5, (nu - 1) / 2.0).cdf)
        assert result.pvalue > 1e-3

    def test_edge_correlations_match_definitional_sampler(self):
        nu, r = 12, 0.5
        library = upper(generate_correlations(complete_graph(250), r, nu, 5).values)
        oracle = wishart_correlation_draws(r, nu, 30_000, np.random.default_rng(99))
        result = stats.ks_2samp(library, oracle)
        assert result.pvalue > 1e-3

    def test_null_stabilized_moments(self):
        nu = 100
        values = upper(generate_correlations(SparseAdjacency(450), 0.5, nu, 7).values)
        z = np.arctanh(values)
        assert abs(z.mean()) < 3.0 * z.std(ddof=1) / np.sqrt(z.size)
        assert z.std(ddof=1) == pytest.approx(1.0 / np.sqrt(nu - 3), rel=0.02)

    def test_signal_mean_after_stabilizing_transform(self):
        # mean of atanh(r_hat) sits at atanh(r) + r / (2 (nu - 1)) to
        # first order; 2016 draws put three standard errors above the
        # next-order terms
        nu, r = 100, 0.5
        values = upper(generate_correlations(complete_graph(64), r, nu, 11).values)
        z = np.arctanh(values)
        target = np.arctanh(r) + r / (2.0 * (nu - 1.0))
        assert abs(z.mean() - target) < 3.0 * z.std(ddof=1) / np.sqrt(z.size)

    def test_perfect_generating_correlation_is_exact(self):
        values = generate_correlations(complete_graph(12), 1.0, 20, 2).values
        off_diag = upper(values)
        assert np.all(off_diag == 1.0)
        assert np.all(np.diag(values) == 0.0)

    def test_output_is_symmetric_with_zero_diagonal(self):
        corr = generate_correlations(complete_graph(20), 0.6, 30, 8)
        assert np.array_equal(corr.values, corr.values.T)
        assert np.all(np.diag(corr.values) == 0.0)
        assert np.all(np.abs(corr.values) <= 1.0)

    def test_edges_come_from_the_edge_list(self):
        # with r_gen = 1 every edge correlation is exactly 1 and no other is
        rng = np.random.default_rng(12)
        dense = np.triu((rng.random((80, 80)) < 0.1).astype(np.int8), 1)
        adj = from_dense(dense + dense.T)
        values = generate_correlations(adj, 1.0, 20, 6).values
        np.testing.assert_array_equal(values == 1.0, (dense + dense.T) == 1)

    def test_peak_memory_is_about_one_matrix(self, mapped_bytes):
        config = small_config(m=1000, k=4, community_size=100)
        adj = generate_ground_truth(config).adjacency
        mapped_bytes.clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            corr = generate_correlations(adj, config.r_gen, config.nu, 1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert mapped_bytes == [corr.values.nbytes]
        assert peak + sum(mapped_bytes) < 1.3 * corr.values.nbytes

    def test_draws_are_seeded(self):
        adj = complete_graph(15)
        first = generate_correlations(adj, 0.5, 25, 4).values
        second = generate_correlations(adj, 0.5, 25, 4).values
        other = generate_correlations(adj, 0.5, 25, 5).values
        assert np.array_equal(first, second)
        assert not np.array_equal(first, other)

    def test_rejects_bad_parameters(self):
        adj = complete_graph(6)
        for bad_r in (0.0, -0.5, 1.5):
            with pytest.raises(ParameterError):
                generate_correlations(adj, bad_r, 20, 0)
        with pytest.raises(ParameterError):
            generate_correlations(adj, 0.5, 3, 0)


class TestSubstreams:
    """_substreams(seed, stream, rows) reproduces numpy's seeding per row."""

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 1])
    @pytest.mark.parametrize("stream", [simgen._STREAM_NETWORK, simgen._STREAM_WISHART])
    def test_draws_match_numpy_seeding(self, seed, stream):
        rows = [0, 1, 2, 255, 65536, 70001]
        for row, rng in zip(rows, simgen._substreams(seed, stream, rows)):
            oracle = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(stream, row))
            )
            for draw in (
                lambda g: g.random(3),
                lambda g: g.standard_gamma(2.5, size=3),
                lambda g: g.standard_normal(3),
                lambda g: g.integers(0, 2**40, size=2),
            ):
                assert np.array_equal(draw(rng), draw(oracle)), (seed, stream, row)

    def test_negative_seed_raises_like_seed_sequence(self):
        adj = complete_graph(4)
        with pytest.raises(ValueError):
            generate_correlations(adj, 0.5, 20, -1)
        with pytest.raises(ValueError):
            generate_network(np.zeros(4), Partition(np.zeros(4, dtype=np.int64), 1), 1.0, 1.0, -1)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


class TestPinnedDraws:
    """Generated bytes match digests pinned from the per-row default_rng
    sampler with chisquare draws, so seeded datasets never move."""

    @pytest.mark.parametrize(
        "overrides, truth_digest, corr_digest",
        [
            # m = 2 with its one pair an edge at r_gen = 1
            (dict(m=2, k=1, community_size=2, theta_in=80.0, r_gen=1.0, nu=20, seed=5),
             "ef43e7dde3b4292c", "c9a2fb79c96caefa"),
            (dict(m=40, k=2, community_size=10, r_gen=0.6, seed=2**32 + 17),
             "736115620fa1f1eb", "5cf1995dc16a1983"),
            # many draw blocks
            (dict(m=300, k=3, community_size=60, nu=12, seed=7),
             "05f6ed8c6bbf46cb", "8a42e34bab08ca46"),
        ],
    )
    def test_bytes_match_the_pinned_digests(self, overrides, truth_digest, corr_digest):
        config = small_config(**overrides)
        truth = generate_ground_truth(config)
        corr = generate_correlations(truth.adjacency, config.r_gen, config.nu, config.seed)
        assert _digest(truth.alpha, truth.partition.labels, truth.adjacency.edges) == truth_digest
        assert _digest(corr.values) == corr_digest


class TestSimConfig:
    def test_rejects_invalid_fields(self):
        with pytest.raises(ParameterError):
            small_config(m=1)
        with pytest.raises(ParameterError):
            small_config(k=5, community_size=15)  # overflows m=60
        with pytest.raises(ParameterError):
            small_config(r_gen=0.0)
        with pytest.raises(ParameterError):
            small_config(nu=3)
        with pytest.raises(ParameterError):
            small_config(seed=-1)

    def test_from_dict_round_trip(self):
        config = small_config(theta_in=25.0, seed=3)
        assert SimConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_fields(self):
        payload = small_config().to_dict()
        payload["typo_field"] = 1
        with pytest.raises(ParameterError):
            SimConfig.from_dict(payload)


class TestExpandGrid:
    def test_scalar_mapping_gives_one_config(self):
        configs = expand_grid(small_config().to_dict())
        assert configs == [small_config()]

    def test_list_fields_expand_in_order(self):
        mapping = small_config().to_dict()
        mapping["theta_in"] = [30.0, 20.0]
        mapping["nu"] = [50, 100]
        configs = expand_grid(mapping)
        seen = [(c.theta_in, c.nu) for c in configs]
        assert seen == [(30.0, 50), (30.0, 100), (20.0, 50), (20.0, 100)]

    def test_single_list_field(self):
        mapping = small_config().to_dict()
        mapping["r_gen"] = [0.3, 0.5, 0.8]
        configs = expand_grid(mapping)
        assert [c.r_gen for c in configs] == [0.3, 0.5, 0.8]


class TestRunStudy:
    def test_single_point_single_rep(self):
        records, summary = run_study([small_config()], repetitions=1, seed=1)
        assert len(records) == 1
        record = records[0]
        assert record["point"] == 0
        assert record["rep"] == 0
        assert record["method"] == "threshold-spectral"
        assert 0.0 <= record["nmi"] <= 1.0
        assert 0.0 <= record["tpr"] <= 1.0
        assert 0.0 <= record["fpr"] <= 1.0
        assert record["detected_edges"] >= 0
        assert record["config"]["m"] == 60
        assert len(summary) == 1
        assert summary[0]["runs"] == 1
        assert summary[0]["failures"] == 0

    def test_baseline_adds_a_second_method(self):
        records, summary = run_study(
            [small_config()], repetitions=3, seed=2, baseline=True
        )
        assert len(records) == 6
        methods = {record["method"] for record in records}
        assert methods == {"threshold-spectral", "spectral-direct"}
        direct = [r for r in records if r["method"] == "spectral-direct"]
        assert all(r["tpr"] is None and r["fpr"] is None for r in direct)
        assert all(r["nmi"] is not None for r in direct)
        assert {row["method"] for row in summary} == methods

    def test_records_are_reproducible(self):
        first, _ = run_study([small_config()], repetitions=2, seed=3)
        second, _ = run_study([small_config()], repetitions=2, seed=3)
        assert first == second
        shifted, _ = run_study([small_config()], repetitions=2, seed=4)
        assert first != shifted

    def test_each_rep_gets_its_own_seed(self):
        records, _ = run_study([small_config()], repetitions=3, seed=0)
        seeds = {record["config"]["seed"] for record in records}
        assert len(seeds) == 3

    def test_a_failing_run_is_isolated(self, monkeypatch):
        real = simgen.run_single
        calls = {"n": 0}

        def flaky(config, estimate_a=False, baseline=False):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("synthetic failure")
            return real(config, estimate_a, baseline)

        monkeypatch.setattr(simgen, "run_single", flaky)
        records, summary = run_study([small_config()], repetitions=3, seed=5)
        errors = [r for r in records if "error" in r]
        assert len(errors) == 1
        assert errors[0]["error"] == "RuntimeError: synthetic failure"
        assert errors[0]["rep"] == 1
        assert len(records) == 3
        assert summary[0]["runs"] == 2
        assert summary[0]["failures"] == 1

    def test_a_failing_run_counts_against_every_method(self, monkeypatch):
        real = simgen.infer_adjacency
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise ConvergenceError("synthetic failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(simgen, "infer_adjacency", flaky)
        records, summary = run_study([small_config()], repetitions=3, seed=5, baseline=True)
        errors = [r for r in records if "error" in r]
        assert sorted(r["method"] for r in errors) == ["spectral-direct", "threshold-spectral"]
        assert all(r["rep"] == 1 and r["error"] == "ConvergenceError: synthetic failure"
                   for r in errors)
        assert [(row["method"], row["runs"], row["failures"]) for row in summary] == [
            ("spectral-direct", 2, 1), ("threshold-spectral", 2, 1)
        ]

    def test_rejects_zero_repetitions(self):
        with pytest.raises(ParameterError):
            run_study([small_config()], repetitions=0)


class TestSummarizeRecords:
    def test_quartiles_match_percentile_oracle(self):
        nmi = [0.2, 0.9, 0.5, 0.7, 0.4]
        records = [
            {
                "point": 0,
                "method": "threshold-spectral",
                "nmi": value,
                "tpr": 1.0,
                "fpr": 0.0,
                "detected_edges": 10 * i,
            }
            for i, value in enumerate(nmi)
        ]
        rows = summarize_records(records)
        assert len(rows) == 1
        row = rows[0]
        q1, q2, q3 = np.percentile(nmi, [25.0, 50.0, 75.0])
        assert row["nmi_q1"] == pytest.approx(q1)
        assert row["nmi_median"] == pytest.approx(q2)
        assert row["nmi_q3"] == pytest.approx(q3)
        assert row["detected_edges_median"] == 20.0
        assert row["runs"] == 5

    def test_missing_metrics_summarize_to_none(self):
        records = [
            {
                "point": 0,
                "method": "spectral-direct",
                "nmi": 0.5,
                "tpr": None,
                "fpr": None,
                "detected_edges": None,
            }
        ]
        row = summarize_records(records)[0]
        assert row["nmi_median"] == 0.5
        assert row["tpr_median"] is None
        assert row["fpr_median"] is None

    def test_groups_by_point_and_method(self):
        records = []
        for point in (0, 1):
            for method in ("threshold-spectral", "spectral-direct"):
                records.append(
                    {
                        "point": point,
                        "method": method,
                        "nmi": 0.5,
                        "tpr": None,
                        "fpr": None,
                        "detected_edges": None,
                    }
                )
        rows = summarize_records(records)
        assert [(row["point"], row["method"]) for row in rows] == [
            (0, "spectral-direct"),
            (0, "threshold-spectral"),
            (1, "spectral-direct"),
            (1, "threshold-spectral"),
        ]


class TestRunSingle:
    def test_strong_signal_point_recovers_the_truth(self):
        # an easy regime: strong edges, plenty of degrees of freedom
        config = small_config(m=120, k=2, community_size=30, nu=200, r_gen=0.9, seed=1)
        records = run_single(config)
        assert len(records) == 1
        record = records[0]
        assert record["true_edges"] > 0
        assert record["detected_edges"] > 0
        assert record["tpr"] > 0.5
        assert record["median_w"] is not None
        assert record["median_a"] == 0.5  # fixed slab scale by default

    def test_reports_generated_graph_facts(self):
        config = small_config(seed=8)
        record = run_single(config)[0]
        truth = generate_ground_truth(config)
        dens = edge_density(truth.adjacency, truth.partition)
        assert record["true_edges"] == truth.adjacency.edge_count
        assert record["true_within_density"] == pytest.approx(dens.within)
        assert record["true_between_density"] == pytest.approx(dens.between)
