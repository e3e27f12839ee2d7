"""Network generation against a copy of its earlier per-row form.

generate_network now draws the packed upper triangle in blocks of whole
rows and evaluates expit only for candidate pairs: planted within pairs
and pairs whose uniform is at most a slack-inflated e^alpha_i *
e^(alpha_j + theta_out). Below is a verbatim copy of the generator it
replaced, which evaluated expit for every pair, row by row. Both must
give byte-equal edges on the benchmark configs, on partition and theta
edge cases, on saturated and extreme propensities, and on random finite
inputs.
"""

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from assocnet import simgen
from assocnet.graphs import Partition, SparseAdjacency
from assocnet.simgen import SimConfig, generate_network, plant_communities, sample_alpha

# --------------------------------------------------- per-row reference


def per_row_network(alpha, partition, theta_in, theta_out, seed):
    alpha = np.asarray(alpha, dtype=np.float64)
    m = alpha.size
    labels = partition.labels
    rows, cols = [], []
    for i, rng in enumerate(simgen._substreams(seed, simgen._STREAM_NETWORK, range(m - 1))):
        if labels[i] > 0:
            theta = np.where(labels[i + 1 :] == labels[i], theta_in, theta_out)
        else:
            theta = theta_out
        p = scipy.special.expit(alpha[i] + alpha[i + 1 :] + theta)
        hits = rng.random(m - 1 - i) < p
        chosen = np.flatnonzero(hits) + (i + 1)
        rows.append(np.full(chosen.size, i, dtype=np.int64))
        cols.append(chosen)
    edges = np.column_stack(
        [np.concatenate(rows) if rows else np.empty(0, dtype=np.int64),
         np.concatenate(cols) if cols else np.empty(0, dtype=np.int64)]
    )
    return SparseAdjacency(m, edges)


# ------------------------------------------------------------- helpers


def assert_same_network(alpha, partition, theta_in, theta_out, seed):
    expected = per_row_network(alpha, partition, theta_in, theta_out, seed).edges
    edges = generate_network(alpha, partition, theta_in, theta_out, seed).edges
    assert edges.dtype == expected.dtype
    assert edges.tobytes() == expected.tobytes()
    return edges


def assert_same_for_config(seed, **fields):
    config = SimConfig(r_gen=0.8, nu=200, seed=seed, **fields)
    return assert_same_network(
        sample_alpha(config), plant_communities(config),
        config.theta_in, config.theta_out, config.seed,
    )


def background(m):
    return Partition(np.zeros(m, dtype=np.int64), 1)


# The configs of the perfbench workloads (study-m2000, the two score
# matrices of estimate-a, communities-m5000).
BENCHMARK_CONFIGS = {
    "study-m2000": dict(m=2000, k=4, community_size=250, theta_in=50.0, theta_out=1.0),
    "estimate-a-strong": dict(m=600, k=4, community_size=150, theta_in=50.0, theta_out=1.0),
    "estimate-a-weak": dict(m=200, k=4, community_size=50, theta_in=50.0, theta_out=1.0),
    "communities-m5000": dict(m=5000, k=10, community_size=200, theta_in=20.0, theta_out=1.0),
}


@pytest.mark.parametrize("seed", [1, 2**32 + 7])
@pytest.mark.parametrize("name", list(BENCHMARK_CONFIGS))
def test_benchmark_configs_match(name, seed):
    edges = assert_same_for_config(seed, **BENCHMARK_CONFIGS[name])
    assert len(edges) > 0


@pytest.mark.parametrize(
    "theta_in, theta_out", [(-3.0, 4.0), (2.5, 2.5), (30.0, 30.0)],
    ids=["in-below-out", "equal", "equal-dense"],
)
def test_theta_orderings_match(theta_in, theta_out):
    assert_same_for_config(
        5, m=300, k=3, community_size=60, theta_in=theta_in, theta_out=theta_out
    )


class TestPartitions:
    def test_background_only(self):
        config = SimConfig(m=400, k=1, community_size=1, theta_in=9.0, theta_out=4.0,
                           r_gen=0.8, nu=200, seed=2)
        assert_same_network(sample_alpha(config), background(400), 9.0, 4.0, 2)

    def test_every_node_planted(self):
        assert_same_for_config(3, m=300, k=3, community_size=100, theta_in=40.0, theta_out=2.0)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_tiny_networks(self, m, seed):
        for labels in ([0] * m, [1] * m, [1] + [0] * (m - 1)):
            partition = Partition(np.array(labels), 1)
            for alpha in (np.zeros(m), np.full(m, -20.0), np.linspace(-1.0, 3.0, m)):
                assert_same_network(alpha, partition, 5.0, -1.0, seed)


class TestExtremePropensities:
    def test_saturated_high_gives_the_complete_graph(self):
        edges = assert_same_network(np.full(50, 500.0), background(50), 0.0, 0.0, 3)
        assert len(edges) == 50 * 49 // 2

    def test_saturated_low_gives_no_edges(self):
        edges = assert_same_network(np.full(50, -500.0), background(50), 0.0, 0.0, 3)
        assert len(edges) == 0

    def test_saturated_mixed_signs(self):
        # +500 meets -500 at eta = theta, so those pairs are coin flips
        alpha = np.where(np.arange(120) % 2 == 0, 500.0, -500.0)
        partition = Partition(np.arange(120) % 3, 2)
        assert_same_network(alpha, partition, 0.5, -0.2, 11)

    def test_a_large_negative_theta_out_is_offset_by_alpha(self):
        # e^theta_out underflows to 0, but eta = 200 makes every pair an
        # edge; the bound must not drop them
        edges = assert_same_network(np.full(40, 600.0), background(40), -1000.0, -1000.0, 4)
        assert len(edges) == 40 * 39 // 2

    def test_propensities_below_the_exponent_floor(self):
        # e^-740 is subnormal; its pairs with alpha_j = 705 sit at eta = -35
        alpha = np.where(np.arange(200) % 2 == 0, -740.0, 705.0)
        assert_same_network(alpha, background(200), 0.0, 0.0, 6)


_moderate = st.floats(min_value=-40.0, max_value=10.0)
_wide = st.floats(min_value=-1e3, max_value=1e3)


@given(
    alpha=st.lists(st.one_of(_moderate, _wide), min_size=2, max_size=60),
    labels=st.lists(st.integers(0, 3), min_size=60, max_size=60),
    theta_in=st.one_of(_moderate, _wide),
    theta_out=st.one_of(_moderate, _wide),
    seed=st.integers(0, 2**40),
)
@settings(max_examples=200, deadline=None)
def test_random_finite_inputs_match(alpha, labels, theta_in, theta_out, seed):
    m = len(alpha)
    partition = Partition(np.array(labels[:m]), 3)
    assert_same_network(np.array(alpha), partition, theta_in, theta_out, seed)
