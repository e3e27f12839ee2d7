"""Tests for association-score construction."""

import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from conftest import from_dense

from assocnet import assoc
from assocnet.assoc import (
    AssocMatrix,
    P_MIN,
    R_MAX,
    SymmetricMatrix,
    cooccurrence_pvalues,
    correlation_from_covariance,
    covariance_matrix,
    fisher_z,
    is_symmetric,
    mirror_upper_in_place,
    pvalues_to_z,
)
from assocnet.errors import (
    DegenerateVarianceError,
    InvalidInputError,
    ParameterError,
)
from assocnet.simgen import generate_correlations


def brute_force_covariance(samples):
    """Direct double-loop covariance with divisor n."""
    n, m = samples.shape
    means = samples.mean(axis=0)
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            out[i, j] = sum(
                (samples[k, i] - means[i]) * (samples[k, j] - means[j])
                for k in range(n)
            ) / n
    return out


def invert_phi_upper(tail):
    """Find z with 1 - Phi(z) = tail by bisection on erfc, independent of ndtri."""
    from math import erfc, sqrt

    lo, hi = -12.0, 12.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 * erfc(mid / sqrt(2.0)) > tail:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def hypergeom_upper_tail(n, k1, k2, overlap):
    """Exact upper-tail overlap probability via integer combinatorics, as a Fraction."""
    total = Fraction(0)
    for j in range(overlap, min(k1, k2) + 1):
        total += Fraction(comb(k1, j) * comb(n - k1, k2 - j), comb(n, k2))
    return total


def two_set_incidence(n, k1, k2, overlap):
    """Incidence of two entities with k1 and k2 of n items, sharing overlap of them."""
    incidence = np.zeros((n, 2), dtype=int)
    incidence[:k1, 0] = 1
    incidence[k1 - overlap : k1 - overlap + k2, 1] = 1
    return incidence


class TestCovariance:
    def test_constant_columns_give_zero_matrix(self):
        """Zero-variance input produces the zero covariance."""
        samples = np.column_stack([np.full(6, 2.5), np.full(6, -1.0)])
        cov = covariance_matrix(samples)
        assert np.array_equal(cov.values, np.zeros((2, 2)))

    def test_linear_column_relationship(self):
        """If x2 = 2 x1 then cov12 = 2 cov11."""
        rng = np.random.default_rng(0)
        x1 = rng.normal(size=50)
        cov = covariance_matrix(np.column_stack([x1, 2.0 * x1]))
        assert cov.values[0, 1] == pytest.approx(2.0 * cov.values[0, 0], rel=1e-12)

    def test_matches_brute_force(self):
        """Random 5x3 sample agrees with the double-loop oracle to 1e-12."""
        rng = np.random.default_rng(42)
        samples = rng.normal(size=(5, 3))
        cov = covariance_matrix(samples)
        expected = brute_force_covariance(samples)
        np.testing.assert_allclose(cov.values, expected, atol=1e-12)

    def test_divisor_is_n(self):
        """The normalization is 1/n, not 1/(n-1)."""
        samples = np.array([[0.0, 0.0], [2.0, 2.0]])
        cov = covariance_matrix(samples)
        assert cov.values[0, 0] == pytest.approx(1.0)

    def test_nonfinite_rejected(self):
        samples = np.array([[0.0, 1.0], [np.nan, 2.0]])
        with pytest.raises(InvalidInputError):
            covariance_matrix(samples)

    def test_single_sample_rejected(self):
        with pytest.raises(InvalidInputError):
            covariance_matrix(np.array([[1.0, 2.0]]))


class TestCorrelationFromCovariance:
    def test_identity_covariance(self):
        cov = SymmetricMatrix(np.eye(3), "covariance")
        corr = correlation_from_covariance(cov)
        assert np.array_equal(corr.values, np.eye(3))

    def test_perfectly_correlated_pair(self):
        cov = SymmetricMatrix(np.array([[4.0, 2.0], [2.0, 1.0]]), "covariance")
        corr = correlation_from_covariance(cov)
        assert corr.values[0, 1] == pytest.approx(1.0)

    def test_matches_per_entry_formula(self):
        """Random SPD 4x4 against the entrywise definition to 1e-12."""
        rng = np.random.default_rng(7)
        base = rng.normal(size=(6, 4))
        spd = base.T @ base + 0.5 * np.eye(4)
        corr = correlation_from_covariance(SymmetricMatrix(spd, "covariance"))
        for i in range(4):
            for j in range(4):
                expected = spd[i, j] / np.sqrt(spd[i, i] * spd[j, j])
                assert corr.values[i, j] == pytest.approx(expected, abs=1e-12)

    def test_zero_variance_names_index(self):
        values = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        with pytest.raises(DegenerateVarianceError, match="1"):
            correlation_from_covariance(SymmetricMatrix(values, "covariance"))

    def test_upper_triangle_scales_by_row_then_column_and_is_mirrored(self):
        rng = np.random.default_rng(12)
        base = rng.normal(size=(50, 130)) * rng.uniform(0.1, 5.0, size=130)
        cov = covariance_matrix(base)
        scale = 1.0 / np.sqrt(np.diag(cov.values))
        row_then_col = cov.values * scale[:, None] * scale[None, :]
        col_then_row = cov.values * scale[None, :] * scale[:, None]
        # Rounding tells the two orders apart at some pair, so averaging
        # the triangles would move that pair off the row-then-column product.
        assert np.any(np.triu(row_then_col != col_then_row, 1))
        corr = correlation_from_covariance(cov).values
        upper, lower = np.triu_indices(130, 1), np.tril_indices(130, -1)
        assert corr[upper].tobytes() == np.clip(row_then_col, -1.0, 1.0)[upper].tobytes()
        assert corr[lower].tobytes() == corr.T[lower].tobytes()


class TestFisherZ:
    def test_zero_is_fixed_point(self):
        corr = SymmetricMatrix(np.eye(4), "correlation")
        assoc = fisher_z(corr, 100)
        assert np.array_equal(assoc.z, np.zeros((4, 4)))

    def test_known_value(self):
        """r = 0.5 at nu = 103 gives 10 atanh(0.5) = 5.493061443340548."""
        values = np.array([[1.0, 0.5], [0.5, 1.0]])
        assoc = fisher_z(SymmetricMatrix(values, "correlation"), 103)
        assert assoc.z[0, 1] == pytest.approx(5.493061443340548, abs=1e-12)

    def test_unit_correlation_clamps_finite(self):
        values = np.array([[1.0, 1.0], [1.0, 1.0]])
        assoc = fisher_z(SymmetricMatrix(values, "correlation"), 200)
        assert np.isfinite(assoc.z[0, 1])
        expected = np.sqrt(197.0) * np.arctanh(R_MAX)
        assert assoc.z[0, 1] == pytest.approx(expected)

    def test_low_dof_rejected(self):
        corr = SymmetricMatrix(np.eye(2), "correlation")
        with pytest.raises(ParameterError):
            fisher_z(corr, 3)

    def test_round_trip_through_tanh(self):
        """tanh(z / sqrt(nu - 3)) recovers r to 1e-10."""
        rng = np.random.default_rng(3)
        r = rng.uniform(-0.99, 0.99)
        values = np.array([[1.0, r], [r, 1.0]])
        assoc = fisher_z(SymmetricMatrix(values, "correlation"), 50)
        assert np.tanh(assoc.z[0, 1] / np.sqrt(47.0)) == pytest.approx(r, abs=1e-10)

    @given(st.floats(min_value=-0.999, max_value=0.999), st.integers(5, 500))
    @settings(max_examples=50, deadline=None)
    def test_odd_in_r(self, r, nu):
        """fisher_z(-r) = -fisher_z(r) entrywise."""
        plus = fisher_z(
            SymmetricMatrix(np.array([[1.0, r], [r, 1.0]]), "correlation"), nu
        )
        minus = fisher_z(
            SymmetricMatrix(np.array([[1.0, -r], [-r, 1.0]]), "correlation"), nu
        )
        assert minus.z[0, 1] == -plus.z[0, 1]

    def test_strictly_increasing_in_r(self):
        rs = np.linspace(-0.95, 0.95, 41)
        zs = []
        for r in rs:
            values = np.array([[1.0, r], [r, 1.0]])
            zs.append(fisher_z(SymmetricMatrix(values, "correlation"), 60).z[0, 1])
        assert np.all(np.diff(zs) > 0)


class TestPvaluesToZ:
    def test_half_maps_to_zero(self):
        values = np.array([[1.0, 0.5], [0.5, 1.0]])
        assoc = pvalues_to_z(SymmetricMatrix(values, "pvalue"))
        assert assoc.z[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_known_quantile_against_bisection_oracle(self):
        """p = 0.0227501 maps near z = 2 (oracle: invert Phi by bisection)."""
        p = 0.0227501
        values = np.array([[1.0, p], [p, 1.0]])
        assoc = pvalues_to_z(SymmetricMatrix(values, "pvalue"))
        expected = invert_phi_upper(p)
        assert assoc.z[0, 1] == pytest.approx(expected, abs=1e-9)
        assert assoc.z[0, 1] == pytest.approx(2.0, abs=1e-4)

    def test_zero_p_clamps_finite(self):
        values = np.array([[1.0, 0.0], [0.0, 1.0]])
        assoc = pvalues_to_z(SymmetricMatrix(values, "pvalue"))
        expected = invert_phi_upper(P_MIN)
        assert np.isfinite(assoc.z[0, 1])
        assert assoc.z[0, 1] == pytest.approx(expected, abs=1e-6)

    def test_strictly_decreasing_in_p(self):
        ps = np.linspace(0.01, 0.99, 25)
        zs = []
        for p in ps:
            values = np.array([[1.0, p], [p, 1.0]])
            zs.append(pvalues_to_z(SymmetricMatrix(values, "pvalue")).z[0, 1])
        assert np.all(np.diff(zs) < 0)

    def test_out_of_range_rejected(self):
        values = np.array([[1.0, 1.5], [1.5, 1.0]])
        with pytest.raises(InvalidInputError):
            SymmetricMatrix(values, "pvalue")


class TestCooccurrence:
    def test_disjoint_singletons_give_one(self):
        incidence = np.zeros((10, 2), dtype=int)
        incidence[0, 0] = 1
        incidence[5, 1] = 1
        pvals = cooccurrence_pvalues(incidence)
        assert pvals.values[0, 1] == pytest.approx(1.0)

    def test_identical_size5_sets_in_universe10(self):
        """Identical sets of 5 in universe 10: p = 1/C(10,5)."""
        incidence = np.zeros((10, 2), dtype=int)
        incidence[:5, 0] = 1
        incidence[:5, 1] = 1
        pvals = cooccurrence_pvalues(incidence)
        assert pvals.values[0, 1] == pytest.approx(1.0 / 252.0, abs=1e-15)
        assert pvals.values[0, 1] == pytest.approx(0.003968253968253968, abs=1e-15)

    def test_universe4_pair_matches_enumeration(self):
        pvals = cooccurrence_pvalues(two_set_incidence(4, 2, 2, 2))
        expected = float(hypergeom_upper_tail(4, 2, 2, 2))
        assert pvals.values[0, 1] == pytest.approx(expected, abs=1e-12)

    def test_grid_against_enumeration(self):
        """A spread of (n, k1, k2, overlap) cases against exact fractions."""
        for n, k1, k2, overlap in [
            (6, 3, 3, 1),
            (8, 4, 2, 2),
            (9, 5, 4, 3),
            (11, 6, 6, 2),
            (12, 7, 3, 0),
        ]:
            pvals = cooccurrence_pvalues(two_set_incidence(n, k1, k2, overlap))
            expected = float(hypergeom_upper_tail(n, k1, k2, overlap))
            assert pvals.values[0, 1] == pytest.approx(expected, abs=1e-12)

    def test_relative_error_against_exact_fractions(self):
        """Seeded tables with up to 400 items, then two deep tails
        (p near 1.7e-42 and 4.4e-121), each within 1e-13 relative."""
        rng = np.random.default_rng(30)
        tables = [(1000, 100, 100, 60), (5000, 50, 50, 50)]
        for _ in range(300):
            n = int(rng.integers(1, 401))
            k1, k2 = (int(k) for k in rng.integers(1, n + 1, size=2))
            tables.append((n, k1, k2, int(rng.integers(max(0, k1 + k2 - n), min(k1, k2) + 1))))
        for table in tables:
            got = cooccurrence_pvalues(two_set_incidence(*table)).values[0, 1]
            exact = hypergeom_upper_tail(*table)
            rel = float(abs(Fraction(got) - exact) / exact)
            assert rel <= 1e-13, (table, rel)

    def test_one_tail_per_distinct_triple(self, monkeypatch):
        """The library tail runs once, on each distinct (min k, max k, o)
        of all (i, j), the diagonal's self-overlaps included, and no more."""
        rng = np.random.default_rng(0)
        incidence = (rng.random((200, 600)) < 0.1).astype(np.int64)
        incidence[0] = 1  # no entity with an empty item set
        calls = []
        library_sf = scipy.stats.hypergeom.sf

        def spy(k, M, n, N):
            calls.append((np.asarray(k) + 1, M, np.asarray(n), np.asarray(N)))
            return library_sf(k, M, n, N)

        monkeypatch.setattr(scipy.stats.hypergeom, "sf", spy)
        pvals = cooccurrence_pvalues(incidence)
        sizes = incidence.sum(axis=0)
        overlap = incidence.T @ incidence
        expected = set(zip(np.minimum.outer(sizes, sizes).ravel().tolist(),
                           np.maximum.outer(sizes, sizes).ravel().tolist(),
                           overlap.ravel().tolist()))
        [(o, n_items, small, large)] = calls
        assert n_items == 200
        evaluated = list(zip(small.tolist(), large.tolist(), o.tolist()))
        assert len(evaluated) == len(expected) and set(evaluated) == expected
        for i, j in [(0, 1), (3, 17), (17, 3), (598, 599)]:
            table = (200, int(sizes[i]), int(sizes[j]), int(overlap[i, j]))
            tail = float(hypergeom_upper_tail(*table))
            assert pvals.values[i, j] == pytest.approx(tail, rel=1e-13)

    def test_diagonal_is_one(self):
        incidence = np.ones((3, 3), dtype=int)
        pvals = cooccurrence_pvalues(incidence)
        assert np.array_equal(np.diag(pvals.values), np.ones(3))

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(11)
        incidence = (rng.random((12, 5)) < 0.4).astype(int)
        incidence[0] = 1  # ensure no empty columns
        base = cooccurrence_pvalues(incidence)
        shuffled = cooccurrence_pvalues(incidence[rng.permutation(12)])
        np.testing.assert_allclose(base.values, shuffled.values, atol=1e-15)

    def test_empty_column_rejected(self):
        incidence = np.zeros((5, 2), dtype=int)
        incidence[0, 0] = 1
        with pytest.raises(InvalidInputError):
            cooccurrence_pvalues(incidence)

    def test_string_entry_rejected(self):
        with pytest.raises(InvalidInputError, match="0 or 1"):
            cooccurrence_pvalues(np.array([["1", "0"], ["0", "1"]]))

    def test_item_count_is_bounded_by_the_exact_key(self):
        """Up to 2**21 - 1 items each (small, large, overlap) packs into an
        exact int64 key; one more item is refused, not rounded."""
        incidence = np.zeros((2**21, 2), dtype=np.int8)
        incidence[:, 0] = 1
        incidence[-2:, 1] = 1
        with pytest.raises(InvalidInputError, match="at most 2097151"):
            cooccurrence_pvalues(incidence)
        pvals = cooccurrence_pvalues(incidence[1:])
        assert pvals.values[0, 1] == 1.0


class TestTypes:
    def test_symmetry_enforced(self):
        values = np.array([[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(InvalidInputError):
            SymmetricMatrix(values, "correlation")

    def test_assoc_diagonal_must_be_zero(self):
        values = np.array([[1.0, 0.2], [0.2, 1.0]])
        with pytest.raises(InvalidInputError):
            AssocMatrix(values)

    def test_outputs_exactly_symmetric(self):
        rng = np.random.default_rng(2)
        samples = rng.normal(size=(20, 6))
        cov = covariance_matrix(samples)
        corr = correlation_from_covariance(cov)
        assoc = fisher_z(corr, 20)
        for mat in (cov.values, corr.values, assoc.z):
            assert np.array_equal(mat, mat.T)


def _symmetric_uniform(rng, m, low, high, diagonal):
    values = rng.uniform(low, high, size=(m, m))
    values = np.triu(values, 1)
    values = values + values.T
    np.fill_diagonal(values, diagonal)
    return values


class TestScoreTransformMemory:
    """fisher_z and pvalues_to_z work in one new m x m buffer, in a memory
    map of its own, whose upper triangle they mirror in place.

    Oracle: the same transforms written as whole-matrix expressions,
    which allocate a new array at every step.
    """

    @staticmethod
    def traced_peak(mapped_bytes, fn, *args):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = fn(*args)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return out, peak + sum(mapped_bytes)

    def test_fisher_z(self, mapped_bytes):
        values = _symmetric_uniform(np.random.default_rng(8), 400, -1.0, 1.0, 1.0)
        values[0, 1] = values[1, 0] = 1.0  # clamped to R_MAX
        before = values.copy()
        corr = SymmetricMatrix(values, "correlation")
        assoc, peak = self.traced_peak(mapped_bytes, fisher_z, corr, 60)
        z = np.sqrt(57.0) * np.arctanh(np.clip(before, -R_MAX, R_MAX))
        z = (z + z.T) / 2.0
        np.fill_diagonal(z, 0.0)
        assert np.array_equal(assoc.z, z)
        assert np.array_equal(values, before)
        assert mapped_bytes == [values.nbytes]
        assert peak < 1.2 * values.nbytes

    def test_pvalues_to_z(self, mapped_bytes):
        values = _symmetric_uniform(np.random.default_rng(9), 400, 0.0, 1.0, 1.0)
        values[0, 1] = values[1, 0] = 0.0  # clamped to P_MIN
        before = values.copy()
        assoc, peak = self.traced_peak(
            mapped_bytes, pvalues_to_z, SymmetricMatrix(values, "pvalue")
        )
        z = -ndtri(np.clip(before, P_MIN, 1.0 - P_MIN))
        z = (z + z.T) / 2.0
        np.fill_diagonal(z, 0.0)
        assert np.array_equal(assoc.z, z)
        assert np.array_equal(values, before)
        assert mapped_bytes == [values.nbytes]
        assert peak < 1.2 * values.nbytes

    def test_column_major_input_gives_row_major_scores(self):
        values = _symmetric_uniform(np.random.default_rng(10), 50, -0.9, 0.9, 1.0)
        by_rows = fisher_z(SymmetricMatrix(values, "correlation"), 60).z
        by_cols = fisher_z(SymmetricMatrix(np.asfortranarray(values), "correlation"), 60).z
        assert by_cols.flags.c_contiguous
        assert np.array_equal(by_rows, by_cols)


class TestCovarianceTransformsInPlace:
    """covariance_matrix and correlation_from_covariance mirror in place.

    Oracle: the whole-matrix formulas they replaced, which must agree
    bit for bit, including at sizes that are not a multiple of the
    mirror tile.
    """

    @staticmethod
    def old_covariance(samples):
        x = np.asarray(samples, dtype=np.float64)
        centered = x - x.mean(axis=0)
        cov = centered.T @ centered / x.shape[0]
        return (cov + cov.T) / 2.0

    @staticmethod
    def old_correlation(cov):
        scale = 1.0 / np.sqrt(np.diag(cov))
        corr = cov * scale[:, None] * scale[None, :]
        corr = np.clip(corr, -1.0, 1.0)
        corr = np.where(np.tri(len(corr), k=-1, dtype=bool), corr.T, corr)  # upper mirrored
        np.fill_diagonal(corr, 1.0)
        return corr

    @pytest.mark.parametrize("m", [7, 130, 777])
    def test_bit_identical_to_the_whole_matrix_formulas(self, m):
        rng = np.random.default_rng(m)
        samples = rng.normal(size=(40, m)) * rng.uniform(0.1, 5.0, size=m)
        samples[:, 1] = 3.0 * samples[:, 0]  # a pair at |r| = 1, up to rounding
        cov = covariance_matrix(samples)
        assert np.array_equal(cov.values, self.old_covariance(samples))
        corr = correlation_from_covariance(cov)
        assert np.array_equal(corr.values, self.old_correlation(cov.values))

    def test_correlation_needs_one_new_buffer(self, mapped_bytes):
        rng = np.random.default_rng(11)
        base = rng.normal(size=(300, 400))
        cov = SymmetricMatrix(base.T @ base + np.eye(400), "covariance")
        before = cov.values.copy()
        corr, peak = TestScoreTransformMemory.traced_peak(
            mapped_bytes, correlation_from_covariance, cov
        )
        assert np.array_equal(corr.values, self.old_correlation(before))
        assert np.array_equal(cov.values, before)
        assert mapped_bytes == [before.nbytes]
        assert peak < 1.2 * before.nbytes


class TestMirrorTiles:
    """is_symmetric and mirror_upper_in_place walk mirror tiles.

    Oracle: the whole-matrix expressions x == x.T and triu + triu.T.
    """

    T = assoc._TILE

    @pytest.mark.parametrize(
        "m, i, j",
        [
            (2 * T + 37, 3, 5),  # inside a diagonal tile
            (2 * T + 37, 5, T + 9),  # an off-diagonal tile
            (2 * T + 37, 1, 2 * T + 20),  # the last, partial, tile column
            (2 * T + 37, 2 * T + 1, 2 * T + 30),  # the last diagonal tile
            (7, 6, 2),  # m smaller than a tile
        ],
    )
    def test_one_flipped_entry_is_caught(self, m, i, j):
        values = _symmetric_uniform(np.random.default_rng(m), m, -1.0, 1.0, 1.0)
        assert is_symmetric(values)
        values[i, j] = np.nextafter(values[i, j], 2.0)
        assert not is_symmetric(values)
        assert not is_symmetric(values.T)
        with pytest.raises(InvalidInputError):
            SymmetricMatrix(values, "correlation")

    def test_single_entry_and_integer_matrices(self):
        assert is_symmetric(np.zeros((1, 1)))
        dense = np.zeros((self.T + 3, self.T + 3), dtype=np.int8)
        dense[2, self.T + 1] = 1
        assert not is_symmetric(dense)
        dense[self.T + 1, 2] = 1
        assert is_symmetric(dense)

    @pytest.mark.parametrize("m", [1, 2, 7, T + 1, 2 * T + 37])
    def test_mirror_copies_the_upper_triangle(self, m):
        values = np.random.default_rng(m).standard_normal((m, m))
        upper = np.triu(values, 1)
        mirror_upper_in_place(values)
        np.fill_diagonal(values, 0.0)
        assert np.array_equal(values, upper + upper.T)


class TestEveryBuilderIsSymmetric:
    """Each public builder of a dense matrix returns x == x.T exactly, at
    sizes just under, at and over one mirror tile and past two.
    """

    @pytest.mark.parametrize("m", [63, 64, 65, 130])
    def test_sizes_around_the_tile(self, m):
        rng = np.random.default_rng(m)
        cov = covariance_matrix(rng.normal(size=(30, m)) * rng.uniform(0.1, 5.0, size=m))
        corr = correlation_from_covariance(cov)
        pvals = SymmetricMatrix(_symmetric_uniform(rng, m, 0.0, 1.0, 1.0), "pvalue")
        incidence = (rng.random((40, m)) < 0.2).astype(np.int8)
        incidence[0] = 1  # no entity with an empty item set
        dense = np.triu(rng.random((m, m)) < 0.1, 1)
        adj = from_dense((dense | dense.T).astype(np.int8))
        for x in (
            cov.values,
            corr.values,
            fisher_z(corr, 30).z,
            pvalues_to_z(pvals).z,
            cooccurrence_pvalues(incidence).values,
            generate_correlations(adj, 0.5, 30, m).values,
        ):
            assert np.array_equal(x, x.T)
