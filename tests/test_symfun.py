"""Unit tests for the symmetric-function machinery.

The brute-force oracle enumerates degree-k monomials directly, so the
production recurrence is checked against an independent path.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import deepssm as d
from conftest import (
    brute_coincident_pairs,
    homogeneous_sequence,
    recurrence_filter,
    rel_err,
    separated_complex,
)


def hom_oracle(values, k):
    """Sum of all degree-k monomials, by explicit enumeration."""
    values = list(values)
    total = 0.0 + 0.0j
    for combo in itertools.combinations_with_replacement(range(len(values)), k):
        term = 1.0 + 0.0j
        for idx in combo:
            term *= values[idx]
        total += term
    return total


class TestHomogeneousSum:
    def test_frozen_integer_values(self):
        assert d.homogeneous_sum([2, 3, 5], 3) == 410
        assert d.homogeneous_sum([1, 2, 4], 2) == 35

    def test_degree_zero_is_one(self):
        assert d.homogeneous_sum([0.3 + 1j, -2.0], 0) == 1.0

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            k = int(rng.integers(0, 7))
            vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            got = d.homogeneous_sum(vals, k)
            want = hom_oracle(vals, k)
            assert rel_err(got, want) < 1e-12

    def test_exact_for_repeated_and_zero_arguments(self):
        vals = [0.5, 0.5, 0.0, -0.25]
        assert d.homogeneous_sum(vals, 4) == hom_oracle(vals, 4)

    def test_rejects_negative_degree(self):
        with pytest.raises(d.DomainError):
            d.homogeneous_sum([1.0], -1)

    def test_rejects_non_finite(self):
        with pytest.raises(d.DomainError):
            d.homogeneous_sum([np.inf], 2)

    def test_rejects_empty(self):
        with pytest.raises(d.ShapeMismatch):
            d.homogeneous_sum([], 2)


class TestHomogeneousSequence:
    def test_agrees_with_scalar_per_degree(self):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        seq = homogeneous_sequence(vals, 9)
        for k in range(9):
            assert rel_err(seq[k], d.homogeneous_sum(vals, k)) < 1e-12

    def test_extend_matches_adding_a_variable(self):
        rng = np.random.default_rng(4)
        vals = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        extra = 0.4 - 0.2j
        base = homogeneous_sequence(vals, 12)
        grown = d.extend_homogeneous(base, extra)
        want = homogeneous_sequence(np.append(vals, extra), 12)
        np.testing.assert_allclose(grown, want, rtol=1e-12, atol=1e-14)


class TestExtendHomogeneous:
    """The blocked Toeplitz filter against the step-by-step recurrence."""

    # Chunks are ceil(sqrt(T)) steps long, at most 32: 16 and 17 sit either
    # side of a square, where the chunk size steps; 257 leaves a chunk mostly
    # padding; from 1025 on the chunk ends are carried by the filter itself.
    HORIZONS = [1, 2, 15, 16, 17, 257, 1024, 1025, 2000]
    ALPHAS = [0.0, 1e-200, 0.5, 1.5, 1e3]

    @staticmethod
    def rows(horizon):
        rng = np.random.default_rng(horizon)
        rows = rng.standard_normal((4, horizon)) + 1j * rng.standard_normal((4, horizon))
        rows[1, : horizon // 2] = 0.0
        rows[2, : horizon - 1] = 0.0
        rows[3] = 0.0
        return rows

    @staticmethod
    def assert_matches(got, rows, alpha):
        want = recurrence_filter(rows, alpha)
        # Within a few ulps of the float maximum a complex product may or
        # may not overflow, by the order its parts are formed in; the finite
        # patterns must agree everywhere else.
        with np.errstate(over="ignore"):
            edge = np.fmin(np.abs(got), np.abs(want)) > np.finfo(float).max / 4
        assert not np.any((np.isfinite(got) != np.isfinite(want)) & ~edge)
        np.testing.assert_array_equal(got == 0, want == 0)
        # Rounding error is relative to the sum of the terms' moduli.
        finite = np.isfinite(got) & np.isfinite(want)
        scale = np.abs(recurrence_filter(np.abs(rows), np.abs(alpha)))
        assert np.all(np.abs(got[finite] - want[finite]) <= 1e-12 * scale[finite])

    @pytest.mark.parametrize("horizon", HORIZONS)
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_scalar_alpha_matches_recurrence(self, horizon, alpha):
        rows = self.rows(horizon)
        self.assert_matches(d.extend_homogeneous(rows, alpha), rows, alpha)
        for row in rows:
            self.assert_matches(d.extend_homogeneous(row, alpha), row, alpha)

    @pytest.mark.parametrize("horizon", HORIZONS)
    def test_alpha_per_row_matches_recurrence(self, horizon):
        rows = self.rows(horizon)
        for alphas in itertools.permutations(self.ALPHAS, 4):
            alphas = np.array(alphas) * np.exp(0.3j)
            self.assert_matches(d.extend_homogeneous(rows, alphas), rows, alphas)

    def test_alpha_broadcasts_over_leading_axes(self):
        rows = self.rows(40).reshape(2, 2, 40)
        alphas = np.array([0.5, -0.7j])
        got = d.extend_homogeneous(rows, alphas)
        assert got.shape == (2, 2, 40)
        self.assert_matches(got, rows, alphas)
        assert d.extend_homogeneous(rows[0, 0], alphas).shape == (2, 40)
        assert d.extend_homogeneous(np.zeros((3, 0)), 0.5).shape == (3, 0)

    def test_overflowed_power_leaves_undriven_prefix_zero(self):
        # 1.5**1751 overflows; a row driven only from step 1900 stays
        # exactly zero before it, and finite for the 100 steps after.
        row = np.zeros(2000, dtype=complex)
        row[1900:] = 1.0
        got = d.extend_homogeneous(np.stack([row, np.eye(1, 2000)[0]]), 1.5)
        assert np.all(got[0, :1900] == 0) and np.all(np.isfinite(got[0]))
        assert np.isfinite(got[1]).sum() == 1751
        self.assert_matches(got[0], row, 1.5)

    def test_small_input_overflows_with_the_recurrence(self):
        # 1.5**1800 overflows on its own, but 1e-10 * 1.5**t does not before
        # t = 1808: no power beyond alpha**c may be formed first.
        row = np.eye(1, 2000, dtype=complex)[0] * 1e-10
        got = d.extend_homogeneous(row, 1.5)
        assert np.isfinite(got).sum() == 1808
        self.assert_matches(got, row, 1.5)


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=6,
    ),
    k=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_permutation_invariance(values, k, seed):
    perm = list(values)
    np.random.default_rng(seed).shuffle(perm)
    got = d.homogeneous_sum(perm, k)
    want = d.homogeneous_sum(values, k)
    # Only the accumulation order changes, so the error is bounded by the
    # sum of monomial magnitudes.
    slack = abs(d.homogeneous_sum(np.abs(values), k)) + 1.0
    assert abs(got - want) <= 1e-12 * slack


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=6,
    ),
    k=st.integers(min_value=0, max_value=8),
)
def test_zero_argument_absorption_is_exact(values, k):
    assert d.homogeneous_sum(list(values) + [0.0], k) == d.homogeneous_sum(values, k)


class TestRationalForm:
    def test_agrees_with_recurrence_on_distinct_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(0, 21))
            vals = separated_complex(rng, n)
            got = d.f_rational(vals, k)
            want = d.homogeneous_sum(vals, k)
            assert rel_err(got, want) < 1e-9

    def test_single_argument_is_power(self):
        assert rel_err(d.f_rational([0.5 + 0.5j], 6), (0.5 + 0.5j) ** 6) < 1e-12

    def test_degenerate_arguments_rejected(self):
        with pytest.raises(d.DegenerateEigenvalues):
            d.f_rational([0.5, 0.5 + 1e-14], 3)

    def test_low_power_sums_vanish(self):
        # sum_i a_i**k / prod_{j != i} (a_i - a_j) == 0 for k <= n - 2.
        rng = np.random.default_rng(11)
        for n in range(2, 9):
            vals = separated_complex(rng, n)
            for k in range(0, n - 1):
                terms = [
                    vals[i] ** k / np.prod(vals[i] - np.delete(vals, i))
                    for i in range(n)
                ]
                scale = max(abs(t) for t in terms)
                assert abs(sum(terms)) <= 1e-9 * scale

    def test_two_point_recursion(self):
        # F_t(g_1..g_n) - g_{n-1}/(g_{n-1}-g_n) F_t(g_1..g_{n-1})
        #   == g_n/(g_n-g_{n-1}) F_t(g_1..g_{n-2}, g_n)
        rng = np.random.default_rng(13)
        for n in range(2, 7):
            g = separated_complex(rng, n)
            for t in range(0, 13):
                left = d.homogeneous_sum(g, t) - g[n - 2] / (g[n - 2] - g[n - 1]) * d.homogeneous_sum(g[: n - 1], t)
                right = g[n - 1] / (g[n - 1] - g[n - 2]) * d.homogeneous_sum(
                    np.append(g[: n - 2], g[n - 1]), t
                )
                scale = max(abs(left), abs(right), 1.0)
                assert abs(left - right) <= 1e-9 * scale


class TestTelescope:
    def _random_sorted_modes(self, rng, n):
        vals = separated_complex(rng, n)
        return vals[np.argsort(np.abs(vals))]

    def test_flattens_prefix_sums_to_exponentials(self):
        rng = np.random.default_rng(17)
        for n in range(1, 8):
            betas = self._random_sorted_modes(rng, n)
            zs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            coeffs = d.telescope_coefficients(betas, zs)
            for t in range(0, 40, 3):
                left = sum(
                    coeffs[k] * d.homogeneous_sum(betas[: k + 1], t) for k in range(n)
                )
                right = np.sum(zs * betas**t)
                assert rel_err(left, right) < 1e-9

    def test_weight_bound(self):
        rng = np.random.default_rng(19)
        for n in range(1, 9):
            betas = self._random_sorted_modes(rng, n)
            zs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            coeffs = d.telescope_coefficients(betas, zs)
            cap = 2.0**n * np.max(np.abs(zs))
            assert np.max(np.abs(coeffs)) <= cap * (1 + 1e-12)

    def test_matches_high_precision_oracle(self):
        # The oracle is the expanded form, z_j b_k prod_{i<k} (b_j - b_i)
        # / b_j**(k+1) summed over j >= k, in 50 digits, where b_j**(k+1)
        # neither underflows nor overflows.  Every weight is within 1e-14 of
        # the sum of its terms' moduli (measured: 1.1e-15); a weight whose
        # terms all have zero weight is exactly zero.
        mpmath = pytest.importorskip("mpmath")

        def oracle(betas, zs):
            with mpmath.workdps(50):
                b = [mpmath.mpc(complex(v)) for v in betas]
                z = [mpmath.mpc(complex(v)) for v in zs]
                total = [mpmath.mpc(0)] * len(b)
                size = [mpmath.mpf(0)] * len(b)
                for j in range(len(b)):
                    sep, power = mpmath.mpc(1), b[j]
                    for k in range(j + 1):
                        term = z[j] * b[k] * sep / power
                        total[k] += term
                        size[k] += abs(term)
                        sep, power = sep * (b[j] - b[k]), power * b[j]
                return np.array(total, dtype=complex), np.array(size, dtype=float)

        for seed in range(3):
            for n in (1, 2, 16, 40, 90):
                rng = d.seeded_rng(seed, n)
                betas = np.geomspace(1e-6, 0.95, n) * np.exp(
                    2j * np.pi * rng.uniform(0.0, 1.0, n)
                )
                zs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                zs[rng.uniform(0.0, 1.0, n) < 0.25] = 0
                got = d.telescope_coefficients(betas, zs)
                want, size = oracle(betas, zs)
                assert np.all(np.abs(got - want) <= 1e-14 * size), (seed, n)
                assert np.all(got[size == 0] == 0)

    def test_moduli_far_apart_form_no_overflowing_quotient(self):
        # 1e10 / 1e-300 overflows; only quotients b_i / b_j with i < j appear.
        got = d.telescope_coefficients([1e-300, 1e10], [1.0, 1.0])
        np.testing.assert_array_equal(got, [1.0, 1.0])

    def test_unsorted_rejected(self):
        with pytest.raises(d.UnsortedInput):
            d.telescope_coefficients([0.9, 0.3], [1.0, 1.0])

    def test_zero_mode_rejected(self):
        with pytest.raises(d.ZeroEigenvalue):
            d.telescope_coefficients([0.0, 0.5], [1.0, 1.0])

    def test_coincident_modes_rejected(self):
        with pytest.raises(d.DegenerateEigenvalues):
            d.telescope_coefficients([0.5, 0.5 * (1 + 1e-14)], [1.0, 1.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(d.ShapeMismatch):
            d.telescope_coefficients([0.5, 0.6], [1.0])


class TestCoincidentPairs:
    def test_reports_relative_clashes(self):
        assert d.coincident_pairs([1.0, 1.0 + 1e-12]) == [(0, 1)]
        assert d.coincident_pairs([1.0, 1.1]) == []

    def test_absolute_scale_near_zero(self):
        # Values near zero are compared on an absolute scale.
        assert d.coincident_pairs([0.0, 5e-11]) == [(0, 1)]
        assert d.coincident_pairs([0.0, 1e-9]) == []


@st.composite
def clash_prone_values(draw):
    """Values and an ``rtol`` whose pairs sit on every edge of the separation
    test: exact duplicates, gaps one ulp either side of ``rtol * scale`` along
    either axis, shared real parts, values near zero (absolute scale) and
    moduli from 1e-150 to 1e150."""
    rtol = draw(st.sampled_from([0.0, d.DISTINCTNESS_RTOL, 1e-6, 0.5]))

    def fresh():
        mantissa = complex(draw(st.floats(-10, 10)), draw(st.floats(-10, 10)))
        return mantissa * 10.0 ** draw(st.integers(-150, 150))

    values = [fresh()]
    for _ in range(draw(st.integers(0, 12))):
        v = draw(st.sampled_from(values))
        kind = draw(st.sampled_from(["fresh", "copy", "edge", "real", "tiny"]))
        if kind == "fresh":
            values.append(fresh())
        elif kind == "copy":
            values.append(v)
        elif kind == "edge":
            gap = np.nextafter(rtol * max(abs(v), 1.0), draw(st.sampled_from([0.0, np.inf])))
            values.append(v + draw(st.sampled_from([1, -1, 1j, -1j])) * gap)
        elif kind == "real":
            values.append(complex(v.real, draw(st.floats(-1e3, 1e3))))
        else:
            values.append(complex(draw(st.floats(-1e-9, 1e-9)), draw(st.floats(-1e-9, 1e-9))))
    return draw(st.permutations(values)), rtol


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=clash_prone_values())
@example(case=([1.0, 1.0 + 1e-10, 1.0 - 1e-10], d.DISTINCTNESS_RTOL))
@example(case=([0.5, 0.3, 0.3j, 0.3, 0.5], 0.0))
@example(case=([1e150, 0.0, 1e-150, -1e-150j, 1e-10], d.DISTINCTNESS_RTOL))
# Shrunk: a window scaled by max |v| alone, not the absolute scale near zero.
@example(case=([0j, 9.999999999999999e-11], d.DISTINCTNESS_RTOL))
# Their difference rounds down onto the tolerance, but -8.28e-11 + 1e-10 rounds
# below 1.72e-11: a window without margin misses the pair.
@example(case=([-8.277025938204417e-11, 1.7229740617955833e-11], d.DISTINCTNESS_RTOL))
def test_coincident_pairs_match_the_brute_force_oracle(case):
    values, rtol = case
    assert d.coincident_pairs(values, rtol) == brute_coincident_pairs(values, rtol)


class TestFirstClash:
    """The first clash named is the first pair in row-major order, which is
    not the first by real part."""

    def test_f_rational(self):
        with pytest.raises(d.DegenerateEigenvalues) as info:
            d.f_rational([0.5, 0.3, 0.3, 0.5], 2)
        assert str(info.value) == "arguments 0 and 3 coincide within tolerance: (0.5+0j) vs (0.5+0j)"

    def test_telescope_coefficients(self):
        with pytest.raises(d.DegenerateEigenvalues) as info:
            d.telescope_coefficients([0.5j, 0.5j, -0.6, -0.6], [1, 1, 1, 1])
        assert str(info.value) == "betas 0 and 1 coincide within tolerance: 0.5j vs 0.5j"

    def test_factorize(self):
        # Sorted by modulus the modes are 0.3, 0.5, 0.5, -0.6, -0.6.
        teacher = d.ShallowRealization([-0.6, 0.5, -0.6, 0.5, 0.3], np.ones(5), np.ones(5))
        with pytest.raises(d.DegenerateEigenvalues) as info:
            d.factorize(teacher, 2)
        assert str(info.value) == (
            "teacher modes 1 and 2 coincide within tolerance ((0.5+0j) vs (0.5+0j)); "
            "allow_perturb=True jitters them apart"
        )
