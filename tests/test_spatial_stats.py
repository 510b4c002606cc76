import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from corrsense import (CorrelationParams, DegenerateWindowError,
                       EmpiricalStats, LengthMismatchError,
                       cluster_count_bound, empirical_correlation,
                       is_strongly_correlated, kernel, max_cluster_radius)

TAU_E = math.exp(-1.0)


def params_st():
    return st.builds(
        CorrelationParams,
        theta1=st.floats(min_value=1.0, max_value=200.0),
        theta2=st.floats(min_value=0.25, max_value=2.0),
        tau=st.floats(min_value=0.01, max_value=0.99),
    )


class TestCorrelationParams:
    @pytest.mark.parametrize("theta1,theta2,tau", [
        (0.0, 1.0, 0.5), (-1.0, 1.0, 0.5), (math.inf, 1.0, 0.5),
        (50.0, 0.0, 0.5), (50.0, 2.5, 0.5),
        (50.0, 1.0, 0.0), (50.0, 1.0, 1.0), (50.0, 1.0, -0.1),
    ])
    def test_rejects_invalid(self, theta1, theta2, tau):
        with pytest.raises(ValueError):
            CorrelationParams(theta1, theta2, tau)

    def test_accepts_boundary_smoothness(self):
        CorrelationParams(50.0, 2.0, 0.5)


# readings whose unscaled moments and their products stay in the float range
ordinary = st.one_of(st.just(0.0), st.floats(1e-50, 1e50),
                     st.floats(-1e50, -1e-50))


class TestEmpiricalCorrelation:
    def test_identical_series(self):
        assert empirical_correlation([1, 2, 3], [1, 2, 3]).pearson == approx(1.0)

    def test_exact_negation(self):
        assert empirical_correlation([1, 2, 3], [3, 2, 1]).pearson == approx(-1.0)

    def test_hand_computed_case(self):
        # mean_b = 7/3, cov = 1.5, var_a = 1, var_b = 7/3
        stats = empirical_correlation([1, 2, 3], [1, 2, 4])
        assert stats.pearson == approx(0.9819805060619659, abs=1e-12)
        assert stats.mean_a == approx(2.0)
        assert stats.var_a == approx(1.0)
        assert stats.covariance == approx(1.5)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            empirical_correlation([1, 2, 3], [1, 2])

    def test_constant_window(self):
        with pytest.raises(DegenerateWindowError):
            empirical_correlation([5, 5, 5], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(ValueError):
            empirical_correlation([1], [2])

    def test_huge_window_correlates_without_overflow(self):
        stats = empirical_correlation([1e200, -1e200, 0], [1, 2, 3])
        assert stats.pearson == approx(-0.5, abs=1e-12)
        assert stats.var_a == math.inf and stats.mean_a == 0.0

    def test_tiny_window_is_not_constant(self):
        stats = empirical_correlation([1e-200, 2e-200, 3e-200], [1, 2, 3])
        assert stats.pearson == approx(1.0, abs=1e-12)
        assert stats.mean_a == approx(2e-200, rel=1e-12)
        assert stats.var_a == 0.0  # 1e-400 is below the float range

    def test_window_near_float_max(self):
        stats = empirical_correlation([1.5e308, 1.6e308, 1.7e308], [1, 2, 3])
        assert stats.pearson == approx(1.0, abs=1e-12)
        assert stats.mean_a == approx(1.6e308, rel=1e-12)

    @given(st.integers(2, 30).flatmap(lambda n: st.tuples(
        *[st.lists(ordinary, min_size=n, max_size=n)] * 2)))
    def test_ordinary_windows_keep_their_unscaled_moments(self, windows):
        # the power-of-two scaling is exact: bit-identical to unscaled moments
        xa, xb = np.array(windows[0]), np.array(windows[1])
        n = xa.size
        da, db = xa - float(xa.mean()), xb - float(xb.mean())
        var_a, var_b = float(da @ da) / (n - 1), float(db @ db) / (n - 1)
        if var_a <= 0.0 or var_b <= 0.0:
            with pytest.raises(DegenerateWindowError):
                empirical_correlation(xa, xb)
            return
        cov = float(da @ db) / (n - 1)
        assert empirical_correlation(xa, xb) == EmpiricalStats(
            float(xa.mean()), float(xb.mean()), var_a, var_b, cov,
            cov / math.sqrt(var_a * var_b))

    def test_tiny_constant_window_is_refused(self):
        with pytest.raises(DegenerateWindowError):
            empirical_correlation([1, 2, 3], [3e-300] * 3)

    @pytest.mark.parametrize("a, b", [([1, 2, math.nan], [1, 2, 3]),
                                      ([1, 2, 3], [1, math.inf, 3])])
    def test_non_finite_window(self, a, b):
        with pytest.raises(DegenerateWindowError):
            empirical_correlation(a, b)

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=2,
                    max_size=40),
           st.lists(st.floats(min_value=-100, max_value=100), min_size=2,
                    max_size=40))
    def test_symmetry_exact(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        if np.var(a) < 1e-6 or np.var(b) < 1e-6:
            return
        assert (empirical_correlation(a, b).pearson
                == empirical_correlation(b, a).pearson)

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=3,
                    max_size=40),
           st.lists(st.floats(min_value=-100, max_value=100), min_size=3,
                    max_size=40),
           st.floats(min_value=0.01, max_value=100.0),
           st.floats(min_value=-100.0, max_value=100.0))
    def test_scale_invariance(self, a, b, alpha, c):
        n = min(len(a), len(b))
        a, b = np.array(a[:n]), np.array(b[:n])
        if np.var(a) < 1e-3 or np.var(b) < 1e-3:
            return
        base = empirical_correlation(a, b).pearson
        scaled = empirical_correlation(a, alpha * b + c).pearson
        assert scaled == approx(base, abs=1e-9)
        assert abs(base) <= 1.0 + 1e-12


class TestKernel:
    def test_unity_at_zero(self):
        assert kernel(0.0, CorrelationParams(50, 1, 0.5)) == 1.0
        assert kernel(0.0, CorrelationParams(3, 0.5, 0.5)) == 1.0

    def test_scalar_values(self):
        assert kernel(50.0, CorrelationParams(50, 1, 0.5)) == approx(TAU_E)
        assert kernel(21.2132, CorrelationParams(400, 1, 0.5)) == approx(
            0.9483487164582735, abs=1e-12)

    def test_vectorized(self):
        p = CorrelationParams(50, 1, 0.5)
        out = kernel(np.array([0.0, 50.0]), p)
        assert out == approx([1.0, TAU_E])

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError):
            kernel(-1.0, CorrelationParams(50, 1, 0.5))
        with pytest.raises(ValueError):
            kernel(math.nan, CorrelationParams(50, 1, 0.5))

    def test_infinite_distance_is_uncorrelated(self):
        assert kernel(math.inf, CorrelationParams(50, 1, 0.5)) == 0.0

    @given(params_st(),
           st.floats(min_value=0.0, max_value=100.0),
           st.floats(min_value=0.5, max_value=50.0))
    def test_strictly_decreasing(self, p, d1, gap):
        d2 = d1 + gap
        if (d2 / p.theta1) ** p.theta2 > 700.0:
            return
        assert kernel(d1, p) > kernel(d2, p)

    @given(params_st(), st.floats(min_value=0.0, max_value=1e4))
    def test_range(self, p, d):
        v = kernel(d, p)
        assert 0.0 <= v <= 1.0


class TestThresholding:
    def test_zero_distance_always_strong(self):
        assert is_strongly_correlated(0.0, CorrelationParams(50, 1, 0.9))

    def test_boundary_is_inclusive(self):
        p = CorrelationParams(50, 1, TAU_E)
        assert is_strongly_correlated(50.0, p)

    def test_just_past_boundary(self):
        p = CorrelationParams(50, 1, TAU_E)
        assert not is_strongly_correlated(50.001, p)


class TestMaxClusterRadius:
    def test_log_unity_case(self):
        assert max_cluster_radius(CorrelationParams(50, 1, TAU_E)) == approx(50.0)

    def test_tau_near_one_shrinks_to_zero(self):
        assert max_cluster_radius(CorrelationParams(50, 1, 1 - 1e-12)) < 1e-9

    def test_smoothness_two_case(self):
        # 100 * sqrt(ln 1.25)
        r = max_cluster_radius(CorrelationParams(100, 2, 0.8))
        assert r == approx(47.23807270774388, abs=1e-9)

    def test_radius_beyond_float_range_is_infinite(self):
        p = CorrelationParams(50, 0.001, 1e-300)  # ln(1e300) ** 1000
        assert max_cluster_radius(p) == math.inf
        assert cluster_count_bound(100.0, p) == 1

    @given(params_st())
    @settings(max_examples=300)
    def test_kernel_at_radius_equals_tau(self, p):
        r = max_cluster_radius(p)
        assert kernel(r, p) == approx(p.tau, rel=1e-9)


class TestClusterCountBound:
    def test_field_exactly_two_radii(self):
        p = CorrelationParams(50, 1, TAU_E)  # r = 50
        assert cluster_count_bound(100.0, p) == 5

    def test_small_field_single_cluster(self):
        p = CorrelationParams(50, 1, TAU_E)
        assert cluster_count_bound(99.9, p) == 1

    def test_rejects_radius_that_underflows(self):
        p = CorrelationParams(50, 0.01, 0.999999)  # r = 50 * 1e-600 = 0.0
        assert max_cluster_radius(p) == 0.0
        with pytest.raises(ValueError):
            cluster_count_bound(100.0, p)

    def test_rejects_nonpositive_field(self):
        for side in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                cluster_count_bound(side, CorrelationParams(50, 1, 0.5))

    @given(st.floats(min_value=1.0, max_value=200.0),
           st.floats(min_value=0.25, max_value=2.0),
           st.floats(min_value=0.01, max_value=0.98),
           st.floats(min_value=0.001, max_value=0.98),
           st.floats(min_value=10.0, max_value=1000.0))
    def test_monotone_in_tau(self, theta1, theta2, tau, dtau, side):
        tau2 = min(tau + dtau, 0.99)
        lo = cluster_count_bound(side, CorrelationParams(theta1, theta2, tau))
        hi = cluster_count_bound(side, CorrelationParams(theta1, theta2, tau2))
        assert hi >= lo

    @given(st.floats(min_value=1.0, max_value=200.0),
           st.floats(min_value=1.0, max_value=200.0),
           st.floats(min_value=0.25, max_value=2.0),
           st.floats(min_value=0.01, max_value=0.99),
           st.floats(min_value=10.0, max_value=1000.0))
    def test_nonincreasing_in_theta1(self, t1a, extra, theta2, tau, side):
        t1b = t1a + extra
        lo = cluster_count_bound(side, CorrelationParams(t1b, theta2, tau))
        hi = cluster_count_bound(side, CorrelationParams(t1a, theta2, tau))
        assert lo <= hi
