"""Closed-form SIR statistics: Beta-prime laws, correlation approximations,
outage envelopes, and asymptotes, checked against independent oracles."""

import itertools
import math
from dataclasses import fields

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from fama_lab.analytic_stats import (
    BetaPrimeParams,
    OutageEnvelope,
    asymptote_large_m,
    asymptote_small_gamma,
    asymptote_tail,
    betaprime_cdf,
    betaprime_params,
    betaprime_pdf,
    betaprime_sf,
    diversity_orders,
    ln_betaprime_cdf,
    m_eff,
    outage_envelope,
    outage_envelopes,
    rho_u_approx,
    rho_x_approx,
)
from fama_lab.acceptance import _incomplete_beta_quadrature
from fama_lab.mc_engine import DEFAULT_GAMMA_GRID


def _binomial_tail_cdf(gamma, a, b):
    """Independent oracle: I_{g/(1+g)}(a,b) as an exact binomial tail sum."""
    y = gamma / (1.0 + gamma)
    n = a + b - 1
    return sum(math.comb(n, j) * y**j * (1 - y) ** (n - j) for j in range(a, n + 1))


class TestMeff:
    def test_values(self):
        assert m_eff("MRT", 8, 4) == 8
        assert m_eff("ZF", 8, 4) == 5
        assert m_eff("ZF", 4, 4) == 1

    def test_zf_dimension_error(self):
        with pytest.raises(ValueError):
            m_eff("ZF", 3, 4)

    def test_params(self):
        assert betaprime_params("MRT", 8, 4) == BetaPrimeParams(8, 3)
        assert betaprime_params("ZF", 8, 4) == BetaPrimeParams(5, 3)


class TestPdf:
    def test_uniform_ratio_case(self):
        assert betaprime_pdf(1.0, BetaPrimeParams(1, 1)) == pytest.approx(0.25)

    def test_direct_substitution(self):
        # (1; 2,1): 1 * 2^-3 / B(2,1) with B(2,1) = 1/2
        assert betaprime_pdf(1.0, BetaPrimeParams(2, 1)) == pytest.approx(0.25)

    def test_normalization_by_quadrature(self):
        for a, b in ((1, 1), (8, 3), (5, 3)):
            val, err = integrate.quad(
                lambda x: betaprime_pdf(x, BetaPrimeParams(a, b)),
                0.0, np.inf, limit=200,
            )
            assert val == pytest.approx(1.0, abs=1e-8)

    def test_cdf_is_pdf_integral(self):
        params = BetaPrimeParams(5, 3)
        val, _ = integrate.quad(lambda x: betaprime_pdf(x, params), 0.0, 2.0)
        assert betaprime_cdf(2.0, params) == pytest.approx(val, abs=1e-10)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            betaprime_pdf(-0.5, BetaPrimeParams(2, 2))


class TestCdf:
    def test_uniform_ratio(self):
        assert betaprime_cdf(1.0, BetaPrimeParams(1, 1)) == pytest.approx(0.5)

    def test_spot_values(self):
        assert betaprime_cdf(1.0, BetaPrimeParams(8, 3)) == pytest.approx(
            0.0546875, abs=1e-12
        )
        assert betaprime_cdf(1.0, BetaPrimeParams(5, 3)) == pytest.approx(
            29.0 / 128.0, abs=1e-12
        )

    def test_binomial_tail_oracle(self):
        for a, b in ((2, 1), (8, 3), (5, 3), (16, 8)):
            for g in (0.1, 1.0, 7.3):
                assert betaprime_cdf(g, BetaPrimeParams(a, b)) == pytest.approx(
                    _binomial_tail_cdf(g, a, b), abs=1e-12
                )

    def test_finite_sum_examples(self):
        assert betaprime_cdf(1.0, BetaPrimeParams(2, 1)) == pytest.approx(
            0.25, abs=1e-12
        )
        assert betaprime_cdf(1.0, BetaPrimeParams(8, 3)) == pytest.approx(
            0.0546875, abs=1e-12
        )
        assert betaprime_cdf(0.0, BetaPrimeParams(4, 2)) == 0.0

    def test_cross_form_identity_grid(self):
        # The finite sum against the incomplete-beta integral by quadrature
        # (criterion 1's reference), one threshold at a time.
        grid = np.logspace(-3, 3, 60)
        for a in (1, 3, 8, 16):
            for b in (1, 3, 8):
                params = BetaPrimeParams(a, b)
                ref = _incomplete_beta_quadrature(grid / (1.0 + grid), a, b)
                for g, r in zip(grid.tolist(), ref.tolist()):
                    assert abs(betaprime_cdf(g, params) - r) <= 1e-10

    def test_sf_complement(self):
        params = BetaPrimeParams(8, 3)
        for g in (0.01, 1.0, 50.0):
            assert betaprime_sf(g, params) + betaprime_cdf(g, params) == (
                pytest.approx(1.0, abs=1e-12)
            )

    def test_log_cdf_deep_tail(self):
        # F(0.0025; 8,3) ~ 45 * 0.0025^8; far beyond naive quadrature reach.
        ln_f = ln_betaprime_cdf(0.0025, BetaPrimeParams(8, 3))
        approx = math.log(45.0) + 8.0 * math.log(0.0025)
        assert ln_f == pytest.approx(approx, abs=0.05)
        assert math.exp(ln_f) < 1e-19

    def test_monotone(self):
        params = BetaPrimeParams(5, 3)
        vals = [betaprime_cdf(g, params) for g in np.logspace(-2, 2, 50)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestCorrelationApprox:
    def test_full_overlap(self):
        assert rho_u_approx(1.0, 1.0, 8, 3) == pytest.approx(8.0 / 11.0, abs=1e-12)

    def test_zero_overlap(self):
        assert rho_u_approx(0.0, 0.5, 8, 3) == 0.0
        assert rho_x_approx(0.0, 0.5, 8, 3) == 0.0

    def test_partial_overlap(self):
        assert rho_u_approx(0.98745, 0.98745, 8, 3) == pytest.approx(0.69144, abs=1e-5)
        assert rho_x_approx(0.98745, 0.98745, 8, 3) == pytest.approx(0.17286, abs=1e-5)

    def test_sir_attenuation(self):
        assert rho_x_approx(1.0, 1.0, 8, 3) == pytest.approx(
            8.0 / 11.0 * 3.0 / 12.0, abs=1e-12
        )

    def test_attenuation_is_strict(self):
        for mu in (0.1, 0.5, 0.9, 1.0):
            u = rho_u_approx(mu, mu, 8, 3)
            x = rho_x_approx(mu, mu, 8, 3)
            assert x < u or u == 0.0


class TestOutageEnvelope:
    def test_arithmetic_example(self):
        # F = 0.1 at gamma chosen accordingly; exercise with params (1,1)
        # where F(1/9...) — simpler to pick gamma giving F = 0.1: for (1,1),
        # F(g) = g/(1+g) = 0.1 at g = 1/9.
        env = outage_envelope(1.0 / 9.0, BetaPrimeParams(1, 1), 8)
        assert env.upper == pytest.approx(0.1, abs=1e-12)
        assert env.lower == 0.0
        assert env.iid_benchmark == pytest.approx(1e-8, rel=1e-9)
        assert env.large_n_approx == pytest.approx(math.exp(-7.2), rel=1e-12)

    def test_degenerate_single_port(self):
        env = outage_envelope(0.7, BetaPrimeParams(8, 3), 1)
        f = betaprime_cdf(0.7, BetaPrimeParams(8, 3))
        assert env.lower == pytest.approx(f, abs=1e-12)
        assert env.upper == pytest.approx(f, abs=1e-12)
        assert env.iid_benchmark == pytest.approx(f, abs=1e-12)

    def test_high_f_lower_bound(self):
        # F = 0.999 at (1,1) means g = 999.
        env = outage_envelope(999.0, BetaPrimeParams(1, 1), 8)
        assert env.lower == pytest.approx(0.992, abs=1e-12)
        assert abs(env.large_n_approx - env.iid_benchmark) < 1e-4

    def test_ordering_over_grid(self):
        for params in (BetaPrimeParams(8, 3), BetaPrimeParams(5, 3),
                       BetaPrimeParams(1, 1)):
            for n in (1, 2, 8, 64):
                for g in np.logspace(-3, 3, 40):
                    env = outage_envelope(float(g), params, n)
                    assert 0.0 <= env.lower <= env.iid_benchmark + 1e-15
                    assert env.iid_benchmark <= env.upper + 1e-15
                    assert env.upper <= 1.0

    def test_single_port_bounds_collapse_exactly(self):
        # At N = 1 every bound is F.  Separate CDF and SF evaluations put
        # lower 1.55e-15 above iid_benchmark and upper at the first point;
        # at the second, F is about 1e-22 and 1 - SF reads 0.
        for gamma, params in ((1052589.0, BetaPrimeParams(28, 1)),
                              (1e-3, BetaPrimeParams(8, 3))):
            env = outage_envelope(gamma, params, 1)
            assert env.lower == env.iid_benchmark == env.upper
        assert env.lower > 0.0

    def test_grid_equals_scalar_bit_for_bit(self):
        # One call over the grid reproduces, bit for bit, the per-threshold
        # envelope built from betaprime_cdf and betaprime_sf (the
        # smaller-tail rule), and the one-point calls; the ordering
        # invariant holds on the arrays.
        def bits(x):
            return np.asarray(x, dtype=float).tobytes()

        grid = DEFAULT_GAMMA_GRID
        for a in (1, 2, 3, 5, 8, 13, 21, 34, 55, 64):
            for b in (1, 2, 3, 7, 15):
                params = BetaPrimeParams(a, b)
                direct = grid / (1.0 + grid) < (a + 1.0) / (a + b + 2.0)
                f = np.array([betaprime_cdf(g, params) if d
                              else 1.0 - betaprime_sf(g, params)
                              for g, d in zip(grid, direct)])
                eps = np.array([1.0 - v if d else betaprime_sf(g, params)
                                for g, v, d in zip(grid, f, direct)])
                for n in (1, 2, 8):
                    env = outage_envelope(grid, params, n)
                    iid = [v**n for v in f.tolist()]
                    lower = [min(max(0.0, v - (n - 1) * e if d else 1.0 - n * e), i)
                             for v, e, d, i in zip(f.tolist(), eps.tolist(),
                                                   direct, iid)]
                    assert bits(env.gamma) == bits(grid)
                    assert bits(env.single_port) == bits(f)
                    assert bits(env.upper) == bits(f)
                    assert bits(env.lower) == bits(lower)
                    assert bits(env.iid_benchmark) == bits(iid)
                    assert bits(env.large_n_approx) == bits(
                        [math.exp(-n * e) for e in eps.tolist()])
                    assert np.all(0.0 <= env.lower)
                    assert np.all(env.lower <= env.iid_benchmark)
                    assert np.all(env.iid_benchmark <= env.upper)
                    assert np.all(env.upper <= 1.0)
                    for k in range(0, len(grid), 37):
                        one = outage_envelope(float(grid[k]), params, n)
                        assert bits([one.lower, one.iid_benchmark, one.upper,
                                     one.large_n_approx]) == bits(
                            [env.lower[k], env.iid_benchmark[k], env.upper[k],
                             env.large_n_approx[k]])

    def test_large_n_exponential_regime_bound(self):
        # |exp(-N eps) - (1-eps)^N| <= N eps^2 / 2 on the envelope's own
        # curves, eps = 1 - F; 1e-12 absorbs the rounding of the two.
        for params in (BetaPrimeParams(8, 3), BetaPrimeParams(5, 3),
                       BetaPrimeParams(1, 1), BetaPrimeParams(64, 15)):
            for n, env in zip((1, 2, 8, 64), outage_envelopes(
                    DEFAULT_GAMMA_GRID, params, (1, 2, 8, 64))):
                eps = 1.0 - env.single_port
                diff = np.abs(env.large_n_approx - env.iid_benchmark)
                assert np.all(diff <= n * eps * eps / 2.0 + 1e-12)


class TestAsymptotes:
    def test_small_gamma_mrt_prefactor(self):
        # Gamma(11)/(Gamma(3) Gamma(9)) = 45
        assert asymptote_small_gamma(0.1, "MRT", 8, 4) == pytest.approx(
            45e-8, rel=1e-10
        )

    def test_small_gamma_zf_prefactor(self):
        # Gamma(8)/(Gamma(3) Gamma(6)) = 21
        assert asymptote_small_gamma(0.1, "ZF", 8, 4) == pytest.approx(
            2.1e-4, rel=1e-10
        )

    def test_small_gamma_meff_one_slope(self):
        # F(g; 1, L) = 1 - (1+g)^-L ~ L g
        val = asymptote_small_gamma(1e-6, "ZF", 4, 4)
        assert val == pytest.approx(3e-6, rel=1e-9)

    def test_large_m_value_and_ratio(self):
        # T = C(10, 8) 0.1^8 1.1^-10: the small-gamma law times (1+g)^-(a+b-1)
        T = asymptote_large_m(0.1, "MRT", 8, 4)
        assert T == pytest.approx(45e-8 / 1.1**10, rel=1e-10)
        ratio = T / asymptote_small_gamma(0.1, "MRT", 8, 4)
        assert ratio == pytest.approx(1.1**-10, rel=1e-10)

    def test_large_m_prefactor_unity_when_single_interferer(self):
        # L = 1: C(a, a) = 1 and T = (g / (1+g))^a, which is F exactly
        assert asymptote_large_m(0.5, "MRT", 6, 2) == pytest.approx(
            (0.5 / 1.5) ** 6, rel=1e-10
        )

    def test_large_m_bracket_against_mpmath(self):
        # T <= F <= T / (1 - q), q = (b-1) gamma / (a+1) < 1, with F the
        # exact binomial tail in 50-digit arithmetic; 1e-12 relative slack
        # absorbs T's rounding (at b = 1, T = F).
        points = itertools.product(("MRT", "ZF"), (8, 64, 256), (2, 4, 8),
                                   (0.1, 0.5, 0.9))
        with mp.workdps(50):
            for point in points:
                scheme, M, U, gamma = point
                a, b = m_eff(scheme, M, U), U - 1
                n, g = a + b - 1, mp.mpf(gamma)
                F = mp.fsum(mp.binomial(n, j) * g**j
                            for j in range(a, n + 1)) / (1 + g) ** n
                T = asymptote_large_m(gamma, scheme, M, U)
                assert T <= F * (1 + 1e-12), point
                q = (b - 1) * gamma / (a + 1)
                if q < 1.0:
                    assert F * (1 - q) <= T * (1 + 1e-12), point

    def test_large_m_domain(self):
        with pytest.raises(ValueError):
            asymptote_large_m(1.0, "MRT", 8, 4)

    def test_tail_values(self):
        assert asymptote_tail(100.0, BetaPrimeParams(8, 3)) == pytest.approx(
            1.2e-4, rel=1e-10
        )
        assert asymptote_tail(1000.0, BetaPrimeParams(5, 3)) == pytest.approx(
            35e-9, rel=1e-10
        )

    def test_tail_uniform_case(self):
        # (1,1): asymptote 1/g vs exact 1/(1+g); ratio -> 1
        params = BetaPrimeParams(1, 1)
        for g in (10.0, 100.0, 1000.0):
            exact = betaprime_sf(g, params)
            assert asymptote_tail(g, params) / exact == pytest.approx(
                (1.0 + g) / g, rel=1e-10
            )

    def test_tail_convergence_rates(self):
        for a, b in ((8, 3), (5, 3)):
            params = BetaPrimeParams(a, b)
            prod100 = betaprime_sf(100.0, params) / asymptote_tail(100.0, params)
            prod1000 = betaprime_sf(1000.0, params) / asymptote_tail(1000.0, params)
            assert abs(prod100 - 1.0) <= 0.10
            assert abs(prod1000 - 1.0) <= 0.03
            assert abs(prod1000 - 1.0) < abs(prod100 - 1.0)

    def test_small_gamma_convergence_monotone(self):
        for scheme, params in (("MRT", BetaPrimeParams(8, 3)),
                               ("ZF", BetaPrimeParams(5, 3))):
            ratios = []
            for g in (0.02, 0.01, 0.005, 0.0025):
                ln_f = ln_betaprime_cdf(g, params)
                ratios.append(math.exp(
                    ln_f - math.log(asymptote_small_gamma(g, scheme, 8, 4))
                ))
            assert all(r2 > r1 for r1, r2 in zip(ratios, ratios[1:]))
            assert 0.95 <= ratios[-1] <= 1.0


class TestDiversityOrders:
    def test_values(self):
        assert diversity_orders("MRT", 4, 4, 8) == 32
        assert diversity_orders("ZF", 4, 4, 8) == 8

    def test_single_user_equal(self):
        assert diversity_orders("MRT", 6, 1, 4) == diversity_orders("ZF", 6, 1, 4)


# Property tests over random integer shapes and positive thresholds.  Few
# examples keep them quick; a fixed seed keeps them reproducible.
_shapes = st.integers(min_value=1, max_value=64)
_thresholds = st.floats(min_value=0.0, max_value=1e8, exclude_min=True,
                        allow_subnormal=False)
_properties = settings(max_examples=150, deadline=None, derandomize=True,
                       database=None)


class TestProperties:
    @_properties
    @given(a=_shapes, b=_shapes, gamma=_thresholds)
    def test_cdf_and_sf_add_to_one(self, a, b, gamma):
        params = BetaPrimeParams(a, b)
        total = betaprime_cdf(gamma, params) + betaprime_sf(gamma, params)
        assert total == pytest.approx(1.0, abs=1e-12)

    @_properties
    @given(a=_shapes, b=_shapes, gamma=_thresholds)
    def test_finite_sum_matches_incomplete_beta(self, a, b, gamma):
        # Against the incomplete-beta integral by quadrature.
        y = np.array([gamma / (1.0 + gamma)])
        assert betaprime_cdf(gamma, BetaPrimeParams(a, b)) == pytest.approx(
            float(_incomplete_beta_quadrature(y, a, b)[0]), abs=1e-10)

    @_properties
    @given(a=_shapes, b=_shapes, gamma=_thresholds,
           n=st.integers(min_value=1, max_value=256))
    def test_envelope_ordering(self, a, b, gamma, n):
        env = outage_envelope(gamma, BetaPrimeParams(a, b), n)
        assert 0.0 <= env.lower <= env.iid_benchmark
        assert env.iid_benchmark <= env.upper <= 1.0

    @_properties
    @given(a=_shapes, b=_shapes,
           grid=st.lists(_thresholds, min_size=1, max_size=20),
           counts=st.lists(st.integers(min_value=1, max_value=256),
                           min_size=1, max_size=4, unique=True))
    def test_envelopes_equal_one_count_calls(self, a, b, grid, counts):
        # One F and SF evaluation per shape pair gives every count's
        # envelope bit for bit, over a grid and at one threshold.
        params = BetaPrimeParams(a, b)
        for gamma in (np.array(grid), grid[0]):
            for N, env in zip(counts, outage_envelopes(gamma, params, counts)):
                one = outage_envelope(gamma, params, N)
                for f in fields(OutageEnvelope):
                    assert np.asarray(getattr(env, f.name)).tobytes() == \
                        np.asarray(getattr(one, f.name)).tobytes()
