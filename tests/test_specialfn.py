"""Special-function checks against independent high-precision oracles."""

import math
import sys

import mpmath as mp
import numpy as np
import pytest

from fama_lab.analytic_stats import (
    BetaPrimeParams,
    betaprime_cdf,
    betaprime_sf,
    ln_betaprime_cdf,
)
from fama_lab.mc_engine import DEFAULT_GAMMA_GRID
from fama_lab.specialfn import (
    BESSEL_J0_MAX_ARG,
    bessel_j0,
    beta_fn,
    ln_binomial,
    ln_gamma,
)

mp.mp.dps = 50


def _mp_j0_series(x, terms=60):
    """60-term Maclaurin series for J0, evaluated in 50-digit arithmetic."""
    x = mp.mpf(x)
    acc = mp.mpf(0)
    for k in range(terms):
        acc += (-x * x / 4) ** k / (mp.factorial(k) ** 2)
    return acc


def _binomial_tail(y, a, b):
    """Finite-sum identity for integer shapes: I_y(a,b) as a binomial tail."""
    n = a + b - 1
    return sum(
        math.comb(n, j) * y**j * (1.0 - y) ** (n - j) for j in range(a, n + 1)
    )


class TestLnGamma:
    def test_gamma_of_one(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_factorial_identity(self):
        assert ln_gamma(5.0) == pytest.approx(math.log(24.0), abs=1e-12)

    def test_half(self):
        assert ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-12)

    def test_against_mpmath_grid(self):
        for x in np.concatenate([np.linspace(0.5, 8, 40), np.linspace(8, 200, 80)]):
            ref = float(mp.loggamma(mp.mpf(float(x))))
            assert abs(ln_gamma(float(x)) - ref) <= 1e-12, x

    def test_recurrence(self):
        for x in np.linspace(0.5, 100, 120):
            x = float(x)
            assert ln_gamma(x + 1.0) == pytest.approx(
                ln_gamma(x) + math.log(x), abs=1e-11
            )

    def test_domain_errors(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                ln_gamma(bad)


class TestBetaFn:
    def test_ones(self):
        assert beta_fn(1.0, 1.0) == pytest.approx(1.0, rel=1e-13)

    def test_two_two(self):
        assert beta_fn(2.0, 2.0) == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_eight_three(self):
        # Gamma(8) Gamma(3) / Gamma(11) = 5040 * 2 / 3628800
        assert beta_fn(8.0, 3.0) == pytest.approx(1.0 / 360.0, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            beta_fn(0.0, 1.0)


class TestRegIncBeta:
    """The regularized incomplete Beta function I_y(a, b) at integer shapes,
    which the lab evaluates as the Beta-prime CDF at gamma = y / (1 - y):
    the paper's finite sum, with its SF and log-CDF."""

    @staticmethod
    def _against_mpmath(a, b, gammas):
        # The largest relative error of F against I_y(a, b) and of SF
        # against I_{1-y}(b, a), y = gamma / (1 + gamma) from the float
        # gamma, wherever the reference is a normal double.
        params = BetaPrimeParams(a, b)
        f, sf = betaprime_cdf(gammas, params), betaprime_sf(gammas, params)
        worst = 0.0
        for g, got_f, got_sf in zip(gammas.tolist(), f.tolist(), sf.tolist()):
            g = mp.mpf(g)
            for got, ref in ((got_f, mp.betainc(a, b, 0, g / (1 + g),
                                                regularized=True)),
                             (got_sf, mp.betainc(b, a, 0, 1 / (1 + g),
                                                 regularized=True))):
                if ref >= sys.float_info.min:
                    worst = max(worst, float(abs(got - ref) / ref))
        return worst

    def test_uniform_case(self):
        for y in (0.0, 0.3, 0.5, 0.77, 1.0):
            gamma = math.inf if y == 1.0 else y / (1.0 - y)
            assert betaprime_cdf(gamma, BetaPrimeParams(1, 1)) == pytest.approx(
                y, abs=1e-13)

    def test_symmetric_midpoint(self):
        assert betaprime_cdf(1.0, BetaPrimeParams(2, 2)) == pytest.approx(
            0.5, abs=1e-13)

    def test_binomial_tail_value(self):
        # I_{1/2}(8,3) = (45 + 10 + 1) / 2^10
        assert betaprime_cdf(1.0, BetaPrimeParams(8, 3)) == pytest.approx(
            56.0 / 1024.0, rel=1e-12)

    def test_extremes(self):
        params = BetaPrimeParams(3, 4)
        assert betaprime_cdf(0.0, params) == 0.0
        assert betaprime_cdf(math.inf, params) == 1.0
        assert betaprime_sf(0.0, params) == 1.0
        assert betaprime_sf(math.inf, params) == 0.0
        # The edges of an array are the edges of the one-point calls.
        grid = np.array([[0.0, 1.0], [math.inf, 2.0]])
        for fn in (betaprime_cdf, betaprime_sf, ln_betaprime_cdf):
            got = fn(grid, params)
            assert got.shape == grid.shape
            assert got.tolist() == [[fn(g, params) for g in row]
                                    for row in grid.tolist()]

    def test_reflection_property(self):
        # 1/X is Beta-prime(b, a): I_y(a, b) = 1 - I_{1-y}(b, a), read as
        # F(gamma; a, b) = SF(1/gamma; b, a).  The switch puts the two
        # sides on different tails at most thresholds.
        for a in (1, 2, 8, 16):
            for b in (1, 3, 8):
                for g in (1e-6, 0.02, 0.4, 1.0, 9.0, 1e6):
                    assert betaprime_cdf(g, BetaPrimeParams(a, b)) == pytest.approx(
                        betaprime_sf(1.0 / g, BetaPrimeParams(b, a)), abs=1e-12)

    def test_integer_finite_sum_identity(self):
        for a in (1, 2, 5, 8):
            for b in (1, 3, 8):
                for y in np.linspace(1e-6, 1 - 1e-6, 23):
                    gamma = float(y) / (1.0 - float(y))
                    assert betaprime_cdf(gamma, BetaPrimeParams(a, b)) == \
                        pytest.approx(_binomial_tail(gamma / (1.0 + gamma), a, b),
                                      abs=1e-12)

    def test_monotone_in_y(self):
        vals = betaprime_cdf(np.logspace(-4, 4, 401), BetaPrimeParams(5, 3))
        assert np.all(np.diff(vals) >= 0.0)

    def test_against_mpmath(self):
        # Relative error <= 1e-11 over the shape box a <= 16, b <= 8 on the
        # simulator's grid.
        with mp.workdps(30):
            worst = max(self._against_mpmath(a, b, DEFAULT_GAMMA_GRID)
                        for a in range(1, 17) for b in range(1, 9))
        assert worst <= 1e-11

    @pytest.mark.parametrize("a, b", [(512, 8), (1024, 3), (64, 63), (5, 255),
                                      (4096, 8)])
    def test_against_mpmath_large_shapes(self, a, b):
        # The same 1e-11 on every tenth threshold of the grid.
        assert self._against_mpmath(a, b, DEFAULT_GAMMA_GRID[::10]) <= 1e-11

    def test_domain_errors(self):
        params = BetaPrimeParams(2, 2)
        for fn in (betaprime_cdf, betaprime_sf, ln_betaprime_cdf):
            for bad in (-0.1, math.nan, -math.inf, np.array([1.0, -1.0])):
                with pytest.raises(ValueError, match="threshold"):
                    fn(bad, params)
        for shapes in ((2.5, 3), (0, 2), (2, -1)):
            with pytest.raises(ValueError, match="shape parameters"):
                BetaPrimeParams(*shapes)


class TestLnRegIncBetaTail:
    """ln I_y(a, b) at integer shapes: ln_betaprime_cdf."""

    def test_matches_linear_range(self):
        params = BetaPrimeParams(8, 3)
        for g in (0.05, 0.3, 0.7, 2.3, 40.0):
            assert math.exp(ln_betaprime_cdf(g, params)) == pytest.approx(
                betaprime_cdf(g, params), rel=1e-13)

    def test_deep_tail_against_mpmath(self):
        # Values far below double-precision range stay finite in log space;
        # y = 1e-40 puts F(8, 3) near 1e-318 and F(16, 8) near 1e-633.
        for y, a, b in ((1e-4, 16, 8), (0.0025 / 1.0025, 8, 3),
                        (1e-40, 8, 3), (1e-40, 16, 8)):
            gamma = y / (1.0 - y)
            g = mp.mpf(gamma)
            ref = float(mp.log(mp.betainc(a, b, 0, g / (1 + g), regularized=True)))
            assert ln_betaprime_cdf(gamma, BetaPrimeParams(a, b)) == pytest.approx(
                ref, rel=1e-13)

    def test_boundaries(self):
        assert ln_betaprime_cdf(0.0, BetaPrimeParams(2, 3)) == -math.inf
        assert ln_betaprime_cdf(math.inf, BetaPrimeParams(2, 3)) == 0.0


class TestBesselJ0:
    def test_zero(self):
        assert bessel_j0(0.0) == 1.0

    def test_pi(self):
        assert bessel_j0(math.pi) == pytest.approx(-0.3042421776, abs=1e-9)

    def test_first_root(self):
        assert abs(bessel_j0(2.404826)) < 1e-6

    def test_even_symmetry(self):
        for x in (0.5, 3.3, 12.0, 41.0):
            assert bessel_j0(-x) == bessel_j0(x)

    def test_series_oracle_up_to_ten(self):
        for x in np.linspace(0.0, 10.0, 101):
            ref = float(_mp_j0_series(float(x)))
            assert abs(bessel_j0(float(x)) - ref) <= 1e-12, x

    def test_mpmath_up_to_sixty(self):
        for x in np.linspace(0.0, 60.0, 241):
            ref = float(mp.besselj(0, mp.mpf(float(x))))
            assert abs(bessel_j0(float(x)) - ref) <= 1e-10, x

    def test_domain(self):
        beyond = float(np.nextafter(BESSEL_J0_MAX_ARG, math.inf))
        for bad in (math.inf, -math.inf, math.nan, beyond, -beyond, 1e300):
            with pytest.raises(ValueError, match="BESSEL_J0_MAX_ARG"):
                bessel_j0(bad)

    def test_mpmath_up_to_domain_limit(self):
        # 1e-12 absolute at 240 points from 0 to the limit itself: the
        # rule's rounding error grows like sqrt(x) 1e-16.
        xs = np.concatenate([np.linspace(0.0, 10.0, 41),
                             np.geomspace(10.0, BESSEL_J0_MAX_ARG, 199)])
        for x in xs:
            ref = float(mp.besselj(0, mp.mpf(float(x))))
            assert abs(bessel_j0(float(x)) - ref) <= 1e-12, x


class TestLnBinomial:
    def test_examples(self):
        assert ln_binomial(10, 8) == pytest.approx(math.log(45.0), rel=1e-12)
        assert ln_binomial(7, 3) == pytest.approx(math.log(35.0), rel=1e-12)
        assert ln_binomial(123, 0) == 0.0
        assert ln_binomial(123, 123) == 0.0

    def test_large_n_relative_accuracy(self):
        for n, k in ((10**6, 1), (10**6, 500), (10**6, 5000), (10**6, 500000),
                     (10**5, 99999)):
            ref = float(mp.log(mp.binomial(n, k)))
            assert abs(ln_binomial(n, k) - ref) <= 1e-12 * abs(ref), (n, k)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ln_binomial(5, 6)
        with pytest.raises(ValueError):
            ln_binomial(5, -1)
        with pytest.raises(ValueError):
            ln_binomial(-3, 0)
