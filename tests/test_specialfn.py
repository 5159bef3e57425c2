"""Special-function checks against independent high-precision oracles."""

import math

import mpmath as mp
import numpy as np
import pytest

from fama_lab.specialfn import (
    BESSEL_J0_MAX_ARG,
    bessel_j0,
    beta_fn,
    ln_binomial,
    ln_gamma,
    ln_reg_inc_beta_tail,
    reg_inc_beta,
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
    def test_uniform_case(self):
        for y in (0.0, 0.3, 0.5, 0.77, 1.0):
            assert reg_inc_beta(y, 1.0, 1.0) == pytest.approx(y, abs=1e-13)

    def test_symmetric_midpoint(self):
        assert reg_inc_beta(0.5, 2.0, 2.0) == pytest.approx(0.5, abs=1e-13)

    def test_binomial_tail_value(self):
        # I_{1/2}(8,3) = (45 + 10 + 1) / 2^10
        assert reg_inc_beta(0.5, 8.0, 3.0) == pytest.approx(56.0 / 1024.0, rel=1e-12)

    def test_extremes(self):
        assert reg_inc_beta(0.0, 3.0, 4.0) == 0.0
        assert reg_inc_beta(1.0, 3.0, 4.0) == 1.0

    def test_reflection_property(self):
        for a in (1.0, 2.5, 8.0, 16.0):
            for b in (1.0, 3.0, 7.5):
                for y in (1e-6, 0.02, 0.4, 0.5, 0.9, 1 - 1e-6):
                    total = reg_inc_beta(y, a, b) + reg_inc_beta(1.0 - y, b, a)
                    assert total == pytest.approx(1.0, abs=1e-12)

    def test_integer_finite_sum_identity(self):
        for a in (1, 2, 5, 8):
            for b in (1, 3, 8):
                for y in np.linspace(1e-6, 1 - 1e-6, 23):
                    assert reg_inc_beta(float(y), a, b) == pytest.approx(
                        _binomial_tail(float(y), a, b), abs=1e-10
                    )

    def test_monotone_in_y(self):
        ys = np.linspace(0, 1, 101)
        vals = [reg_inc_beta(float(y), 5.0, 3.0) for y in ys]
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))

    def test_against_mpmath(self):
        for a, b in ((1.5, 2.5), (8, 3), (16, 8), (3.3, 0.7)):
            for y in (0.001, 0.2, 0.5, 0.8, 0.999):
                ref = float(mp.betainc(a, b, 0, y, regularized=True))
                got = reg_inc_beta(y, a, b)
                assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)) + 1e-15

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            reg_inc_beta(-0.1, 2.0, 2.0)
        with pytest.raises(ValueError):
            reg_inc_beta(1.1, 2.0, 2.0)
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, -1.0, 2.0)


class TestLnRegIncBetaTail:
    def test_matches_linear_range(self):
        for y in (0.05, 0.3, 0.7):
            ln_val = ln_reg_inc_beta_tail(y, 8.0, 3.0)
            assert math.exp(ln_val) == pytest.approx(
                reg_inc_beta(y, 8.0, 3.0), rel=1e-11
            )

    def test_deep_tail_against_mpmath(self):
        # Values far below double-precision range stay finite in log space.
        for y, a, b in ((1e-4, 16.0, 8.0), (0.0025 / 1.0025, 8.0, 3.0),
                        (1e-40, 8.0, 3.0)):
            ref = float(mp.log(mp.betainc(a, b, 0, y, regularized=True)))
            assert ln_reg_inc_beta_tail(y, a, b) == pytest.approx(ref, abs=1e-9)

    def test_boundaries(self):
        assert ln_reg_inc_beta_tail(0.0, 2.0, 3.0) == -math.inf
        assert ln_reg_inc_beta_tail(1.0, 2.0, 3.0) == 0.0


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
