"""Scalar special functions used by every analytic curve in the library.

Log-gamma (math.lgamma), the Beta function, the Bessel function J0 by
Bessel's integral, and log-binomial coefficients.  All are scalar
double-precision functions that raise ValueError on domain violations.
The Beta-prime CDF, the regularized incomplete Beta function at integer
shapes, is the paper's finite binomial sum (analytic_stats).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ln_gamma",
    "beta_fn",
    "ln_beta",
    "bessel_j0",
    "BESSEL_J0_MAX_ARG",
    "ln_binomial",
]


def ln_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"ln_gamma requires finite x > 0, got {x}")
    return math.lgamma(x)


def ln_beta(a: float, b: float) -> float:
    """ln B(a,b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a+b)."""
    return ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)


def beta_fn(a: float, b: float) -> float:
    """Beta function B(a,b) for a, b > 0."""
    return math.exp(ln_beta(a, b))


# The largest |x| bessel_j0 accepts; there its rule sums 1e6 samples.
BESSEL_J0_MAX_ARG = 1e6


def bessel_j0(x: float) -> float:
    """Bessel J0 for |x| <= BESSEL_J0_MAX_ARG: the n-point trapezoid rule,
    n = ceil(|x|) + 16, on Bessel's integral J0(x) = (1/pi) int_0^pi
    cos(x sin t) dt.  The integrand is periodic, so the rule's error is
    exactly 2 sum_{m>=1} J_{2mn}(x), which |J_nu(x)| <= (|x|/2)^nu / nu! keeps
    below 1e-17 at this n.  The rounding of x sin t is left: about 1e-13
    near the limit."""
    x = float(x)
    if not math.isfinite(x) or abs(x) > BESSEL_J0_MAX_ARG:
        raise ValueError(f"bessel_j0 requires |x| <= BESSEL_J0_MAX_ARG = "
                         f"{BESSEL_J0_MAX_ARG:g}, got {x}")
    ax = abs(x)
    n = math.ceil(ax) + 16
    return math.fsum(np.cos(ax * np.sin(np.arange(n) * (math.pi / n))).tolist()) / n


_LN_BINOM_DIRECT_LIMIT = 2048


def ln_binomial(n: int, k: int) -> float:
    """ln C(n,k) for integers 0 <= k <= n.

    Small min(k, n-k) is accumulated as an exact sum of logs (fsum); larger
    cases fall back to the log-gamma difference, where the result is big
    enough that the cancellation stays below 1e-12 relative.
    """
    if n != int(n) or k != int(k):
        raise ValueError(f"ln_binomial requires integer n, k, got n={n}, k={k}")
    n, k = int(n), int(k)
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"ln_binomial requires 0 <= k <= n, got n={n}, k={k}")
    m = min(k, n - k)
    if m == 0:
        return 0.0
    if m <= _LN_BINOM_DIRECT_LIMIT:
        return math.fsum(
            math.log(n - m + j) - math.log(j) for j in range(1, m + 1)
        )
    return ln_gamma(n + 1.0) - ln_gamma(k + 1.0) - ln_gamma(n - k + 1.0)
