"""Scalar special functions used by every analytic curve in the library.

Log-gamma (math.lgamma), the Beta function, the regularized incomplete
Beta function I_y(a,b) by continued fraction (with a log-space companion
for deep tails), the Bessel function J0 by Bessel's integral, and
log-binomial coefficients.  All are scalar double-precision functions that
raise ValueError on domain violations.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ln_gamma",
    "beta_fn",
    "ln_beta",
    "reg_inc_beta",
    "ln_reg_inc_beta_tail",
    "bessel_j0",
    "BESSEL_J0_MAX_ARG",
    "ln_binomial",
]


_FPMIN = 1e-300
_CF_EPS = 1e-16
_CF_MAX_ITER = 500


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


def _betacf(a: float, b: float, y: float) -> float:
    """Continued fraction for the incomplete Beta function (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * y / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * y / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * y / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction failed to converge (a={a}, b={b}, y={y})"
    )


def _check_inc_beta_args(y: float, a: float, b: float) -> tuple[float, float, float]:
    y, a, b = float(y), float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)) or a <= 0.0 or b <= 0.0:
        raise ValueError(f"incomplete beta requires a, b > 0, got a={a}, b={b}")
    if not math.isfinite(y) or y < 0.0 or y > 1.0:
        raise ValueError(f"incomplete beta requires y in [0, 1], got {y}")
    return y, a, b


def reg_inc_beta(y: float, a: float, b: float) -> float:
    """Regularized incomplete Beta function I_y(a,b).

    Continued-fraction evaluation with the symmetry switch at
    y = (a+1)/(a+b+2), which keeps the fraction uniformly convergent.
    """
    y, a, b = _check_inc_beta_args(y, a, b)
    return _reg_inc_beta(y, a, b, ln_beta(a, b))


def _reg_inc_beta(y: float, a: float, b: float, ln_b: float) -> float:
    """reg_inc_beta for checked float arguments, given ln_b = ln B(a, b).

    ln B is symmetric, so one value serves I_y(a, b) and I_{1-y}(b, a).
    """
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 1.0
    ln_front = a * math.log(y) + b * math.log1p(-y) - ln_b
    if y < (a + 1.0) / (a + b + 2.0):
        return math.exp(ln_front) * _betacf(a, b, y) / a
    return 1.0 - math.exp(ln_front) * _betacf(b, a, 1.0 - y) / b


def _log1mexp(ln_p: float) -> float:
    """log(1 - exp(ln_p)) for ln_p <= 0, stable near both ends."""
    if ln_p > -1e-17:
        # 1 - exp(ln_p) ~ -ln_p; below double resolution return -inf
        return math.log(-ln_p) if ln_p < 0.0 else -math.inf
    if ln_p > -0.6931471805599453:  # ln 2
        return math.log(-math.expm1(ln_p))
    return math.log1p(-math.exp(ln_p))


def ln_reg_inc_beta_tail(y: float, a: float, b: float) -> float:
    """ln I_y(a,b), usable far below the double-precision underflow limit.

    The lower tail (y below the symmetry switch) is assembled entirely in
    log space, so values like 1e-320 and smaller are representable.  On the
    upper side the complement is evaluated first and folded back through
    log1p.
    """
    y, a, b = _check_inc_beta_args(y, a, b)
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return 0.0
    if y < (a + 1.0) / (a + b + 2.0):
        ln_front = a * math.log(y) + b * math.log1p(-y) - ln_beta(a, b)
        return ln_front + math.log(_betacf(a, b, y)) - math.log(a)
    ln_front = b * math.log1p(-y) + a * math.log(y) - ln_beta(a, b)
    ln_complement = ln_front + math.log(_betacf(b, a, 1.0 - y)) - math.log(b)
    return _log1mexp(ln_complement)


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
