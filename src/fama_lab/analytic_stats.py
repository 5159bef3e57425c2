"""Closed-form per-port SIR statistics, cross-port correlation
approximations, selection outage bounds, and asymptotic laws.

The per-port SIR under either precoder is Beta-prime distributed with shape
pair (M_eff, L): M_eff = M under MRT, M - U + 1 under ZF, and L = U - 1
interfering streams.  Everything downstream (outage envelopes, asymptotes,
diversity orders) is driven by that pair.  Its CDF, SF and log-CDF are the
paper's finite binomial sum, evaluated in log space over a grid of
thresholds at once by one function (_betaprime_tails), which every
analytic curve reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specialfn import ln_beta, ln_binomial, ln_gamma

__all__ = [
    "BetaPrimeParams",
    "OutageEnvelope",
    "m_eff",
    "betaprime_params",
    "betaprime_cdf",
    "betaprime_sf",
    "ln_betaprime_cdf",
    "rho_u_approx",
    "rho_x_approx",
    "outage_envelope",
    "outage_envelopes",
    "asymptote_small_gamma",
    "asymptote_large_m",
    "asymptote_tail",
    "diversity_orders",
]


@dataclass(frozen=True)
class BetaPrimeParams:
    """Beta-prime shape pair: a = effective signal dimension, b = interferers."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a != int(self.a) or self.b != int(self.b):
            raise ValueError(f"shape parameters must be integers, got {self}")
        if self.a < 1 or self.b < 1:
            raise ValueError(f"shape parameters must be >= 1, got {self}")


def m_eff(scheme: str, M: int, U: int) -> int:
    """Effective signal dimension: M for MRT, M - U + 1 for ZF."""
    if M < 1 or U < 1:
        raise ValueError(f"M, U must be >= 1, got M={M}, U={U}")
    if scheme == "MRT":
        return M
    if scheme == "ZF":
        if M < U:
            raise ValueError(f"ZF requires M >= U, got M={M}, U={U}")
        return M - U + 1
    raise ValueError(f"unknown scheme {scheme!r}")


def betaprime_params(scheme: str, M: int, U: int) -> BetaPrimeParams:
    """The (M_eff, L) shape pair for a scheme and system size."""
    if U < 2:
        raise ValueError(f"need U >= 2 interfering-user setup, got U={U}")
    return BetaPrimeParams(a=m_eff(scheme, M, U), b=U - 1)


def _betaprime_tails(gamma, params: BetaPrimeParams):
    """F, SF = 1 - F and ln F of Beta-prime(a, b) at each threshold of gamma
    (a number or an array, each >= 0), flattened, and the mask of the
    thresholds at which F is the smaller tail.

    F is the paper's finite sum, the binomial tail

        F(gamma) = sum_{j=a}^{n} C(n, j) y^j (1-y)^{n-j},  n = a+b-1,
        y = gamma / (1+gamma),

    and ln F its log-sum-exp, finite far below double underflow.  Below
    the switch y < (a+1)/(a+b+2) F is the smaller tail and SF = 1 - F;
    above it SF = sum_{j<a} is summed the same way and F = 1 - SF, so F and
    SF come from one evaluation.  Each threshold's values are elementwise
    operations and a reduction over its own row of terms, so they do not
    depend on the other thresholds of gamma.
    """
    g = np.asarray(gamma, dtype=float).ravel()
    if not np.all(g >= 0.0):
        raise ValueError(f"threshold must be >= 0, got {gamma}")
    a, b = params.a, params.b
    n = a + b - 1
    inner = (g > 0.0) & (g < math.inf)
    x = g[inner]
    # ln y and ln(1-y), each free of cancellation on its side of 1.
    ln_y = np.where(x < 1.0, np.log(x) - np.log1p(x),
                    -np.log1p(1.0 / np.maximum(x, 1.0)))
    ln_1my = -np.log1p(x)

    def ln_sum(js, rows):
        # ln C(n, j) is ln C(n, min(j, n-j)), a running sum of
        # ln((n+1-i)/i) over i <= min(j, n-j).
        ks = np.minimum(js, n - js)
        i = np.arange(1.0, ks.max() + 1.0)
        ln_c = np.concatenate(([0.0], np.cumsum(np.log((n + 1.0 - i) / i))))
        terms = (ln_c[ks] + np.multiply.outer(ln_y[rows], js)
                 + np.multiply.outer(ln_1my[rows], n - js))
        peak = terms.max(axis=-1)
        return peak + np.log(np.sum(np.exp(terms - peak[:, None]), axis=-1))

    direct = x / (1.0 + x) < (a + 1.0) / (a + b + 2.0)
    upper = ~direct
    ln_f = ln_sum(np.arange(a, n + 1), slice(None))
    f = np.exp(ln_f)
    sf = 1.0 - f
    sf[upper] = np.exp(ln_sum(np.arange(a), upper))
    f[upper] = 1.0 - sf[upper]
    # F(0) = 0, on the direct side, and F(inf) = 1.
    zero = g == 0.0
    out = [np.where(zero, 0.0, 1.0), np.where(zero, 1.0, 0.0),
           np.where(zero, -math.inf, 0.0), zero]
    for full, part in zip(out, (f, sf, ln_f, direct)):
        full[inner] = part
    return out


def _like(gamma, values: np.ndarray):
    """values in gamma's shape: a float for a number."""
    if np.ndim(gamma) == 0:
        return float(values[0])
    return values.reshape(np.shape(gamma))


def betaprime_cdf(gamma, params: BetaPrimeParams):
    """F(gamma) = sum_{j=a}^{a+b-1} C(a+b-1, j) gamma^j (1+gamma)^{-(a+b-1)},
    the paper's finite sum, at a threshold >= 0 (a float) or at each
    threshold of an array (an array of its shape)."""
    return _like(gamma, _betaprime_tails(gamma, params)[0])


def betaprime_sf(gamma, params: BetaPrimeParams):
    """Survival function 1 - F(gamma), summed directly where it is the
    smaller tail, so deep upper tails stay accurate."""
    return _like(gamma, _betaprime_tails(gamma, params)[1])


def ln_betaprime_cdf(gamma, params: BetaPrimeParams):
    """ln F(gamma) by log-sum-exp of the finite sum's terms, usable far
    below double underflow."""
    return _like(gamma, _betaprime_tails(gamma, params)[2])


def rho_u_approx(mu_k: float, mu_l: float, m_effective: int, L: int) -> float:
    """Cross-port desired-gain correlation: mu_k^2 mu_l^2 M_eff / (M_eff + L).

    Approximates cross-port pairs only; evaluating at k = l does not return
    1, because the shared-component argument ignores the port's own
    innovation overlap.
    """
    if abs(mu_k) > 1.0 + 1e-12 or abs(mu_l) > 1.0 + 1e-12:
        raise ValueError("|mu| must be <= 1")
    if m_effective < 1 or L < 1:
        raise ValueError("M_eff and L must be >= 1")
    return (mu_k**2) * (mu_l**2) * m_effective / (m_effective + L)


def rho_x_approx(mu_k: float, mu_l: float, m_effective: int, L: int) -> float:
    """Cross-port SIR correlation: rho_U attenuated by L / (L + M_eff + 1).
    Its premise is mu_k, mu_l < 1: ports that coincide (mu = 1, as at W = 0)
    have one SIR and correlate 1, where this reads 0.18 at M = 8, U = 4."""
    return rho_u_approx(mu_k, mu_l, m_effective, L) * L / (L + m_effective + 1.0)


@dataclass(frozen=True)
class OutageEnvelope:
    """Single-port CDF plus every analytic selection curve at one threshold,
    or at each threshold of a grid (then every field is an array).

    Ordering invariant: 0 <= lower <= iid_benchmark <= upper <= 1, with
    upper equal to the single-port CDF.
    """

    gamma: float | np.ndarray
    single_port: float | np.ndarray
    upper: float | np.ndarray
    lower: float | np.ndarray
    iid_benchmark: float | np.ndarray
    large_n_approx: float | np.ndarray

    def __post_init__(self) -> None:
        tol = 1e-12
        if not np.all(
            (-tol <= self.lower)
            & (self.lower <= self.iid_benchmark + tol)
            & (self.iid_benchmark <= self.upper + tol)
            & (self.upper <= 1.0 + tol)
        ):
            raise ValueError(f"envelope ordering violated: {self}")


def outage_envelope(gamma, params: BetaPrimeParams, N: int) -> OutageEnvelope:
    """Selection-outage envelope over N ports at threshold gamma, a number
    or an array of thresholds (a grid is one call; a number is its
    one-point case, with float fields).

    upper = F, iid_benchmark = F^N and lower = max(0, 1 - N SF), with F and
    SF = 1 - F taken from one evaluation of the finite sum, so 0 <= lower
    <= iid_benchmark <= upper holds exactly.  F^N and exp(-N SF) run per
    threshold in scalar math, and F and SF of a threshold do not depend on
    the rest of the grid, so a grid's values equal the one-point calls bit
    for bit.
    """
    [envelope] = outage_envelopes(gamma, params, (N,))
    return envelope


def outage_envelopes(gamma, params: BetaPrimeParams,
                     counts) -> list[OutageEnvelope]:
    """outage_envelope(gamma, params, N) for each port count N of counts, in
    order and bit for bit, from one evaluation of F and SF over the
    thresholds: the finite sum does not depend on N, so only F^N,
    max(0, 1 - N SF) and exp(-N SF) run per count."""
    counts = list(counts)
    for N in counts:
        if N < 1:
            raise ValueError(f"N must be >= 1, got {N}")
    grid = np.asarray(gamma, dtype=float)
    if np.any(grid <= 0.0):
        raise ValueError(f"threshold must be > 0, got {gamma}")
    f, eps, _, direct = _betaprime_tails(grid, params)
    f_list, eps_list = f.tolist(), eps.tolist()
    envelopes = []
    for N in counts:
        iid = np.array([f_i**N for f_i in f_list])
        large_n = np.array([math.exp(-N * eps_i) for eps_i in eps_list])
        # 1 - N SF, without 1 - (1 - F) on the direct side.
        lower = np.where(direct, f - (N - 1) * eps, 1.0 - N * eps)
        # Bernoulli's inequality 1 - N SF <= F^N; the cap only absorbs
        # rounding where the two differ by less than it.
        lower = np.minimum(np.maximum(0.0, lower), iid)
        envelopes.append(OutageEnvelope(*[
            _like(grid, v) for v in (grid.ravel(), f, f, lower, iid, large_n)]))
    return envelopes


def asymptote_small_gamma(gamma: float, scheme: str, M: int, U: int) -> float:
    """Small-threshold law C gamma^{M_eff}, C = Gamma(L+M_eff)/(Gamma(L) Gamma(M_eff+1))."""
    if gamma <= 0.0:
        raise ValueError(f"threshold must be > 0, got {gamma}")
    a = m_eff(scheme, M, U)
    L = U - 1
    if L < 1:
        raise ValueError("asymptote needs at least one interferer (U >= 2)")
    ln_c = ln_gamma(L + a) - ln_gamma(L) - ln_gamma(a + 1.0)
    return math.exp(ln_c + a * math.log(gamma))


def asymptote_large_m(gamma: float, scheme: str, M: int, U: int) -> float:
    """Large-M law at fixed 0 < gamma < 1: the leading binomial term

        T = C(a+b-1, a) gamma^a (1+gamma)^{-(a+b-1)},  a = M_eff, b = L,

    of F(gamma) = sum_{j=a}^{a+b-1} C(a+b-1, j) gamma^j (1+gamma)^{-(a+b-1)}.
    Term j+1 over term j is at most q = (b-1) gamma / (a+1), so
    T <= F <= T / (1 - q) wherever q < 1, and T / F -> 1 as M grows.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"large-M expansion requires 0 < gamma < 1, got {gamma}")
    a = m_eff(scheme, M, U)
    L = U - 1
    if L < 1:
        raise ValueError("asymptote needs at least one interferer (U >= 2)")
    n = a + L - 1
    return math.exp(ln_binomial(n, a) + a * math.log(gamma) - n * math.log1p(gamma))


def asymptote_tail(gamma: float, params: BetaPrimeParams) -> float:
    """Upper-tail law 1 - F(gamma) ~ gamma^{-b} / (b B(a,b))."""
    if gamma <= 0.0:
        raise ValueError(f"threshold must be > 0, got {gamma}")
    a, b = params.a, params.b
    return math.exp(-b * math.log(gamma) - math.log(b) - ln_beta(a, b))


def diversity_orders(scheme: str, M: int, U: int, N: int) -> int:
    """Selection diversity order M_eff * N of the i.i.d.-port marginal
    model: N independent Beta-prime(M_eff, L) ports, whose selection
    outage falls as gamma^(M_eff N) at small gamma.

    The physical simulator's ports are not independent: given the
    reference channels they share one R, and each port with mu_k < 1 has
    a conditional outage of order gamma.  Its measured slope is near the
    selectable port count instead: 3.93 (MRT) and 3.99 (ZF) at M=8, U=4,
    N=4, W=4, against 32 and 20 here.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    return m_eff(scheme, M, U) * N
