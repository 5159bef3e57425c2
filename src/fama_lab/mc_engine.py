"""Monte-Carlo estimation of per-port SIRs, port selection, correlation, and
outage curves.

Realizations are processed in fixed-size chunks, one RNG stream per chunk
keyed by (seed, stream id), so results are bit-identical no matter how many
workers run the chunks.  Chunk kernels are top-level functions (picklable)
that return plain arrays; merging happens in chunk order.

The physical kernels work in the orthonormal frame Q of the reference
channels H = QR (_draw_frame).  They draw the triangular factor R and
r = min(M, U) dimensional innovations, never an M-dimensional vector, so
their cost does not grow with M: the per-port kernel (_chunk_ports_sir),
the fig2 physical reference (_physref_sirs) and criterion 4 alike.  Under
ZF the beams are R^{-H}: R^H is already the Cholesky factor of the Gram
R^H R, so no Gram is formed or factored (_frame_zf_beams).

The frame kernel keeps R, its beams and the port vectors batch-last: its
(n, r, U) arrays are views of (r, U, n) memory, so each matrix entry is one
contiguous (n,) vector over the chunk.  The ZF inverse (_lower_inverse) and
the port projections (_frame_sirs) are sums of such vectors, entry by
entry, over the nonzero triangle only: R and its MRT beams are
upper-triangular, its ZF beams lower-triangular.  No call is made per
realization.

Outage runs that differ only in the port count N and the aperture W form
a frame group (run_outage_group) and share their draws.  Neither changes R
or its beams, so a chunk draws them once; it keeps the generator state
right after them and, restoring it, draws each port count's innovations
exactly as a run of that count alone would.  W enters only through the
port correlations mu_k, so the SIRs are then computed once per config.
The i.i.d. benchmark and the analytic envelope run once per N.  The sweep
(cli.run_sweep) makes one frame group of each (scheme, M, U) and submits
the groups to its pool largest first.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .analytic_stats import (
    BetaPrimeParams,
    betaprime_cdf,
    betaprime_params,
    outage_envelope,
    rho_x_approx,
)
from .channel_geom import SystemConfig, geometry_for_config, selectable_port_indices
from .randlin import RngStream
from .specialfn import RealInterval

__all__ = [
    "DEFAULT_GAMMA_GRID",
    "INTERFERENCE_FLOOR",
    "EmpiricalCdf",
    "SirBatch",
    "CorrEstimate",
    "CdfExperimentResult",
    "CorrelationExperimentResult",
    "OutageExperimentResult",
    "marginal_model_sample",
    "surrogate_gain_sample",
    "pearson_correlation",
    "ks_distance",
    "run_cdf_experiment",
    "run_correlation_experiment",
    "run_outage_experiment",
    "run_outage_group",
    "simulate_sir_batch",
    "resolve_workers",
    "wilson_half_width",
]

# Fixed 200-point log grid over the SIR range the experiment commands cover.
DEFAULT_GAMMA_RANGE = RealInterval(1e-3, 1e3)
DEFAULT_GAMMA_GRID = DEFAULT_GAMMA_RANGE.log_grid(200)

# Interference at or below this (with O(1) channel gains) means the beams
# null this port exactly; the SIR is reported as the INFINITE sentinel.
INTERFERENCE_FLOOR = 1e-20

# Rows per chunk, fixed from measured run times: one chunk's complex
# (P, r, n) port tensor is 1 MiB at P = 8, r = 4, inside a 2 MiB per-core L2.
CHUNK_SIZE = 1 << 11
DEFAULT_PHYSICAL_REALIZATIONS = 100_000
DEFAULT_MARGINAL_REALIZATIONS = 1_000_000

# Two-sided 95% normal quantile of the empirical-curve confidence intervals.
_Z95 = 1.959963984540054

# Beta-prime(a, b) has a finite variance only for b > 2, so the per-port
# SIR with L = U - 1 interferers has one only for U >= 4.
_CORRELATION_U_REFUSAL = (
    "correlation experiment needs U >= 4: with U={U} there are L={L} <= 2 "
    "interferers, the SIR has infinite variance and its Pearson coefficient "
    "is undefined")

_GRAM_TOLERANCE = 1e-12
_MAX_RESAMPLE_ROUNDS = 100

# Stream-id namespaces keep sub-experiments of one run independent.
_STREAM_SPAN = 1 << 20
_BASE_CDF = 0
_BASE_OUTAGE_PHYSICAL = 1 * _STREAM_SPAN
_BASE_OUTAGE_IID = 2 * _STREAM_SPAN
_BASE_CORRELATION = 3 * _STREAM_SPAN
_BASE_TAIL = 4 * _STREAM_SPAN
_BASE_CDF_PHYSICAL = 5 * _STREAM_SPAN
_BASE_SIR_BATCH = 6 * _STREAM_SPAN


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: FAMA_LAB_WORKERS caps explicit requests and supplies
    the count when none is given (default 1)."""
    cap = os.environ.get("FAMA_LAB_WORKERS")
    cap_n = max(1, int(cap)) if cap else None
    if workers is None:
        return cap_n or 1
    requested = max(1, int(workers))
    return min(requested, cap_n) if cap_n else requested


def wilson_half_width(p, n: int):
    """Half-length of the Wilson score interval for a binomial proportion.

    z / (1 + z^2/n) * sqrt(p (1 - p) / n + z^2 / (4 n^2)) for the observed
    proportion p of n trials.  Unlike the Wald half-width z sqrt(p (1-p) / n)
    it is never zero: at p in {0, 1} it equals z^2 / (2 (n + z^2)).
    """
    p = np.asarray(p, dtype=float)
    z2 = _Z95 * _Z95
    return _Z95 / (1.0 + z2 / n) * np.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))


# ---------------------------------------------------------------------------
# Result containers


@dataclass
class EmpiricalCdf:
    """Cumulative counts of samples at or below each grid threshold."""

    grid: np.ndarray
    counts: np.ndarray
    n: int

    def values(self) -> np.ndarray:
        return self.counts / self.n

    @staticmethod
    def bin_samples(grid: np.ndarray, samples: np.ndarray) -> np.ndarray:
        """Per-grid-point cumulative counts for one batch of samples: the
        number of samples <= each threshold of the sorted grid.  Samples
        that are inf or nan are never counted."""
        return np.searchsorted(np.sort(samples), grid, side="right")


@dataclass
class SirBatch:
    """Per-realization per-port SIRs with the FAMA selection applied."""

    sirs: np.ndarray            # (n, P) float, np.inf marks nulled interference
    selected_port: np.ndarray   # (n,) 1-based port numbers
    selected_value: np.ndarray  # (n,)
    resampled: int = 0
    infinite_count: int = 0


@dataclass
class CorrEstimate:
    """Pairwise Pearson coefficients of the per-port SIRs."""

    ports: np.ndarray           # 1-based port numbers covered by the estimate
    matrix: np.ndarray          # (len(ports), len(ports)) symmetric, unit diag
    n_used: int
    n_dropped: int = 0


@dataclass
class CdfExperimentResult:
    scheme: str
    mode: str
    params: BetaPrimeParams
    gamma_grid: np.ndarray
    empirical: EmpiricalCdf
    analytic: np.ndarray
    ks: float
    realizations: int
    infinite_count: int = 0
    resampled_count: int = 0


@dataclass
class CorrelationExperimentResult:
    scheme: str
    reference_mode: str
    ports: np.ndarray
    empirical: CorrEstimate
    overlay: np.ndarray
    deviations: np.ndarray
    max_abs_deviation: float
    realizations: int
    resampled_count: int = 0


@dataclass
class OutageExperimentResult:
    """Outage curves on one threshold grid.

    correlated_ci and iid_ci are the half-lengths of the 95% Wilson score
    intervals of the two empirical curves (see wilson_half_width).
    """

    scheme: str
    reference_mode: str
    gamma_grid: np.ndarray
    correlated: np.ndarray
    correlated_ci: np.ndarray
    iid: np.ndarray
    iid_ci: np.ndarray
    single_port: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    iid_analytic: np.ndarray
    large_n: np.ndarray
    realizations: int
    selection_ports: np.ndarray = field(default_factory=lambda: np.array([]))
    infinite_count: int = 0
    resampled_count: int = 0


# ---------------------------------------------------------------------------
# Samplers and estimators


def marginal_model_sample(
    stream: RngStream, params: BetaPrimeParams, size: int | None = None
):
    """Exact Beta-prime(a, b) samples as a ratio of independent Gammas."""
    gen = stream.generator()
    n = 1 if size is None else int(size)
    num = gen.standard_gamma(params.a, n)
    den = gen.standard_gamma(params.b, n)
    out = num / den
    return float(out[0]) if size is None else out


def surrogate_gain_sample(
    stream: RngStream, mu, m_effective: int, L: int, size: int | None = None
):
    """Correlated desired-gain surrogate U_k = mu_k^2 S_c + S_k.

    One shared S_c ~ Gamma(M_eff, 1) per realization, independent
    S_k ~ Gamma(L, 1) per port.
    """
    mu = np.asarray(mu, dtype=float)
    if np.any(np.abs(mu) > 1.0 + 1e-12):
        raise ValueError("|mu| entries must be <= 1")
    # The shapes are those of the Beta-prime(M_eff, L) SIR law: integers >= 1.
    BetaPrimeParams(m_effective, L)
    gen = stream.generator()
    n = 1 if size is None else int(size)
    common = gen.standard_gamma(m_effective, n)
    local = gen.standard_gamma(L, n * len(mu)).reshape(n, len(mu))
    out = (mu**2)[None, :] * common[:, None] + local
    return out[0] if size is None else out


def pearson_correlation(samples_x, samples_y) -> float:
    """Sample Pearson coefficient; non-finite pairs are dropped first."""
    x = np.asarray(samples_x, dtype=float)
    y = np.asarray(samples_y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("samples must be 1-D arrays of equal length")
    keep = np.isfinite(x) & np.isfinite(y)
    x, y = x[keep], y[keep]
    if len(x) < 2:
        raise ValueError("need at least two finite sample pairs")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(dx @ dx)
    sy = float(dy @ dy)
    if sx == 0.0 or sy == 0.0:
        raise ValueError("zero variance in a sample")
    return float(dx @ dy) / math.sqrt(sx * sy)


def ks_distance(empirical: EmpiricalCdf, analytic_cdf) -> float:
    """Max over the grid of |F_hat - F| against an analytic CDF."""
    if callable(analytic_cdf):
        analytic = np.array([analytic_cdf(g) for g in empirical.grid])
    else:
        analytic = np.asarray(analytic_cdf, dtype=float)
    if analytic.shape != empirical.grid.shape:
        raise ValueError("analytic CDF values must match the grid")
    return float(np.max(np.abs(empirical.values() - analytic)))


# ---------------------------------------------------------------------------
# Chunk kernels (top-level functions so process pools can pickle them)


def _cgauss(gen: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """CN(0, 1) entries: (re, im) normal pairs scaled by sqrt(1/2) in
    place and viewed as complex, so no second chunk-sized array is made."""
    z = gen.standard_normal(shape + (2,))
    z *= np.sqrt(0.5)
    return z.view(np.complex128)[..., 0]


def _reference_factor(gen, n: int, M: int, U: int, beta) -> np.ndarray:
    """Draw the triangular factor R (n, r, U), r = min(M, U), of reference
    channels H = QR, without drawing H or Q.

    For i.i.d. CN(0, 1) columns the factor with a positive diagonal has
    independent entries (the complex Bartlett decomposition; Goodman, Ann.
    Math. Stat. 1963): |R_ii|^2 ~ Gamma(M - i, 1) on the diagonal, CN(0, 1)
    above it and 0 below.  Column u is then scaled by sqrt(beta_u).  Draw
    order: the r diagonal Gammas, then the entries above the diagonal, row
    by row.  R is the (n, r, U) view of batch-last (r, U, n) memory, so
    each entry R[:, i, u] is one contiguous (n,) vector.
    """
    r = min(M, U)
    root_beta = np.sqrt(np.asarray(beta, dtype=float))
    diag = np.arange(r)
    rows, cols = np.triu_indices(r, 1, U)
    R = np.zeros((r, U, n), dtype=complex)
    gains = gen.standard_gamma(M - diag, size=(n, r))
    R[diag, diag] = (np.sqrt(gains) * root_beta[:r]).T
    R[rows, cols] = (_cgauss(gen, (n, len(rows))) * root_beta[cols]).T
    return R.transpose(2, 0, 1)


def _lower_inverse(chol: np.ndarray) -> np.ndarray:
    """Inverses X = L^{-1} of lower-triangular matrices L (n, U, U) by
    forward substitution, one entry at a time over the whole batch:
    X_ii = 1 / L_ii and, below the diagonal,
    X_ij = -(sum_{k=j}^{i-1} L_ik X_kj) / L_ii.

    The work is batch-last: each entry is an (n,) vector, contiguous when
    L is the view of (U, U, n) memory (as the frame factor's R^T is), each
    X_ij is one einsum over the i - j vectors of its sum, and no zero
    above either diagonal is read or written.  X is returned as the
    (n, U, U) view of a (U, U, n) array.
    """
    L = chol.transpose(1, 2, 0)
    inv = np.zeros(L.shape, dtype=complex)
    for i in range(L.shape[0]):
        inv[i, i] = 1.0 / L[i, i]
        minus_recip = -inv[i, i]
        for j in range(i):
            inv[i, j] = np.einsum("kn,kn->n", L[i, j:i], inv[j:i, j]) * minus_recip
    return inv.transpose(2, 0, 1)


def _sq_norm(v: np.ndarray, subscripts: str) -> np.ndarray:
    """Sums of |v|^2 over the axes that einsum `subscripts` (for v, v)
    drops."""
    return (np.einsum(subscripts, v.real, v.real)
            + np.einsum(subscripts, v.imag, v.imag))


def _frame_zf_beams(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm ZF beams of the frame factor R (n, U, U), square and
    upper-triangular with a positive real diagonal as _reference_factor
    builds it when M >= U, and a (n,) flag of the rows whose Gram
    G = R^H R fails the condition test tr(G) tr(G^{-1}) > 1 / _GRAM_TOLERANCE.
    That product bounds cond(G) from above, so every Gram whose condition
    number exceeds the limit fails.

    The Gram's lower Cholesky factor is L = R^H, so the raw beams
    R (R^H R)^{-1} = R^{-H} are L^{-1} itself, and tr(G) tr(G^{-1}) =
    ||R||_F^2 ||L^{-1}||_F^2, whose second factor sums the squared beam
    norms: no Gram is formed or factored.  The beams are the (n, U, U) view
    of batch-last memory, as R is.
    """
    # A singular R (a zero on its diagonal) makes inf or nan below; its
    # condition product then fails the test like any other bad row.
    with np.errstate(divide="ignore", invalid="ignore"):
        # R^{-T} is the conjugate of the raw beams R^{-H} and has their norms.
        inv = _lower_inverse(np.swapaxes(R, 1, 2))
        X = inv.transpose(1, 2, 0)
        col_sq = _sq_norm(X, "ijn,ijn->jn")
        cond = _sq_norm(R, "nij,nij->n") * col_sq.sum(axis=0)
        # Conjugate and normalise in one real pass, (re, im) * (1/c, -1/c).
        scale = 1.0 / np.sqrt(col_sq)
        X.view(float)[...] *= np.stack([scale, -scale], axis=-1).reshape(len(X), -1)
    return inv, ~(cond <= 1.0 / _GRAM_TOLERANCE)


def _zf_weights(gen, R: np.ndarray, redraw) -> tuple[np.ndarray, int, np.ndarray]:
    """Unit-norm ZF beams of the frame factor R (n, U, U) (_frame_zf_beams)
    with discard-and-resample on ill-conditioned Grams.

    redraw(gen, count) is R's sampler: failing rows are redrawn from it
    into a copy, so a redrawn row keeps its R form and the caller's array
    is left alone.  Returns (F, resampled, R); the beams pair with the
    returned R.
    """
    F, bad = _frame_zf_beams(R)
    rows = np.flatnonzero(bad)
    resampled = 0
    if len(rows):
        R = R.copy(order="K")
    for _ in range(_MAX_RESAMPLE_ROUNDS):
        if not len(rows):
            break
        resampled += len(rows)
        R[rows] = redraw(gen, len(rows))
        F[rows], bad = _frame_zf_beams(R[rows])
        rows = rows[bad]
    if len(rows):
        raise RuntimeError("ZF Gram resampling failed to converge")
    return F, resampled, R


def _weights_for_scheme(gen, H: np.ndarray, scheme: str,
                        redraw) -> tuple[np.ndarray, int, np.ndarray]:
    """Unit-norm beams F = Q^H W (n, r, U) in the frame Q of the reference
    channels, for their factor H = R (n, r, U) of _reference_factor, whose
    sampler redraw(gen, count) serves the ZF resampling (see _zf_weights).

    MRT normalises the columns of R.  Returns (F, resampled, R); only ZF
    resamples, and then R is a new array.
    """
    if scheme == "MRT":
        return H / np.linalg.norm(H, axis=1, keepdims=True), 0, H
    return _zf_weights(gen, H, redraw)


def _sir(num, den):
    """num / den, or np.inf where the interference den is at the nulling floor."""
    with np.errstate(divide="ignore"):
        return np.where(den > INTERFERENCE_FLOOR, num / den, np.inf)


def _frame_sirs(r0: np.ndarray, g: np.ndarray, F: np.ndarray, scheme: str,
                beta0: float, powers, mu) -> np.ndarray:
    """User-0 SIR X_k = P_0 |z_k^H f_0|^2 / sum_{i>=1} P_i |z_k^H f_i|^2 at
    every port, (n, P), in the frame Q of the reference channels H = QR.

    r0 = Q^H h_{0,1} (n, r) is user 0's column of R, zero below R_00, g
    (n, P-1, r) holds the frame innovations of ports 2..P and F = Q^H W
    (n, r, U) the beams that `scheme` builds from R.  Port k is
    z_k = Q^H h_{0,k} = mu_k r0 + sqrt(1 - mu_k^2) sqrt(beta0) g_k, so mu_k
    enters row 0 only, and the reference port's projections are
    conj(F_0u) R_00: exactly 0 for u >= 1 under ZF.

    Ports 2..P are assembled batch-last, (P-1, r, n), and each projection
    z_k^H f_u is summed entry by entry over F's nonzero triangle only:
    rows j <= u under MRT, where F = R D^{-1} is upper-triangular, and
    rows j >= u under ZF, where F = R^{-H} D^{-1} is lower-triangular.
    """
    mu = np.asarray(mu, dtype=float)
    n, r = r0.shape
    U = F.shape[2]
    r00 = r0[:, 0]
    sigma = np.sqrt(np.maximum(0.0, 1.0 - mu[1:] ** 2)) * math.sqrt(beta0)
    z = np.empty((len(mu) - 1, r, n), dtype=complex)
    np.multiply(sigma[:, None, None], g.transpose(1, 2, 0), out=z)
    z[:, 0] += mu[1:, None] * r00
    F = F.transpose(1, 2, 0)
    gains = np.empty((U, len(mu), n))
    # The reference port: only F's row 0 meets R_00, all of it under MRT
    # and only f_0 under ZF.
    cols = 1 if scheme == "ZF" else U
    ref = F[0, :cols].conj() * r00
    np.square(ref.real, out=gains[:cols, 0])
    gains[:cols, 0] += np.square(ref.imag)
    gains[cols:, 0] = 0.0
    term = np.empty((len(mu) - 1, n), dtype=complex)
    square = np.empty((len(mu) - 1, n))
    for u in range(U):
        rows = range(u, r) if scheme == "ZF" else range(min(u + 1, r))
        # |z^H f|^2 = |f^H z|^2: conjugating f is cheaper than z.
        proj = F[rows[0], u].conj() * z[:, rows[0]]
        for j in rows[1:]:
            proj += np.multiply(F[j, u].conj(), z[:, j], out=term)
        np.square(proj.real, out=gains[u, 1:])
        gains[u, 1:] += np.square(proj.imag, out=square)
    powers = np.asarray(powers, dtype=float)
    interference = np.tensordot(powers[1:], gains[1:], axes=1)
    return _sir(powers[0] * gains[0], interference).T


def _chunk_marginal_counts(stream: RngStream, n: int, a: int, b: int, grid):
    x = marginal_model_sample(stream, BetaPrimeParams(a, b), size=n)
    return EmpiricalCdf.bin_samples(np.asarray(grid), x), 0, 0


def _chunk_marginal_sf_count(stream: RngStream, n: int, a: int, b: int, gamma: float):
    """Count of marginal samples exceeding a single threshold (tail estimate)."""
    x = marginal_model_sample(stream, BetaPrimeParams(a, b), size=n)
    return int(np.count_nonzero(x > gamma))


def _draw_beams(gen, n: int, M: int, U: int, scheme: str, beta):
    """The factor R (see _reference_factor) and its beams F = Q^H W by the
    MRT/ZF rule, with any ZF redraws of R.  Returns (R, F, resampled)."""
    R = _reference_factor(gen, n, M, U, beta)
    redraw = partial(_reference_factor, M=M, U=U, beta=beta)
    F, resampled, R = _weights_for_scheme(gen, R, scheme, redraw)
    return R, F, resampled


def _draw_frame(gen, n: int, M: int, U: int, scheme: str, beta, ports: int):
    """Everything of a port chunk that the aperture does not change: R and
    its beams (_draw_beams), then the innovations g ~ CN(0, I_r),
    (n, ports-1, r), of ports 2..ports, the law of Q^H x_k.  Returns
    (R, F, g, resampled).

    Draw order: R (diagonal Gammas, then the entries above the diagonal),
    any ZF redraws of R, then g.
    """
    R, F, resampled = _draw_beams(gen, n, M, U, scheme, beta)
    g = _cgauss(gen, (n, ports - 1, R.shape[1]))
    return R, F, g, resampled


def _chunk_ports_sir(stream: RngStream, n: int, M: int, U: int, scheme: str,
                     beta, powers, mu):
    """User-0 SIR at every geometry port: (n, P) array plus resample count.

    The SIRs depend on the channels only through their projections onto
    the U beams, so the kernel works in the orthonormal frame Q of the
    reference channels H = QR (see _draw_frame).  Nothing is
    M-dimensional, so the work does not grow with M.
    """
    R, F, g, resampled = _draw_frame(stream.generator(), n, M, U, scheme,
                                     beta, len(mu))
    beta0 = float(np.asarray(beta)[0])
    return _frame_sirs(R[:, :, 0], g, F, scheme, beta0, powers, mu), resampled


def _physref_sirs(gen, n: int, M: int, U: int, scheme: str, beta,
                  powers) -> tuple[np.ndarray, int]:
    """User 0's reference-port SIR, (n,), with interference drawn
    independent of its desired gain, and the resample count.  It works in
    the frame of the reference channels H = QR (_draw_frame), so nothing
    is M-dimensional.

    The desired gain is the physical |h_{0,1}^H w_0|^2 = |R_00 F_00|^2;
    under MRT that is ||h_{0,1}||^2 = R_00^2.  The interference imposes the
    one independence the Beta-prime law takes when it divides the
    desired-gain law by the interference law:

    - MRT: the co-user beams projected onto an independent channel
      sqrt(beta_0) x, x ~ CN(0, I_M).  The beams W = QF lie in span(Q), so
      the projections have the law of sqrt(beta_0) g^H F with
      g = Q^H x ~ CN(0, I_r).  The cross-beam dependence of the terms stays
      physical, so the KS report measures exactly the residual of that
      independence.  The fully self-consistent reference-port SIR (one
      channel in numerator and denominator) sits near KS 0.09 from the
      Beta-prime law at M=8, U=4 and is not what the distribution claim
      describes.
    - ZF: the co-user beams null the reference port exactly, so each
      interferer contributes |x^H v|^2 for a fresh channel sqrt(beta_0) x
      and a fresh isotropic unit direction v: exactly beta_0 Exp(1), L
      independent terms.  The desired gain still comes from the ZF solve;
      a direct Gamma(M - U + 1) draw would test the sampler against itself.

    Draw order: R and any ZF redraws, then g (MRT) or the L exponentials
    (ZF).
    """
    # MRT takes one frame innovation g for the independent channel, ZF none.
    R, F, g, resampled = _draw_frame(gen, n, M, U, scheme, beta,
                                     2 if scheme == "MRT" else 1)
    beta0 = float(np.asarray(beta)[0])
    powers = np.asarray(powers, dtype=float)
    desired = np.abs(R[:, 0, 0] * F[:, 0, 0]) ** 2
    if scheme == "MRT":
        proj = np.einsum("nr,nru->nu", g[:, 0].conj(), F[:, :, 1:])
        terms = np.abs(math.sqrt(beta0) * proj) ** 2
    else:
        terms = beta0 * gen.standard_exponential((n, U - 1))
    return _sir(powers[0] * desired, terms @ powers[1:]), resampled


def _chunk_physref(stream: RngStream, n: int, M: int, U: int, scheme: str,
                   beta, powers, grid):
    """Binned reference-port SIRs of one chunk (_physref_sirs): (counts,
    infinite count, resample count)."""
    x, resampled = _physref_sirs(stream.generator(), n, M, U, scheme, beta, powers)
    inf_count = int(np.count_nonzero(~np.isfinite(x)))
    return EmpiricalCdf.bin_samples(np.asarray(grid), x), inf_count, resampled


def _chunk_outage_physical(
    stream, n, M, U, scheme, beta, powers, mus, sel_idxs, grid
):
    """Selection outage counts of one chunk for every config of a frame
    group: ((K, grid) counts, (K,) infinite counts, resample count) for the
    K configs' mu vectors `mus` and selectable port indices `sel_idxs`.

    R and its beams (_draw_beams) depend on neither N nor W, so they are
    drawn once.  The generator state right after them is kept, and each
    port count's innovations are drawn from that state, so every config
    sees exactly the draws of a chunk of its own; the SIRs, selection and
    binning then run once per config.  One port count's innovations are
    alive at a time.
    """
    gen = stream.generator()
    R, F, resampled = _draw_beams(gen, n, M, U, scheme, beta)
    after_beams = gen.bit_generator.state
    r0 = R[:, :, 0]
    beta0 = float(np.asarray(beta)[0])
    grid = np.asarray(grid)
    counts = np.empty((len(mus), len(grid)), dtype=np.int64)
    inf_counts = np.empty(len(mus), dtype=np.int64)
    for ports in dict.fromkeys(len(mu) for mu in mus):
        gen.bit_generator.state = after_beams
        g = _cgauss(gen, (n, ports - 1, R.shape[1]))
        for k, (mu, sel_idx) in enumerate(zip(mus, sel_idxs)):
            if len(mu) != ports:
                continue
            sel = _frame_sirs(r0, g, F, scheme, beta0, powers,
                              mu)[:, np.asarray(sel_idx, dtype=int)]
            inf_counts[k] = np.count_nonzero(~np.isfinite(sel))
            # Outage counts: INFINITE selections are never in outage and
            # naturally land beyond the grid.
            counts[k] = EmpiricalCdf.bin_samples(grid, sel.max(axis=1))
        del g
    return counts, inf_counts, resampled


def _chunk_outage_iid(stream, n, a, b, N, grid):
    x = marginal_model_sample(stream, BetaPrimeParams(a, b), size=n * N)
    best = x.reshape(n, N).max(axis=1)
    return EmpiricalCdf.bin_samples(np.asarray(grid), best), 0, 0


def _chunk_corr_moments(stream, n, M, U, scheme, beta, powers, mu, est_idx):
    """Centred moments of one chunk's finite SIR rows: (mean, m2, used,
    dropped, resampled), m2 the matrix of centred cross-products."""
    sirs, resampled = _chunk_ports_sir(stream, n, M, U, scheme, beta, powers, mu)
    sub = sirs[:, np.asarray(est_idx, dtype=int)]
    keep = np.all(np.isfinite(sub), axis=1)
    dropped = int(np.count_nonzero(~keep))
    sub = sub[keep]
    mean = sub.mean(axis=0) if len(sub) else np.zeros(sub.shape[1])
    dev = sub - mean
    return mean, dev.T @ dev, len(sub), dropped, resampled


def _merge_moments(parts) -> tuple[np.ndarray, np.ndarray, int]:
    """Merge (mean, m2, count) moments in order with the pairwise update of
    Chan, Golub & LeVeque (1983): no raw second moments, so no cancellation
    between sum x^2 / n and the squared mean."""
    mean, m2, count = 0.0, 0.0, 0
    for part_mean, part_m2, part_count in parts:
        if part_count == 0:
            continue
        total = count + part_count
        delta = part_mean - mean
        mean = mean + delta * (part_count / total)
        m2 = m2 + part_m2 + np.outer(delta, delta) * (count * part_count / total)
        count = total
    return mean, m2, count


# ---------------------------------------------------------------------------
# Chunked parallel driver


def _iter_chunks(total: int, chunk_size: int):
    index = 0
    done = 0
    while done < total:
        n = min(chunk_size, total - done)
        yield index, n
        index += 1
        done += n


def _exec_task(task):
    fn, seed, stream_id, n, args = task
    return fn(RngStream(seed, stream_id), n, *args)


def _run_chunked(fn, args: tuple, total: int, seed: int, stream_base: int,
                 workers: int, chunk_size: int = CHUNK_SIZE) -> list:
    """Run fn(stream, n, *args) over fixed chunks; results in chunk order.

    Chunk i draws from stream stream_base + i, so a run needing more than
    _STREAM_SPAN chunks would reach into the next namespace's streams; it is
    refused before anything is drawn.
    """
    chunks = -(-total // chunk_size)
    if chunks > _STREAM_SPAN:
        raise ValueError(
            f"realizations={total} need {chunks} chunks of {chunk_size}, more "
            f"than the {_STREAM_SPAN} streams of one namespace")
    tasks = [
        (fn, seed, stream_base + idx, n, args)
        for idx, n in _iter_chunks(total, chunk_size)
    ]
    if workers <= 1 or len(tasks) <= 1:
        return [_exec_task(t) for t in tasks]
    # Tasks go to the workers in batches: each pickles the args, grid included.
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_exec_task, tasks,
                             chunksize=max(1, len(tasks) // (4 * workers))))


def _merge_counts(results) -> tuple[np.ndarray, int, int]:
    counts = sum(r[0] for r in results)
    inf_count = sum(r[1] for r in results)
    resampled = sum(r[2] for r in results)
    return counts, inf_count, resampled


# ---------------------------------------------------------------------------
# Experiments


def run_cdf_experiment(
    config: SystemConfig,
    mode: str = "marginal",
    realizations: int | None = None,
    gamma_grid: np.ndarray | None = None,
    workers: int | None = None,
) -> CdfExperimentResult:
    """Empirical per-port SIR CDF with the analytic overlay and KS report.

    marginal mode samples the exact Gamma-ratio law; physical_reference mode
    simulates the reference-port SIR from the physical desired gain and
    interference drawn independent of it (_physref_sirs), in the frame of
    the reference channels under either scheme.
    """
    if mode not in ("marginal", "physical_reference"):
        raise ValueError(f"unknown cdf experiment mode {mode!r}")
    grid = DEFAULT_GAMMA_GRID if gamma_grid is None else np.asarray(gamma_grid)
    params = betaprime_params(config.scheme, config.M, config.U)
    n = realizations or config.realizations or (
        DEFAULT_MARGINAL_REALIZATIONS if mode == "marginal"
        else DEFAULT_PHYSICAL_REALIZATIONS
    )
    workers = resolve_workers(workers)
    if mode == "marginal":
        results = _run_chunked(
            _chunk_marginal_counts, (params.a, params.b, grid),
            n, config.seed, _BASE_CDF, workers,
        )
    else:
        results = _run_chunked(
            _chunk_physref,
            (config.M, config.U, config.scheme, config.beta, config.powers, grid),
            n, config.seed, _BASE_CDF_PHYSICAL, workers,
        )
    counts, inf_count, resampled = _merge_counts(results)
    empirical = EmpiricalCdf(grid=grid, counts=counts, n=n)
    analytic = np.array([betaprime_cdf(g, params) for g in grid])
    return CdfExperimentResult(
        scheme=config.scheme,
        mode=mode,
        params=params,
        gamma_grid=grid,
        empirical=empirical,
        analytic=analytic,
        ks=ks_distance(empirical, analytic),
        realizations=n,
        infinite_count=inf_count,
        resampled_count=resampled,
    )


def estimate_marginal_tail(
    config: SystemConfig,
    gamma: float,
    realizations: int,
    workers: int | None = None,
) -> float:
    """Monte-Carlo estimate of P(X > gamma) under the exact marginal law."""
    params = betaprime_params(config.scheme, config.M, config.U)
    workers = resolve_workers(workers)
    results = _run_chunked(
        _chunk_marginal_sf_count, (params.a, params.b, float(gamma)),
        realizations, config.seed, _BASE_TAIL, workers,
    )
    return sum(results) / realizations


def simulate_sir_batch(
    config: SystemConfig,
    realizations: int,
    stream_id: int = 0,
) -> SirBatch:
    """Physical per-port SIRs for user 0 with the FAMA selection applied.

    Ports follow the geometry implied by the config's reference mode;
    selection runs over the configured selectable set with ties broken
    toward the smallest port number (np.argmax keeps the first maximum).
    """
    geometry = geometry_for_config(config)
    sel_idx = selectable_port_indices(config)
    sirs, resampled = _chunk_ports_sir(
        RngStream(config.seed, _BASE_SIR_BATCH + stream_id), realizations,
        config.M, config.U, config.scheme, config.beta, config.powers,
        tuple(geometry.mu),
    )
    sel = sirs[:, sel_idx]
    best = np.argmax(sel, axis=1)
    rows = np.arange(realizations)
    return SirBatch(
        sirs=sirs,
        selected_port=np.asarray(sel_idx)[best] + 1,
        selected_value=sel[rows, best],
        resampled=resampled,
        infinite_count=int(np.count_nonzero(~np.isfinite(sel))),
    )


def run_correlation_experiment(
    config: SystemConfig,
    realizations: int | None = None,
    workers: int | None = None,
) -> CorrelationExperimentResult:
    """Pairwise SIR correlation across ports with the analytic overlay.

    Estimation always excludes the reference location (under ZF its SIR is
    unbounded; under MRT the analytic approximation targets cross-port
    pairs), so member mode estimates over ports 2..N and external mode over
    the N selectable ports.  U <= 3 is refused: the SIR then has infinite
    variance.  Each chunk contributes centred moments, merged in chunk
    order by _merge_moments.
    """
    if config.N < 3:
        raise ValueError("correlation experiment needs N >= 3 ports")
    if config.U <= 3:
        raise ValueError(_CORRELATION_U_REFUSAL.format(U=config.U, L=config.L))
    mode = config.resolved_reference_mode()
    geometry = geometry_for_config(config)
    est_idx = np.arange(1, geometry.num_ports)
    n = realizations or config.realizations or DEFAULT_PHYSICAL_REALIZATIONS
    workers = resolve_workers(workers)
    results = _run_chunked(
        _chunk_corr_moments,
        (config.M, config.U, config.scheme, config.beta, config.powers,
         tuple(geometry.mu), tuple(est_idx)),
        n, config.seed, _BASE_CORRELATION, workers,
    )
    _, m2, used = _merge_moments((r[0], r[1], r[2]) for r in results)
    dropped = sum(r[3] for r in results)
    resampled = sum(r[4] for r in results)
    if used < 2:
        raise ValueError("not enough finite realizations for correlation")
    sd = np.sqrt(np.diag(m2))
    matrix = m2 / np.outer(sd, sd)
    np.fill_diagonal(matrix, 1.0)
    p = len(est_idx)
    meff = betaprime_params(config.scheme, config.M, config.U).a
    overlay = np.empty((p, p))
    for i in range(p):
        for j in range(p):
            overlay[i, j] = (
                1.0 if i == j else rho_x_approx(
                    geometry.mu[est_idx[i]], geometry.mu[est_idx[j]],
                    meff, config.L,
                )
            )
    off = ~np.eye(p, dtype=bool)
    deviations = np.abs(matrix - overlay)
    return CorrelationExperimentResult(
        scheme=config.scheme,
        reference_mode=mode,
        ports=est_idx + 1,
        empirical=CorrEstimate(ports=est_idx + 1, matrix=matrix,
                               n_used=used, n_dropped=dropped),
        overlay=overlay,
        deviations=deviations,
        max_abs_deviation=float(deviations[off].max()),
        realizations=n,
        resampled_count=resampled,
    )


def run_outage_group(
    configs: list[SystemConfig],
    gamma_grid: np.ndarray | None = None,
    realizations: int | None = None,
    workers: int | None = None,
) -> list[OutageExperimentResult]:
    """Outage experiments of configs that differ only in the port count N
    and the aperture W (a frame group), from one frame draw per chunk: one
    result per config, in order, each equal to the config's own
    run_outage_experiment.

    The chunk streams, R and its beams do not depend on N or W.  So each
    chunk draws them once for the group and then, from the generator state
    right after them, the innovations of each port count, which is exactly
    the stream a config would use alone (_chunk_outage_physical).  W enters
    only through mu_k = J0(2 pi d_k) in the SIRs.  The i.i.d. benchmark and
    the analytic envelope depend on N alone, so they run once per N.
    Configs that differ in any other field are refused, by the field's
    name.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("an outage group needs at least one config")
    first = configs[0]
    for cfg in configs[1:]:
        for f in fields(SystemConfig):
            mine, theirs = getattr(first, f.name), getattr(cfg, f.name)
            if f.name not in ("N", "W") and mine != theirs:
                raise ValueError(
                    f"configs of one outage group may differ only in N and W, "
                    f"not in {f.name}: {mine!r} != {theirs!r}")
    grid = DEFAULT_GAMMA_GRID if gamma_grid is None else np.asarray(gamma_grid)
    if np.any(grid <= 0.0) or np.any(np.diff(grid) < 0.0):
        raise ValueError("gamma grid must be positive and sorted")
    params = betaprime_params(first.scheme, first.M, first.U)
    sel_idxs = [tuple(selectable_port_indices(cfg)) for cfg in configs]
    mus = tuple(tuple(geometry_for_config(cfg).mu) for cfg in configs)
    n = realizations or first.realizations or DEFAULT_PHYSICAL_REALIZATIONS
    workers = resolve_workers(workers)
    phys = _run_chunked(
        _chunk_outage_physical,
        (first.M, first.U, first.scheme, first.beta, first.powers, mus,
         tuple(sel_idxs), grid),
        n, first.seed, _BASE_OUTAGE_PHYSICAL, workers,
    )
    counts, inf_counts, resampled = _merge_counts(phys)
    # The curves that depend on the selectable port count alone.
    shared = {}
    for selectable in dict.fromkeys(len(sel) for sel in sel_idxs):
        iid_runs = _run_chunked(
            _chunk_outage_iid, (params.a, params.b, selectable, grid),
            n, first.seed, _BASE_OUTAGE_IID, workers,
        )
        p_iid = _merge_counts(iid_runs)[0] / n
        env = outage_envelope(grid, params, selectable)
        shared[selectable] = dict(
            scheme=first.scheme,
            reference_mode=first.resolved_reference_mode(),
            gamma_grid=grid,
            iid=p_iid,
            iid_ci=wilson_half_width(p_iid, n),
            single_port=env.single_port,
            upper=env.upper,
            lower=env.lower,
            iid_analytic=env.iid_benchmark,
            large_n=env.large_n_approx,
            realizations=n,
            resampled_count=resampled,
        )
    results = []
    for row, inf_count, sel_idx in zip(counts, inf_counts, sel_idxs):
        p_corr = row / n
        results.append(OutageExperimentResult(
            correlated=p_corr, correlated_ci=wilson_half_width(p_corr, n),
            selection_ports=np.asarray(sel_idx) + 1,
            infinite_count=int(inf_count), **shared[len(sel_idx)]))
    return results


def run_outage_experiment(
    config: SystemConfig,
    gamma_grid: np.ndarray | None = None,
    realizations: int | None = None,
    workers: int | None = None,
) -> OutageExperimentResult:
    """FAMA outage versus threshold: correlated physical selection, the
    i.i.d. benchmark (N independent marginal draws), the analytic envelope,
    and the half-lengths of the 95% Wilson score intervals of both
    empirical curves.  The one-config case of run_outage_group."""
    return run_outage_group([config], gamma_grid, realizations, workers)[0]
