"""Monte-Carlo estimation of per-port SIRs, port selection, correlation, and
outage curves.

Realizations are processed in fixed-size chunks, one RNG stream per chunk
keyed by (seed, stream id), so results are bit-identical no matter how many
workers run the chunks.  Chunk kernels are top-level functions (picklable)
that return plain arrays; merging happens in chunk order.

The per-port kernel (_chunk_ports_sir) works in the orthonormal frame Q of
the reference channels H = QR.  It draws the triangular factor R and
r = min(M, U) dimensional port innovations, never an M-dimensional vector,
so its cost does not grow with M.  Under ZF its beams are R^{-H}: R^H is
already the Cholesky factor of the Gram R^H R, so no Gram is formed or
factored (_zf_beams).  The physical_reference CDF kernels and criterion 4
still draw the full channels H (_reference_matrix), and their ZF beams
still take the Cholesky route of _gram_inverse until they move into the
frame too.

The frame kernel keeps R, its beams and the port vectors batch-last: its
(n, r, U) arrays are views of (r, U, n) memory, so each matrix entry is one
contiguous (n,) vector over the chunk.  The ZF inverse (_lower_inverse) and
the port projections (_frame_sirs) are sums of such vectors, entry by
entry, over the nonzero triangle only: R and its MRT beams are
upper-triangular, its ZF beams lower-triangular.  No call is made per
realization.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
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
        """Per-grid-point cumulative counts for one batch of samples."""
        idx = np.searchsorted(grid, samples, side="left")
        return np.cumsum(np.bincount(idx, minlength=len(grid) + 1))[: len(grid)]


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
    z = gen.standard_normal(shape + (2,))
    return np.sqrt(0.5) * z.view(np.complex128)[..., 0]


def _normalize_rows(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _reference_matrix(gen, n: int, M: int, U: int, beta) -> np.ndarray:
    """Draw reference channels; returns H (n, M, U), one column per user."""
    x0 = _cgauss(gen, (n, U, M))
    h = np.sqrt(np.asarray(beta))[None, :, None] * x0
    return np.transpose(h, (0, 2, 1))


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


def _gram_inverse(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse Grams (H^H H)^{-1}, (n, U, U), from one Cholesky factor each,
    and a (n,) flag of the rows whose Gram fails the condition test.

    This is the route of channels H (n, M, U) in the physical frame, which
    only the fig2 physical-reference ZF kernel and criterion 4 still take;
    the frame factor R skips it (see _zf_beams).  A row fails when its Gram
    G is not positive definite or when tr(G) tr(G^{-1}) > 1 / _GRAM_TOLERANCE.
    That product bounds cond(G) from above, so every Gram whose condition
    number exceeds the limit fails.  np.linalg.cholesky refuses the whole
    stack when one Gram is not positive definite; then the rows whose
    eigenvalues already fail the test are flagged and only the others are
    factored.
    """
    gram = np.matmul(np.conj(np.swapaxes(H, 1, 2)), H)
    try:
        chol = np.linalg.cholesky(gram)
        factored = np.ones(len(H), dtype=bool)
    except np.linalg.LinAlgError:
        eig = np.linalg.eigvalsh(gram)
        factored = eig[:, 0] > eig[:, -1] * _GRAM_TOLERANCE
        chol = np.broadcast_to(np.eye(H.shape[2], dtype=complex), gram.shape).copy()
        chol[factored] = np.linalg.cholesky(gram[factored])
    inv_chol = _lower_inverse(chol)
    ginv = np.matmul(np.conj(np.swapaxes(inv_chol, 1, 2)), inv_chol)
    trace = np.einsum("nii->n", gram).real * np.einsum("nii->n", ginv).real
    return ginv, ~factored | (trace > 1.0 / _GRAM_TOLERANCE)


def _is_frame_factor(H: np.ndarray) -> bool:
    """Whether every matrix of H is square and upper-triangular with a
    positive real diagonal, the form of _reference_factor's R when M >= U.
    Then R^H is already the Cholesky factor of the Gram R^H R."""
    _, r, U = H.shape
    if r != U:
        return False
    diag = np.einsum("nii->ni", H)
    return bool(np.all(diag.imag == 0.0) and np.all(diag.real > 0.0)
                and not any(np.any(H[:, i, :i]) for i in range(1, U)))


def _sq_norm(v: np.ndarray, subscripts: str) -> np.ndarray:
    """Sums of |v|^2 over the axes that einsum `subscripts` (for v, v)
    drops."""
    return (np.einsum(subscripts, v.real, v.real)
            + np.einsum(subscripts, v.imag, v.imag))


def _zf_beams(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm ZF beams H (H^H H)^{-1}, shaped like H, and a (n,) flag of
    the rows whose Gram G fails the condition test of _gram_inverse.

    For the frame factor R (see _is_frame_factor) the Gram's lower
    Cholesky factor is L = R^H, so the raw beams R (R^H R)^{-1} = R^{-H}
    are L^{-1} itself, and tr(G) tr(G^{-1}) = ||R||_F^2 ||L^{-1}||_F^2,
    whose second factor sums the squared beam norms: no Gram and no
    Cholesky call.  The beams are the (n, U, U) view of batch-last memory,
    as R is.  Any other H takes the Cholesky route of _gram_inverse,
    H (L^{-1})^H L^{-1}.
    """
    if not _is_frame_factor(H):
        ginv, bad = _gram_inverse(H)
        raw = np.matmul(H, ginv)
        return raw / np.linalg.norm(raw, axis=1, keepdims=True), bad
    # R^{-T} is the conjugate of the raw beams R^{-H} and has their norms.
    inv = _lower_inverse(np.swapaxes(H, 1, 2))
    X = inv.transpose(1, 2, 0)
    col_sq = _sq_norm(X, "ijn,ijn->jn")
    cond = _sq_norm(H, "nij,nij->n") * col_sq.sum(axis=0)
    # Conjugate and normalise in one real pass, (re, im) * (1/c, -1/c).
    scale = 1.0 / np.sqrt(col_sq)
    X.view(float)[...] *= np.stack([scale, -scale], axis=-1).reshape(len(X), -1)
    return inv, cond > 1.0 / _GRAM_TOLERANCE


def _zf_weights(gen, H: np.ndarray, beta,
                redraw=None) -> tuple[np.ndarray, int, np.ndarray]:
    """Batched unit-norm ZF beams H (H^H H)^{-1} with discard-and-resample
    on ill-conditioned Grams.

    H holds the reference channels (n, M, U) or their triangular factor R
    (n, U, U); the condition test is the same in either frame, and
    _zf_beams picks the route for each batch it is given.  Failing rows
    are redrawn into a copy by redraw(gen, count), by default from
    _reference_matrix's law, so the caller's array is left alone; with
    _reference_factor as redraw a redrawn row keeps its R form.
    Returns (W, resampled, H); the beams pair with the returned H.
    """
    n, M, U = H.shape
    if redraw is None:
        redraw = partial(_reference_matrix, M=M, U=U, beta=beta)
    W, bad = _zf_beams(H)
    rows = np.flatnonzero(bad)
    resampled = 0
    if len(rows):
        H = H.copy(order="K")
    for _ in range(_MAX_RESAMPLE_ROUNDS):
        if not len(rows):
            break
        resampled += len(rows)
        H[rows] = redraw(gen, len(rows))
        W[rows], bad = _zf_beams(H[rows])
        rows = rows[bad]
    if len(rows):
        raise RuntimeError("ZF Gram resampling failed to converge")
    return W, resampled, H


def _weights_for_scheme(gen, H: np.ndarray, scheme: str, beta,
                        redraw=None) -> tuple[np.ndarray, int, np.ndarray]:
    """Unit-norm beams (n, M, U) for the reference channels H (n, M, U), or
    the beams in their frame for the factor R (n, r, U).

    Returns (W, resampled, H); only ZF resamples (see _zf_weights), and then
    H is a new array.
    """
    if scheme == "MRT":
        return H / np.linalg.norm(H, axis=1, keepdims=True), 0, H
    return _zf_weights(gen, H, beta, redraw)


def _sir(num, den):
    """num / den, or np.inf where the interference den is at the nulling floor."""
    with np.errstate(divide="ignore"):
        return np.where(den > INTERFERENCE_FLOOR, num / den, np.inf)


def _frame_sirs(r0: np.ndarray, g: np.ndarray, F: np.ndarray, scheme: str,
                beta0: float, powers, mu) -> np.ndarray:
    """User-0 SIR X_k = P_0 |z_k^H f_0|^2 / sum_{i>=1} P_i |z_k^H f_i|^2 at
    every port, (n, P), in the frame Q of the reference channels H = QR.

    r0 = Q^H h_{0,1} (n, r) is user 0's column of R, g (n, P-1, r) holds
    the frame innovations of ports 2..P and F = Q^H W (n, r, U) the beams
    that `scheme` builds from R.  Port k is
    z_k = Q^H h_{0,k} = mu_k r0 + sqrt(1 - mu_k^2) sqrt(beta0) g_k.

    The ports are assembled batch-last, (P, r, n), and each projection
    z_k^H f_u is summed entry by entry over F's nonzero triangle only:
    rows j <= u under MRT, where F = R D^{-1} is upper-triangular, and
    rows j >= u under ZF, where F = R^{-H} D^{-1} is lower-triangular.
    """
    mu = np.asarray(mu, dtype=float)
    n, r = r0.shape
    U = F.shape[2]
    sigma = np.sqrt(np.maximum(0.0, 1.0 - mu[1:] ** 2)) * math.sqrt(beta0)
    z = np.empty((len(mu), r, n), dtype=complex)
    z[0] = r0.T
    np.multiply(sigma[:, None, None], g.transpose(1, 2, 0), out=z[1:])
    z[1:] += mu[1:, None, None] * z[0]
    F = F.transpose(1, 2, 0)
    gains = np.empty((U, len(mu), n))
    term = np.empty((len(mu), n), dtype=complex)
    for u in range(U):
        rows = range(u, r) if scheme == "ZF" else range(min(u + 1, r))
        # |z^H f|^2 = |f^H z|^2: conjugating f is cheaper than z.
        proj = F[rows[0], u].conj() * z[:, rows[0]]
        for j in rows[1:]:
            proj += np.multiply(F[j, u].conj(), z[:, j], out=term)
        gains[u] = proj.real ** 2 + proj.imag ** 2
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


def _chunk_physref_mrt(stream: RngStream, n: int, M: int, U: int, beta, powers, grid):
    """Reference-port SIR of user 0 under MRT.

    Desired gain is the physical ||h_{0,1}||^2; interference comes from the
    physical co-user MRT beams projected onto an independent channel
    realization.  Imposing that single independence (the step the ratio law
    takes when dividing the desired-gain law by the interference law) leaves
    the cross-beam dependence of the interference terms physical, so the KS
    report measures exactly the residual of that approximation.  The fully
    self-consistent reference-port SIR (same channel in numerator and
    denominator) sits near KS 0.09 from the Beta-prime law at M=8, U=4 and
    is not what the distribution claim describes.
    """
    gen = stream.generator()
    H = _reference_matrix(gen, n, M, U, beta)
    W, _, _ = _weights_for_scheme(gen, H, "MRT", beta)
    h0 = H[:, :, 0]
    desired = np.linalg.norm(h0, axis=1) ** 2
    h_indep = math.sqrt(float(np.asarray(beta)[0])) * _cgauss(gen, (n, M))
    powers = np.asarray(powers)
    terms = np.abs(np.einsum("nm,nmu->nu", h_indep.conj(), W[:, :, 1:])) ** 2
    x = _sir(powers[0] * desired, (terms * powers[None, 1:]).sum(axis=1))
    inf_count = int(np.count_nonzero(~np.isfinite(x)))
    return EmpiricalCdf.bin_samples(np.asarray(grid), x), inf_count, 0


def _chunk_physref_zf(stream: RngStream, n: int, M: int, U: int, beta, powers, grid):
    """Physical ZF desired gain at the reference port, paired with
    interference projected onto independently drawn isotropic co-user
    directions.

    The true co-user ZF beams null the reference port exactly, so this mode
    realizes the marginal interference model instead: each interferer
    contributes |g^H v|^2 with a fresh isotropic unit direction v and a fresh
    channel draw g, making the L terms exactly independent Exp(1) and
    independent of the desired gain.
    """
    gen = stream.generator()
    H = _reference_matrix(gen, n, M, U, beta)
    W, resampled, H = _weights_for_scheme(gen, H, "ZF", beta)
    h0 = H[:, :, 0]
    desired = np.abs(np.einsum("nm,nm->n", h0.conj(), W[:, :, 0])) ** 2
    L = U - 1
    dirs = _normalize_rows(_cgauss(gen, (n, L, M)))
    fresh = _cgauss(gen, (n, L, M))
    terms = np.abs(np.einsum("nlm,nlm->nl", fresh.conj(), dirs)) ** 2
    powers = np.asarray(powers)
    x = _sir(powers[0] * desired, (terms * powers[None, 1:]).sum(axis=1))
    inf_count = int(np.count_nonzero(~np.isfinite(x)))
    return EmpiricalCdf.bin_samples(np.asarray(grid), x), inf_count, resampled


def _chunk_ports_sir(stream: RngStream, n: int, M: int, U: int, scheme: str,
                     beta, powers, mu):
    """User-0 SIR at every geometry port: (n, P) array plus resample count.

    The SIRs depend on the channels only through their projections onto
    the U beams, so the kernel works in the orthonormal frame Q of the
    reference channels H = QR: it draws R (see _reference_factor), builds
    the beams F = Q^H W from R by the MRT/ZF rule, and draws each port's
    innovation as g_k ~ CN(0, I_r), the law of Q^H x_k.  Nothing is
    M-dimensional, so the work does not grow with M.

    Draw order: R (diagonal Gammas, then the entries above the diagonal),
    any ZF redraws of R, then the innovations g (n, P-1, r) of ports 2..P.
    """
    gen = stream.generator()
    R = _reference_factor(gen, n, M, U, beta)
    redraw = partial(_reference_factor, M=M, U=U, beta=beta)
    F, resampled, R = _weights_for_scheme(gen, R, scheme, beta, redraw)
    g = _cgauss(gen, (n, len(mu) - 1, R.shape[1]))
    beta0 = float(np.asarray(beta)[0])
    return _frame_sirs(R[:, :, 0], g, F, scheme, beta0, powers, mu), resampled


def _chunk_outage_physical(
    stream, n, M, U, scheme, beta, powers, mu, sel_idx, grid
):
    sirs, resampled = _chunk_ports_sir(stream, n, M, U, scheme, beta, powers, mu)
    sel = sirs[:, np.asarray(sel_idx, dtype=int)]
    inf_count = int(np.count_nonzero(~np.isfinite(sel)))
    best = sel.max(axis=1)
    # Outage counts: INFINITE selections are never in outage and naturally
    # land beyond the grid.
    return EmpiricalCdf.bin_samples(np.asarray(grid), best), inf_count, resampled


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
    simulates the reference-port SIR from full channel draws (MRT), or the
    physical ZF desired gain with independently drawn interference
    directions (ZF).
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
    elif config.scheme == "MRT":
        results = _run_chunked(
            _chunk_physref_mrt,
            (config.M, config.U, config.beta, config.powers, grid),
            n, config.seed, _BASE_CDF_PHYSICAL, workers,
        )
    else:
        results = _run_chunked(
            _chunk_physref_zf,
            (config.M, config.U, config.beta, config.powers, grid),
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


def run_outage_experiment(
    config: SystemConfig,
    gamma_grid: np.ndarray | None = None,
    realizations: int | None = None,
    workers: int | None = None,
) -> OutageExperimentResult:
    """FAMA outage versus threshold: correlated physical selection, the
    i.i.d. benchmark (N independent marginal draws), the analytic envelope,
    and the half-lengths of the 95% Wilson score intervals of both
    empirical curves."""
    grid = DEFAULT_GAMMA_GRID if gamma_grid is None else np.asarray(gamma_grid)
    if np.any(grid <= 0.0) or np.any(np.diff(grid) < 0.0):
        raise ValueError("gamma grid must be positive and sorted")
    params = betaprime_params(config.scheme, config.M, config.U)
    mode = config.resolved_reference_mode()
    geometry = geometry_for_config(config)
    sel_idx = selectable_port_indices(config)
    n = realizations or config.realizations or DEFAULT_PHYSICAL_REALIZATIONS
    workers = resolve_workers(workers)
    phys = _run_chunked(
        _chunk_outage_physical,
        (config.M, config.U, config.scheme, config.beta, config.powers,
         tuple(geometry.mu), tuple(sel_idx), grid),
        n, config.seed, _BASE_OUTAGE_PHYSICAL, workers,
    )
    counts, inf_count, resampled = _merge_counts(phys)
    iid_runs = _run_chunked(
        _chunk_outage_iid, (params.a, params.b, len(sel_idx), grid),
        n, config.seed, _BASE_OUTAGE_IID, workers,
    )
    iid_counts, _, _ = _merge_counts(iid_runs)
    p_corr = counts / n
    p_iid = iid_counts / n
    envelopes = [outage_envelope(g, params, len(sel_idx)) for g in grid]
    return OutageExperimentResult(
        scheme=config.scheme,
        reference_mode=mode,
        gamma_grid=grid,
        correlated=p_corr,
        correlated_ci=wilson_half_width(p_corr, n),
        iid=p_iid,
        iid_ci=wilson_half_width(p_iid, n),
        single_port=np.array([e.single_port for e in envelopes]),
        upper=np.array([e.upper for e in envelopes]),
        lower=np.array([e.lower for e in envelopes]),
        iid_analytic=np.array([e.iid_benchmark for e in envelopes]),
        large_n=np.array([e.large_n_approx for e in envelopes]),
        realizations=n,
        selection_ports=np.asarray(sel_idx) + 1,
        infinite_count=inf_count,
        resampled_count=resampled,
    )
