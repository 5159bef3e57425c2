"""Monte-Carlo estimation of per-port SIRs, port selection, correlation, and
outage curves.

Realizations are processed in fixed-size chunks, one counter-based RNG
stream per chunk, so results are bit-identical no matter how many workers
run the chunks.  Chunk kernels are top-level functions (picklable) that
return plain arrays; merging happens in chunk order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .analytic_stats import (
    BetaPrimeParams,
    betaprime_cdf,
    betaprime_params,
    outage_envelope,
    rho_x_approx,
)
from .channel_geom import SystemConfig, geometry_for_config, selectable_port_indices
from .randlin import RngStream, gamma_variates
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

CHUNK_SIZE = 1 << 14
DEFAULT_PHYSICAL_REALIZATIONS = 100_000
DEFAULT_MARGINAL_REALIZATIONS = 1_000_000

# Two-sided 95% normal quantile of the empirical-curve confidence intervals.
_Z95 = 1.959963984540054

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
    num = gamma_variates(gen, params.a, n)
    den = gamma_variates(gen, params.b, n)
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
    gen = stream.generator()
    n = 1 if size is None else int(size)
    common = gamma_variates(gen, m_effective, n)
    local = gamma_variates(gen, L, n * len(mu)).reshape(n, len(mu))
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
    return np.sqrt(0.5) * (z[..., 0] + 1j * z[..., 1])


def _normalize_rows(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _reference_matrix(gen, n: int, M: int, U: int, beta) -> np.ndarray:
    """Draw reference channels; returns H (n, M, U), one column per user."""
    x0 = _cgauss(gen, (n, U, M))
    h = np.sqrt(np.asarray(beta))[None, :, None] * x0
    return np.transpose(h, (0, 2, 1))


def _zf_weights(gen, H: np.ndarray, beta) -> tuple[np.ndarray, int, np.ndarray]:
    """Batched unit-norm ZF beams with discard-and-resample on singular Grams.

    Returns (W, resampled, H): rows whose Gram fails the condition test are
    redrawn into a copy, so the caller's array is left alone and the beams
    pair with the returned H.
    """
    n, M, U = H.shape
    resampled = 0
    for _ in range(_MAX_RESAMPLE_ROUNDS):
        gram = np.einsum("nmu,nmv->nuv", H.conj(), H)
        eig = np.linalg.eigvalsh(gram)
        bad = (eig[:, 0] <= 0.0) | (eig[:, -1] > eig[:, 0] / _GRAM_TOLERANCE)
        if not np.any(bad):
            break
        resampled += int(bad.sum())
        H = H.copy()
        H[bad] = _reference_matrix(gen, int(bad.sum()), M, U, beta)
    else:
        raise RuntimeError("ZF Gram resampling failed to converge")
    raw = np.conj(np.transpose(np.linalg.solve(gram, np.conj(np.transpose(H, (0, 2, 1)))), (0, 2, 1)))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True), resampled, H


def _weights_for_scheme(gen, H: np.ndarray, scheme: str,
                        beta) -> tuple[np.ndarray, int, np.ndarray]:
    """Unit-norm beams (n, M, U) for the reference channels H (n, M, U).

    Returns (W, resampled, H); only ZF resamples, and then H is a new array.
    """
    if scheme == "MRT":
        return H / np.linalg.norm(H, axis=1, keepdims=True), 0, H
    return _zf_weights(gen, H, beta)


def _port_channels(gen, h0: np.ndarray, beta0: float, mu) -> np.ndarray:
    """User 0's channel at every port, (n, P, M), from its reference h0 (n, M).

    Port k is sqrt(beta0) (mu_k x0 + sqrt(1 - mu_k^2) x_k), with the
    innovations x_k for ports 2..P drawn here, after the reference.
    """
    mu = np.asarray(mu, dtype=float)
    n, M = h0.shape
    P = len(mu)
    innov = _cgauss(gen, (n, P - 1, M)) if P > 1 else None
    root_b0 = math.sqrt(beta0)
    x00 = h0 / root_b0  # user-0 reference gaussian
    ports = np.empty((n, P, M), dtype=complex)
    ports[:, 0, :] = h0
    for k in range(1, P):
        sigma = math.sqrt(max(0.0, 1.0 - mu[k] ** 2))
        ports[:, k, :] = root_b0 * (mu[k] * x00 + sigma * innov[:, k - 1, :])
    return ports


def _sir(num, den):
    """num / den, or np.inf where the interference den is at the nulling floor."""
    with np.errstate(divide="ignore"):
        return np.where(den > INTERFERENCE_FLOOR, num / den, np.inf)


def _port_sirs(ports: np.ndarray, W: np.ndarray, powers) -> np.ndarray:
    """User-0 SIR X_k = P_0 |h_k^H w_0|^2 / sum_{i>=1} P_i |h_k^H w_i|^2 at
    every port: (n, P) from ports (n, P, M) and beams W (n, M, U)."""
    proj = np.abs(np.einsum("npm,nmu->npu", ports.conj(), W)) ** 2
    weighted = proj * np.asarray(powers)[None, None, :]
    return _sir(weighted[:, :, 0], weighted[:, :, 1:].sum(axis=2))


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

    Draw order: reference gaussians for all users, then (after any Gram
    resampling) user-0 innovations for ports 2..P.
    """
    gen = stream.generator()
    H = _reference_matrix(gen, n, M, U, beta)
    W, resampled, H = _weights_for_scheme(gen, H, scheme, beta)
    ports = _port_channels(gen, H[:, :, 0], float(np.asarray(beta)[0]), mu)
    return _port_sirs(ports, W, powers), resampled


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


def _chunk_corr_sums(stream, n, M, U, scheme, beta, powers, mu, est_idx):
    sirs, resampled = _chunk_ports_sir(stream, n, M, U, scheme, beta, powers, mu)
    sub = sirs[:, np.asarray(est_idx, dtype=int)]
    keep = np.all(np.isfinite(sub), axis=1)
    dropped = int(np.count_nonzero(~keep))
    sub = sub[keep]
    s1 = sub.sum(axis=0)
    s2 = sub.T @ sub
    return s1, s2, len(sub), dropped, resampled


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
    """Run fn(stream, n, *args) over fixed chunks; results in chunk order."""
    tasks = [
        (fn, seed, stream_base + idx, n, args)
        for idx, n in _iter_chunks(total, chunk_size)
    ]
    if workers <= 1 or len(tasks) <= 1:
        return [_exec_task(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_exec_task, tasks))


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
    the N selectable ports.
    """
    if config.N < 3:
        raise ValueError("correlation experiment needs N >= 3 ports")
    if config.U < 2:
        raise ValueError("correlation experiment needs U >= 2")
    mode = config.resolved_reference_mode()
    geometry = geometry_for_config(config)
    est_idx = np.arange(1, geometry.num_ports)
    n = realizations or config.realizations or DEFAULT_PHYSICAL_REALIZATIONS
    workers = resolve_workers(workers)
    results = _run_chunked(
        _chunk_corr_sums,
        (config.M, config.U, config.scheme, config.beta, config.powers,
         tuple(geometry.mu), tuple(est_idx)),
        n, config.seed, _BASE_CORRELATION, workers,
    )
    s1 = sum(r[0] for r in results)
    s2 = sum(r[1] for r in results)
    used = sum(r[2] for r in results)
    dropped = sum(r[3] for r in results)
    resampled = sum(r[4] for r in results)
    if used < 2:
        raise ValueError("not enough finite realizations for correlation")
    mean = s1 / used
    cov = s2 / used - np.outer(mean, mean)
    sd = np.sqrt(np.diag(cov))
    matrix = cov / np.outer(sd, sd)
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
