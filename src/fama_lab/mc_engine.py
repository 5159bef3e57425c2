"""Monte-Carlo estimation of per-port SIRs, port selection, correlation, and
outage curves.

Realizations are processed in fixed-size chunks, one RNG stream per chunk
keyed by (seed, stream id), so results are bit-identical no matter how many
workers run the chunks.  Chunk kernels are top-level functions (picklable)
that return plain arrays; merging happens in chunk order.

The physical kernels work in the orthonormal frame Q of the reference
channels H = QR (_draw_frame).  They draw the triangular factor R and
r = min(M, U) dimensional innovations, never an M-dimensional vector, so
their cost does not grow with M: the outage kernel (_chunk_outage_physical),
the per-port kernel of the correlation run (_chunk_ports_sir), the fig2
physical reference (_physref_sirs) and criterion 4 alike.  Under
ZF the beams are R^{-H}: R^H is already the Cholesky factor of the Gram
R^H R, so no Gram is formed or factored (_frame_zf_beams).

The frame kernel keeps R, its beams and the port vectors batch-last: its
(n, r, U) arrays are views of (r, U, n) memory, so each matrix entry is one
contiguous (n,) vector over the chunk.  Every draw lands in that memory
as drawn, the innovations port-major, with no gather, conjugation or
scaling pass: R's column scales and the port scales sigma_k absorb the
sqrt(2) of _cgauss (_frame_sirs).  Every pass touches the nonzero
triangle only: R and its MRT beams are upper-triangular, its ZF beams
lower-triangular.  The ZF inverse (_lower_inverse) pushes each finished
row into all later rows with one broadcast block multiply; the beam norms,
the condition test and the normalisation (_frame_zf_beams) run row by row
over the triangles; the port projections (_frame_sirs) are sums of such
vectors, entry by entry.  No call is made per realization, and the one
BLAS call of a chunk kernel is the correlation run's centred moment matrix
dev.T @ dev (_chunk_corr_moments: fig3 and criterion 5).

Outage runs of one (M, U) that differ only in the scheme, the port count
N and the aperture W form a frame group (run_outage_group) and share
their draws (common random numbers).  None of the three changes R, and
no precoder advances the chunk stream (a ZF redraw of an ill-conditioned
R draws from a child of it), so a chunk draws R, then one innovation
block for the largest port count, and builds every scheme's beams from R.
A smaller count p reads the block's first p-1 ports, exactly what a draw
of that size returns, so every config reads the draws of its own run.
W enters only through the port correlations mu_k, and only in frame row
0 and the scale sigma_k of the innovations: the projections of rows
1..r-1 onto the beams are summed once per (scheme, port count) and
shared by its apertures (_frame_sirs).

_chunk_outage_physical is the one place where a physical SIR is selected
and binned.  It bins curves, each the largest SIR of one config over a set
of port indices: an outage run asks for one curve per config, its
selectable set; with per_port (criterion 6) a second job, on streams of
its own, bins each config's selection curve and a singleton set per
selectable port.  Every marginal count (the i.i.d. benchmark, fig2's and
fig5's marginal CDFs, criterion 8's tail) comes from one kernel too,
_chunk_outage_iid, with N = 1 for a single port.
The i.i.d. benchmark runs once per (shapes, selectable count); its chunk
takes the largest of each realization's N draws as a running maximum over
strided columns (_strided_max).  The analytic envelope evaluates F and SF
once per shape pair and derives every selectable count's bounds from them
(outage_envelopes).  One pool (_run_chunked) serves the physical and
every i.i.d. job.  The pool machinery, concurrent.futures with
multiprocessing, is imported when the first pool starts
(ProcessPoolExecutor), so a run that starts no pool never loads it.  The
sweep (cli.run_sweep) makes one frame group of each (M, U), and fig4 one
of its MRT and ZF configs; the sweep's pool gets its groups largest work
estimate first (cli._group_work) and writes each group's CSVs as the
group completes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .analytic_stats import (
    BetaPrimeParams,
    betaprime_cdf,
    betaprime_params,
    outage_envelopes,
    rho_x_approx,
)
from .channel_geom import SystemConfig, geometry_for_config, selectable_port_indices
from .randlin import RngStream

__all__ = [
    "DEFAULT_GAMMA_GRID",
    "INTERFERENCE_FLOOR",
    "bin_samples",
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
    "resolve_workers",
    "wilson_half_width",
]

# Fixed 200-point log grid over the SIR range the experiment commands cover.
DEFAULT_GAMMA_GRID = np.logspace(-3.0, 3.0, 200)

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
_BASE_PER_PORT = 6 * _STREAM_SPAN


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: FAMA_LAB_WORKERS caps explicit requests and supplies
    the count when none is given (default 1)."""
    cap = os.environ.get("FAMA_LAB_WORKERS")
    try:
        cap_n = max(1, int(cap)) if cap else None
    except ValueError:
        raise ValueError(
            f"FAMA_LAB_WORKERS must be an integer, got {cap!r}") from None
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


def bin_samples(grid: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Per-grid-point cumulative counts for one batch of samples: the
    number of samples <= each threshold of the sorted grid.  Samples that
    are inf or nan are never counted."""
    return np.searchsorted(np.sort(samples), grid, side="right")


@dataclass
class CdfExperimentResult:
    """A per-port SIR CDF: curves maps "analytic_cdf" to (values, None),
    then "empirical_<mode>" to (values, Wilson half-width)."""

    scheme: str
    mode: str
    params: BetaPrimeParams
    gamma_grid: np.ndarray
    curves: dict
    ks: float
    realizations: int
    infinite_count: int = 0
    resampled_count: int = 0


@dataclass
class CorrelationExperimentResult:
    scheme: str
    reference_mode: str
    ports: np.ndarray           # 1-based port numbers covered by the estimate
    matrix: np.ndarray          # (len(ports), len(ports)) symmetric, unit diag
    overlay: np.ndarray
    deviations: np.ndarray
    max_abs_deviation: float
    realizations: int
    n_used: int                 # realizations whose SIRs were all finite
    n_dropped: int
    resampled_count: int = 0


@dataclass
class OutageExperimentResult:
    """Outage curves on one threshold grid.

    curves maps each curve_id to (values, half-width), in the order every
    outage CSV writes them: the half-length of the 95% Wilson score
    interval of an empirical curve (wilson_half_width), None for an
    analytic one.  run_outage_group decides the curves.
    """

    scheme: str
    reference_mode: str
    gamma_grid: np.ndarray
    curves: dict
    realizations: int
    selection_ports: np.ndarray = field(default_factory=lambda: np.array([]))
    infinite_count: int = 0
    resampled_count: int = 0

    # The benchmark's outage workload reads these four; they stay until it
    # reads the map (ROADMAP item 1).
    correlated = property(lambda self: self.curves["empirical_correlated"][0])
    correlated_ci = property(lambda self: self.curves["empirical_correlated"][1])
    iid = property(lambda self: self.curves["empirical_iid"][0])
    iid_ci = property(lambda self: self.curves["empirical_iid"][1])


# ---------------------------------------------------------------------------
# Samplers and estimators


def marginal_model_sample(stream: RngStream, params: BetaPrimeParams,
                          size: int) -> np.ndarray:
    """`size` exact Beta-prime(a, b) samples as a ratio of independent
    Gammas."""
    gen = stream.generator()
    num = gen.standard_gamma(params.a, size)
    den = gen.standard_gamma(params.b, size)
    return num / den


def surrogate_gain_sample(stream: RngStream, mu, m_effective: int, L: int,
                          size: int) -> np.ndarray:
    """Correlated desired-gain surrogate U_k = mu_k^2 S_c + S_k, (size,
    len(mu)).

    One shared S_c ~ Gamma(M_eff, 1) per realization, independent
    S_k ~ Gamma(L, 1) per port.
    """
    mu = np.asarray(mu, dtype=float)
    if np.any(np.abs(mu) > 1.0 + 1e-12):
        raise ValueError("|mu| entries must be <= 1")
    # The shapes are those of the Beta-prime(M_eff, L) SIR law: integers >= 1.
    BetaPrimeParams(m_effective, L)
    gen = stream.generator()
    common = gen.standard_gamma(m_effective, size)
    local = gen.standard_gamma(L, size * len(mu)).reshape(size, len(mu))
    return (mu**2)[None, :] * common[:, None] + local


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


def ks_distance(values, analytic_cdf) -> float:
    """Max over the grid of |F_hat - F|: an empirical CDF's values against
    the analytic CDF's values on the same grid."""
    values = np.asarray(values, dtype=float)
    analytic = np.asarray(analytic_cdf, dtype=float)
    if analytic.shape != values.shape:
        raise ValueError("analytic CDF values must match the grid")
    return float(np.max(np.abs(values - analytic)))


# ---------------------------------------------------------------------------
# Chunk kernels (top-level functions so process pools can pickle them)


def _cgauss(gen: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """sqrt(2) CN(0, 1) entries: unscaled (re, im) standard-normal pairs
    viewed as complex in place; callers fold sqrt(1/2) into their scales."""
    return gen.standard_normal(shape + (2,)).view(np.complex128)[..., 0]


def _reference_factor(gen, n: int, M: int, U: int, beta) -> np.ndarray:
    """Draw the triangular factor R (n, r, U), r = min(M, U), of reference
    channels H = QR, without drawing H or Q.

    For i.i.d. CN(0, 1) columns the factor with a positive diagonal has
    independent entries (the complex Bartlett decomposition; Goodman, Ann.
    Math. Stat. 1963): |R_ii|^2 ~ Gamma(M - i, 1) on the diagonal, CN(0, 1)
    above it and 0 below.  Column u is then scaled by sqrt(beta_u).  R is
    the (n, r, U) view of batch-last (r, U, n) memory, and every draw lands
    there in that order: the diagonal Gammas one row at a time, (n,) each,
    then the entries above the diagonal as one block, (n,) per entry, whose
    row blocks are R[i, i+1:], scaled by sqrt(beta / 2) (see _cgauss).
    """
    r = min(M, U)
    root_beta = np.sqrt(np.asarray(beta, dtype=float))
    R = np.zeros((r, U, n), dtype=complex)
    for i in range(r):
        R[i, i] = np.sqrt(gen.standard_gamma(M - i, n)) * root_beta[i]
    upper = _cgauss(gen, (r * U - r * (r + 1) // 2, n))
    scale = root_beta[:, None] * math.sqrt(0.5)
    start = 0
    for i in range(r):
        block = slice(start, start + U - i - 1)
        np.multiply(upper[block], scale[i + 1:], out=R[i, i + 1:])
        start = block.stop
    return R.transpose(2, 0, 1)


def _lower_inverse(chol: np.ndarray) -> np.ndarray:
    """Inverses X = L^{-1} of lower-triangular matrices L (n, U, U), the
    diagonal possibly complex, by right-looking forward substitution over
    the whole batch.  Row k of X is finished by scaling with 1 / L_kk:
    X_kk = 1 / L_kk, and X_kj (j < k) is the sum it has collected times
    1 / L_kk.  Its contribution is then pushed into every later row at
    once, X_i,:k+1 -= L_ik X_k,:k+1 for i > k: one broadcast multiply into
    a reused buffer and one in-place subtraction.

    The work is batch-last: each entry is an (n,) vector, contiguous when
    L is the view of (U, U, n) memory (as the frame factor's R^T is), and
    no zero above either diagonal is read or written.  X is returned as
    the (n, U, U) view of a (U, U, n) array.
    """
    L = chol.transpose(1, 2, 0)
    U, n = L.shape[1:]
    inv = np.zeros(L.shape, dtype=complex)
    # Row k's update is a (U - k - 1, k + 1) block of (n,) vectors.
    buf = np.empty(max((U - k - 1) * (k + 1) for k in range(U)) * n, dtype=complex)
    for k in range(U):
        recip = inv[k, k]
        np.divide(1.0, L[k, k], out=recip)
        inv[k, :k] *= recip
        if k + 1 < U:
            block = buf[:(U - k - 1) * (k + 1) * n].reshape(U - k - 1, k + 1, n)
            np.multiply(L[k + 1:, k, None], inv[k, None, :k + 1], out=block)
            inv[k + 1:, :k + 1] -= block
    return inv.transpose(2, 0, 1)


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
    norms: no Gram is formed or factored.  Every pass runs row by row over
    the nonzero triangles only, on the interleaved (re, im) floats of the
    batch-last rows: the squared column norms of X = R^{-T} over its lower
    triangle, ||R||_F^2 over R's upper triangle, and the conjugation and
    normalisation of X in place, re * s and im * (-s).  The beams are the
    (n, U, U) view of batch-last memory, as R is.
    """
    n, _, U = R.shape
    # A singular R (a zero on its diagonal) makes inf or nan below; its
    # condition product then fails the test like any other bad row.
    with np.errstate(divide="ignore", invalid="ignore"):
        # R^{-T} is the conjugate of the raw beams R^{-H} and has their norms.
        inv = _lower_inverse(np.swapaxes(R, 1, 2))
        X = inv.transpose(1, 2, 0)
        Xf = X.view(float).reshape(U, U, n, 2)
        # Batch-last already unless R holds redrawn rows, R[rows].
        Rf = np.ascontiguousarray(R.transpose(1, 2, 0)).view(float).reshape(U, U, n, 2)
        # (re^2, im^2) pairs summed per column: X's rows i, columns :i+1,
        # and R's rows i, columns i:.
        sq = np.empty((U, n, 2))
        col_sq = np.zeros((U, n, 2))
        r_sq = np.zeros((U, n, 2))
        for i in range(U):
            np.multiply(Xf[i, :i + 1], Xf[i, :i + 1], out=sq[:i + 1])
            col_sq[:i + 1] += sq[:i + 1]
            np.multiply(Rf[i, i:], Rf[i, i:], out=sq[:U - i])
            r_sq[i:] += sq[:U - i]
        col_sq = col_sq[..., 0] + col_sq[..., 1]
        r_sq = r_sq.sum(axis=0)
        cond = (r_sq[:, 0] + r_sq[:, 1]) * col_sq.sum(axis=0)
        scale = np.empty((U, n, 2))
        np.divide(1.0, np.sqrt(col_sq), out=scale[..., 0])
        np.negative(scale[..., 0], out=scale[..., 1])
        for i in range(U):
            Xf[i, :i + 1] *= scale[:i + 1]
    return inv, ~(cond <= 1.0 / _GRAM_TOLERANCE)


def _zf_weights(gen, R: np.ndarray, redraw) -> tuple[np.ndarray, int, np.ndarray]:
    """Unit-norm ZF beams of the frame factor R (n, U, U) (_frame_zf_beams)
    with discard-and-resample on ill-conditioned Grams.

    redraw(gen, count) is R's sampler: failing rows are redrawn from it
    into a copy, so a redrawn row keeps its R form and the caller's array
    is left alone.  The redraws come from a child spawned off gen, once and
    only when a row fails, so the precoder never advances gen itself.
    Returns (F, resampled, R); the beams pair with the returned R.
    """
    F, bad = _frame_zf_beams(R)
    rows = np.flatnonzero(bad)
    resampled = 0
    if len(rows):
        gen = gen.spawn(1)[0]
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
                beta0: float, powers, mus) -> list[np.ndarray]:
    """User-0 SIR X_k = P_0 |z_k^H f_0|^2 / sum_{i>=1} P_i |z_k^H f_i|^2 at
    every port, (n, P), for each aperture's mu vector in `mus` (all of one
    port count P), in the frame Q of the reference channels H = QR.

    r0 = Q^H h_{0,1} (n, r) is user 0's column of R, zero below R_00, g
    (P-1, r, n) the innovations of ports 2..P as _draw_frame draws them,
    and F = Q^H W (n, r, U) the beams that `scheme` builds from R.  g_k is
    read as sqrt(2) conj(Q^H x_k): the frame innovation Q^H x_k ~ CN(0, I_r)
    is circularly symmetric and independent of R, so conj(g_k) / sqrt(2)
    has its law, and no pass conjugates or scales g.  Port k is
    z_k = Q^H h_{0,k} = mu_k r0 + sigma_k conj(g_k) with sigma_k =
    sqrt((1 - mu_k^2) beta0 / 2), so z_k = w_k e_0 + sigma_k conj(0, g_k1,
    ..., g_k,r-1) with w_k = mu_k R_00 + sigma_k conj(g_k0), and

        z_k^H f_u = conj(w_k) F_0u + sigma_k s_ku,
        s_ku = sum_{j>=1} g_kj F_ju.

    The projections s_ku do not depend on the aperture, so each is summed
    once for all of `mus`, entry by entry over F's nonzero triangle only:
    rows j <= u under MRT, where F = R D^{-1} is upper-triangular, and rows
    j >= u under ZF, where F = R^{-H} D^{-1} is lower-triangular.  An
    aperture adds only its row conj(w_k) and its scalars sigma_k.  Under
    ZF, F_0u = 0 for u >= 1, so user u's interference at port k is
    sigma_k^2 |s_ku|^2 and the weighted sum over u >= 1 is shared too.  The
    reference port's projections are R_00 F_0u, aperture-invariant.

    The work runs one beam u at a time on (P-1, n) arrays, batch-last, and
    makes no BLAS call.  No temporary spans all beams: glibc hands freed
    chunk-sized arrays back to the OS, and every chunk would fault them in
    again.  The SIRs of one mu vector do not depend on the others in
    `mus`: they are the same, bit for bit, as a call with that vector
    alone.
    """
    n, r = r0.shape
    U = F.shape[2]
    ports = g.shape[0]
    powers = np.asarray(powers, dtype=float)
    zf = scheme == "ZF"
    F = F.transpose(1, 2, 0)
    r00c = r0[:, 0].conj()
    # One (P-1, n) view per frame coordinate j, each row contiguous.
    rows = [g[:, j] for j in range(r)]
    sigmas, rows0 = [], []
    for mu in mus:
        mu = np.asarray(mu, dtype=float)[1:, None]
        sigma = np.sqrt(np.maximum(0.0, 1.0 - mu**2)) * math.sqrt(beta0 / 2.0)
        row0 = sigma * rows[0]
        row0 += mu * r00c
        sigmas.append(sigma)
        rows0.append(row0)
    sirs = np.empty((len(mus), ports + 1, n))
    interference = np.zeros((len(mus), ports, n))
    shared = np.zeros((ports, n))
    ref_inter = np.zeros(n)
    s, term, proj = (np.empty((ports, n), dtype=complex) for _ in range(3))
    gain, square = np.empty((ports, n)), np.empty((ports, n))
    for u in range(U):
        js = range(max(u, 1), r) if zf else range(1, min(u + 1, r))
        if len(js):
            np.multiply(F[js[0], u], rows[js[0]], out=s)
            for j in js[1:]:
                s += np.multiply(F[j, u], rows[j], out=term)
        if zf and u:
            # F_0u = 0: the interference is sigma_k^2 |s_ku|^2.
            np.square(s.real, out=gain)
            gain += np.square(s.imag, out=square)
            gain *= powers[u]
            shared += gain
            continue
        ref_u = F[0, u] * r00c
        ref_u = np.square(ref_u.real) + np.square(ref_u.imag)
        if u:
            ref_inter += powers[u] * ref_u
        else:
            ref_desired = ref_u
        for k, (sigma, row0) in enumerate(zip(sigmas, rows0)):
            np.multiply(F[0, u], row0, out=proj)
            if len(js):
                proj += np.multiply(s, sigma, out=term)
            # The desired gains wait in the SIR rows until the end.
            out = sirs[k, 1:] if u == 0 else gain
            np.square(proj.real, out=out)
            out += np.square(proj.imag, out=square)
            if u:
                out *= powers[u]
                interference[k] += out
    ref_sir = _sir(powers[0] * ref_desired, ref_inter)
    for x, sigma, inter in zip(sirs, sigmas, interference):
        x[0] = ref_sir
        if zf:
            inter += sigma**2 * shared
        x[1:] = _sir(powers[0] * x[1:], inter)
    return [x.T for x in sirs]


def _draw_frame(gen, n: int, M: int, U: int, schemes: tuple[str, ...], beta,
                ports: int):
    """Everything of a port chunk that the aperture does not change: R (see
    _reference_factor), the innovations g = _cgauss(gen, (ports-1, r, n))
    of ports 2..ports, port-major, read as sqrt(2) conj(Q^H x_k)
    (_frame_sirs), and the beams F = Q^H W that each MRT/ZF rule of
    `schemes` (distinct) builds from R.  Returns (g, frames), frames one
    (F, resampled, R) per scheme, in order (_weights_for_scheme).

    Draw order: R (diagonal Gammas, then the entries above the diagonal),
    then g.  The beams draw nothing from gen: ZF redraws come from a child
    of it (_zf_weights).  So a smaller port count p reads g[:p-1], exactly
    what a draw of that size returns (standard_normal fills its output in
    order), and each scheme sees the draws of a frame of its own.
    """
    R = _reference_factor(gen, n, M, U, beta)
    g = _cgauss(gen, (ports - 1, R.shape[1], n))
    redraw = partial(_reference_factor, M=M, U=U, beta=beta)
    return g, [_weights_for_scheme(gen, R, scheme, redraw) for scheme in schemes]


def _chunk_ports_sir(stream: RngStream, n: int, M: int, U: int, scheme: str,
                     beta, powers, mu):
    """User-0 SIR at every geometry port: (n, P) array plus resample count.

    The SIRs depend on the channels only through their projections onto
    the U beams, so the kernel works in the orthonormal frame Q of the
    reference channels H = QR (see _draw_frame).  Nothing is
    M-dimensional, so the work does not grow with M.
    """
    g, [(F, resampled, R)] = _draw_frame(stream.generator(), n, M, U,
                                         (scheme,), beta, len(mu))
    beta0 = float(np.asarray(beta)[0])
    return _frame_sirs(R[:, :, 0], g, F, scheme, beta0, powers, [mu])[0], resampled


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

    Draw order: R, then g (MRT) or the L exponentials (ZF); any ZF redraws
    of R come from a child of gen (_zf_weights).
    """
    # MRT takes one frame innovation g for the independent channel, ZF none.
    g, [(F, resampled, R)] = _draw_frame(gen, n, M, U, (scheme,), beta,
                                         2 if scheme == "MRT" else 1)
    beta0 = float(np.asarray(beta)[0])
    powers = np.asarray(powers, dtype=float)
    desired = np.abs(R[:, 0, 0] * F[:, 0, 0]) ** 2
    if scheme == "MRT":
        # g[0] reads as sqrt(2) conj(Q^H x): the scale is sqrt(beta0 / 2).
        proj = np.einsum("rn,nru->nu", g[0], F[:, :, 1:])
        terms = np.abs(math.sqrt(beta0 / 2.0) * proj) ** 2
    else:
        terms = beta0 * gen.standard_exponential((n, U - 1))
    return _sir(powers[0] * desired, (terms * powers[1:]).sum(axis=1)), resampled


def _chunk_physref(stream: RngStream, n: int, M: int, U: int, scheme: str,
                   beta, powers, grid):
    """Binned reference-port SIRs of one chunk (_physref_sirs): (counts,
    infinite count, resample count)."""
    x, resampled = _physref_sirs(stream.generator(), n, M, U, scheme, beta, powers)
    inf_count = int(np.count_nonzero(~np.isfinite(x)))
    return bin_samples(np.asarray(grid), x), inf_count, resampled


def _chunk_outage_physical(
    stream, n, M, U, schemes, beta, powers, mus, curves, grid
):
    """Selection outage counts of one chunk for every curve of a frame
    group: ((C, grid) counts and (C,) infinite counts, one per curve, and
    (K,) resample counts, one per config) for the K configs' schemes
    `schemes` and mu vectors `mus`.  Curve c of `curves` is a pair (k,
    ports): the largest SIR of config k over the port indices `ports`, so a
    config's selectable set gives its selection curve and a singleton (j,)
    the CDF of port j alone.  This is the one place where a physical SIR is
    selected and binned.

    R depends on neither the scheme, N nor W, so one frame draw
    (_draw_frame) serves the group: R, one innovation block for the
    group's largest port count, whose first p-1 ports are a count p's
    innovations, and each scheme's beams.  So every config sees
    exactly the draws of a chunk of its own.  The SIRs of one (scheme,
    port count) come from one _frame_sirs call, which shares the
    aperture-invariant projections; selection and binning run once per
    curve, and adding curves changes no other curve's counts.
    """
    unique = tuple(dict.fromkeys(schemes))
    g, frames = _draw_frame(stream.generator(), n, M, U, unique, beta,
                            max(len(mu) for mu in mus))
    beta0 = float(np.asarray(beta)[0])
    grid = np.asarray(grid)
    counts = np.empty((len(curves), len(grid)), dtype=np.int64)
    inf_counts = np.empty(len(curves), dtype=np.int64)
    resampled = np.empty(len(mus), dtype=np.int64)
    for scheme, (F, count, R) in zip(unique, frames):
        ks = [k for k, s in enumerate(schemes) if s == scheme]
        resampled[ks] = count
        for ports in dict.fromkeys(len(mus[k]) for k in ks):
            same = [k for k in ks if len(mus[k]) == ports]
            sirs = _frame_sirs(R[:, :, 0], g[:ports - 1], F, scheme, beta0,
                               powers, [mus[k] for k in same])
            for k, x in zip(same, sirs):
                for c, (config, sel_idx) in enumerate(curves):
                    if config != k:
                        continue
                    # x is the (n, P) view of (P, n) memory: select whole rows.
                    sel = x.T[np.asarray(sel_idx, dtype=int)]
                    inf_counts[c] = np.count_nonzero(~np.isfinite(sel))
                    # Outage counts: INFINITE selections are never in outage
                    # and naturally land beyond the grid.
                    counts[c] = bin_samples(grid, sel.max(axis=0))
    return counts, inf_counts, resampled


def _chunk_outage_iid(stream, n, a, b, N, grid):
    """Counts of the largest of N independent Beta-prime(a, b) draws per
    realization at or below each grid threshold: (counts, 0, 0).  N = 1
    bins the marginal law itself."""
    x = marginal_model_sample(stream, BetaPrimeParams(a, b), size=n * N)
    return bin_samples(np.asarray(grid), _strided_max(x, N)), 0, 0


def _strided_max(x: np.ndarray, N: int) -> np.ndarray:
    """x.reshape(-1, N).max(axis=1), as a running maximum over the N strided
    columns x[k::N]: numpy's reduction over a short last axis is slow, and
    max is exact, so the result is the same bit for bit."""
    best = x[::N]
    for k in range(1, N):
        best = np.maximum(best, x[k::N])
    return best


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


def ProcessPoolExecutor(max_workers: int):
    """A concurrent.futures process pool.  The module and multiprocessing
    behind it are imported on the first call, so a run that starts no pool
    never loads them.  _run_chunked and cli.run_sweep look this name up
    when they start their pool."""
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(max_workers=max_workers)


def _exec_task(task):
    fn, seed, stream_id, n, args = task
    return fn(RngStream(seed, stream_id), n, *args)


def _run_chunked(jobs, total: int, seed: int, workers: int,
                 chunk_size: int = CHUNK_SIZE) -> list[list]:
    """Run each job (fn, args, stream_base) of `jobs` as fn(stream, n, *args)
    over the fixed chunks of `total` realizations; one list of results per
    job, in chunk order.  Every job's chunks share one pool.

    Chunk i of a job draws from stream stream_base + i, so a run needing
    more than _STREAM_SPAN chunks would reach into the next namespace's
    streams; it is refused before anything is drawn.
    """
    chunks = -(-total // chunk_size)
    if chunks > _STREAM_SPAN:
        raise ValueError(
            f"realizations={total} need {chunks} chunks of {chunk_size}, more "
            f"than the {_STREAM_SPAN} streams of one namespace")
    tasks = [
        (fn, seed, stream_base + idx, n, args)
        for fn, args, stream_base in jobs
        for idx, n in _iter_chunks(total, chunk_size)
    ]
    if workers <= 1 or len(tasks) <= 1:
        results = [_exec_task(t) for t in tasks]
    else:
        # Tasks go to the workers in batches: each pickles the args, grid
        # included.
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_exec_task, tasks,
                                    chunksize=max(1, len(tasks) // (4 * workers))))
    return [results[i * chunks:(i + 1) * chunks] for i in range(len(jobs))]


def _merge_counts(results) -> tuple[np.ndarray, int, int]:
    counts = sum(r[0] for r in results)
    inf_count = sum(r[1] for r in results)
    resampled = sum(r[2] for r in results)
    return counts, inf_count, resampled


# ---------------------------------------------------------------------------
# Experiments


def _checked_thresholds(grid) -> np.ndarray:
    """grid as an array, refused unless every threshold is finite and
    >= 0, before anything is drawn."""
    grid = np.asarray(grid)
    bad = grid[~(np.isfinite(grid) & (grid >= 0.0))]
    if bad.size:
        raise ValueError(
            f"gamma grid thresholds must be finite and >= 0, got {bad.tolist()}")
    return grid


def _sample_size(realizations: int | None, config: SystemConfig,
                 default: int) -> int:
    """The realization count of a run: `realizations`, else the config's,
    else `default`; refused below 1 before any chunk runs."""
    if realizations is None:
        realizations = config.realizations or default
    if realizations < 1:
        raise ValueError(f"realizations must be >= 1, got {realizations}")
    return realizations


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
    # An unsorted grid is fine: binning searches the sorted samples.
    grid = _checked_thresholds(
        DEFAULT_GAMMA_GRID if gamma_grid is None else gamma_grid)
    params = betaprime_params(config.scheme, config.M, config.U)
    n = _sample_size(realizations, config,
                     DEFAULT_MARGINAL_REALIZATIONS if mode == "marginal"
                     else DEFAULT_PHYSICAL_REALIZATIONS)
    workers = resolve_workers(workers)
    if mode == "marginal":
        job = (_chunk_outage_iid, (params.a, params.b, 1, grid), _BASE_CDF)
    else:
        job = (_chunk_physref,
               (config.M, config.U, config.scheme, config.beta, config.powers, grid),
               _BASE_CDF_PHYSICAL)
    [results] = _run_chunked([job], n, config.seed, workers)
    counts, inf_count, resampled = _merge_counts(results)
    p = counts / n
    analytic = np.array([betaprime_cdf(g, params) for g in grid])
    return CdfExperimentResult(
        scheme=config.scheme,
        mode=mode,
        params=params,
        gamma_grid=grid,
        curves={"analytic_cdf": (analytic, None),
                f"empirical_{mode}": (p, wilson_half_width(p, n))},
        ks=ks_distance(p, analytic),
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
    """Monte-Carlo estimate of P(X > gamma) under the exact marginal law:
    the share of single-port draws (_chunk_outage_iid, N = 1) above
    gamma.  A non-finite or negative gamma, or fewer than one
    realization, is refused before any chunk runs."""
    grid = _checked_thresholds([float(gamma)])
    n = _sample_size(realizations, config, DEFAULT_MARGINAL_REALIZATIONS)
    params = betaprime_params(config.scheme, config.M, config.U)
    workers = resolve_workers(workers)
    [results] = _run_chunked(
        [(_chunk_outage_iid, (params.a, params.b, 1, grid), _BASE_TAIL)],
        n, config.seed, workers,
    )
    return (n - int(_merge_counts(results)[0][0])) / n


def _check_correlation_config(config: SystemConfig) -> None:
    """Refuse by name, before anything is drawn, a correlation run whose
    Pearson coefficients are undefined.  Beta-prime(a, b) has a finite
    variance only for b > 2, so the SIR with L = U - 1 interferers has one
    only for U >= 4.  A port with mu_k = 1 (W = 0, or J0 rounding to 1) is
    the reference location, whose interference ZF nulls: its SIR is
    infinite in every realization, so every row would be dropped."""
    if config.N < 3:
        raise ValueError(f"correlation experiment needs N >= 3 ports, got "
                         f"N={config.N}: it is estimated over port pairs off "
                         "the reference")
    if config.U <= 3:
        raise ValueError(
            f"correlation experiment needs U >= 4: with U={config.U} there are "
            f"L={config.L} <= 2 interferers, the SIR has infinite variance and "
            "its Pearson coefficient is undefined")
    if config.scheme == "ZF" and np.any(geometry_for_config(config).mu[1:] == 1.0):
        raise ValueError(
            "correlation experiment under ZF needs every port off the reference "
            f"location, but at W={config.W:g} some have mu_k = 1, so their SIRs "
            "are infinite")


def run_correlation_experiment(
    config: SystemConfig,
    realizations: int | None = None,
    workers: int | None = None,
) -> CorrelationExperimentResult:
    """Pairwise SIR correlation across ports with the analytic overlay.

    Estimation always excludes the reference location (under ZF its SIR is
    unbounded; under MRT the analytic approximation targets cross-port
    pairs), so member mode estimates over ports 2..N and external mode over
    the N selectable ports.  N < 3, U <= 3 (the SIR then has infinite
    variance) and a ZF port at the reference location are refused
    (_check_correlation_config).  Each chunk contributes centred moments,
    merged in chunk order by _merge_moments.
    """
    _check_correlation_config(config)
    mode = config.resolved_reference_mode()
    geometry = geometry_for_config(config)
    est_idx = np.arange(1, geometry.num_ports)
    n = _sample_size(realizations, config, DEFAULT_PHYSICAL_REALIZATIONS)
    workers = resolve_workers(workers)
    [results] = _run_chunked(
        [(_chunk_corr_moments,
          (config.M, config.U, config.scheme, config.beta, config.powers,
           tuple(geometry.mu), tuple(est_idx)),
          _BASE_CORRELATION)],
        n, config.seed, workers,
    )
    _, m2, used = _merge_moments((r[0], r[1], r[2]) for r in results)
    dropped = sum(r[3] for r in results)
    resampled = sum(r[4] for r in results)
    if used < 2:
        raise ValueError("not enough finite realizations for correlation")
    sd = np.sqrt(np.diag(m2))
    matrix = m2 / np.outer(sd, sd)
    np.fill_diagonal(matrix, 1.0)
    meff = betaprime_params(config.scheme, config.M, config.U).a
    mu = geometry.mu[est_idx]
    overlay = np.array([[rho_x_approx(a, b, meff, config.L) for b in mu] for a in mu])
    np.fill_diagonal(overlay, 1.0)
    off = ~np.eye(len(mu), dtype=bool)
    deviations = np.abs(matrix - overlay)
    return CorrelationExperimentResult(
        scheme=config.scheme,
        reference_mode=mode,
        ports=est_idx + 1,
        matrix=matrix,
        overlay=overlay,
        deviations=deviations,
        max_abs_deviation=float(deviations[off].max()),
        realizations=n,
        n_used=used,
        n_dropped=dropped,
        resampled_count=resampled,
    )


def _outage_physical_args(configs: list[SystemConfig], curves, grid) -> tuple:
    """The arguments of _chunk_outage_physical after (stream, n) for a frame
    group `configs` (one (M, U), as run_outage_group checks) and its
    `curves`, (config index, port indices) pairs."""
    first = configs[0]
    return (first.M, first.U, tuple(cfg.scheme for cfg in configs), first.beta,
            first.powers, tuple(tuple(geometry_for_config(cfg).mu) for cfg in configs),
            tuple(curves), grid)


def run_outage_group(
    configs: list[SystemConfig],
    realizations: int | None = None,
    workers: int | None = None,
    *,
    per_port: bool = False,
) -> list[OutageExperimentResult]:
    """Outage experiments of configs that differ only in the scheme, the
    port count N and the aperture W (a frame group, one (M, U)), from one
    frame draw per chunk: one result per config, in order, each equal to
    the config's own run_outage_experiment, on DEFAULT_GAMMA_GRID.

    Each chunk draws one frame for the whole group (_chunk_outage_physical),
    so each config reads exactly the stream it would use alone.  W enters
    only through mu_k = J0(2 pi d_k) in the SIRs.  The reference mode, and
    with it the port count and the selectable ports, is resolved per
    config: unset, it is member under MRT and external under ZF.  The
    i.i.d. benchmark and the analytic envelope depend only on the
    Beta-prime shapes (a, b) and the selectable port count, so they run
    once per distinct (a, b, count), and the envelope's F and SF once per
    (a, b) (outage_envelopes).  Configs that differ in any other field are
    refused, by the field's name.

    This is the one place that decides the curves of a result's map:
    empirical_correlated (the physical selection), empirical_iid (the
    largest of N i.i.d. marginal draws) and the analytic upper_bound,
    lower_bound, iid_benchmark, large_n_approx and single_port, the last
    six one object per (a, b, count).  per_port adds a physical job on the
    stream base _BASE_PER_PORT, and to each map port_<k>, the CDF of
    selectable geometry port k (1-based), and port_selection, both binned
    from that job's draws.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("an outage group needs at least one config")
    first = configs[0]
    for cfg in configs[1:]:
        for f in fields(SystemConfig):
            mine, theirs = getattr(first, f.name), getattr(cfg, f.name)
            if f.name not in ("scheme", "N", "W") and mine != theirs:
                raise ValueError(
                    f"configs of one outage group may differ only in scheme, "
                    f"N and W, not in {f.name}: {mine!r} != {theirs!r}")
    grid = DEFAULT_GAMMA_GRID
    sel_idxs = [tuple(selectable_port_indices(cfg)) for cfg in configs]
    keys = [(betaprime_params(cfg.scheme, cfg.M, cfg.U), len(sel))
            for cfg, sel in zip(configs, sel_idxs)]
    n = _sample_size(realizations, first, DEFAULT_PHYSICAL_REALIZATIONS)
    workers = resolve_workers(workers)
    iid_keys = list(dict.fromkeys(keys))
    # One pool runs the physical chunks, the i.i.d. chunks of every
    # (shapes, selectable count) and, on request, the per-port chunks.
    jobs = [(_chunk_outage_physical,
             _outage_physical_args(configs, enumerate(sel_idxs), grid),
             _BASE_OUTAGE_PHYSICAL)]
    jobs += [(_chunk_outage_iid, (params.a, params.b, selectable, grid),
              _BASE_OUTAGE_IID) for params, selectable in iid_keys]
    if per_port:
        # The per-port job's curves, named: every selectable singleton,
        # then each config's selection curve.
        port_curves = [(k, (j,), f"port_{j + 1}")
                       for k, sel in enumerate(sel_idxs) for j in sel]
        port_curves += [(k, sel, "port_selection")
                        for k, sel in enumerate(sel_idxs)]
        jobs.append((_chunk_outage_physical, _outage_physical_args(
            configs, [(k, ports) for k, ports, _ in port_curves], grid),
            _BASE_PER_PORT))
    phys, *runs = _run_chunked(jobs, n, first.seed, workers)
    counts, inf_counts, resampled = _merge_counts(phys)
    # The curves that depend on the shapes and the selectable count alone;
    # F and SF are evaluated once per shape pair.
    by_shapes = {}
    for params, selectable in iid_keys:
        by_shapes.setdefault(params, []).append(selectable)
    envelopes = {}
    for params, selectables in by_shapes.items():
        for selectable, env in zip(selectables, outage_envelopes(
                grid, params, selectables)):
            envelopes[params, selectable] = env
    shared = {}
    for (params, selectable), iid_run in zip(iid_keys, runs):
        p_iid = _merge_counts(iid_run)[0] / n
        env = envelopes[params, selectable]
        shared[params, selectable] = {
            "empirical_iid": (p_iid, wilson_half_width(p_iid, n)),
            "upper_bound": (env.upper, None),
            "lower_bound": (env.lower, None),
            "iid_benchmark": (env.iid_benchmark, None),
            "large_n_approx": (env.large_n_approx, None),
            "single_port": (env.single_port, None),
        }
    results = []
    for k, (cfg, sel_idx) in enumerate(zip(configs, sel_idxs)):
        p_corr = counts[k] / n
        curves = {"empirical_correlated": (p_corr, wilson_half_width(p_corr, n))}
        curves.update(shared[keys[k]])
        results.append(OutageExperimentResult(
            scheme=cfg.scheme, reference_mode=cfg.resolved_reference_mode(),
            gamma_grid=grid, curves=curves, realizations=n,
            selection_ports=np.asarray(sel_idx) + 1,
            infinite_count=int(inf_counts[k]),
            resampled_count=int(resampled[k])))
    if per_port:
        cdfs = _merge_counts(runs[-1])[0] / n
        for cdf, (k, _, name) in zip(cdfs, port_curves):
            results[k].curves[name] = (cdf, wilson_half_width(cdf, n))
    return results


def run_outage_experiment(
    config: SystemConfig,
    realizations: int | None = None,
    workers: int | None = None,
) -> OutageExperimentResult:
    """FAMA outage versus threshold, the curves of run_outage_group's map:
    its one-config case."""
    return run_outage_group([config], realizations, workers)[0]
