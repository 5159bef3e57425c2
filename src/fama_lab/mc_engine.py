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
sqrt(2) of _cgauss (_frame_sirs).  The MRT beams are R's own columns,
unnormalised and in R's memory: the beam w_u = h_u / ||h_u|| enters a SIR
only through |h^H w_u|^2, so its norm becomes a per-realization power
weight P_u / ||r_u||^2, from squared column norms taken once per chunk
(_column_sq_norms).  Every pass touches the nonzero triangle only: R is
upper-triangular, its ZF beams lower-triangular.  The ZF inverse
(_lower_inverse) pushes each finished row into all later rows with one
broadcast block multiply; the ZF beam norms, the condition test and the
normalisation (_frame_zf_beams) run row by row over the triangles; the
port projections (_frame_sirs) are sums of such vectors, entry by entry.
No call is made per realization, and the one BLAS call of a chunk kernel
is the correlation run's centred moment matrix dev.T @ dev
(_chunk_corr_moments: fig3 and criterion 5).

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

Where a frame draw costs at least twice the rows it serves (ZF in external
mode at large U, by a stated cost model: _inner_draws), a config's rows are
nested: each chunk draws R and the beams for ceil(n / K) clusters and K
innovation blocks, K-major (row k C + c reads frame c), so every frame
entry is one (C,) vector that broadcasts over the blocks.  Its curves are
binned as exact integer moment sums per cluster (_bin_clusters), and the
Wilson interval is taken at the clusters' Kish effective size
(_outage_curve), the one half-width of every outage curve: at K = 1 it is
the plain interval, and every K = 1 config keeps its draws.

_chunk_outage_physical is the one place where a physical SIR is selected
and binned.  It bins curves, each the largest SIR of one config over a set
of port indices: an outage run asks for one curve per config, its
selectable set; with per_port (criterion 6) a second job, on streams of
its own, bins each config's selection curve and a singleton set per
selectable port.  Every marginal count (the i.i.d. benchmark, fig2's and
fig5's marginal CDFs, criterion 8's tail) comes from one kernel too,
_chunk_outage_iid, with N = 1 for a single port.  Its draws
(marginal_model_sample) are sums of min(a, b) exponentials, Renyi's
representation of Beta(max(a, b), min(a, b)), up to _RENYI_MAX_TERMS terms
and ratios of two Gammas beyond; neither reads betaprime_cdf, so the
i.i.d. curve stays an independent check of the analytic F^N.  Every
exponential of the lab, these and the fig2 ZF reference's interference
terms, is one inverted uniform -log(1 - U) from a vectorised log
(_exponentials).
The i.i.d. benchmark runs once per (shapes, selectable count); its chunk
takes the largest of each realization's N draws as a running maximum over
strided columns (_strided_max).  On the exponential sum it takes that
maximum, or the minimum when the draw is a reciprocal, on the sums
themselves and transforms only the n winners: the transform is monotone,
so the counts are the same bit for bit.  The analytic envelope evaluates
F and SF once per shape pair and derives every selectable count's bounds
from them (outage_envelopes).  One pool (_run_chunked) serves the
physical and every i.i.d. job.  The pool machinery, concurrent.futures with
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
from .channel_geom import (
    SystemConfig,
    _is_integer,
    geometry_for_config,
    selectable_port_indices,
)
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


# Largest min(a, b) that marginal_model_sample draws as a sum of that many
# exponentials rather than a ratio of two Gammas: their cost parity, as
# scripts/sampler_cost.py measures it.  On a 2-core Xeon VM with numpy 2.4,
# with exponentials inverted from uniforms, the sum costs 0.27-0.28x the
# Gamma ratio at 1 term, 0.97-0.98x at 8 and 1.08-1.11x at 9 (medians of
# 15 repeats, two runs).
_RENYI_MAX_TERMS = 8

# Nested frame draws (_inner_draws): a nested config draws R and its beams
# once per cluster of _NESTED_INNER rows, each row with port innovations of
# its own.  The rule reads a cost model of one CHUNK_SIZE-row ZF chunk in
# external mode, in ms: a frame draw (R and the beams) costs
# c_R = _FRAME_MS . (U, U^2, U^3), the rows it serves (innovations, SIRs,
# select and bin) c_in = _ROWS_MS . ((P-1) U, (P-1) U^2, U, 1) at P ports.
# Least squares on scripts/chunk_stages.py --inner 1 over U = 2, 3, 4, 5,
# 6, 8, 12, 16 and N = P - 1 = 1, 2, 4, 8 (2-core Xeon VM, numpy 2.4, the
# fastest of 3 runs of 25 chunks each) fits every c_R within 7% and c_in
# within 16%.  Measured c_R / c_in (model): 1.79 (1.78) at U = 4, N = 1;
# 1.19 (1.12) at U = 4, N = 2; 1.73 (1.58) at U = 6, N = 2; 2.22 (2.09) at
# U = 8, N = 2; 1.16 (1.14) at U = 8, N = 4; 2.66 (2.44) at U = 16, N = 4.
# At K = 4 a row then costs c_R / 4 + c_in against c_R + c_in, and the
# design effect 1 + 3 rho was at most 1.5 where measured (rho the share of
# the outage variance that R carries, 0.17 at P_out 0.5 at U = 8).  A frame
# that costs at least _NEST_MIN_RATIO times its rows keeps a precision
# gain of at least (2 + 1) / (2 / 4 + 1) / 1.5 = 1.33x even there; a
# cheaper frame is not worth a stream of its own (at U = 4, N = 2 the gain
# would be 1.13x at that design effect).  The model and the measurements
# agree on every (U, N) above, and no config with U <= 4 is nested.  K = 8
# read a design effect of 2.2 at P_out 0.5 against 1.5 at K = 4, so the
# smaller K is taken.
_NESTED_INNER = 4
_FRAME_MS = (0.107, 0.0131, 0.00262)
_ROWS_MS = (0.0565, 0.00246, 0.0117, 0.139)
_NEST_MIN_RATIO = 2.0

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
# The outage and per-port jobs of nested configs (_inner_draws > 1).
_BASE_OUTAGE_NESTED = 7 * _STREAM_SPAN
_BASE_PER_PORT_NESTED = 8 * _STREAM_SPAN


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: FAMA_LAB_WORKERS caps explicit requests and supplies
    the count when none is given (default 1).  A request, and the
    variable's value, is refused by name unless an integer >= 1, by
    SystemConfig's rule (an integral float is its int)."""
    cap = os.environ.get("FAMA_LAB_WORKERS")
    try:
        cap_n = int(cap) if cap else None
    except ValueError:
        raise ValueError(
            f"FAMA_LAB_WORKERS must be an integer, got {cap!r}") from None
    if cap_n is not None and cap_n < 1:
        raise ValueError(f"FAMA_LAB_WORKERS must be >= 1, got {cap!r}")
    if workers is None:
        return cap_n or 1
    if not _is_integer(workers):
        raise ValueError(f"workers must be an integer, got {workers!r}")
    requested = int(workers)
    if requested < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    return min(requested, cap_n) if cap_n else requested


def wilson_half_width(p, n):
    """Half-length of the Wilson score interval for a binomial proportion.

    z / (1 + z^2/n) * sqrt(p (1 - p) / n + z^2 / (4 n^2)) for the observed
    proportion p of n trials; n may be an array of (effective) sizes, one
    per p (_outage_curve).  Unlike the Wald half-width z sqrt(p (1-p) / n)
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
    interval of an empirical curve, None for an analytic one.
    run_outage_group decides the curves.

    realizations counts rows.  With inner_draws K > 1 (_inner_draws) the
    physical rows come in clusters of K that share one channel draw, R
    and its beams, so they came from ceil(rows / K) per chunk channel
    draws, and the physical curves' Wilson interval is taken at the
    clusters' Kish effective size, between the cluster and the row count
    (_outage_curve).  At K = 1 that size is the row count.
    """

    scheme: str
    reference_mode: str
    gamma_grid: np.ndarray
    curves: dict
    realizations: int
    selection_ports: np.ndarray = field(default_factory=lambda: np.array([]))
    infinite_count: int = 0
    resampled_count: int = 0
    inner_draws: int = 1

    # The benchmark's outage workload reads these four; they stay until it
    # reads the map (ROADMAP item 1).
    correlated = property(lambda self: self.curves["empirical_correlated"][0])
    correlated_ci = property(lambda self: self.curves["empirical_correlated"][1])
    iid = property(lambda self: self.curves["empirical_iid"][0])
    iid_ci = property(lambda self: self.curves["empirical_iid"][1])


# ---------------------------------------------------------------------------
# Samplers and estimators


def _exponentials(gen: np.random.Generator, shape) -> np.ndarray:
    """Exp(1) draws of `shape` by inversion, 0 - log(1 - U) from gen.random
    (Devroye 1986, ch. II): 1 - U is exact in float64 and never 0, and the
    log runs as one vectorised ufunc over the whole block, cheaper than
    numpy's ziggurat standard_exponential.  0 - rather than unary minus
    keeps the draw of U = 0 at +0."""
    e = gen.random(shape)
    np.subtract(1.0, e, out=e)
    np.log(e, out=e)
    return np.subtract(0.0, e, out=e)


def _renyi_sum(gen, k: int, m: int, size: int) -> np.ndarray:
    """T = sum_{i<k} E_i / (m + i), (size,), -log of a Beta(m, k) draw, from
    the k rows of one _exponentials((k, size)) block, added in row order.
    Each row is scaled by the float 1 / (m + i): a multiply costs a third
    of a vectorised divide."""
    e = _exponentials(gen, (k, size))
    t = np.multiply(e[0], 1.0 / m, out=e[0])
    for i in range(1, k):
        t += np.multiply(e[i], 1.0 / (m + i), out=e[i])
    return t


def _from_renyi(t: np.ndarray, a: int, b: int) -> np.ndarray:
    """Beta-prime(a, b) from T (_renyi_sum), in place: expm1(T) for a <= b,
    1 / expm1(T) otherwise.  A T of 0 gives 0, or for a > b an infinite
    value, which is never counted, with no divide warning."""
    np.expm1(t, out=t)
    if a > b:
        with np.errstate(divide="ignore"):
            np.divide(1.0, t, out=t)
    return t


def marginal_model_sample(stream: RngStream, params: BetaPrimeParams,
                          size: int) -> np.ndarray:
    """`size` exact Beta-prime(a, b) samples.

    With k = min(a, b) and m = max(a, b), Beta(m, k) is the product of the
    independent Beta(m + i, 1), i < k, so its -log is T = sum_i E_i / (m + i)
    with E_i ~ Exp(1) (Renyi's representation of uniform order statistics;
    Devroye 1986, ch. IX).  Then expm1(T) ~ Beta-prime(k, m), and
    X ~ Beta-prime(a, b) iff 1/X ~ Beta-prime(b, a), so X is expm1(T) for
    a <= b and 1 / expm1(T) otherwise (_from_renyi).  For
    k <= _RENYI_MAX_TERMS the E_i are the k rows of one (k, size) block of
    inverted uniforms, -log(1 - U) (_exponentials), summed in row order
    (_renyi_sum).  Beyond that, k exponentials cost more than two Gammas,
    and X is the Gamma ratio standard_gamma(a) / standard_gamma(b).
    """
    gen = stream.generator()
    a, b = int(params.a), int(params.b)
    k = min(a, b)
    if k > _RENYI_MAX_TERMS:
        num = gen.standard_gamma(a, size)
        den = gen.standard_gamma(b, size)
        return num / den
    return _from_renyi(_renyi_sum(gen, k, max(a, b), size), a, b)


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
    """Beams F = Q^H W (n, r, U) in the frame Q of the reference channels,
    for their factor H = R (n, r, U) of _reference_factor, whose sampler
    redraw(gen, count) serves the ZF resampling (see _zf_weights).

    The MRT beams are R's own columns, unnormalised: F is H itself, and the
    SIRs weight each beam's power by its squared norm (_column_sq_norms,
    _frame_sirs).  The ZF beams are unit-norm.  Returns (F, resampled, R);
    only ZF resamples, and then R is a new array.
    """
    if scheme == "MRT":
        return H, 0, H
    return _zf_weights(gen, H, redraw)


def _column_sq_norms(R: np.ndarray) -> np.ndarray:
    """Squared column norms ||r_u||^2 (U, n) of the frame factor R (n, r, U).

    Row j of R is zero left of its diagonal, so it adds to the columns
    u >= j only, and each sum runs over R's nonzero triangle, rows
    0..min(u, r-1), on the interleaved (re, im) floats of the batch-last
    rows.
    """
    n, r, U = R.shape
    Rf = np.ascontiguousarray(R.transpose(1, 2, 0)).view(float).reshape(r, U, n, 2)
    sq = np.zeros((U, n, 2))
    part = np.empty((U, n, 2))
    for j in range(r):
        np.multiply(Rf[j, j:], Rf[j, j:], out=part[:U - j])
        sq[j:] += part[:U - j]
    return sq[..., 0] + sq[..., 1]


def _sir(num, den):
    """num / den, or np.inf where the interference den is at the nulling floor."""
    with np.errstate(divide="ignore"):
        return np.where(den > INTERFERENCE_FLOOR, num / den, np.inf)


def _frame_sirs(r0: np.ndarray, g: np.ndarray, F: np.ndarray, scheme: str,
                beta0: float, powers, mus, sq_norms=None) -> list[np.ndarray]:
    """User-0 SIR X_k = P_0 |z_k^H f_0|^2 / sum_{i>=1} P_i |z_k^H f_i|^2 at
    every port, (n, P), for each aperture's mu vector in `mus` (all of one
    port count P), in the frame Q of the reference channels H = QR, for
    unit-norm beams f_u.

    r0 = Q^H h_{0,1} (C, r) is user 0's column of R, zero below R_00, g
    (P-1, r, n) the innovations of ports 2..P as _draw_frame draws them,
    and F = Q^H W (C, r, U) the beams that `scheme` builds from R
    (_weights_for_scheme), for C = n / K frames: row k C + c of the n
    rows reads frame c, so each frame serves K rows (K = 1 unless nested,
    _inner_draws).  Every frame entry is one (C,) vector that broadcasts
    over the K blocks of the innovations, so the SIRs are, bit for bit,
    those of a call with each frame repeated K times.

    Under MRT, F is R itself and f_u = r_u / ||r_u||, so user u's term is
    P_u / ||r_u||^2 |z_k^H r_u|^2: a (C,) power weight from the squared
    norms sq_norms (U, C) (_column_sq_norms, computed here when not
    given), and f_0 = e_0, so the desired gain is |z_k0|^2.  g_k is
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
    rows j <= u under MRT, where F = R is upper-triangular, and rows j >= u
    under ZF, where F = R^{-H} D^{-1} is lower-triangular.  An aperture adds
    only its row conj(w_k) and its scalars sigma_k.  Under ZF, F_0u = 0 for
    u >= 1, so user u's interference at port k is sigma_k^2 |s_ku|^2 and
    the weighted sum over u >= 1 is shared too.  The reference port's
    projections are R_00 F_0u, aperture-invariant, with the same weights.

    The work runs one beam u at a time on (P-1, K, C) arrays, batch-last, and
    makes no BLAS call.  No temporary spans all beams: glibc hands freed
    chunk-sized arrays back to the OS, and every chunk would fault them in
    again.  The SIRs of one mu vector do not depend on the others in
    `mus`: they are the same, bit for bit, as a call with that vector
    alone.
    """
    C, r = r0.shape
    U = F.shape[2]
    ports, _, n = g.shape
    # Nested, (P-1, K, C) blocks; otherwise (P-1, n), one frame per row.
    block = (ports, n // C, C) if n > C else (ports, n)
    powers = np.asarray(powers, dtype=float)
    zf = scheme == "ZF"
    if not zf and sq_norms is None:
        sq_norms = _column_sq_norms(F)
    F = F.transpose(1, 2, 0)
    r00c = r0[:, 0].conj()
    # One block view per frame coordinate j, each row contiguous.
    rows = [g[:, j].reshape(block) for j in range(r)]
    sigmas, rows0 = [], []
    for mu in mus:
        mu = np.asarray(mu, dtype=float)[1:].reshape((-1,) + (1,) * (len(block) - 1))
        sigma = np.sqrt(np.maximum(0.0, 1.0 - mu**2)) * math.sqrt(beta0 / 2.0)
        row0 = sigma * rows[0]
        row0 += mu * r00c
        sigmas.append(sigma)
        rows0.append(row0)
    sirs = np.empty((len(mus), ports + 1) + block[1:])
    interference = np.zeros((len(mus),) + block)
    shared = np.zeros(block)
    ref_inter = np.zeros(C)
    s, term, proj = (np.empty(block, dtype=complex) for _ in range(3))
    gain, square = np.empty(block), np.empty(block)
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
        # MRT's f_0 = e_0: the desired projections are row 0 itself.
        f0u = F[0, u] if zf or u else None
        ref_u = r00c if f0u is None else f0u * r00c
        ref_u = np.square(ref_u.real) + np.square(ref_u.imag)
        if u:
            # Only MRT gets here with u >= 1: beam u is r_u, unnormalised.
            weight = powers[u] / sq_norms[u]
            ref_inter += weight * ref_u
        else:
            ref_desired = ref_u
        for k, (sigma, row0) in enumerate(zip(sigmas, rows0)):
            z = row0
            if f0u is not None:
                z = np.multiply(f0u, row0, out=proj)
                if len(js):
                    z += np.multiply(s, sigma, out=term)
            # The desired gains wait in the SIR rows until the end.
            out = sirs[k, 1:] if u == 0 else gain
            np.square(z.real, out=out)
            out += np.square(z.imag, out=square)
            if u:
                out *= weight
                interference[k] += out
    ref_sir = _sir(powers[0] * ref_desired, ref_inter)
    for x, sigma, inter in zip(sirs, sigmas, interference):
        x[0] = ref_sir
        if zf:
            inter += sigma**2 * shared
        x[1:] = _sir(powers[0] * x[1:], inter)
    return [x.reshape(ports + 1, n).T for x in sirs]


def _draw_frame(gen, n: int, M: int, U: int, schemes: tuple[str, ...], beta,
                ports: int, inner: int = 1):
    """Everything of a port chunk that the aperture does not change: R (see
    _reference_factor) for C = ceil(n / inner) frames, the innovations
    g = _cgauss(gen, (ports-1, r, inner C)) of ports 2..ports, port-major,
    read as sqrt(2) conj(Q^H x_k) (_frame_sirs), and the beams F = Q^H W
    that each MRT/ZF rule of `schemes` (distinct) builds from R: under MRT,
    R itself.  Returns (g, frames), frames one (F, resampled, R) per
    scheme, in order (_weights_for_scheme).  Innovation row k C + c reads
    frame c: `inner` blocks of C rows, each frame serving one row of every
    block; at inner = 1 each of the n rows has a frame of its own.

    Draw order: R (diagonal Gammas, then the entries above the diagonal),
    then g.  The beams draw nothing from gen: ZF redraws come from a child
    of it (_zf_weights).  So a smaller port count p reads g[:p-1], exactly
    what a draw of that size returns (standard_normal fills its output in
    order), and each scheme sees the draws of a frame of its own.
    """
    clusters = -(-n // inner)
    R = _reference_factor(gen, clusters, M, U, beta)
    g = _cgauss(gen, (ports - 1, R.shape[1], inner * clusters))
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
    under MRT that is ||h_{0,1}||^2 = R_00^2, and the MRT beams F = R are
    unnormalised, so each projection term is divided by the beam's squared
    norm (_column_sq_norms).  The interference imposes the
    one independence the Beta-prime law takes when it divides the
    desired-gain law by the interference law:

    - MRT: the co-user beams projected onto an independent channel
      sqrt(beta_0) x, x ~ CN(0, I_M).  The beams W = QF lie in span(Q), so
      the projections have the law of sqrt(beta_0) g^H F with
      g = Q^H x ~ CN(0, I_r).  The cross-beam dependence of the terms stays
      physical, so the KS report measures exactly the residual of that
      independence.  The fully self-consistent reference-port SIR (one
      channel in numerator and denominator, the member-mode column 0 of
      _frame_sirs) is not what the distribution claim describes: its
      ||h_0||^2 cancels, and X_ref = P_0 / sum_u P_u B_u with B_u =
      |R_0u|^2 / ||r_u||^2 i.i.d. Beta(1, M - 1) (the first coordinate of
      an isotropic unit vector), whose law lies 0.087 in sup-distance
      from Beta-prime(8, 3) at M=8, U=4.
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
    if scheme == "MRT":
        desired = R[:, 0, 0].real ** 2
        # g[0] reads as sqrt(2) conj(Q^H x): the scale is sqrt(beta0 / 2).
        proj = np.einsum("rn,nru->nu", g[0], F[:, :, 1:])
        terms = np.abs(math.sqrt(beta0 / 2.0) * proj) ** 2
        terms /= _column_sq_norms(F)[1:].T
    else:
        desired = np.abs(R[:, 0, 0] * F[:, 0, 0]) ** 2
        terms = beta0 * _exponentials(gen, (n, U - 1))
    return _sir(powers[0] * desired, (terms * powers[1:]).sum(axis=1)), resampled


def _chunk_physref(stream: RngStream, n: int, M: int, U: int, scheme: str,
                   beta, powers, grid):
    """Binned reference-port SIRs of one chunk (_physref_sirs): (counts,
    infinite count, resample count)."""
    x, resampled = _physref_sirs(stream.generator(), n, M, U, scheme, beta, powers)
    inf_count = int(np.count_nonzero(~np.isfinite(x)))
    return bin_samples(np.asarray(grid), x), inf_count, resampled


def _chunk_outage_physical(
    stream, n, M, U, schemes, beta, powers, mus, curves, grid, inner=1
):
    """Selection outage moment sums of one chunk for every curve of a frame
    group: ((C, grid) counts and (C,) infinite counts, one per curve, (K,)
    resample counts, one per config, and (C, grid) squares, one per curve)
    for the K configs' schemes `schemes` and mu vectors `mus`.  Curve c of
    `curves` is a pair (k, ports): the largest SIR of config k over the
    port indices `ports`, so a config's selectable set gives its selection
    curve and a singleton (j,) the CDF of port j alone.  This is the one
    place where a physical SIR is selected and binned.

    R depends on neither the scheme, N nor W, so one frame draw
    (_draw_frame) serves the group: R, one innovation block for the
    group's largest port count, whose first p-1 ports are a count p's
    innovations, and each scheme's beams.  So every config sees
    exactly the draws of a chunk of its own.  The SIRs of one (scheme,
    port count) come from one _frame_sirs call, which shares the
    aperture-invariant projections; selection and binning run once per
    curve, and adding curves changes no other curve's counts.

    With inner = K > 1 the n rows are clusters of K that share one frame:
    _draw_frame draws ceil(n / K) frames and K innovation blocks, and a
    curve's counts and squares are sum_c t_c and sum_c t_c^2, t_c(gamma)
    the rows of cluster c in outage at gamma (_bin_clusters).  When K does
    not divide n, the last cluster keeps its first n - (ceil(n / K) - 1) K
    rows; the rest of its block rows are drawn and never counted.  At
    K = 1 each row is its own cluster and the squares are the counts.
    """
    unique = tuple(dict.fromkeys(schemes))
    g, frames = _draw_frame(stream.generator(), n, M, U, unique, beta,
                            max(len(mu) for mu in mus), inner)
    beta0 = float(np.asarray(beta)[0])
    grid = np.asarray(grid)
    clusters = -(-n // inner)
    # Rows k C + C - 1 of the last cluster beyond the chunk's n rows.
    dropped = (np.arange(n - (clusters - 1) * inner, inner) * clusters
               + clusters - 1)
    counts = np.empty((len(curves), len(grid)), dtype=np.int64)
    squares = np.empty_like(counts) if inner > 1 else counts
    inf_counts = np.empty(len(curves), dtype=np.int64)
    resampled = np.empty(len(mus), dtype=np.int64)
    for scheme, (F, count, R) in zip(unique, frames):
        ks = [k for k, s in enumerate(schemes) if s == scheme]
        resampled[ks] = count
        # The MRT beams' squared norms, once for all of its port counts.
        sq_norms = _column_sq_norms(F) if scheme == "MRT" else None
        for ports in dict.fromkeys(len(mus[k]) for k in ks):
            same = [k for k in ks if len(mus[k]) == ports]
            sirs = _frame_sirs(R[:, :, 0], g[:ports - 1], F, scheme, beta0,
                               powers, [mus[k] for k in same], sq_norms)
            for k, x in zip(same, sirs):
                for c, (config, sel_idx) in enumerate(curves):
                    if config != k:
                        continue
                    # x is the (n, P) view of (P, n) memory: select whole rows.
                    sel = x.T[np.asarray(sel_idx, dtype=int)]
                    inf_counts[c] = np.count_nonzero(~np.isfinite(sel))
                    # Outage counts: INFINITE selections are never in outage
                    # and naturally land beyond the grid, as do dropped rows.
                    best = sel.max(axis=0)
                    if inner == 1:
                        # One row per cluster: the squares are the counts.
                        counts[c] = bin_samples(grid, best)
                        continue
                    inf_counts[c] -= np.count_nonzero(~np.isfinite(sel[:, dropped]))
                    best[dropped] = np.inf
                    counts[c], squares[c] = _bin_clusters(
                        grid, best.reshape(inner, clusters))
    return counts, inf_counts, resampled, squares


def _bin_clusters(grid: np.ndarray, values: np.ndarray):
    """(counts, squares) of the clusters values[:, c] of a (K, C) array:
    with t_c(gamma) the values of cluster c at or below gamma, counts =
    sum_c t_c and squares = sum_c t_c^2, exact integers.  If count_j is
    the number of clusters whose j-th smallest value is <= gamma (j
    1-based), then t_c is the number of ranks j it is counted at, so
    sum_j count_j = sum_c t_c and, since t^2 is the sum of the first t
    odd numbers, sum_j (2j - 1) count_j = sum_c t_c^2."""
    ranked = [bin_samples(grid, row) for row in np.sort(values, axis=0)]
    return sum(ranked), sum((2 * j + 1) * count for j, count in enumerate(ranked))


def _chunk_outage_iid(stream, n, a, b, N, grid):
    """Counts of the largest of N independent Beta-prime(a, b) draws per
    realization at or below each grid threshold: (counts, 0, 0).  N = 1
    bins the marginal law itself.

    The draws are marginal_model_sample's.  On its exponential-sum path X
    is monotone in T, increasing for a <= b and decreasing otherwise, and
    expm1 and the reciprocal are monotone in float64 too, so the largest X
    is the transform of the largest T (a <= b) or the smallest (a > b),
    bit for bit: the transform runs on n values, not n N."""
    k = min(a, b)
    if k > _RENYI_MAX_TERMS:
        x = marginal_model_sample(stream, BetaPrimeParams(a, b), size=n * N)
        best = _strided_max(x, N)
    else:
        t = _renyi_sum(stream.generator(), k, max(a, b), n * N)
        best = _from_renyi(_strided_max(t, N, np.maximum if a <= b
                                        else np.minimum), a, b)
    return bin_samples(np.asarray(grid), best), 0, 0


def _strided_max(x: np.ndarray, N: int, pick=np.maximum) -> np.ndarray:
    """x.reshape(-1, N).max(axis=1), as a running maximum over the N strided
    columns x[k::N]: numpy's reduction over a short last axis is slow, and
    max is exact, so the result is the same bit for bit.  pick=np.minimum
    gives the row minimum the same way."""
    best = x[::N]
    for k in range(1, N):
        best = pick(best, x[k::N])
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


def _outage_curve(counts, squares, rows: int, clusters: int):
    """(p, half-width) of an outage curve from its moment sums merged over
    the chunks: counts = sum_c t_c and squares = sum_c t_c^2 over the
    clusters of rows that share a channel draw (_bin_clusters), t_c the
    cluster's rows in outage.  p = counts / rows, and the half-width is
    wilson_half_width at the Kish effective size n_eff = p (1 - p) / v,
    v = C s_t^2 / rows^2 the variance of p estimated from the spread s_t^2
    of the C cluster totals (Kish, Survey Sampling, 1965), so that

        n_eff = counts (rows - counts) (C - 1) / (C squares - counts^2),

    clamped to [C, rows]: no narrower than rows independent trials, no
    wider than C.  Where the clusters show no spread, n_eff is C.  At one
    row per cluster (C = rows, squares = counts) n_eff is rows, and the
    half-width is wilson_half_width(p, rows) bit for bit."""
    counts = np.asarray(counts)
    # Exact in int64: every term is at most rows^2, and a run is refused
    # beyond _STREAM_SPAN chunks (_run_chunked).
    spread = clusters * np.asarray(squares) - counts * counts
    n_eff = np.full(counts.shape, float(clusters))
    seen = spread > 0
    n_eff[seen] = (counts[seen] * (rows - counts[seen]).astype(float)
                   * (clusters - 1) / spread[seen])
    p = counts / rows
    return p, wilson_half_width(p, np.clip(n_eff, clusters, rows))


# ---------------------------------------------------------------------------
# Experiments


def _checked_thresholds(grid) -> np.ndarray:
    """grid as an array, refused unless it is a non-empty 1-D array of
    thresholds that are finite and >= 0, before anything is drawn."""
    grid = np.asarray(grid)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(
            f"gamma grid must be a non-empty 1-D array, got shape {grid.shape}")
    bad = grid[~(np.isfinite(grid) & (grid >= 0.0))]
    if bad.size:
        raise ValueError(
            f"gamma grid thresholds must be finite and >= 0, got {bad.tolist()}")
    return grid


def _sample_size(realizations: int | None, config: SystemConfig,
                 default: int) -> int:
    """The realization count of a run: `realizations`, else the config's,
    else `default`, as an int.  Refused unless an integer >= 1, by
    SystemConfig's rule (an integral float is its int), before any chunk
    runs."""
    if realizations is None:
        realizations = config.realizations or default
    if not _is_integer(realizations):
        raise ValueError(
            f"realizations must be an integer, got {realizations!r}")
    realizations = int(realizations)
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

    marginal mode samples the exact law (marginal_model_sample);
    physical_reference mode simulates the reference-port SIR from the
    physical desired gain and interference drawn independent of it
    (_physref_sirs), in the frame of the reference channels under either
    scheme.
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
    analytic = betaprime_cdf(grid, params)
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
    merged in chunk order by _merge_moments.  The overlay rho_x_approx
    holds for ports off the reference location only: a pair with
    mu_k = 1 or mu_l = 1 (an MRT run at W = 0) gets a NaN overlay and
    deviation, and max_abs_deviation is taken over the other pairs, NaN
    if there are none.
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
    # rho_x_approx's premise is mu_k, mu_l < 1: a pair with a port at the
    # reference location gets no overlay, so no deviation either.
    at_ref = mu == 1.0
    overlay[at_ref[:, None] | at_ref[None, :]] = np.nan
    np.fill_diagonal(overlay, 1.0)
    deviations = np.abs(matrix - overlay)
    held = deviations[~np.eye(len(mu), dtype=bool) & ~np.isnan(overlay)]
    return CorrelationExperimentResult(
        scheme=config.scheme,
        reference_mode=mode,
        ports=est_idx + 1,
        matrix=matrix,
        overlay=overlay,
        deviations=deviations,
        max_abs_deviation=float(held.max()) if held.size else math.nan,
        realizations=n,
        n_used=used,
        n_dropped=dropped,
        resampled_count=resampled,
    )


def _outage_physical_args(configs: list[SystemConfig], curves, grid,
                          inner: int = 1) -> tuple:
    """The arguments of _chunk_outage_physical after (stream, n) for a frame
    group `configs` (one (M, U), as run_outage_group checks), its
    `curves`, (config index, port indices) pairs, and its rows per channel
    draw `inner`."""
    first = configs[0]
    return (first.M, first.U, tuple(cfg.scheme for cfg in configs), first.beta,
            first.powers, tuple(tuple(geometry_for_config(cfg).mu) for cfg in configs),
            tuple(curves), grid, inner)


def _inner_draws(config: SystemConfig) -> int:
    """Rows per channel draw K of config's physical outage rows:
    _NESTED_INNER under ZF in external mode where the cost model
    (_FRAME_MS, _ROWS_MS) prices a frame draw at no less than
    _NEST_MIN_RATIO times the rows it serves, else 1.  It reads the
    scheme, the resolved reference mode, U and the port count P only.
    MRT and member mode are never nested: an MRT frame builds no beams,
    and in member mode its reference port carries most of the variance
    that R does; under ZF in member mode the reference
    port is selectable and never in outage."""
    if config.scheme != "ZF" or config.resolved_reference_mode() != "external":
        return 1
    # External mode: the reference location and N selectable ports.
    ports = config.N + 1
    return _NESTED_INNER if _nest_ratio(config.U, ports) >= _NEST_MIN_RATIO else 1


def _nest_ratio(U: int, ports: int) -> float:
    """c_R / c_in of the cost model (_FRAME_MS, _ROWS_MS) at U users and
    `ports` ports."""
    frame = np.dot(_FRAME_MS, (U, U**2, U**3))
    rows = np.dot(_ROWS_MS, ((ports - 1) * U, (ports - 1) * U**2, U, 1))
    return float(frame / rows)


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

    Configs with K = _inner_draws(config) > 1 are nested: their rows come
    in clusters of K that share one channel draw.  They form a physical
    job of their own, on the stream base _BASE_OUTAGE_NESTED, so the
    K = 1 configs keep their job and every draw of it.

    This is the one place that decides the curves of a result's map:
    empirical_correlated (the physical selection), empirical_iid (the
    largest of N i.i.d. marginal draws) and the analytic upper_bound,
    lower_bound, iid_benchmark, large_n_approx and single_port, the last
    six one object per (a, b, count).  per_port adds physical jobs on the
    stream bases _BASE_PER_PORT and _BASE_PER_PORT_NESTED, and to each
    map port_<k>, the CDF of selectable geometry port k (1-based), and
    port_selection, both binned from those jobs' draws.  Every empirical
    curve is one _outage_curve of its merged moment sums.
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
    inners = [_inner_draws(cfg) for cfg in configs]
    n = _sample_size(realizations, first, DEFAULT_PHYSICAL_REALIZATIONS)
    workers = resolve_workers(workers)
    iid_keys = list(dict.fromkeys(keys))

    def physical_jobs(curves, base, nested_base):
        """One _chunk_outage_physical job per inner-draw count K of the
        (config, ports) `curves`: (job, K, its configs, its curves)."""
        split = []
        for inner in dict.fromkeys(inners):
            ks = [k for k, K in enumerate(inners) if K == inner]
            cs = [c for c, (k, _) in enumerate(curves) if inners[k] == inner]
            args = _outage_physical_args(
                [configs[k] for k in ks],
                [(ks.index(curves[c][0]), curves[c][1]) for c in cs], grid, inner)
            split.append(((_chunk_outage_physical, args,
                           base if inner == 1 else nested_base), inner, ks, cs))
        return split

    def merge(split, runs, curves_out, resampled_out):
        for (_, inner, ks, cs), run in zip(split, runs):
            counts, inf_counts, resampled = _merge_counts(run)
            squares = sum(r[3] for r in run)
            # Each chunk draws ceil(rows / K) channels.
            clusters = sum(-(-size // inner)
                           for _, size in _iter_chunks(n, CHUNK_SIZE))
            for i, c in enumerate(cs):
                curves_out[c] = (_outage_curve(counts[i], squares[i], n, clusters),
                                 int(inf_counts[i]))
            for i, k in enumerate(ks):
                resampled_out[k] = int(resampled[i])

    # One pool runs the physical chunks, the i.i.d. chunks of every
    # (shapes, selectable count) and, on request, the per-port chunks.
    selection = physical_jobs(list(enumerate(sel_idxs)), _BASE_OUTAGE_PHYSICAL,
                              _BASE_OUTAGE_NESTED)
    jobs = [job for job, *_ in selection]
    jobs += [(_chunk_outage_iid, (params.a, params.b, selectable, grid),
              _BASE_OUTAGE_IID) for params, selectable in iid_keys]
    if per_port:
        # The per-port job's curves, named: every selectable singleton,
        # then each config's selection curve.
        port_curves = [(k, (j,), f"port_{j + 1}")
                       for k, sel in enumerate(sel_idxs) for j in sel]
        port_curves += [(k, sel, "port_selection")
                        for k, sel in enumerate(sel_idxs)]
        per_port_split = physical_jobs(
            [(k, ports) for k, ports, _ in port_curves], _BASE_PER_PORT,
            _BASE_PER_PORT_NESTED)
        jobs += [job for job, *_ in per_port_split]
    runs = _run_chunked(jobs, n, first.seed, workers)
    estimates, resampled = [None] * len(configs), [0] * len(configs)
    merge(selection, runs[:len(selection)], estimates, resampled)
    runs = runs[len(selection):]
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
        counts = _merge_counts(iid_run)[0]
        env = envelopes[params, selectable]
        shared[params, selectable] = {
            "empirical_iid": _outage_curve(counts, counts, n, n),
            "upper_bound": (env.upper, None),
            "lower_bound": (env.lower, None),
            "iid_benchmark": (env.iid_benchmark, None),
            "large_n_approx": (env.large_n_approx, None),
            "single_port": (env.single_port, None),
        }
    results = []
    for k, (cfg, sel_idx) in enumerate(zip(configs, sel_idxs)):
        curve, inf_count = estimates[k]
        curves = {"empirical_correlated": curve}
        curves.update(shared[keys[k]])
        results.append(OutageExperimentResult(
            scheme=cfg.scheme, reference_mode=cfg.resolved_reference_mode(),
            gamma_grid=grid, curves=curves, realizations=n,
            selection_ports=np.asarray(sel_idx) + 1,
            infinite_count=inf_count, resampled_count=resampled[k],
            inner_draws=inners[k]))
    if per_port:
        port_estimates = [None] * len(port_curves)
        merge(per_port_split, runs[len(iid_keys):], port_estimates,
              [0] * len(configs))
        for (curve, _), (k, _, name) in zip(port_estimates, port_curves):
            results[k].curves[name] = curve
    return results


def run_outage_experiment(
    config: SystemConfig,
    realizations: int | None = None,
    workers: int | None = None,
) -> OutageExperimentResult:
    """FAMA outage versus threshold, the curves of run_outage_group's map:
    its one-config case."""
    return run_outage_group([config], realizations, workers)[0]
