"""Monte-Carlo engine: per-port SIRs, selection, samplers, estimators, and
the chunked experiment drivers."""

import dataclasses
import math
import pickle
import tracemalloc
import warnings
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fama_lab.analytic_stats import BetaPrimeParams, betaprime_cdf
from fama_lab.channel_geom import (
    SystemConfig,
    geometry_for_config,
    selectable_port_indices,
)
from fama_lab.mc_engine import (
    CHUNK_SIZE,
    DEFAULT_GAMMA_GRID,
    OutageExperimentResult,
    _BASE_CDF,
    _BASE_CDF_PHYSICAL,
    _BASE_OUTAGE_NESTED,
    _BASE_OUTAGE_PHYSICAL,
    _NESTED_INNER,
    _RENYI_MAX_TERMS,
    _STREAM_SPAN,
    _bin_clusters,
    _cgauss,
    _chunk_outage_iid,
    _chunk_outage_physical,
    _chunk_physref,
    _chunk_ports_sir,
    _column_sq_norms,
    _draw_frame,
    _frame_sirs,
    _inner_draws,
    _outage_curve,
    _outage_physical_args,
    _physref_sirs,
    _reference_factor,
    _run_chunked,
    _strided_max,
    _weights_for_scheme,
    bin_samples,
    estimate_marginal_tail,
    ks_distance,
    marginal_model_sample,
    pearson_correlation,
    resolve_workers,
    run_cdf_experiment,
    run_correlation_experiment,
    run_outage_experiment,
    run_outage_group,
    surrogate_gain_sample,
    wilson_half_width,
)
from fama_lab import mc_engine
from fama_lab.randlin import RngStream
from physical_oracle import (
    draw_physical,
    physical_reference_sirs,
    physical_sirs,
    port_sirs,
)


def _sirs(M, U, N, W, scheme="MRT", powers=None, seed=0, n=64, **kw):
    """User-0 port SIRs of the batched kernel for one configuration."""
    cfg = SystemConfig(M=M, U=U, N=N, W=W, scheme=scheme, **kw)
    mu = tuple(geometry_for_config(cfg).mu)
    return _chunk_ports_sir(RngStream(seed, 0), n, M, U, scheme, cfg.beta,
                            powers or cfg.powers, mu)[0]


class TestPhysicalSir:
    def test_hand_case(self):
        h1 = np.array([1.0, 0.0], dtype=complex)
        h2 = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
        W = np.stack([h1, h2], axis=1)[None]  # MRT beams of unit-norm channels
        sirs = port_sirs(h1[None, None, :], W, (1.0, 1.0))
        assert sirs[0, 0] == pytest.approx(2.0, rel=1e-12)

    def test_zf_reference_port_infinite(self):
        sirs = _sirs(8, 4, 4, 0.25, "ZF", seed=17, reference_mode="member")
        assert np.all(np.isinf(sirs[:, 0]))
        assert np.all(np.isfinite(sirs[:, 1:]))

    def test_power_scaling_invariance(self):
        base = _sirs(8, 4, 4, 0.5, powers=(1.0,) * 4, seed=18)
        scaled = _sirs(8, 4, 4, 0.5, powers=(2.5,) * 4, seed=18)
        assert np.allclose(scaled / base, 1.0, rtol=1e-12)

    def test_single_user_all_infinite(self):
        sirs = _sirs(4, 1, 3, 0.5, seed=19)
        assert np.all(np.isinf(sirs))


def _port_curves(cfg, n, stream_id=0):
    """One config's kernel chunk (_chunk_outage_physical) with its selection
    curve first, then one singleton curve per selectable port, and the
    per-port SIRs of the same stream (_chunk_ports_sir), (n, P)."""
    sel = tuple(selectable_port_indices(cfg))
    curves = [(0, sel)] + [(0, (j,)) for j in sel]
    counts, inf_counts, _, _ = _chunk_outage_physical(
        RngStream(cfg.seed, stream_id), n,
        *_outage_physical_args([cfg], curves, DEFAULT_GAMMA_GRID))
    sirs = _chunk_ports_sir(RngStream(cfg.seed, stream_id), n, cfg.M, cfg.U,
                            cfg.scheme, cfg.beta, cfg.powers,
                            tuple(geometry_for_config(cfg).mu))[0]
    return sel, counts, inf_counts, sirs


class TestSelectBestPort:
    """The FAMA selection of the outage kernel (_chunk_outage_physical)."""

    def test_strongest(self):
        # The selection curve bins the largest SIR of each realization, so
        # it is never above any single port's curve.
        sel, counts, _, sirs = _port_curves(SystemConfig(N=3, W=2.0, seed=20), 256)
        assert sel == (0, 1, 2)
        assert np.array_equal(counts[0], bin_samples(
            DEFAULT_GAMMA_GRID, sirs.max(axis=1)))
        assert np.all(counts[0] <= counts[1:].min(axis=0))
        assert np.any(counts[0] < counts[1:].min(axis=0))

    def test_tie_breaks_low(self):
        # W = 0: every port equals the reference, so all ports tie and each
        # singleton curve is the selection curve.
        _, counts, inf_counts, _ = _port_curves(
            SystemConfig(N=3, W=0.0, seed=21), 64)
        assert np.all(counts == counts[0])
        assert np.all(inf_counts == 0)

    def test_infinite_dominates(self):
        # ZF nulls every co-user at the member reference port: its SIR is
        # infinite, so the selection is never in outage.
        cfg = SystemConfig(M=8, U=4, N=3, W=0.5, scheme="ZF",
                           reference_mode="member", seed=22)
        res = run_outage_experiment(cfg, realizations=64)
        assert res.infinite_count == 64
        assert np.all(res.correlated == 0.0)
        _, counts, inf_counts, _ = _port_curves(cfg, 64)
        assert list(inf_counts) == [64, 64, 0, 0]
        assert np.all(counts[:2] == 0) and counts[2:, -1].min() > 0

    def test_subset_selection(self):
        cfg = SystemConfig(M=8, U=4, N=3, W=0.5, scheme="ZF", reference_mode="member",
                           include_reference_in_selection=False, seed=23)
        res = run_outage_experiment(cfg, realizations=64)
        assert list(res.selection_ports) == [2, 3]
        assert res.infinite_count == 0
        assert np.array_equal(res.correlated, _replayed_selection_outage(cfg, 64))

    def test_empty_set(self):
        cfg = SystemConfig(N=1, include_reference_in_selection=False)
        with pytest.raises(ValueError):
            run_outage_experiment(cfg, realizations=8)


class TestMarginalSampler:
    def test_median_uniform_ratio(self):
        x = marginal_model_sample(RngStream(30, 0), BetaPrimeParams(1, 1),
                                  size=1_000_000)
        assert np.median(x) == pytest.approx(1.0, abs=0.01)

    def test_cdf_spot_83(self):
        x = marginal_model_sample(RngStream(31, 0), BetaPrimeParams(8, 3),
                                  size=1_000_000)
        assert np.mean(x <= 1.0) == pytest.approx(0.0546875, abs=0.001)

    def test_cdf_spot_53(self):
        x = marginal_model_sample(RngStream(32, 0), BetaPrimeParams(5, 3),
                                  size=1_000_000)
        assert np.mean(x <= 1.0) == pytest.approx(29.0 / 128.0, abs=0.002)

    # Shapes on both sides of the switch at min(a, b) = _RENYI_MAX_TERMS.
    @pytest.mark.parametrize("a, b", [(1, 1), (8, 3), (3, 8), (4, 4), (1, 6),
                                      (6, 9), (9, 7), (12, 12)])
    def test_ks_against_exact_law(self, a, b):
        # The one-sample KS statistic of n draws against betaprime_cdf, held
        # to its 0.1% critical value 1.95 / sqrt(n), fixed before the run.
        n = 20_000
        params = BetaPrimeParams(a, b)
        x = np.sort(marginal_model_sample(RngStream(39, 16 * a + b), params,
                                          size=n))
        cdf = betaprime_cdf(x, params)
        i = np.arange(1, n + 1)
        d = max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n))
        assert d <= 1.95 / math.sqrt(n)

    @pytest.mark.parametrize("a, b", [(11, 9), (9, 9), (9, 40), (64, 12)])
    def test_gamma_ratio_beyond_switch(self, a, b):
        assert min(a, b) > _RENYI_MAX_TERMS
        gen = RngStream(40, 3).generator()
        ref = gen.standard_gamma(a, 1000) / gen.standard_gamma(b, 1000)
        x = marginal_model_sample(RngStream(40, 3), BetaPrimeParams(a, b), 1000)
        assert x.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("a, b", [(1, 1), (8, 3), (3, 8), (6, 6), (6, 1),
                                      (1, 6), (40, 6), (9, 7), (7, 7), (7, 40),
                                      (8, 8), (64, 8)])
    def test_exponential_sum_up_to_switch(self, a, b):
        # -log Beta(m, k) = sum_i E_i / (m + i), and expm1 of it is
        # Beta-prime(k, m): E_i is row i of one (k, size) block of
        # -log(1 - U), the uniforms inverted, scaled by 1 / (m + i) and
        # summed in order.
        k, m = min(a, b), max(a, b)
        assert k <= _RENYI_MAX_TERMS
        e = -np.log(1.0 - RngStream(41, 5).generator().random((k, 1000)))
        t = e[0] * (1.0 / m)
        for i in range(1, k):
            t = t + e[i] * (1.0 / (m + i))
        ref = np.expm1(t) if a <= b else 1.0 / np.expm1(t)
        x = marginal_model_sample(RngStream(41, 5), BetaPrimeParams(a, b), 1000)
        assert x.tobytes() == ref.tobytes()

    def test_zero_sum_is_infinite_and_never_counted(self):
        # Uniforms that are all 0 invert to exponentials that are all +0:
        # their sum is Beta-prime 0, or +inf for a > b, with no divide
        # warning; bin_samples never counts inf.
        stream = SimpleNamespace(generator=lambda: SimpleNamespace(
            random=np.zeros))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            low = marginal_model_sample(stream, BetaPrimeParams(3, 8), 4)
            high = marginal_model_sample(stream, BetaPrimeParams(8, 3), 4)
        assert np.all(low == 0.0) and np.all(high == np.inf)
        assert not bin_samples(DEFAULT_GAMMA_GRID, high).any()

    # Both orientations of the exponential sum, and the Gamma ratio.
    @pytest.mark.parametrize("a, b, N", [(9, 7, 2), (8, 3, 8), (1, 3, 8),
                                         (3, 1, 2), (12, 15, 3)])
    def test_iid_chunk_against_exact_max_law(self, a, b, N):
        # The largest of N draws has CDF F^N.  The chunk's CDF on the grid
        # is held to the one-sample KS 0.1% critical value 1.95 / sqrt(n),
        # fixed before the run; the sup over a grid is at most the sup
        # over the line, so the bound is conservative.
        n = 20_000
        params = BetaPrimeParams(a, b)
        counts, _, _ = _chunk_outage_iid(RngStream(42, 8 * a + b), n, a, b,
                                         N, DEFAULT_GAMMA_GRID)
        exact = betaprime_cdf(DEFAULT_GAMMA_GRID, params) ** N
        assert np.max(np.abs(counts / n - exact)) <= 1.95 / math.sqrt(n)

    def test_transform_is_monotone_in_float64(self):
        # The i.i.d. chunk transforms only the largest (or smallest) sum,
        # which equals the largest draw only if expm1 never decreases and
        # its reciprocal never increases, float by float: checked over
        # sorted sums from 0 to 60, each beside both float neighbours.
        t = np.sort(RngStream(43, 0).generator().exponential(6.0, 200_000))
        t = np.concatenate(([0.0], t[t < 60.0]))
        t = np.sort(np.concatenate((t, np.nextafter(t, -1.0)[1:],
                                    np.nextafter(t, np.inf))))
        x = np.expm1(t)
        assert np.all(x[1:] >= x[:-1])
        with np.errstate(divide="ignore", over="ignore"):
            y = 1.0 / x
        assert np.all(y[1:] <= y[:-1])

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(a=st.integers(min_value=1, max_value=64),
           b=st.integers(min_value=1, max_value=64),
           n=st.integers(min_value=1, max_value=300),
           N=st.integers(min_value=1, max_value=16),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_strided_max_equals_row_max(self, a, b, n, N, seed):
        # The i.i.d. chunk's running max over strided columns is the
        # row-wise max of the (n, N) draws bit for bit, and so are its
        # counts.
        params = BetaPrimeParams(a, b)
        x = marginal_model_sample(RngStream(seed, 0), params, size=n * N)
        best = x.reshape(n, N).max(axis=1)
        assert _strided_max(x, N).tobytes() == best.tobytes()
        counts, _, _ = _chunk_outage_iid(RngStream(seed, 0), n, a, b, N,
                                         DEFAULT_GAMMA_GRID)
        assert np.array_equal(
            counts, bin_samples(DEFAULT_GAMMA_GRID, best))


class TestSurrogateSampler:
    def test_zero_overlap_ports_independent(self):
        u = surrogate_gain_sample(RngStream(33, 0), [0.0, 0.0], 8, 3,
                                  size=200_000)
        corr = pearson_correlation(u[:, 0], u[:, 1])
        assert abs(corr) <= 3.0 / math.sqrt(200_000) * 2

    def test_full_overlap_matches_exact_covariance(self):
        u = surrogate_gain_sample(RngStream(34, 0), [1.0, 1.0], 8, 3,
                                  size=1_000_000)
        corr = pearson_correlation(u[:, 0], u[:, 1])
        assert corr == pytest.approx(8.0 / 11.0, abs=0.005)

    def test_mean_law(self):
        mu = [1.0, 0.6, 0.0]
        u = surrogate_gain_sample(RngStream(35, 0), mu, 8, 3, size=400_000)
        expect = np.array([m * m * 8 + 3 for m in mu])
        sigma = 3.0 * math.sqrt((8.0 + 3.0) / 400_000) * 2
        assert np.allclose(u.mean(axis=0), expect, atol=sigma)


class TestPearson:
    def test_perfect_positive(self):
        x = np.arange(100.0)
        assert pearson_correlation(x, x) == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = np.arange(100.0)
        assert pearson_correlation(x, -x) == pytest.approx(-1.0)

    def test_independent_streams(self):
        n = 1_000_000
        x = RngStream(36, 1).generator().standard_normal(n)
        y = RngStream(36, 2).generator().standard_normal(n)
        assert abs(pearson_correlation(x, y)) <= 3.0 / math.sqrt(n)

    def test_nonfinite_rows_dropped(self):
        x = np.array([1.0, 2.0, np.inf, 3.0, 4.0])
        y = np.array([1.0, 2.0, 100.0, 3.0, np.nan])
        assert pearson_correlation(x, y) == pytest.approx(1.0)

    def test_zero_variance(self):
        with pytest.raises(ValueError):
            pearson_correlation(np.ones(10), np.arange(10.0))


class TestKsDistance:
    def test_exact_law_small(self):
        x = marginal_model_sample(RngStream(37, 0), BetaPrimeParams(8, 3),
                                  size=1_000_000)
        grid = DEFAULT_GAMMA_GRID
        values = bin_samples(grid, x) / len(x)
        analytic = [betaprime_cdf(g, BetaPrimeParams(8, 3)) for g in grid]
        assert ks_distance(values, analytic) <= 0.003

    def test_mismatched_laws_far(self):
        x = marginal_model_sample(RngStream(38, 0), BetaPrimeParams(8, 3),
                                  size=200_000)
        grid = DEFAULT_GAMMA_GRID
        values = bin_samples(grid, x) / len(x)
        wrong = [betaprime_cdf(g, BetaPrimeParams(5, 3)) for g in grid]
        assert ks_distance(values, wrong) >= 0.15

    def test_callable_form_and_shape_check(self):
        values = np.array([1, 2, 4]) / 4
        # The analytic CDF comes as its values on the grid only.
        assert ks_distance(values, np.full(3, 0.5)) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            ks_distance(values, np.array([0.1, 0.2]))


# Unequal large-scale gains of up to 8 users for the frame tests.
_FRAME_BETA = (2.0, 0.5, 1.5, 1.0, 0.7, 1.2, 0.4, 2.5)


def _as_drawn(x):
    """CN(0, 1) frame innovations x (n, P-1, r) as _draw_frame returns
    them: sqrt(2) conj(x), (P-1, r, n)."""
    return np.sqrt(2) * np.conj(x).transpose(1, 2, 0)


# (M, U, N, W, scheme, reference_mode, beta, powers) of the KS comparison.
_KS_CONFIGS = [
    (8, 4, 8, 4.0, "MRT", "member", None, None),
    (8, 4, 4, 0.5, "MRT", "external", None, None),
    (8, 4, 4, 0.5, "ZF", "member", None, None),
    (8, 4, 4, 4.0, "ZF", "external", None, None),
    (2, 4, 4, 1.0, "MRT", "member", None, None),
    (64, 4, 3, 1.0, "MRT", "member", None, None),
    (64, 4, 3, 1.0, "ZF", "external", None, None),
    (8, 4, 4, 1.0, "ZF", "external", (2.0, 0.5, 1.0, 3.0), (4.0, 1.0, 0.5, 2.0)),
]


class TestPortsKernel:
    @pytest.mark.parametrize("M, U, scheme", [(8, 4, "MRT"), (8, 4, "ZF"),
                                              (4, 4, "ZF"), (3, 5, "MRT"),
                                              (16, 8, "ZF"), (4, 2, "MRT"),
                                              (1, 3, "MRT")])
    def test_frame_identity(self, M, U, scheme):
        # Given one physical draw (H, e), the frame of H = QR carries the
        # same SIRs: R = chol(H^H H)^H (a QR factor when M < U) and g = Q^H e.
        beta = _FRAME_BETA[:U]
        powers = (3.0, 1.0, 0.5, 2.0, 1.0, 0.8, 1.5, 0.6)[:U]
        cfg = SystemConfig(M=M, U=U, N=5, W=0.7, scheme=scheme, beta=beta,
                           powers=powers, reference_mode="external")
        mu = geometry_for_config(cfg).mu
        H, e = draw_physical(np.random.default_rng(40), 256, M, U, len(mu), beta)
        if M >= U:
            gram = np.einsum("nmu,nmv->nuv", H.conj(), H)
            R = np.conj(np.swapaxes(np.linalg.cholesky(gram), 1, 2))
            Q = np.matmul(H, np.linalg.inv(R))
        else:
            Q, R = np.linalg.qr(H)
        g = _as_drawn(np.einsum("nmr,npm->npr", Q.conj(), e))
        F, resampled, _ = _weights_for_scheme(
            RngStream(40, 0).generator(), R, scheme,
            partial(_reference_factor, M=M, U=U, beta=beta))
        assert resampled == 0
        got = _frame_sirs(R[:, :, 0], g, F, scheme, beta[0], powers, [mu])[0]
        expect = physical_sirs(H, e, scheme, beta[0], powers, mu)
        assert np.array_equal(np.isinf(got), np.isinf(expect))
        finite = np.isfinite(expect)
        assert np.allclose(got[finite], expect[finite], rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("M, U, N, W, scheme, mode, beta, powers", _KS_CONFIGS)
    def test_two_sample_ks_against_oracle(self, M, U, N, W, scheme, mode,
                                          beta, powers):
        cfg = SystemConfig(M=M, U=U, N=N, W=W, scheme=scheme, beta=beta,
                           powers=powers, reference_mode=mode)
        mu = tuple(geometry_for_config(cfg).mu)
        n = 20_000
        sirs, _ = _chunk_ports_sir(RngStream(41, 0), n, M, U, scheme, cfg.beta,
                                   cfg.powers, mu)
        H, e = draw_physical(np.random.default_rng(41), n, M, U, len(mu), cfg.beta)
        oracle = physical_sirs(H, e, scheme, cfg.beta[0], cfg.powers, mu)
        for k in range(len(mu)):
            nulled = np.isinf(oracle[:, k])
            assert np.array_equal(np.isinf(sirs[:, k]), nulled)
            if nulled.all():  # the ZF member-mode reference port
                continue
            # A family-wise 1% level over the ~40 ports compared here.
            assert stats.ks_2samp(sirs[:, k], oracle[:, k]).pvalue > 2.5e-4

    def test_bartlett_law(self):
        M, U, n = 6, 4, 50_000
        beta = (1.0, 2.0, 0.5, 1.0)
        R = _reference_factor(RngStream(42, 1).generator(), n, M, U, beta)
        unit = _reference_factor(RngStream(42, 1).generator(), n, M, U, (1.0,) * U)
        assert np.allclose(R, unit * np.sqrt(beta), rtol=1e-15, atol=0.0)
        assert np.all(unit[:, np.tril(np.ones((U, U), dtype=bool), -1)] == 0.0)
        diag = unit[:, np.arange(U), np.arange(U)]
        assert np.all(diag.imag == 0.0) and np.all(diag.real > 0.0)
        for i in range(U):
            law = stats.gamma(M - i).cdf
            assert stats.kstest(np.abs(diag[:, i]) ** 2, law).pvalue > 1e-3
        above = unit[:, np.triu(np.ones((U, U), dtype=bool), 1)]
        for part in (above.real, above.imag):
            assert stats.kstest(math.sqrt(2.0) * part.ravel(), "norm").pvalue > 1e-3
        # R^H R is the Gram of CN(0, diag(beta)) channels: mean M diag(beta).
        gram = np.einsum("nru,nrv->uv", R.conj(), R) / n
        assert np.allclose(gram, M * np.diag(beta), atol=0.1)
        # M < U: the columns beyond the first M are CN(0, I_M) throughout.
        wide = _reference_factor(RngStream(42, 2).generator(), n, 2, U, (1.0,) * U)
        assert wide.shape == (n, 2, U)
        assert stats.kstest(np.abs(wide[:, 1, 1]) ** 2, stats.gamma(1).cdf).pvalue > 1e-3
        assert stats.kstest(np.abs(wide[:, 1, 3]) ** 2, stats.gamma(1).cdf).pvalue > 1e-3

    @pytest.mark.parametrize("M, U, scheme", [(8, 4, "MRT"), (16, 8, "ZF"),
                                              (4, 4, "ZF"), (3, 5, "MRT")])
    def test_skipped_beam_entries_are_zero(self, M, U, scheme):
        # _frame_sirs sums over rows j <= u of MRT beams and j >= u of ZF
        # beams only; the entries it skips must be exact zeros.
        beta = _FRAME_BETA[:U]
        gen = RngStream(44, M).generator()
        R = _reference_factor(gen, 512, M, U, beta)
        F, _, _ = _weights_for_scheme(
            gen, R, scheme, partial(_reference_factor, M=M, U=U, beta=beta))
        r = min(M, U)
        upper = np.triu(np.ones((r, U), dtype=bool))
        if scheme == "ZF":
            upper = upper.T
        assert np.all(F[:, ~upper] == 0.0)
        assert np.all(F[:, upper] != 0.0)

    def test_zf_factor_redrawn_from_its_own_law(self):
        M, U = 6, 3
        beta = (1.0, 0.6, 1.8)
        powers = (2.0, 0.5, 1.0)
        gen = RngStream(43, 0).generator()
        R = _reference_factor(gen, 5, M, U, beta)
        R[2, :, 1] = 2.0 * R[2, :, 0]  # rank-1 Gram in row 2
        W, resampled, R_used = _weights_for_scheme(
            gen, R, "ZF", partial(_reference_factor, M=M, U=U, beta=beta))
        assert resampled == 1
        assert R_used.strides == R.strides  # the redraw keeps the layout
        new = R_used[2]
        assert new.shape == (U, U) and np.all(np.tril(new, -1) == 0.0)
        assert np.all(np.diag(new).imag == 0.0) and np.all(np.diag(new).real > 0.0)
        cross = np.abs(np.einsum("nru,nrv->nuv", R_used.conj(), W))
        cross[:, np.arange(U), np.arange(U)] = 0.0
        assert np.max(cross) < 1e-12
        # The triangle-only projection of the redrawn row against a dense
        # matmul of the assembled ports with all U x U beam entries.
        mu = np.array([1.0, 0.8, 0.3, -0.2])
        g = np.sqrt(0.5) * _cgauss(gen, (5, len(mu) - 1, U))
        got = _frame_sirs(R_used[:, :, 0], _as_drawn(g), W, "ZF", beta[0],
                          powers, [mu])[0]
        sigma = np.sqrt(1.0 - mu[1:] ** 2) * math.sqrt(beta[0])
        z = np.concatenate([R_used[:, None, :, 0],
                            mu[1:, None] * R_used[:, None, :, 0]
                            + sigma[:, None] * g], axis=1)
        gains = np.abs(np.matmul(z[:, 1:], W.conj())) ** 2 * powers
        expect = gains[:, :, 0] / gains[:, :, 1:].sum(axis=2)
        assert np.isinf(got[2, 0]) and np.all(np.isfinite(got[2, 1:]))
        assert np.allclose(got[2, 1:], expect[2], rtol=1e-12, atol=0.0)

    def test_beta_and_power_invariance(self):
        cfg = SystemConfig(M=8, U=4, N=4, W=0.5)
        geo = geometry_for_config(cfg)
        args = (2048, cfg.M, cfg.U, "MRT")
        base = _chunk_ports_sir(RngStream(41, 3), *args, (1.0,) * 4,
                                (1.0,) * 4, tuple(geo.mu))[0]
        beta_scaled = _chunk_ports_sir(RngStream(41, 3), *args, (6.0,) * 4,
                                       (1.0,) * 4, tuple(geo.mu))[0]
        power_scaled = _chunk_ports_sir(RngStream(41, 3), *args, (1.0,) * 4,
                                        (0.3,) * 4, tuple(geo.mu))[0]
        finite = np.isfinite(base)
        assert np.allclose(beta_scaled[finite] / base[finite], 1.0, rtol=1e-12)
        assert np.allclose(power_scaled[finite] / base[finite], 1.0, rtol=1e-12)

    def test_fully_correlated_ports_identical(self):
        cfg = SystemConfig(M=4, U=3, N=3, W=0.0)
        geo = geometry_for_config(cfg)
        sirs, _ = _chunk_ports_sir(RngStream(42, 0), 256, cfg.M, cfg.U,
                                   "MRT", cfg.beta, cfg.powers, tuple(geo.mu))
        assert np.allclose(sirs, sirs[:, [0]], rtol=1e-12)

    def test_selection_monotonicity(self):
        cfg = SystemConfig(M=8, U=4, N=6, W=1.5)
        geo = geometry_for_config(cfg)
        sirs, _ = _chunk_ports_sir(RngStream(43, 0), 4096, cfg.M, cfg.U,
                                   "MRT", cfg.beta, cfg.powers, tuple(geo.mu))
        small = sirs[:, :3].max(axis=1)
        large = sirs.max(axis=1)
        for g in (0.5, 1.0, 3.0):
            assert np.mean(large < g) <= np.mean(small < g)


def _full_pass_sirs(r0, g, F, scheme, beta0, powers, mu):
    """The port SIRs by a full pass: every port, the reference included, is
    assembled in all r rows, mu_k r0 is added to every row, and each
    projection sums over F's nonzero triangle.  The same float operations,
    in the same order, as the frame kernel before it skipped r0's zero rows
    and the reference port's zero projections.  g is _draw_frame's
    (P-1, r, n) draw, sqrt(2) conj of the innovations.  The MRT beams are
    built here as R / ||r_u|| from the raw F = R that the kernel reads."""
    mu = np.asarray(mu, dtype=float)
    n, r = r0.shape
    U = F.shape[2]
    if scheme == "MRT":
        F = F / np.linalg.norm(F, axis=1, keepdims=True)
    sigma = np.sqrt(np.maximum(0.0, 1.0 - mu[1:] ** 2)) * math.sqrt(beta0 / 2.0)
    z = np.empty((len(mu), r, n), dtype=complex)
    z[0] = r0.T
    np.multiply(sigma[:, None, None], np.conj(g), out=z[1:])
    z[1:] += mu[1:, None, None] * z[0]
    F = F.transpose(1, 2, 0)
    gains = np.empty((U, len(mu), n))
    for u in range(U):
        rows = range(u, r) if scheme == "ZF" else range(min(u + 1, r))
        proj = F[rows[0], u].conj() * z[:, rows[0]]
        for j in rows[1:]:
            proj = proj + F[j, u].conj() * z[:, j]
        gains[u] = proj.real ** 2 + proj.imag ** 2
    powers = np.asarray(powers, dtype=float)
    interference = np.tensordot(powers[1:], gains[1:], axes=1)
    with np.errstate(divide="ignore"):
        return np.where(interference > 1e-20, powers[0] * gains[0] / interference,
                        np.inf).T


# (M, U, N, W, reference mode); None takes the scheme's default mode.
_PINNED_CONFIGS = [(8, 4, 8, 4.0, "member"), (16, 8, 2, 0.25, "external"),
                   (4, 2, 8, 0.25, None), (8, 4, 2, 4.0, None),
                   (4, 4, 8, 4.0, None), (8, 4, 8, 0.0, None),
                   (8, 4, 4, 0.01, None)]


class TestFrameSirsPinned:
    @pytest.mark.parametrize("scheme", ["MRT", "ZF"])
    @pytest.mark.parametrize("M, U, N, W, mode", _PINNED_CONFIGS)
    def test_equal_to_full_pass(self, M, U, N, W, mode, scheme):
        # Splitting each projection into its row-0 term and the shared sum
        # over rows j >= 1 moves the rounding only: every SIR is within a
        # relative 1e-12 of the full pass, and the same ones are infinite.
        beta = _FRAME_BETA[:U]
        powers = (3.0, 1.0, 0.5, 2.0, 1.0, 0.8, 1.5, 0.6)[:U]
        cfg = SystemConfig(M=M, U=U, N=N, W=W, scheme=scheme, beta=beta,
                           powers=powers, reference_mode=mode)
        mu = tuple(geometry_for_config(cfg).mu)
        g, [(F, _, R)] = _draw_frame(RngStream(45, M).generator(), 2048, M,
                                     U, (scheme,), beta, len(mu))
        got = _frame_sirs(R[:, :, 0], g, F, scheme, beta[0], powers, [mu])[0]
        expect = _full_pass_sirs(R[:, :, 0], g, F, scheme, beta[0], powers, mu)
        assert np.array_equal(np.isinf(got), np.isinf(expect))
        finite = np.isfinite(expect)
        assert np.allclose(got[finite], expect[finite], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("M, U, N, scheme", [
        (8, 4, 8, "MRT"), (8, 4, 8, "ZF"), (16, 8, 2, "ZF"), (3, 5, 4, "MRT"),
        (4, 1, 3, "MRT"), (4, 1, 3, "ZF")])
    def test_apertures_sharing_one_pass_equal_single_calls(self, M, U, N,
                                                           scheme):
        # K apertures served from one pass over the shared projections give
        # the SIRs of K single-aperture calls, bit for bit, W = 0 included.
        beta = _FRAME_BETA[:U]
        powers = (3.0, 1.0, 0.5, 2.0, 1.0, 0.8, 1.5, 0.6)[:U]
        mus = [tuple(geometry_for_config(SystemConfig(
            M=M, U=U, N=N, W=W, scheme=scheme, beta=beta, powers=powers)).mu)
            for W in (0.0, 0.01, 0.25, 4.0)]
        g, [(F, _, R)] = _draw_frame(RngStream(46, M).generator(), 2048, M,
                                     U, (scheme,), beta, len(mus[0]))
        shared = _frame_sirs(R[:, :, 0], g, F, scheme, beta[0], powers, mus)
        assert len(shared) == len(mus)
        for mu, got in zip(mus, shared):
            alone = _frame_sirs(R[:, :, 0], g, F, scheme, beta[0], powers, [mu])
            assert np.array_equal(got, alone[0])
        # With a single user nothing interferes and every SIR is infinite.
        assert np.all(np.isinf(shared[3])) == (U == 1)
        assert np.array_equal(shared[2], shared[3]) == (U == 1)


class TestMrtReferenceFloor:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(M=st.integers(min_value=1, max_value=16),
           gains=st.lists(st.tuples(st.floats(0.05, 20.0), st.floats(0.05, 20.0)),
                          min_size=2, max_size=8),
           mu=st.lists(st.floats(0.0, 1.0), max_size=4),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_reference_sir_never_below_floor(self, M, gains, mu, seed):
        # Under MRT the unit-norm beams are F = R D^{-1}, so F_00 = 1 and, by
        # Cauchy-Schwarz, |F_0u| <= 1: the reference port's SIR
        # P_0 |F_00|^2 / sum_{u>=1} P_u |F_0u|^2 is at least
        # P_0 / sum_{u>=1} P_u, whatever M, U, beta and the powers.
        beta, powers = (tuple(v) for v in zip(*gains))
        U = len(gains)
        mu = (1.0, *mu)
        g, [(F, _, R)] = _draw_frame(RngStream(seed, 0).generator(), 256, M,
                                     U, ("MRT",), beta, len(mu))
        ref = _frame_sirs(R[:, :, 0], g, F, "MRT", beta[0], powers, [mu])[0][:, 0]
        floor = powers[0] / sum(powers[1:])
        assert np.all(ref >= floor * (1.0 - 1e-12))


class TestPhysicalReference:
    """fig2's reference-port kernel (_physref_sirs) in the frame."""

    @pytest.mark.parametrize("scheme", ["MRT", "ZF"])
    def test_beta_invariance(self, scheme):
        # The SIR is invariant under beta -> 4 beta and beta_0 -> 4 beta_0;
        # scaling by a power of two is exact, so the counts are equal.
        counts = []
        for beta in ((1.0, 1.0, 1.0, 1.0), (4.0, 4.0, 4.0, 4.0),
                     (4.0, 1.0, 1.0, 1.0)):
            cfg = SystemConfig(M=8, U=4, scheme=scheme, seed=12345, beta=beta)
            res = run_cdf_experiment(cfg, mode="physical_reference",
                                     realizations=20_000)
            counts.append(res.curves["empirical_physical_reference"][0])
        assert np.array_equal(counts[0], counts[1])
        assert np.array_equal(counts[0], counts[2])

    @pytest.mark.parametrize("M, U, scheme", [
        (4, 4, "MRT"), (8, 4, "MRT"), (16, 8, "MRT"), (3, 5, "MRT"),
        (4, 4, "ZF"), (8, 4, "ZF"), (16, 8, "ZF")])
    def test_two_sample_ks_against_oracle(self, M, U, scheme):
        # The frame kernel against the M-dimensional construction, at a
        # family-wise 1% level over these 7 comparisons.
        beta = _FRAME_BETA[:U]
        powers = (3.0, 1.0, 0.5, 2.0, 1.0, 0.8, 1.5, 0.6)[:U]
        n = 20_000
        got, _ = _physref_sirs(RngStream(46, M).generator(), n, M, U, scheme,
                               beta, powers)
        oracle = physical_reference_sirs(np.random.default_rng(46), n, M, U,
                                         scheme, beta, powers)
        assert np.isfinite(got).all()
        assert stats.ks_2samp(got, oracle).pvalue > 0.01 / 7

    @pytest.mark.parametrize("scheme", ["MRT", "ZF"])
    def test_chunk_memory_does_not_grow_with_m(self, scheme):
        # No M-dimensional array: after a warm-up call at each M, one
        # chunk's peak allocation is the same at M = 8 and M = 256.
        args = (4, scheme, (1.0,) * 4, (1.0,) * 4, DEFAULT_GAMMA_GRID)
        for M in (8, 256):
            _chunk_physref(RngStream(47, 0), 2048, M, *args)
        peaks = []
        for M in (8, 256):
            stream = RngStream(47, 0)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                _chunk_physref(stream, 2048, M, *args)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert peaks[0] == peaks[1]


def test_cgauss_views_the_draws_in_place():
    # The (re, im) standard-normal pairs are the complex entries' own
    # memory, unscaled: sqrt(2) CN(0, 1).
    z = _cgauss(RngStream(47, 0).generator(), (64, 3, 4))
    raw = RngStream(47, 0).generator().standard_normal((64, 3, 4, 2))
    assert z.shape == (64, 3, 4)
    assert z.base is not None and z.base.dtype == np.float64
    assert np.array_equal(z, raw.view(np.complex128)[..., 0])


def test_cgauss_parts_are_independent_standard_normals():
    # Real and imaginary parts are N(0, 1) each (KS), and so is their
    # normalised sum and difference, as for independent parts only.
    z = _cgauss(RngStream(49, 0).generator(), (50_000,))
    parts = (z.real, z.imag, (z.real + z.imag) / math.sqrt(2.0),
             (z.real - z.imag) / math.sqrt(2.0))
    for part in parts:
        assert stats.kstest(part, "norm").pvalue > 1e-3 / len(parts)
    assert abs(np.corrcoef(z.real, z.imag)[0, 1]) < 4.0 / math.sqrt(len(z))


@pytest.mark.parametrize("ports", [0, 1, 3, 6])
def test_cgauss_smaller_draw_is_prefix_of_larger(ports):
    # A frame group draws the innovations once, port-major, for its largest
    # port count P, and serves p - 1 < P - 1 ports from the first p - 1
    # port blocks: that holds only while standard_normal fills its output
    # in order.
    n, P, r = 300, 8, 4
    big = _cgauss(RngStream(48, 0).generator(), (P - 1, r, n))
    small = _cgauss(RngStream(48, 0).generator(), (ports, r, n))
    assert np.shares_memory(big[:ports], big) or ports == 0
    assert np.array_equal(small, big[:ports])


@pytest.mark.parametrize("M, U", [(8, 4), (3, 5)])
@pytest.mark.parametrize("ports", [1, 2, 4, 7])
def test_draw_frame_smaller_port_count_is_prefix(M, U, ports):
    # _draw_frame at p ports returns the first p - 1 ports of its draw at
    # P ports, bit for bit, and the same R: a frame group's configs read
    # exactly the draws of runs of their own.
    P, beta = 8, _FRAME_BETA[:U]
    big, [(_, _, R_big)] = _draw_frame(RngStream(48, M).generator(), 300, M,
                                       U, ("MRT",), beta, P)
    small, [(_, _, R)] = _draw_frame(RngStream(48, M).generator(), 300, M,
                                     U, ("MRT",), beta, ports)
    assert big.shape == (P - 1, min(M, U), 300)
    assert small.shape == (ports - 1, min(M, U), 300)
    assert np.array_equal(small, big[:ports - 1])
    assert np.array_equal(R, R_big)


def test_draw_frame_mrt_beams_are_the_factor():
    # MRT makes no normalised copy: its beams are R's own memory.
    _, [(F, resampled, R)] = _draw_frame(RngStream(49, 0).generator(), 300,
                                         8, 4, ("MRT",), _FRAME_BETA[:4], 3)
    assert resampled == 0
    assert np.shares_memory(F, R) and np.array_equal(F, R)


@pytest.mark.parametrize("M, U", [(8, 4), (3, 5), (1, 3), (4, 1), (1, 1)])
def test_column_sq_norms_equal_dense_norms(M, U):
    # The triangle-only sums against numpy's norms over every row, at
    # r = U, r < U, r = 1 and U = 1.
    R = _reference_factor(RngStream(50, M).generator(), 300, M, U,
                          _FRAME_BETA[:U])
    sq = _column_sq_norms(R)
    assert sq.shape == (U, 300)
    assert np.allclose(sq, np.linalg.norm(R, axis=1).T ** 2, rtol=1e-13, atol=0.0)


def test_bin_samples_equals_bincount_form():
    # Sorted-sample counts equal the cumulative bincount of each sample's
    # grid slot, with samples on grid points, beyond both ends, inf and nan.
    grid = DEFAULT_GAMMA_GRID
    gen = np.random.default_rng(3)
    x = np.concatenate([gen.gamma(4.0, size=3000) / gen.gamma(3.0, size=3000),
                        grid[::7], [np.inf, np.nan, 0.0, 1e-9, 2e3]])
    gen.shuffle(x)
    slots = np.searchsorted(grid, x, side="left")
    expect = np.cumsum(np.bincount(slots, minlength=len(grid) + 1))[: len(grid)]
    counts = bin_samples(grid, x)
    assert counts.dtype == expect.dtype
    assert np.array_equal(counts, expect)


_OUTAGE_FIELDS = [f.name for f in dataclasses.fields(OutageExperimentResult)]
# An outage result's curve map, in CSV order.
_CURVE_IDS = ["empirical_correlated", "empirical_iid", "upper_bound",
              "lower_bound", "iid_benchmark", "large_n_approx", "single_port"]


def _replayed_selection_outage(cfg, n):
    """The physical selection curve of cfg's outage run rebuilt chunk by
    chunk: at K = 1 from _chunk_ports_sir, which draws R and then the
    innovations of cfg's own port count from the chunk stream, and any ZF
    redraws from a child of it; nested, from _nested_replay on the nested
    stream base."""
    K = _inner_draws(cfg)
    base = _BASE_OUTAGE_PHYSICAL if K == 1 else _BASE_OUTAGE_NESTED
    sel = selectable_port_indices(cfg)
    mu = tuple(geometry_for_config(cfg).mu)
    counts = 0
    for start in range(0, n, CHUNK_SIZE):
        stream = RngStream(cfg.seed, base + start // CHUNK_SIZE)
        rows = min(CHUNK_SIZE, n - start)
        if K > 1:
            counts = counts + _nested_replay(cfg, stream, rows, K)[0]
            continue
        sirs = _chunk_ports_sir(stream, rows, cfg.M, cfg.U, cfg.scheme,
                                cfg.beta, cfg.powers, mu)[0]
        counts = counts + bin_samples(DEFAULT_GAMMA_GRID,
                                      sirs[:, sel].max(axis=1))
    return counts / n


def _nested_replay(cfg, stream, n, K):
    """cfg's selection counts sum_c t_c, squares sum_c t_c^2 and infinite
    count on one nested chunk of n rows, by brute force: R and the beams
    drawn for C = ceil(n / K) clusters and then K C innovation rows, as
    the chunk stream gives them; each cluster's frame repeated K times
    (row k C + c reads frame c) and passed to _frame_sirs as K C rows of
    their own; and t_c, the cluster's kept rows in outage, summed
    directly.  The last cluster keeps its first n - (C - 1) K rows."""
    gen = stream.generator()
    C = -(-n // K)
    mu = tuple(geometry_for_config(cfg).mu)
    R = _reference_factor(gen, C, cfg.M, cfg.U, cfg.beta)
    g = _cgauss(gen, (len(mu) - 1, R.shape[1], K * C))
    redraw = partial(_reference_factor, M=cfg.M, U=cfg.U, beta=cfg.beta)
    F, _, R = _weights_for_scheme(gen, R, cfg.scheme, redraw)
    R, F = np.concatenate([R] * K), np.concatenate([F] * K)
    sirs = _frame_sirs(R[:, :, 0], g, F, cfg.scheme, cfg.beta[0], cfg.powers,
                       [mu])[0]
    sel = sirs[:, selectable_port_indices(cfg)].reshape(K, C, -1)
    keep = np.ones((K, C), dtype=bool)
    keep[n - (C - 1) * K:, C - 1] = False
    in_outage = sel.max(axis=2)[..., None] <= DEFAULT_GAMMA_GRID
    t = (in_outage & keep[..., None]).sum(axis=0)
    return (t.sum(axis=0), (t * t).sum(axis=0),
            np.count_nonzero(~np.isfinite(sel[keep])))


class TestOutageGroup:
    @pytest.mark.parametrize("scheme, mode, tolerance, U", [
        ("MRT", "member", None, 4), ("ZF", "external", None, 4),
        ("ZF", "external", 1.0 / 40.0, 4), ("MRT,ZF", None, None, 4),
        ("MRT,ZF", None, 1.0 / 40.0, 4), ("MRT,ZF", None, 1.0 / 5000.0, 8)])
    def test_equals_per_config_runs(self, monkeypatch, scheme, mode, tolerance,
                                    U):
        # The group shares one draw of R and one innovation draw per chunk,
        # serves every port count from a prefix of the innovations and
        # builds each scheme's beams from R; each result equals the
        # config's own run field for field.  With the condition limit at
        # 40, ZF redraws a share of R in every chunk from a child of the
        # chunk stream, so the innovations after those redraws are pinned
        # too.  "MRT,ZF" leaves the reference mode unset: member under MRT
        # (P = N) and external under ZF (P = N + 1).  At U = 8 the ZF
        # configs with N = 2 are nested and the rest are not, so the group
        # runs a nested job beside the plain one; the limit of 5000 redraws
        # about a tenth of the ZF rows there.
        if tolerance is not None:
            monkeypatch.setattr(mc_engine, "_GRAM_TOLERANCE", tolerance)
        configs = [SystemConfig(M=8, U=U, N=N, W=W, scheme=s,
                                reference_mode=mode, seed=61)
                   for s in scheme.split(",")
                   for N in (2, 4, 8) for W in (0.0, 0.25, 4.0)]
        assert {_inner_draws(cfg) for cfg in configs} == (
            {1, _NESTED_INNER} if U == 8 else {1})
        group = run_outage_group(configs, realizations=5_000)
        assert len(group) == len(configs)
        for cfg, res in zip(configs, group):
            if cfg.scheme == "MRT":
                assert res.resampled_count == 0
            elif tolerance is not None:
                assert res.resampled_count > 0
        for cfg, res in zip(configs, group):
            single = run_outage_experiment(cfg, realizations=5_000)
            for name in _OUTAGE_FIELDS:
                a, b = getattr(res, name), getattr(single, name)
                if name == "curves":
                    assert list(a) == list(b) == _CURVE_IDS
                    for curve_id in _CURVE_IDS:
                        for x, y in zip(a[curve_id], b[curve_id]):
                            assert np.array_equal(x, y), (cfg.N, cfg.W, curve_id)
                else:
                    assert np.array_equal(a, b), (cfg.N, cfg.W, name)
            # A lone run takes the same group path, so the draws are also
            # checked against _chunk_ports_sir, which draws for one config,
            # or the nested replay.
            assert res.inner_draws == _inner_draws(cfg)
            assert np.array_equal(res.correlated,
                                  _replayed_selection_outage(cfg, 5_000))
        # The apertures and the port counts differ, so their selection
        # curves do too.
        assert not np.array_equal(group[1].correlated, group[2].correlated)
        assert not np.array_equal(group[2].correlated, group[8].correlated)

    def test_schemes_share_one_innovation_draw(self, monkeypatch):
        # ZF redraws R in every chunk at the condition limit of 40, yet
        # every _frame_sirs call of a mixed MRT + ZF group reads a prefix
        # of the one innovation block the chunk drew.
        monkeypatch.setattr(mc_engine, "_GRAM_TOLERANCE", 1.0 / 40.0)
        seen = []
        real = mc_engine._frame_sirs

        def spy(r0, g, *args):
            seen.append(g)
            return real(r0, g, *args)

        monkeypatch.setattr(mc_engine, "_frame_sirs", spy)
        configs = [SystemConfig(M=8, U=4, N=N, W=0.5, scheme=s, seed=64)
                   for s in ("MRT", "ZF") for N in (2, 5)]
        curves = enumerate(tuple(selectable_port_indices(cfg)) for cfg in configs)
        _, _, resampled, _ = _chunk_outage_physical(
            RngStream(64, 0), 1024,
            *_outage_physical_args(configs, curves, DEFAULT_GAMMA_GRID))
        assert resampled[2] > 0 and resampled[3] > 0
        assert len(seen) == 4
        block = max(seen, key=lambda g: g.size).reshape(-1)
        for g in seen:
            assert np.shares_memory(g, block)
            assert np.array_equal(g.reshape(-1), block[:g.size])

    def test_singleton_curves_equal_port_replay(self, monkeypatch):
        # Singleton curves are per-port CDFs on the group's own draws: each
        # equals a per-port binning of the config's _chunk_ports_sir chunk,
        # ZF rows redrawn at the condition limit of 40 included.  Adding
        # them leaves every selection curve as the kernel computes it alone.
        monkeypatch.setattr(mc_engine, "_GRAM_TOLERANCE", 1.0 / 40.0)
        configs = [SystemConfig(M=8, U=4, N=N, W=W, scheme=s, seed=63)
                   for s in ("MRT", "ZF") for N in (2, 5) for W in (0.0, 0.5)]
        sels = [tuple(selectable_port_indices(cfg)) for cfg in configs]
        ports = [(k, (j,)) for k, sel in enumerate(sels) for j in sel]
        n = 1024

        def kernel(curves):
            return _chunk_outage_physical(
                RngStream(63, 5), n,
                *_outage_physical_args(configs, curves, DEFAULT_GAMMA_GRID))

        counts, inf_counts, resampled, _ = kernel(list(enumerate(sels)) + ports)
        alone = kernel(enumerate(sels))
        assert np.array_equal(counts[:len(configs)], alone[0])
        assert np.array_equal(inf_counts[:len(configs)], alone[1])
        assert np.array_equal(resampled, alone[2])
        for c, (k, (j,)) in enumerate(ports, start=len(configs)):
            cfg = configs[k]
            sirs, count = _chunk_ports_sir(RngStream(63, 5), n, cfg.M, cfg.U,
                                           cfg.scheme, cfg.beta, cfg.powers,
                                           tuple(geometry_for_config(cfg).mu))
            assert resampled[k] == count
            assert np.array_equal(counts[c], bin_samples(
                DEFAULT_GAMMA_GRID, sirs[:, j])), (k, j)
            assert inf_counts[c] == np.count_nonzero(~np.isfinite(sirs[:, j]))
        assert all(resampled[k] > 0 for k, cfg in enumerate(configs)
                   if cfg.scheme == "ZF")

    @pytest.mark.parametrize("field, value", [
        ("M", 16), ("include_reference_in_selection", False), ("seed", 7),
        ("reference_mode", "external"), ("powers", (2.0, 1.0, 1.0, 1.0))])
    def test_refuses_configs_differing_beyond_w(self, field, value):
        base = SystemConfig(M=8, U=4, N=4, W=0.25, seed=62)
        other = dataclasses.replace(base, W=4.0, **{field: value})
        with pytest.raises(ValueError, match=f"not in {field}:"):
            run_outage_group([base, other], realizations=1000)

    def test_refuses_empty_group(self):
        with pytest.raises(ValueError, match="at least one config"):
            run_outage_group([])

    def test_plain_run_bins_selection_curves_only(self, monkeypatch):
        # Without per_port the kernel gets one curve per config, its
        # selectable set, and no singleton: per-port curves cost chunk
        # time, so they are binned only on request.
        jobs = []
        run_chunked = mc_engine._run_chunked

        def spy(job_list, *args, **kwargs):
            jobs.extend(job_list)
            return run_chunked(job_list, *args, **kwargs)

        monkeypatch.setattr(mc_engine, "_run_chunked", spy)
        configs = [SystemConfig(M=8, U=4, N=N, W=W, scheme=s, seed=65)
                   for s in ("MRT", "ZF") for N in (2, 5) for W in (0.25, 4.0)]
        results = run_outage_group(configs, realizations=1000)
        physical = [args for fn, args, _ in jobs if fn is _chunk_outage_physical]
        assert len(physical) == 1
        # The curves argument of _outage_physical_args.
        assert physical[0][6] == tuple(
            (k, tuple(selectable_port_indices(cfg))) for k, cfg in enumerate(configs))
        assert all(list(res.curves) == _CURVE_IDS for res in results)

    def test_w_invariant_curves_are_shared_objects(self):
        # Configs that differ only in W share every curve that W does not
        # change, as one object, also after pickling the result list (as a
        # sweep's pool worker returns it); each has its own selection curve.
        configs = [SystemConfig(M=8, U=4, N=4, W=W, seed=66) for W in (0.25, 4.0)]
        for a, b in (run_outage_group(configs, realizations=1000),
                     pickle.loads(pickle.dumps(
                         run_outage_group(configs, realizations=1000)))):
            for curve_id in _CURVE_IDS[1:]:
                assert a.curves[curve_id] is b.curves[curve_id]
            assert a.curves["empirical_correlated"] is not b.curves[
                "empirical_correlated"]


def _nested_group(seed):
    """ZF configs of one (M, U) = (8, 8) frame group that the rule nests."""
    configs = [SystemConfig(M=8, U=8, N=N, W=W, scheme="ZF", seed=seed)
               for N, W in ((2, 0.25), (1, 0.5), (2, 4.0))]
    assert {_inner_draws(cfg) for cfg in configs} == {_NESTED_INNER}
    return configs


class TestNestedDraws:
    @pytest.mark.parametrize("n", [1024, 1023, 1021, 5, 3])
    def test_chunk_equals_brute_force_replay(self, monkeypatch, n):
        # A nested chunk's counts, squares and infinite counts equal, as
        # exact integers, a replay that repeats each cluster's R and beams
        # K times and sums t_c and t_c^2 directly, for each config of a
        # group of port counts and apertures.  n = 1023, 1021, 5 and 3 leave
        # the last cluster 3, 1, 1 and 3 of its K rows.  The condition
        # limit of 5000 makes ZF redraw about a tenth of the frames from a
        # child of the chunk stream.
        monkeypatch.setattr(mc_engine, "_GRAM_TOLERANCE", 1.0 / 5000.0)
        configs = _nested_group(67)
        curves = list(enumerate(tuple(selectable_port_indices(cfg))
                                for cfg in configs))
        counts, inf_counts, resampled, squares = _chunk_outage_physical(
            RngStream(67, 3), n, *_outage_physical_args(
                configs, curves, DEFAULT_GAMMA_GRID, _NESTED_INNER))
        for k, cfg in enumerate(configs):
            t1, t2, inf = _nested_replay(cfg, RngStream(67, 3), n, _NESTED_INNER)
            assert np.array_equal(counts[k], t1), (n, k)
            assert np.array_equal(squares[k], t2), (n, k)
            assert inf_counts[k] == inf
        if n > 1000:
            assert resampled[0] > 0
            assert np.any(squares[0] > counts[0])

    def test_clusters_bin_as_moment_sums(self):
        # Sorted per cluster, count_j at rank j gives sum_c t_c and
        # sum_c t_c^2, infinite and tied values included.
        rng = np.random.default_rng(68)
        grid = np.array([0.0, 0.5, 1.0, 2.0, 9.0])
        for K in (1, 2, 4, 8):
            values = rng.choice([0.0, 0.5, 0.7, 1.0, 3.0, np.inf], size=(K, 37))
            t = (values[..., None] <= grid).sum(axis=0)
            counts, squares = _bin_clusters(grid, values)
            assert np.array_equal(counts, t.sum(axis=0))
            assert np.array_equal(squares, (t * t).sum(axis=0))

    def test_interval_at_one_row_per_cluster_is_wilson(self):
        # At K = 1 the squares are the counts, and the half-width is
        # wilson_half_width(p, n) bit for bit, at p = 0 and 1 too.
        n = 20_000
        counts = np.array([0, 1, 2, 17, 199, 5000, 10_000, 19_999, n])
        p, half = _outage_curve(counts, counts, n, n)
        assert np.array_equal(p, counts / n)
        assert np.array_equal(half, wilson_half_width(counts / n, n))

    def test_interval_effective_size(self):
        # C = 4 clusters of K = 2 rows.  Totals (2, 0, 1, 1): counts 4,
        # squares 6, spread C squares - counts^2 = 8, so n_eff =
        # 4 (8 - 4) 3 / 8 = 6.  Totals (2, 2, 0, 0): spread 16, n_eff 3,
        # clamped up to the cluster count 4.  Totals (1, 1, 1, 1): no
        # spread, so n_eff is the cluster count.  Totals (0, 0, 0, 0): p = 0
        # at the cluster count.
        counts = np.array([4, 4, 4, 0])
        squares = np.array([6, 8, 4, 0])
        p, half = _outage_curve(counts, squares, 8, 4)
        assert np.array_equal(p, [0.5, 0.5, 0.5, 0.0])
        assert half[0] == wilson_half_width(0.5, 6.0)
        assert half[1] == half[2] == wilson_half_width(0.5, 4.0)
        assert half[3] == wilson_half_width(0.0, 4.0)

    def test_run_is_merged_chunk_moments(self):
        # A nested run of n = 2 CHUNK_SIZE + 7 rows, a ragged last chunk
        # and cluster, is the sum of its chunks on the nested stream base;
        # its interval is _outage_curve at C = 2 CHUNK_SIZE / K + 2.
        cfg = _nested_group(69)[0]
        n = 2 * CHUNK_SIZE + 7
        res = run_outage_experiment(cfg, realizations=n)
        assert res.realizations == n and res.inner_draws == _NESTED_INNER
        args = _outage_physical_args(
            [cfg], [(0, tuple(selectable_port_indices(cfg)))],
            DEFAULT_GAMMA_GRID, _NESTED_INNER)
        parts = [_chunk_outage_physical(RngStream(69, _BASE_OUTAGE_NESTED + i),
                                        size, *args)
                 for i, size in enumerate((CHUNK_SIZE, CHUNK_SIZE, 7))]
        counts = sum(part[0][0] for part in parts)
        squares = sum(part[3][0] for part in parts)
        clusters = 2 * CHUNK_SIZE // _NESTED_INNER + 2
        p, half = _outage_curve(counts, squares, n, clusters)
        assert np.array_equal(res.correlated, p)
        assert np.array_equal(res.correlated_ci, half)
        assert res.infinite_count == sum(part[1][0] for part in parts)
        # The clusters share R, so the interval is wider than the rows'
        # own Wilson interval wherever p is off 0 and 1.
        inside = (p > 0.0) & (p < 1.0)
        assert np.all(half[inside] >= wilson_half_width(p, n)[inside])
        assert np.any(half[inside] > wilson_half_width(p, n)[inside])

    def test_per_port_job_nested_on_its_own_base(self):
        # A nested config's per-port curves come from a nested job on
        # _BASE_PER_PORT_NESTED: each is _outage_curve of that job's merged
        # chunk moments, and port_selection is binned from the same draws
        # as the port CDFs, never below any of them.
        cfg = _nested_group(74)[0]
        n = CHUNK_SIZE + 9
        res = run_outage_group([cfg], realizations=n, per_port=True)[0]
        sel = tuple(selectable_port_indices(cfg))
        curves = [(0, (j,)) for j in sel] + [(0, sel)]
        args = _outage_physical_args([cfg], curves, DEFAULT_GAMMA_GRID,
                                     _NESTED_INNER)
        parts = [_chunk_outage_physical(
            RngStream(74, mc_engine._BASE_PER_PORT_NESTED + i), size, *args)
            for i, size in enumerate((CHUNK_SIZE, 9))]
        counts = sum(part[0] for part in parts)
        squares = sum(part[3] for part in parts)
        names = [f"port_{j + 1}" for j in sel] + ["port_selection"]
        for c, name in enumerate(names):
            p, half = _outage_curve(counts[c], squares[c], n,
                                    CHUNK_SIZE // _NESTED_INNER + 3)
            assert np.array_equal(res.curves[name][0], p), name
            assert np.array_equal(res.curves[name][1], half), name
            assert np.all(res.curves["port_selection"][0] <= p)
        assert not np.array_equal(res.curves["port_selection"][0],
                                  res.correlated)

    def test_moments_independent_of_workers(self, monkeypatch):
        monkeypatch.delenv("FAMA_LAB_WORKERS", raising=False)
        cfg = _nested_group(70)[0]
        runs = [run_outage_experiment(cfg, realizations=3 * CHUNK_SIZE + 5,
                                      workers=w) for w in (1, 2, 8)]
        for res in runs[1:]:
            for curve_id, (values, half) in runs[0].curves.items():
                other = res.curves[curve_id]
                assert np.array_equal(values, other[0])
                assert (half is None and other[1] is None) or np.array_equal(
                    half, other[1])
            assert res.infinite_count == runs[0].infinite_count

    @pytest.mark.parametrize("M, U, N, W, scheme, mode, total, at_100", [
        (8, 4, 8, 4.0, "MRT", "member", 341010, 18),
        (8, 4, 2, 0.25, "ZF", "external", 313901, 153),
        (8, 4, 1, 0.5, "ZF", "external", 471020, 3244),
        (16, 8, 4, 0.25, "ZF", "external", 243850, 0),
        (16, 8, 2, 0.25, "MRT", "external", 376788, 290)])
    def test_unnested_configs_keep_their_streams(self, M, U, N, W, scheme,
                                                 mode, total, at_100):
        # K = 1 configs, MRT, member mode and ZF where a frame costs less
        # than twice its rows, keep the draws they had before nesting: the
        # selection counts, pinned here as their sum over the grid and
        # their value at grid point 100, and the plain Wilson interval.
        cfg = SystemConfig(M=M, U=U, N=N, W=W, scheme=scheme,
                           reference_mode=mode, seed=71)
        assert _inner_draws(cfg) == 1
        n = 4096 + 9
        res = run_outage_experiment(cfg, realizations=n)
        counts = np.rint(res.correlated * n).astype(np.int64)
        assert (int(counts.sum()), int(counts[100])) == (total, at_100)
        assert res.inner_draws == 1
        assert np.array_equal(res.correlated_ci,
                              wilson_half_width(res.correlated, n))

    def test_rule_nests_only_costly_zf_frames(self):
        # Never MRT or member mode, and never at U <= 4; outage_zf_gram's
        # config (U = 8, N = 2) is nested, U = 8 at N = 4 is not.
        for U in range(2, 17):
            for N in (1, 2, 4, 8):
                for scheme, mode in (("MRT", "member"), ("MRT", "external"),
                                     ("ZF", "member"), ("ZF", "external")):
                    K = _inner_draws(SystemConfig(M=2 * U, U=U, N=N,
                                                  scheme=scheme,
                                                  reference_mode=mode))
                    assert K in (1, _NESTED_INNER)
                    if scheme == "MRT" or mode == "member" or U <= 4:
                        assert K == 1, (U, N, scheme, mode)
        zf = partial(SystemConfig, scheme="ZF", reference_mode="external")
        assert _inner_draws(zf(M=16, U=8, N=2, W=0.25)) == _NESTED_INNER
        assert _inner_draws(zf(M=16, U=16, N=4)) == _NESTED_INNER
        assert _inner_draws(zf(M=16, U=8, N=4)) == 1
        assert _inner_draws(zf(M=12, U=6, N=2)) == 1

    def test_interval_coverage(self):
        # Stated before it was run: over the grid points whose reference
        # outage lies in [0.005, 0.995], the nested interval's pointwise
        # 95% coverage averages at least 0.93.  U = 8 ZF in external mode
        # (K = 4) at M = 8; 400 runs of one 2 048-row chunk (512 clusters),
        # each on a stream of its own, against a reference of 200 K = 1
        # chunks (409 600 rows).  The rows' own Wilson interval, blind to
        # the shared R, must cover visibly less (below 0.92), or the check
        # could not tell the two apart.
        cfg = SystemConfig(M=8, U=8, N=2, W=0.25, scheme="ZF", seed=72)
        assert _inner_draws(cfg) == _NESTED_INNER
        curves = [(0, tuple(selectable_port_indices(cfg)))]
        plain = _outage_physical_args([cfg], curves, DEFAULT_GAMMA_GRID)
        nested = plain[:-1] + (_NESTED_INNER,)
        reference = sum(_chunk_outage_physical(RngStream(72, i), CHUNK_SIZE,
                                               *plain)[0][0]
                        for i in range(200)) / (200 * CHUNK_SIZE)
        clusters = CHUNK_SIZE // _NESTED_INNER
        covered, naive = 0, 0
        for i in range(400):
            counts, _, _, squares = _chunk_outage_physical(
                RngStream(73, i), CHUNK_SIZE, *nested)
            p, half = _outage_curve(counts[0], squares[0], CHUNK_SIZE, clusters)
            covered = covered + (np.abs(p - reference) <= half)
            naive = naive + (np.abs(p - reference) <=
                             wilson_half_width(p, CHUNK_SIZE))
        points = (reference >= 0.005) & (reference <= 0.995)
        assert points.sum() >= 50
        assert np.mean(covered[points] / 400) >= 0.93
        assert np.mean(naive[points] / 400) < 0.92


class TestExperiments:
    def test_worker_invariance(self):
        cfg = SystemConfig(M=8, U=4, seed=50)
        r1 = run_cdf_experiment(cfg, mode="marginal", realizations=60_000,
                                workers=1)
        r2 = run_cdf_experiment(cfg, mode="marginal", realizations=60_000,
                                workers=2)
        assert np.array_equal(r1.curves["empirical_marginal"][0],
                              r2.curves["empirical_marginal"][0])

    def test_chunk_remainder(self):
        cfg = SystemConfig(M=8, U=4, seed=51)
        res = run_cdf_experiment(cfg, mode="marginal", realizations=16_384 + 77)
        assert res.realizations == 16_384 + 77
        assert res.curves["empirical_marginal"][0][-1] <= 1.0

    @pytest.mark.parametrize("mode", ["marginal", "physical_reference"])
    def test_cdf_curve_map(self, mode):
        # The map holds fig2's curve ids in its order: the analytic CDF,
        # then the empirical CDF, the kernel's counts merged over the
        # chunks and divided by n, with its Wilson half-width.
        cfg = SystemConfig(M=8, U=4, scheme="ZF", seed=64)
        grid = np.array([0.3, 1.0, 3.0])
        n = CHUNK_SIZE + 77
        res = run_cdf_experiment(cfg, mode=mode, gamma_grid=grid,
                                 realizations=n)
        assert list(res.curves) == ["analytic_cdf", f"empirical_{mode}"]
        counts = 0
        for i, size in enumerate((CHUNK_SIZE, 77)):
            if mode == "marginal":
                counts = counts + _chunk_outage_iid(
                    RngStream(64, _BASE_CDF + i), size, 5, 3, 1, grid)[0]
            else:
                counts = counts + _chunk_physref(
                    RngStream(64, _BASE_CDF_PHYSICAL + i), size, 8, 4, "ZF",
                    cfg.beta, cfg.powers, grid)[0]
        p, half_width = res.curves[f"empirical_{mode}"]
        assert np.array_equal(p, counts / n)
        assert np.array_equal(half_width, wilson_half_width(p, n))
        analytic, none = res.curves["analytic_cdf"]
        assert none is None
        assert np.array_equal(analytic, [betaprime_cdf(g, BetaPrimeParams(5, 3))
                                         for g in grid])
        assert res.ks == ks_distance(p, analytic)

    def test_run_beyond_stream_namespace_refused(self):
        # SPAN + 1 chunks would draw chunk SPAN from the next namespace's
        # first stream; nothing may be drawn before the refusal.
        def draw(stream, n):
            raise AssertionError("a chunk ran")

        with pytest.raises(ValueError, match="streams of one namespace"):
            _run_chunked([(draw, (), 0)], 2 * _STREAM_SPAN + 1, 1, 1, chunk_size=2)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            run_cdf_experiment(SystemConfig(), mode="bogus")

    # The case ids keep their numbers from when four outage grids led the
    # list; outage runs take no grid now.
    @pytest.mark.parametrize("run, grid", [
        ("marginal", [0.5, math.nan, 2.0]),
        ("physical_reference", [0.5, -math.inf, 2.0]),
        ("marginal", [0.5, -1.0, 2.0]),
        ("tail", [math.nan]),
        ("tail", [-1.0]),
        ("tail", [math.inf]),
    ], ids=["marginal-grid4", "physical_reference-grid5", "marginal-grid6",
            "tail-grid7", "tail-grid8", "tail-grid9"])
    def test_bad_gamma_grid_refused_before_any_chunk(self, monkeypatch, run,
                                                     grid):
        # NaN fails every comparison, so `< 0` alone would pass it; a
        # threshold the CDF code cannot evaluate is refused before any
        # chunk runs.  The marginal tail takes its one threshold as a grid
        # of one.
        calls = []
        monkeypatch.setattr(mc_engine, "_run_chunked",
                            lambda *a, **k: calls.append(a))
        if run == "tail":
            def experiment(config, gamma_grid, realizations):
                return estimate_marginal_tail(config, gamma_grid[0], realizations)
        else:
            experiment = partial(run_cdf_experiment, mode=run)
        with pytest.raises(ValueError, match="gamma grid"):
            experiment(SystemConfig(M=4, U=2, N=2), gamma_grid=np.array(grid),
                       realizations=2048)
        assert calls == []

    @pytest.mark.parametrize("mode", ["marginal", "physical_reference"])
    @pytest.mark.parametrize("grid", [[], [[0.5, 1.0]]], ids=["empty", "2-D"])
    def test_degenerate_gamma_grid_refused_before_any_chunk(self, monkeypatch,
                                                            mode, grid):
        # An empty grid used to fail in numpy's KS reduction after the run,
        # and a 2-D one to run and report a KS; both are refused by name
        # before any chunk runs.
        calls = []
        monkeypatch.setattr(mc_engine, "_run_chunked",
                            lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="gamma grid must be a non-empty 1-D"):
            run_cdf_experiment(SystemConfig(M=4, U=2, N=2), mode=mode,
                               gamma_grid=grid, realizations=2048)
        assert calls == []

    # Every experiment that takes a realization count, as
    # experiment(config, realizations=...).
    _sized = pytest.mark.parametrize("experiment", [
        partial(run_cdf_experiment, mode="marginal"),
        partial(run_cdf_experiment, mode="physical_reference"),
        lambda config, realizations: estimate_marginal_tail(config, 1.0,
                                                            realizations),
        run_correlation_experiment,
        lambda config, realizations: run_outage_group(
            [config], realizations=realizations)[0],
    ], ids=["marginal", "physical_reference", "tail", "correlation", "outage"])

    @pytest.mark.parametrize("realizations", [0, -3])
    @_sized
    def test_non_positive_sample_size_refused_before_any_chunk(
            self, monkeypatch, experiment, realizations):
        # 0 used to run the default count, and a negative count an empty
        # run; both are refused by name before any chunk runs.
        calls = []
        monkeypatch.setattr(mc_engine, "_run_chunked",
                            lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError,
                           match=f"realizations must be >= 1, got {realizations}"):
            experiment(SystemConfig(M=4, U=4, N=3), realizations=realizations)
        assert calls == []

    @pytest.mark.parametrize("realizations", [2500.5, True, math.nan, "2048"])
    @_sized
    def test_non_integer_sample_size_refused_before_any_chunk(
            self, monkeypatch, experiment, realizations):
        # 2500.5 used to fail inside the chunk plan, and True to run one
        # realization; SystemConfig's rule refuses them by name.
        calls = []
        monkeypatch.setattr(mc_engine, "_run_chunked",
                            lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="realizations must be an integer"):
            experiment(SystemConfig(M=4, U=4, N=3), realizations=realizations)
        assert calls == []

    @_sized
    def test_integral_float_sample_size_runs_as_its_int(self, experiment):
        # 2048.0 used to fail with a TypeError in the chunk plan.
        cfg = SystemConfig(M=4, U=4, N=3, W=2.0, seed=5)
        got = experiment(cfg, realizations=2048.0)
        want = experiment(cfg, realizations=2048)
        if isinstance(want, float):
            assert got == want
        else:
            assert type(got.realizations) is int
            assert got.realizations == want.realizations == 2048
            if hasattr(want, "curves"):
                for name, (values, _) in want.curves.items():
                    assert np.array_equal(got.curves[name][0], values), name
            else:
                assert np.array_equal(got.matrix, want.matrix)

    def test_cdf_grid_may_be_unsorted(self):
        # The CDF bins by searchsorted over the sorted samples, so an
        # unsorted grid (zero included) gives the sorted grid's counts.
        cfg = SystemConfig(M=4, U=2, seed=61)
        grid = np.array([2.0, 0.0, 0.5, 8.0])
        got = run_cdf_experiment(cfg, gamma_grid=grid, realizations=4096)
        order = np.argsort(grid)
        sorted_run = run_cdf_experiment(cfg, gamma_grid=grid[order],
                                        realizations=4096)
        assert np.array_equal(got.curves["empirical_marginal"][0][order],
                              sorted_run.curves["empirical_marginal"][0])

    def test_outage_single_port_degenerate(self):
        cfg = SystemConfig(M=8, U=4, N=1, W=0.0, seed=52)
        res = run_outage_experiment(cfg, realizations=30_000)
        curve = {name: values for name, (values, _) in res.curves.items()}
        assert np.allclose(curve["upper_bound"], curve["single_port"])
        assert np.allclose(curve["lower_bound"], curve["single_port"])
        assert np.allclose(curve["iid_benchmark"], curve["single_port"])
        # The i.i.d. benchmark is the exact law, so its empirical CDF lies in
        # the Dvoretzky-Kiefer-Wolfowitz band (Massart's constant) around F
        # with probability at least 1 - alpha, at every grid point at once.
        alpha = 1e-3
        eps = math.sqrt(math.log(2.0 / alpha) / (2.0 * res.realizations))
        assert np.max(np.abs(res.iid - curve["single_port"])) <= eps

    def test_iid_benchmark_consistency(self):
        cfg = SystemConfig(M=8, U=4, N=8, W=4.0, seed=53)
        res = run_outage_experiment(cfg, realizations=50_000)
        curve = {name: values for name, (values, _) in res.curves.items()}
        # The i.i.d. curve is the empirical CDF of the maximum of N exact
        # draws, so the DKW band (Massart's constant) holds around F^N at
        # every grid point at once with probability at least 1 - alpha.
        alpha = 1e-3
        eps = math.sqrt(math.log(2.0 / alpha) / (2.0 * res.realizations))
        assert np.max(np.abs(res.iid - curve["iid_benchmark"])) <= eps
        # The i.i.d. curve is drawn from the exact law, so the envelope's
        # premise holds; p = 1 above F < 1 must sit inside the interval.
        tol = 2.0 * res.iid_ci
        assert np.all(res.iid >= curve["lower_bound"] - tol)
        assert np.all(res.iid <= curve["upper_bound"] + tol)

    def test_outage_ci_positive_at_zero_and_one(self):
        cfg = SystemConfig(M=4, U=4, N=8, W=4.0, seed=59)
        res = run_outage_experiment(cfg, realizations=20_000)
        for p, ci in ((res.correlated, res.correlated_ci), (res.iid, res.iid_ci)):
            extreme = (p == 0.0) | (p == 1.0)
            assert np.any(p == 0.0) and np.any(p == 1.0)
            assert np.all(ci[extreme] > 0.0)

    def test_wilson_half_width_closed_forms(self):
        from fama_lab.mc_engine import wilson_half_width

        z, n = 1.959963984540054, 20_000
        edge = z * z / (2.0 * (n + z * z))
        assert wilson_half_width(np.array([0.0, 1.0]), n) == pytest.approx(
            [edge, edge], rel=1e-12)
        wald = z * math.sqrt(0.01 * 0.99 / n)
        assert wilson_half_width(0.01, n) == pytest.approx(wald, rel=0.005)
        assert wilson_half_width(0.01, n) > wald

    def test_zf_outage_external_mode_ports(self):
        cfg = SystemConfig(M=8, U=4, N=4, W=0.5, scheme="ZF", seed=54)
        res = run_outage_experiment(cfg, realizations=5_000)
        assert res.reference_mode == "external"
        assert list(res.selection_ports) == [2, 3, 4, 5]

    def test_zf_member_mode_zero_outage(self):
        cfg = SystemConfig(M=8, U=4, N=4, W=0.5, scheme="ZF",
                           reference_mode="member", seed=55)
        res = run_outage_experiment(cfg, realizations=5_000)
        # reference port is exactly nulled, so the selected SIR is unbounded
        assert res.infinite_count >= res.realizations
        assert np.all(res.correlated == 0.0)

    def test_correlation_needs_three_ports(self):
        with pytest.raises(ValueError):
            run_correlation_experiment(SystemConfig(N=2))

    @pytest.mark.parametrize("U", [2, 3])
    def test_correlation_refuses_infinite_variance(self, U):
        # Beta-prime(M_eff, L) has a finite variance only for L = U - 1 > 2.
        with pytest.raises(ValueError, match="infinite variance"):
            run_correlation_experiment(SystemConfig(U=U, N=4), realizations=1000)

    def test_moment_merge_does_not_cancel(self):
        # A large common offset over a unit spread: raw sums lose the
        # spread (sum x^2 / n - mean^2 cancels), centred moments keep it.
        from fama_lab.mc_engine import _merge_moments

        gen = np.random.default_rng(60)
        x = 1e8 + gen.standard_normal((3000, 2))
        x[:, 1] += 0.5 * x[:, 0]
        parts = []
        for chunk in np.array_split(x, 7):
            dev = chunk - chunk.mean(axis=0)
            parts.append((chunk.mean(axis=0), dev.T @ dev, len(chunk)))
        mean, m2, count = _merge_moments(parts)
        dev = x - x.mean(axis=0)
        assert count == len(x)
        assert np.allclose(mean, x.mean(axis=0), rtol=1e-12)
        assert np.allclose(m2, dev.T @ dev, rtol=1e-9)
        raw = x.T @ x - len(x) * np.outer(x.mean(axis=0), x.mean(axis=0))
        assert not np.allclose(raw, dev.T @ dev, rtol=1e-3)

    @pytest.mark.parametrize("mode, W", [
        ("member", 0.0), ("external", 0.0), ("member", 1e-300)])
    def test_zf_at_zero_aperture_refused_before_any_chunk(self, monkeypatch,
                                                          mode, W):
        # At W = 0, or where J0 rounds every mu_k to 1, every port is the
        # reference location, whose interference ZF nulls: every SIR is
        # infinite, and no pair is estimated.
        calls = []
        monkeypatch.setattr(mc_engine, "_run_chunked",
                            lambda *a, **k: calls.append(a))
        cfg = SystemConfig(M=8, U=4, N=4, W=W, scheme="ZF",
                           reference_mode=mode, seed=58)
        with pytest.raises(ValueError, match=(
                "under ZF needs every port off the reference location, but "
                f"at W={W:g} some have mu_k = 1")):
            run_correlation_experiment(cfg, realizations=5_000)
        assert calls == []

    def test_fully_correlated_ports_corr_one(self):
        cfg = SystemConfig(M=8, U=4, N=4, W=0.0, scheme="MRT", seed=58)
        res = run_correlation_experiment(cfg, realizations=5_000)
        assert np.allclose(res.matrix, 1.0, atol=1e-9)

    @pytest.mark.parametrize("W, outside", [
        (0.0, [(0, 1), (0, 2), (1, 2)]),  # every port has mu = 1
        (5e-9, [(0, 1), (0, 2)]),         # port 2 alone rounds to mu = 1
    ])
    def test_overlay_only_where_its_premise_holds(self, W, outside):
        # rho_x_approx assumes mu_k, mu_l < 1: a pair with a port at mu = 1
        # has no overlay and no deviation, and the largest deviation is
        # taken over the other pairs, NaN if there are none.
        cfg = SystemConfig(M=8, U=4, N=4, W=W, scheme="MRT", seed=58)
        res = run_correlation_experiment(cfg, realizations=5_000)
        nan = np.zeros((3, 3), dtype=bool)
        for i, j in outside:
            nan[i, j] = nan[j, i] = True
        assert np.array_equal(np.isnan(res.overlay), nan)
        assert np.array_equal(np.isnan(res.deviations), nan)
        assert np.array_equal(np.diag(res.overlay), np.ones(3))
        if W == 0.0:
            assert math.isnan(res.max_abs_deviation)
        else:
            assert res.max_abs_deviation == res.deviations[1, 2]

    def test_correlation_result_shape(self):
        cfg = SystemConfig(M=8, U=4, N=4, W=2.0, seed=56)
        res = run_correlation_experiment(cfg, realizations=20_000)
        m = res.matrix
        assert list(res.ports) == [2, 3, 4]
        assert res.n_used + res.n_dropped == res.realizations
        assert np.allclose(m, m.T)
        assert np.allclose(np.diag(m), 1.0)
        assert np.allclose(np.diag(res.overlay), 1.0)
        assert np.all(res.deviations >= 0.0)

    def test_selection_curve_is_row_max_of_singletons(self):
        # Each singleton curve bins one port's SIRs and the selection curve
        # their largest, realization by realization, on the same stream.
        cfg = SystemConfig(M=8, U=4, N=5, W=0.8, seed=57)
        sel, counts, inf_counts, sirs = _port_curves(cfg, 512)
        assert sirs.shape == (512, 5)
        assert np.array_equal(counts[0], bin_samples(
            DEFAULT_GAMMA_GRID, sirs[:, sel].max(axis=1)))
        for row, j in enumerate(sel, start=1):
            assert np.array_equal(counts[row], bin_samples(
                DEFAULT_GAMMA_GRID, sirs[:, j]))
        assert np.all(inf_counts == 0)


class TestResolveWorkers:
    def test_default_single(self, monkeypatch):
        monkeypatch.delenv("FAMA_LAB_WORKERS", raising=False)
        assert resolve_workers(None) == 1
        assert resolve_workers(4) == 4

    def test_env_caps_explicit_request(self, monkeypatch):
        monkeypatch.setenv("FAMA_LAB_WORKERS", "2")
        assert resolve_workers(8) == 2
        assert resolve_workers(None) == 2

    @pytest.mark.parametrize("workers", [2.5, True, "3", math.nan, math.inf])
    def test_non_integer_request_refused(self, monkeypatch, workers):
        # 2.5 used to start a 2-worker pool, True to run on 1 worker, "3"
        # on 3, and NaN to fail in int(); SystemConfig's integer rule
        # refuses them by name.
        monkeypatch.delenv("FAMA_LAB_WORKERS", raising=False)
        with pytest.raises(ValueError, match="workers must be an integer"):
            resolve_workers(workers)

    @pytest.mark.parametrize("workers", [0, -3, 0.0])
    def test_request_below_one_refused_by_name(self, monkeypatch, workers):
        # 0 and -3 used to run on 1 worker without a word.
        monkeypatch.delenv("FAMA_LAB_WORKERS", raising=False)
        with pytest.raises(ValueError,
                           match=f"workers must be >= 1, got {workers!r}"):
            resolve_workers(workers)

    @pytest.mark.parametrize("value", ["0", "-2"])
    @pytest.mark.parametrize("workers", [None, 4])
    def test_variable_below_one_refused_by_name(self, monkeypatch, value,
                                                workers):
        # FAMA_LAB_WORKERS=-2 used to cap every request at 1 without a word.
        monkeypatch.setenv("FAMA_LAB_WORKERS", value)
        with pytest.raises(ValueError,
                           match=f"FAMA_LAB_WORKERS must be >= 1, got '{value}'"):
            resolve_workers(workers)

    def test_integral_float_request_is_its_int(self, monkeypatch):
        monkeypatch.delenv("FAMA_LAB_WORKERS", raising=False)
        got = resolve_workers(3.0)
        assert type(got) is int and got == 3
        assert resolve_workers(np.int64(2)) == 2

    def test_non_integer_request_refused_before_any_chunk(self, monkeypatch):
        monkeypatch.delenv("FAMA_LAB_WORKERS", raising=False)
        calls = []
        monkeypatch.setattr(mc_engine, "_run_chunked",
                            lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="workers must be an integer"):
            run_outage_experiment(SystemConfig(M=4, U=2, N=2), 2048, workers=2.5)
        assert calls == []
