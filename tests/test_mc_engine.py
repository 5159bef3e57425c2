"""Monte-Carlo engine: per-port SIRs, selection, samplers, estimators, and
the chunked experiment drivers."""

import math

import numpy as np
import pytest

from fama_lab.analytic_stats import BetaPrimeParams, betaprime_cdf
from fama_lab.channel_geom import SystemConfig, geometry_for_config
from fama_lab.mc_engine import (
    DEFAULT_GAMMA_GRID,
    EmpiricalCdf,
    _chunk_ports_sir,
    _port_sirs,
    ks_distance,
    marginal_model_sample,
    pearson_correlation,
    resolve_workers,
    run_cdf_experiment,
    run_correlation_experiment,
    run_outage_experiment,
    simulate_sir_batch,
    surrogate_gain_sample,
)
from fama_lab.randlin import RngStream


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
        sirs = _port_sirs(h1[None, None, :], W, (1.0, 1.0))
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


class TestSelectBestPort:
    """The FAMA selection of simulate_sir_batch."""

    def test_strongest(self):
        batch = simulate_sir_batch(SystemConfig(N=3, W=2.0, seed=20), 256)
        assert np.array_equal(batch.selected_value, batch.sirs.max(axis=1))
        rows = np.arange(256)
        assert np.array_equal(batch.sirs[rows, batch.selected_port - 1],
                              batch.selected_value)

    def test_tie_breaks_low(self):
        # W = 0: every port equals the reference, so all ports tie.
        batch = simulate_sir_batch(SystemConfig(N=3, W=0.0, seed=21), 64)
        assert np.all(batch.selected_port == 1)

    def test_infinite_dominates(self):
        cfg = SystemConfig(M=8, U=4, N=3, W=0.5, scheme="ZF",
                           reference_mode="member", seed=22)
        batch = simulate_sir_batch(cfg, 64)
        assert np.all(np.isfinite(batch.sirs[:, 1:]))
        assert np.all(batch.selected_port == 1)
        assert np.all(np.isinf(batch.selected_value))

    def test_subset_selection(self):
        cfg = SystemConfig(M=8, U=4, N=3, W=0.5, scheme="ZF", reference_mode="member",
                           include_reference_in_selection=False, seed=23)
        batch = simulate_sir_batch(cfg, 64)
        assert np.all(batch.selected_port >= 2)
        assert np.array_equal(batch.selected_value, batch.sirs[:, 1:].max(axis=1))

    def test_empty_set(self):
        cfg = SystemConfig(N=1, include_reference_in_selection=False)
        with pytest.raises(ValueError):
            simulate_sir_batch(cfg, 8)


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
        emp = EmpiricalCdf(grid, EmpiricalCdf.bin_samples(grid, x), len(x))
        analytic = [betaprime_cdf(g, BetaPrimeParams(8, 3)) for g in grid]
        assert ks_distance(emp, analytic) <= 0.003

    def test_mismatched_laws_far(self):
        x = marginal_model_sample(RngStream(38, 0), BetaPrimeParams(8, 3),
                                  size=200_000)
        grid = DEFAULT_GAMMA_GRID
        emp = EmpiricalCdf(grid, EmpiricalCdf.bin_samples(grid, x), len(x))
        wrong = [betaprime_cdf(g, BetaPrimeParams(5, 3)) for g in grid]
        assert ks_distance(emp, wrong) >= 0.15

    def test_callable_form_and_shape_check(self):
        grid = np.array([0.5, 1.0, 2.0])
        emp = EmpiricalCdf(grid, np.array([1, 2, 4]), 4)
        assert ks_distance(emp, lambda g: 0.5) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            ks_distance(emp, np.array([0.1, 0.2]))


class TestPortsKernel:
    def test_matches_per_realization_ops(self):
        cfg = SystemConfig(M=8, U=4, N=5, W=0.7, scheme="MRT")
        mu = geometry_for_config(cfg).mu
        M, U, P, n = cfg.M, cfg.U, len(mu), 64
        sirs, resampled = _chunk_ports_sir(
            RngStream(40, 0), n, M, U, cfg.scheme, cfg.beta, cfg.powers, tuple(mu))
        assert resampled == 0
        # Replay the documented draw order: reference normals for all users,
        # then user-0 innovations for ports 2..P.
        gen = RngStream(40, 0).generator()
        z = gen.standard_normal((n, U, M, 2))
        x0 = np.sqrt(0.5) * (z[..., 0] + 1j * z[..., 1])
        z = gen.standard_normal((n, P - 1, M, 2))
        innov = np.sqrt(0.5) * (z[..., 0] + 1j * z[..., 1])
        p = np.asarray(cfg.powers)
        for i in (0, 13, 63):
            w = [x0[i, u] / np.linalg.norm(x0[i, u]) for u in range(U)]
            for k in range(P):
                sig = math.sqrt(max(0.0, 1.0 - mu[k] ** 2))
                h = mu[k] * x0[i, 0] + sig * (innov[i, k - 1] if k else 0.0)
                g = [abs(np.vdot(h, w[u])) ** 2 for u in range(U)]
                expect = p[0] * g[0] / sum(p[u] * g[u] for u in range(1, U))
                assert sirs[i, k] == pytest.approx(expect, rel=1e-10)

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


class TestExperiments:
    def test_worker_invariance(self):
        cfg = SystemConfig(M=8, U=4, seed=50)
        r1 = run_cdf_experiment(cfg, mode="marginal", realizations=60_000,
                                workers=1)
        r2 = run_cdf_experiment(cfg, mode="marginal", realizations=60_000,
                                workers=2)
        assert np.array_equal(r1.empirical.counts, r2.empirical.counts)

    def test_chunk_remainder(self):
        cfg = SystemConfig(M=8, U=4, seed=51)
        res = run_cdf_experiment(cfg, mode="marginal", realizations=16_384 + 77)
        assert res.empirical.n == 16_384 + 77
        assert res.empirical.counts[-1] <= res.empirical.n

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            run_cdf_experiment(SystemConfig(), mode="bogus")

    def test_outage_single_port_degenerate(self):
        cfg = SystemConfig(M=8, U=4, N=1, W=0.0, seed=52)
        res = run_outage_experiment(cfg, realizations=30_000)
        assert np.allclose(res.upper, res.single_port)
        assert np.allclose(res.lower, res.single_port)
        assert np.allclose(res.iid_analytic, res.single_port)
        # i.i.d. benchmark is the exact law: within 3 binomial sigma of F
        sigma = np.sqrt(res.single_port * (1 - res.single_port) / res.realizations)
        assert np.all(np.abs(res.iid - res.single_port) <= 3 * sigma + 1e-12)

    def test_iid_benchmark_consistency(self):
        cfg = SystemConfig(M=8, U=4, N=8, W=4.0, seed=53)
        res = run_outage_experiment(cfg, realizations=50_000)
        sigma = np.sqrt(res.iid_analytic * (1 - res.iid_analytic)
                        / res.realizations)
        assert np.all(np.abs(res.iid - res.iid_analytic) <= 3 * sigma + 1e-9)
        # The i.i.d. curve is drawn from the exact law, so the envelope's
        # premise holds; p = 1 above F < 1 must sit inside the interval.
        tol = 2.0 * res.iid_ci
        assert np.all(res.iid >= res.lower - tol)
        assert np.all(res.iid <= res.upper + tol)

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

    def test_fully_correlated_ports_corr_one(self):
        cfg = SystemConfig(M=8, U=4, N=4, W=0.0, scheme="MRT", seed=58)
        res = run_correlation_experiment(cfg, realizations=5_000)
        assert np.allclose(res.empirical.matrix, 1.0, atol=1e-9)

    def test_correlation_result_shape(self):
        cfg = SystemConfig(M=8, U=4, N=4, W=2.0, seed=56)
        res = run_correlation_experiment(cfg, realizations=20_000)
        m = res.empirical.matrix
        assert list(res.ports) == [2, 3, 4]
        assert np.allclose(m, m.T)
        assert np.allclose(np.diag(m), 1.0)
        assert np.allclose(np.diag(res.overlay), 1.0)
        assert np.all(res.deviations >= 0.0)

    def test_sir_batch_selection_consistency(self):
        cfg = SystemConfig(M=8, U=4, N=5, W=0.8, seed=57)
        batch = simulate_sir_batch(cfg, realizations=512)
        assert batch.sirs.shape == (512, 5)
        for i in (0, 100, 511):
            port = int(np.argmax(batch.sirs[i])) + 1
            assert batch.selected_port[i] == port
            assert batch.selected_value[i] == batch.sirs[i, port - 1]
        assert batch.selected_value[0] == batch.sirs[0].max()


class TestResolveWorkers:
    def test_default_single(self, monkeypatch):
        monkeypatch.delenv("FAMA_LAB_WORKERS", raising=False)
        assert resolve_workers(None) == 1
        assert resolve_workers(4) == 4

    def test_env_caps_explicit_request(self, monkeypatch):
        monkeypatch.setenv("FAMA_LAB_WORKERS", "2")
        assert resolve_workers(8) == 2
        assert resolve_workers(None) == 2
