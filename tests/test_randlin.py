"""Stream reproducibility, sampler moments, and the batched ZF solve."""

import math
from functools import partial

import mpmath as mp
import numpy as np
import pytest

from fama_lab.channel_geom import SystemConfig, geometry_for_config
from fama_lab.mc_engine import (
    _GRAM_TOLERANCE,
    _cgauss,
    _chunk_ports_sir,
    _lower_inverse,
    _reference_factor,
    _zf_weights,
    surrogate_gain_sample,
)
from fama_lab.randlin import RngStream
from physical_oracle import beams


def _cg(seed, stream_id, shape):
    """CN(0, 1) entries: _cgauss's sqrt(2) CN(0, 1) draw times sqrt(1/2)."""
    return math.sqrt(0.5) * _cgauss(RngStream(seed, stream_id).generator(), shape)


def _gamma(seed, shape, size):
    """Gamma(shape, 1) as the lab draws it: with mu = 0 the surrogate gain
    is its local term S_k ~ Gamma(L) alone."""
    return surrogate_gain_sample(RngStream(seed, 0), [0.0], 1, shape, size)[:, 0]


def _zf_raw(R):
    """Unnormalized batched ZF solve R (R^H R)^{-1} = R^{-H} for one U x U
    frame factor: the unit-norm beams rescaled so that R^H F has a unit
    diagonal."""
    F, resampled, _ = _frame_zf(R[None], R.shape[1])
    assert resampled == 0
    return F[0] / np.diag(R.conj().T @ F[0])


class TestRngStream:
    def test_bit_identical_replay(self):
        assert np.array_equal(_cg(421, 7, (16,)), _cg(421, 7, (16,)))

    def test_distinct_streams_differ(self):
        assert not np.allclose(_cg(421, 7, (16,)), _cg(421, 8, (16,)))

    def test_stream_independence(self):
        n = 1_000_000
        x = RngStream(5, 1).generator().standard_normal(n)
        y = RngStream(5, 2).generator().standard_normal(n)
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr) <= 3.0 / math.sqrt(n)

    def test_seed_and_id_not_interchangeable(self):
        assert not np.allclose(_cg(3, 9, (16,)), _cg(9, 3, (16,)))

    def test_negative_seed_replays_its_masked_value(self):
        assert np.array_equal(_cg(-5, 7, (16,)), _cg(2**64 - 5, 7, (16,)))
        assert np.array_equal(_cg(5, -7, (16,)), _cg(5, 2**64 - 7, (16,)))
        assert not np.allclose(_cg(-5, 7, (16,)), _cg(5, 7, (16,)))

    def test_stream_is_spawned_child(self):
        child = np.random.SeedSequence(421).spawn(8)[7]
        gen = np.random.Generator(np.random.SFC64(child))
        x = RngStream(421, 7).generator().standard_normal(16)
        assert np.array_equal(x, gen.standard_normal(16))


class TestComplexGaussian:
    def test_norm_mean(self):
        sq = np.linalg.norm(_cg(11, 0, (20_000, 8)), axis=1) ** 2
        assert np.mean(sq) == pytest.approx(8.0, abs=0.1)

    def test_component_variance(self):
        z = _cg(12, 0, (400, 64))
        assert np.var(z.real) == pytest.approx(0.5, abs=0.01)
        assert np.var(z.imag) == pytest.approx(0.5, abs=0.01)

    def test_invalid_dim(self):
        # The draw dimensions come from the config, which refuses them.
        with pytest.raises(ValueError):
            SystemConfig(M=0)


class TestGammaInt:
    def test_exponential_mean(self):
        x = _gamma(21, 1, 1_000_000)
        assert x.mean() == pytest.approx(1.0, abs=0.005)

    def test_shape_eight_moments(self):
        x = _gamma(22, 8, 1_000_000)
        assert x.mean() == pytest.approx(8.0, abs=0.02)
        assert x.var() == pytest.approx(8.0, abs=0.1)

    def test_cdf_at_three(self):
        # Oracle: regularized lower incomplete gamma, gammainc(3,3)/Gamma(3).
        mp.mp.dps = 30
        ref = float(mp.gammainc(3, 0, 3, regularized=True))
        x = _gamma(23, 3, 1_000_000)
        assert np.mean(x <= 3.0) == pytest.approx(ref, abs=0.005)

    def test_domain(self):
        for m_effective, L in ((0, 3), (8, 0), (8, 2.5)):
            with pytest.raises(ValueError):
                surrogate_gain_sample(RngStream(1, 0), [0.5], m_effective, L, 10)


class TestSolveGram:
    """The ZF solve in the frame of the reference channels H = QR, where
    the channels are the columns of R."""

    def test_orthonormal_columns(self):
        R = np.eye(2, dtype=complex)
        assert np.allclose(_zf_raw(R), R)

    def test_single_column(self):
        r = np.array([[5.0]], dtype=complex)
        expected = r / np.linalg.norm(r) ** 2
        assert np.allclose(_zf_raw(r), expected)

    def test_hand_case(self):
        # Gram of [[1,1],[0,1]] is [[1,1],[1,2]]; its inverse gives
        # W = [[1,0],[-1,1]] and H^H W = I.
        H = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        W = _zf_raw(H)
        assert np.allclose(W, np.array([[1.0, 0.0], [-1.0, 1.0]]))
        assert np.allclose(H.conj().T @ W, np.eye(2), atol=1e-12)

    def test_residual_over_random_draws(self):
        R = _reference_factor(RngStream(31, 0).generator(), 10_000, 8, 4, (1.0,) * 4)
        redraw = partial(_reference_factor, M=8, U=4, beta=(1.0,) * 4)
        F, _, R = _zf_weights(RngStream(31, 1).generator(), R, redraw)
        gains = np.einsum("nru,nru->nu", R.conj(), F)
        resid = np.einsum("nru,nrv->nuv", R.conj(), F / gains[:, None, :])
        assert np.max(np.abs(resid - np.eye(4))) <= 1e-10

    def test_singular_gram_raises(self):
        # A rank-1 Gram is never solved: the batched kernel redraws the row.
        R = np.array([[[1.0, 1.0], [0.0, 0.0]]], dtype=complex)
        F, resampled, R_used = _frame_zf(R, 2)
        assert resampled == 1
        cross = R_used[0].conj().T @ F[0]
        assert abs(cross[0, 1]) < 1e-12 and abs(cross[1, 0]) < 1e-12

    def test_ill_conditioned_gram_redrawn(self):
        # R = [[1, 1], [0, s]] has tr(G) tr(G^-1) = (2 + s^2)(1 + 2 / s^2),
        # about 4e10 at s = 1e-5 and 6.3e12 at s = 10^-6.1: the second row
        # exceeds the 1e12 limit and is redrawn, the first is kept.
        R = np.zeros((2, 2, 2), dtype=complex)
        R[:, 0, :] = 1.0
        R[0, 1, 1] = 10.0 ** -5
        R[1, 1, 1] = 10.0 ** -6.1
        _, resampled, R_used = _frame_zf(R, 2)
        assert resampled == 1
        assert np.array_equal(R_used[0], R[0])
        assert not np.array_equal(R_used[1], R[1])

    def test_shape_validation(self):
        # A sampler that only returns singular factors: resampling gives up
        # after _MAX_RESAMPLE_ROUNDS.
        def singular(gen, count):
            return np.zeros((count, 2, 2), dtype=complex)

        with pytest.raises(RuntimeError):
            _zf_weights(RngStream(1, 0).generator(),
                        np.zeros((1, 2, 2), dtype=complex), singular)


_FRAME_BETA = (2.0, 0.5, 1.5, 0.7, 1.0, 3.0, 0.2, 1.1)


@pytest.fixture
def no_gram_factorisation(monkeypatch):
    """Make any Cholesky or eigenvalue call on a Gram fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("the frame ZF factored a Gram")
    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)


def _frame_zf(R, U):
    redraw = partial(_reference_factor, M=U, U=U, beta=(1.0,) * U)
    return _zf_weights(RngStream(0, 0).generator(), R, redraw)


class TestFrameZf:
    """ZF beams of the triangular factor R of H = QR: R (R^H R)^{-1} = R^{-H}."""

    @pytest.mark.parametrize("M, U", [(4, 4), (8, 4), (16, 8)])
    def test_matches_cholesky_route(self, M, U):
        # The Bartlett route against the oracle's pseudo-inverse beams of R.
        beta = _FRAME_BETA[:U]
        R = _reference_factor(RngStream(51, M).generator(), 4096, M, U, beta)
        redraw = partial(_reference_factor, M=M, U=U, beta=beta)
        W, _, R = _zf_weights(RngStream(52, M).generator(), R, redraw)
        assert np.max(np.abs(W - beams(R, "ZF"))) <= 1e-10

    @pytest.mark.parametrize("M, U", [(4, 4), (8, 4), (16, 8)])
    def test_condition_product_is_frobenius(self, M, U):
        # ||R||_F^2 ||R^{-1}||_F^2 = tr(G) tr(G^{-1}) for G = R^H R, against
        # a 40-digit inverse of the Gram.
        R = _reference_factor(RngStream(53, M).generator(), 48, M, U,
                              _FRAME_BETA[:U])
        inv = _lower_inverse(np.conj(np.swapaxes(R, 1, 2)))
        frob = (np.sum(np.abs(R) ** 2, axis=(1, 2))
                * np.sum(np.abs(inv) ** 2, axis=(1, 2)))
        with mp.workdps(40):
            for row, value in zip(R, frob):
                r = mp.matrix(row.tolist())
                gram = r.H * r
                ginv = gram ** -1
                exact = (sum(gram[i, i] for i in range(U))
                         * sum(ginv[i, i] for i in range(U))).real
                assert abs(value / float(exact) - 1.0) <= 1e-12

    @pytest.mark.parametrize("U", [1, 3, 8])
    def test_lower_inverse_of_a_general_triangle(self, U):
        # A C-order batch, as redrawn rows R[rows] reach the inverse, with a
        # non-real diagonal of modulus 1-2.
        gen = np.random.default_rng(55 + U)
        n = 64
        L = np.tril(gen.standard_normal((n, U, U))
                    + 1j * gen.standard_normal((n, U, U)), -1)
        idx = np.arange(U)
        # Phases 0.2-1.3 rad off an axis keep |Im| >= 0.19 |L_ii|.
        phase = gen.uniform(0.2, 1.3, (n, U)) + np.pi / 2 * gen.integers(0, 4, (n, U))
        L[:, idx, idx] = gen.uniform(1.0, 2.0, (n, U)) * np.exp(1j * phase)
        X = _lower_inverse(L)
        assert X.shape == (n, U, U)
        assert np.all(X[:, ~np.tri(U, dtype=bool)] == 0.0)
        assert np.max(np.abs(L @ X - np.eye(U))) <= 1e-12

    def test_condition_test_at_the_limit(self, no_gram_factorisation):
        # R = diag(1, s) has the product (1 + s^2)(1 + 1/s^2); the rows sit
        # just below and just above 1 / _GRAM_TOLERANCE.
        limit = 1.0 / _GRAM_TOLERANCE
        R = np.zeros((2, 2, 2), dtype=complex)
        R[:, 0, 0] = 1.0
        for row, product in enumerate((limit * (1 - 1e-9), limit * (1 + 1e-9))):
            # s^2 + 1/s^2 = product - 2, solved for the smaller root s^2.
            c = product - 2.0
            R[row, 1, 1] = math.sqrt(2.0 / (c + math.sqrt(c * c - 4.0)))
        _, resampled, R_used = _frame_zf(R, 2)
        assert resampled == 1
        assert np.array_equal(R_used[0], R[0])
        assert not np.array_equal(R_used[1], R[1])

    def test_ill_conditioned_factor_redrawn_in_r_form(self, no_gram_factorisation):
        # cond(G) = 1e12.2 is redrawn from the factor's law, 1e10 is kept.
        R = np.zeros((2, 2, 2), dtype=complex)
        R[:, 0, 0] = 1.0
        R[0, 1, 1] = 10.0 ** -5
        R[1, 1, 1] = 10.0 ** -6.1
        W, resampled, R_used = _frame_zf(R, 2)
        assert resampled == 1
        assert np.array_equal(R_used[0], R[0])
        new = R_used[1]
        assert not np.array_equal(new, R[1])
        assert new[1, 0] == 0.0
        assert np.all(np.diag(new).imag == 0.0) and np.all(np.diag(new).real > 0.0)
        cross = np.einsum("nru,nrv->nuv", R_used.conj(), W)
        assert np.allclose(cross[:, 0, 1], 0.0, atol=1e-12)
        assert np.allclose(cross[:, 1, 0], 0.0, atol=1e-12)

    def test_ports_kernel_factors_no_gram(self, no_gram_factorisation):
        cfg = SystemConfig(M=16, U=8, N=2, W=0.25, scheme="ZF",
                           reference_mode="external")
        mu = tuple(geometry_for_config(cfg).mu)
        sirs, _ = _chunk_ports_sir(RngStream(54, 0), 2048, cfg.M, cfg.U, "ZF",
                                   cfg.beta, cfg.powers, mu)
        assert sirs.shape == (2048, len(mu))
        assert np.isfinite(sirs[:, 1:]).all()
