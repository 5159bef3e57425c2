"""Stream reproducibility, sampler moments, and the batched ZF solve."""

import math

import mpmath as mp
import numpy as np
import pytest

from fama_lab.channel_geom import SystemConfig
from fama_lab.mc_engine import _cgauss, _zf_weights
from fama_lab.randlin import RngStream, gamma_variates


def _cg(seed, stream_id, shape):
    return _cgauss(RngStream(seed, stream_id).generator(), shape)


def _zf_raw(H):
    """Unnormalized batched ZF solve H (H^H H)^{-1} for one M x U matrix:
    the unit-norm beams rescaled so that H^H W has a unit diagonal."""
    gen = RngStream(0, 0).generator()
    W, resampled, _ = _zf_weights(gen, H[None], (1.0,) * H.shape[1])
    assert resampled == 0
    return W[0] / np.diag(H.conj().T @ W[0])


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
        x = gamma_variates(RngStream(21, 0).generator(), 1, 1_000_000)
        assert x.mean() == pytest.approx(1.0, abs=0.005)

    def test_shape_eight_moments(self):
        x = gamma_variates(RngStream(22, 0).generator(), 8, 1_000_000)
        assert x.mean() == pytest.approx(8.0, abs=0.02)
        assert x.var() == pytest.approx(8.0, abs=0.1)

    def test_cdf_at_three(self):
        # Oracle: regularized lower incomplete gamma, gammainc(3,3)/Gamma(3).
        mp.mp.dps = 30
        ref = float(mp.gammainc(3, 0, 3, regularized=True))
        x = gamma_variates(RngStream(23, 0).generator(), 3, 1_000_000)
        assert np.mean(x <= 3.0) == pytest.approx(ref, abs=0.005)

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_variates(RngStream(1, 0).generator(), 0, 10)


class TestSolveGram:
    def test_orthonormal_columns(self):
        H = np.eye(4, 2, dtype=complex)
        assert np.allclose(_zf_raw(H), H)

    def test_single_column(self):
        h = np.array([[3.0], [4.0j]], dtype=complex)
        expected = h / np.linalg.norm(h) ** 2
        assert np.allclose(_zf_raw(h), expected)

    def test_hand_case(self):
        # Gram of [[1,1],[0,1]] is [[1,1],[1,2]]; its inverse gives
        # W = [[1,0],[-1,1]] and H^H W = I.
        H = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        W = _zf_raw(H)
        assert np.allclose(W, np.array([[1.0, 0.0], [-1.0, 1.0]]))
        assert np.allclose(H.conj().T @ W, np.eye(2), atol=1e-12)

    def test_residual_over_random_draws(self):
        gen = RngStream(31, 0).generator()
        H = _cgauss(gen, (10_000, 8, 4))
        W, _, H = _zf_weights(gen, H, (1.0,) * 4)
        gains = np.einsum("nmu,nmu->nu", H.conj(), W)
        resid = np.einsum("nmu,nmv->nuv", H.conj(), W / gains[:, None, :])
        assert np.max(np.abs(resid - np.eye(4))) <= 1e-10

    def test_singular_gram_raises(self):
        # A rank-1 Gram is never solved: the batched kernel redraws the row.
        h = np.array([[1.0], [0.0]], dtype=complex)
        H = np.hstack([h, h])[None]
        gen = RngStream(1, 0).generator()
        W, resampled, H_used = _zf_weights(gen, H, (1.0, 1.0))
        assert resampled == 1
        cross = H_used[0].conj().T @ W[0]
        assert abs(cross[0, 1]) < 1e-12 and abs(cross[1, 0]) < 1e-12

    def test_shape_validation(self):
        # M < U has a singular Gram in every draw, so resampling gives up.
        with pytest.raises(RuntimeError):
            _zf_weights(RngStream(1, 0).generator(),
                        np.ones((1, 2, 3), dtype=complex), (1.0,) * 3)
