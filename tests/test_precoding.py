"""MRT/ZF beams of the batched kernel and the effective-gain laws."""

import math

import numpy as np
import pytest

from fama_lab.mc_engine import _cgauss, _reference_matrix, _weights_for_scheme
from fama_lab.randlin import RngStream


def _beams(H, scheme):
    """Unit-norm beams for one M x U reference matrix (an n = 1 batch)."""
    gen = RngStream(0, 0).generator()
    beta = (1.0,) * H.shape[1]
    W, resampled, _ = _weights_for_scheme(gen, H[None], scheme, beta)
    assert resampled == 0
    return W[0]


class TestMrt:
    def test_basis_vector(self):
        H = np.array([[1.0], [0.0]], dtype=complex)
        assert np.allclose(_beams(H, "MRT"), H)

    def test_normalization(self):
        H = np.array([[3.0], [4.0j]], dtype=complex)
        assert np.allclose(_beams(H, "MRT")[:, 0], [0.6, 0.8j])

    def test_alignment_property(self):
        gen = RngStream(1, 0).generator()
        H = _cgauss(gen, (50, 6, 3))
        W, _, _ = _weights_for_scheme(gen, H, "MRT", (1.0,) * 3)
        gains = np.einsum("nmu,nmu->nu", H.conj(), W)
        assert np.allclose(gains.imag, 0.0, atol=1e-12)
        assert np.allclose(gains.real, np.linalg.norm(H, axis=1))


class TestZf:
    def test_single_user_equals_mrt(self):
        H = _cgauss(RngStream(2, 0).generator(), (5, 1))
        assert np.allclose(_beams(H, "ZF"), _beams(H, "MRT"))

    def test_orthonormal_columns(self):
        H = np.eye(4, 2, dtype=complex)
        assert np.allclose(_beams(H, "ZF"), H)

    def test_hand_case(self):
        # Columns h1=(1,0), h2=(1,1): unnormalized solve gives
        # [[1,0],[-1,1]], so w1 = (1,-1)/sqrt(2), w2 = (0,1), and the
        # nulling h2^H w1 = 0 holds.
        H = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        W = _beams(H, "ZF")
        assert np.allclose(W[:, 0], np.array([1.0, -1.0]) / math.sqrt(2))
        assert np.allclose(W[:, 1], [0.0, 1.0])
        assert abs(np.vdot(H[:, 1], W[:, 0])) < 1e-12
        assert abs(np.vdot(H[:, 0], W[:, 1])) < 1e-12

    def test_unit_norms_and_nulling_over_draws(self):
        gen = RngStream(3, 0).generator()
        H = _cgauss(gen, (2_000, 8, 4))
        W, _, H = _weights_for_scheme(gen, H, "ZF", (1.0,) * 4)
        worst_norm = np.max(np.abs(np.linalg.norm(W, axis=1) - 1.0))
        proj = np.abs(np.einsum("nmu,nmv->nuv", H.conj(), W))
        proj[:, np.arange(4), np.arange(4)] = 0.0
        worst_null = np.max(proj / np.linalg.norm(H, axis=1)[:, :, None])
        assert worst_norm <= 1e-12
        assert worst_null <= 1e-10

    def test_resample_leaves_input_alone(self):
        gen = RngStream(8, 0).generator()
        H = _reference_matrix(gen, 6, 4, 2, (1.0, 1.0))
        H[3, :, 1] = 2.0 * H[3, :, 0]  # rank-1 Gram in row 3
        before = H.copy()
        W, resampled, H_used = _weights_for_scheme(gen, H, "ZF", (1.0, 1.0))
        assert resampled == 1
        assert np.array_equal(H, before)
        assert not np.array_equal(H_used[3], before[3])
        others = [0, 1, 2, 4, 5]
        assert np.array_equal(H_used[others], before[others])
        cross = np.abs(np.einsum("nmu,nmv->nuv", H_used.conj(), W))
        assert np.max(cross[:, [0, 1], [1, 0]]) < 1e-12


class TestGainLaws:
    def test_zf_desired_gain_mean(self):
        n = 100_000
        gen = RngStream(4, 0).generator()
        H = _reference_matrix(gen, n, 8, 4, (1.0,) * 4)
        W, _, H = _weights_for_scheme(gen, H, "ZF", (1.0,) * 4)
        gains = np.abs(np.einsum("nm,nm->n", H[:, :, 0].conj(), W[:, :, 0])) ** 2
        # Gamma(M-U+1, 1): mean 5, variance 5
        assert gains.mean() == pytest.approx(5.0, abs=3 * math.sqrt(5.0 / n))

    def test_mrt_reference_gain_mean(self):
        n = 100_000
        gen = RngStream(5, 0).generator()
        H = _reference_matrix(gen, n, 8, 4, (1.0,) * 4)
        W, _, _ = _weights_for_scheme(gen, H, "MRT", (1.0,) * 4)
        gains = np.abs(np.einsum("nm,nm->n", H[:, :, 0].conj(), W[:, :, 0])) ** 2
        assert gains.mean() == pytest.approx(8.0, abs=3 * math.sqrt(8.0 / n))

    def test_batched_zf_matches_contract_op(self):
        gen = RngStream(6, 0).generator()
        H = _reference_matrix(gen, 64, 8, 4, (1.0,) * 4)
        W, resampled, H = _weights_for_scheme(gen, H, "ZF", (1.0,) * 4)
        assert resampled == 0
        for i in (0, 17, 63):
            # Oracle: the pseudo-inverse's conjugate transpose is H (H^H H)^{-1}.
            expect = np.linalg.pinv(H[i]).conj().T
            expect /= np.linalg.norm(expect, axis=0)
            assert np.allclose(W[i], expect, atol=1e-10)
