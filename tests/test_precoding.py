"""MRT/ZF beams of the batched kernel, in the frame of the reference
channels H = QR, and the effective-gain laws."""

import math
from functools import partial

import numpy as np
import pytest

from fama_lab.mc_engine import _reference_factor, _weights_for_scheme
from fama_lab.randlin import RngStream
from physical_oracle import beams


def _sampler(M, U):
    """The frame factor's sampler, which the ZF resampling draws from."""
    return partial(_reference_factor, M=M, U=U, beta=(1.0,) * U)


def _factor(seed, n, M, U):
    return _reference_factor(RngStream(seed, 0).generator(), n, M, U, (1.0,) * U)


def _beams(R, scheme):
    """Unit-norm frame beams for one r x U factor R (an n = 1 batch)."""
    gen = RngStream(0, 0).generator()
    F, resampled, _ = _weights_for_scheme(gen, R[None], scheme, _sampler(*R.shape))
    assert resampled == 0
    return F[0]


class TestMrt:
    def test_basis_vector(self):
        R = np.eye(2, dtype=complex)
        assert np.allclose(_beams(R, "MRT"), R)

    def test_normalization(self):
        R = np.array([[3.0, 4.0j], [0.0, 3.0]], dtype=complex)
        F = _beams(R, "MRT")
        assert np.allclose(F[:, 0], [1.0, 0.0])
        assert np.allclose(F[:, 1], [0.8j, 0.6])

    def test_alignment_property(self):
        R = _factor(1, 50, 6, 3)
        F, _, _ = _weights_for_scheme(RngStream(1, 1).generator(), R, "MRT",
                                      _sampler(6, 3))
        gains = np.einsum("nru,nru->nu", R.conj(), F)
        assert np.allclose(gains.imag, 0.0, atol=1e-12)
        assert np.allclose(gains.real, np.linalg.norm(R, axis=1))


class TestZf:
    def test_single_user_equals_mrt(self):
        R = _factor(2, 5, 5, 1)
        gen = RngStream(2, 1).generator()
        zf, _, _ = _weights_for_scheme(gen, R, "ZF", _sampler(5, 1))
        mrt, _, _ = _weights_for_scheme(gen, R, "MRT", _sampler(5, 1))
        assert np.allclose(zf, mrt)

    def test_orthonormal_columns(self):
        R = np.eye(2, dtype=complex)
        assert np.allclose(_beams(R, "ZF"), R)

    def test_hand_case(self):
        # Columns r1=(1,0), r2=(1,1): unnormalized solve R^{-H} gives
        # [[1,0],[-1,1]], so f1 = (1,-1)/sqrt(2), f2 = (0,1), and the
        # nulling r2^H f1 = 0 holds.
        R = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        F = _beams(R, "ZF")
        assert np.allclose(F[:, 0], np.array([1.0, -1.0]) / math.sqrt(2))
        assert np.allclose(F[:, 1], [0.0, 1.0])
        assert abs(np.vdot(R[:, 1], F[:, 0])) < 1e-12
        assert abs(np.vdot(R[:, 0], F[:, 1])) < 1e-12

    def test_unit_norms_and_nulling_over_draws(self):
        R = _factor(3, 2_000, 8, 4)
        F, _, R = _weights_for_scheme(RngStream(3, 1).generator(), R, "ZF",
                                      _sampler(8, 4))
        worst_norm = np.max(np.abs(np.linalg.norm(F, axis=1) - 1.0))
        proj = np.abs(np.einsum("nru,nrv->nuv", R.conj(), F))
        proj[:, np.arange(4), np.arange(4)] = 0.0
        worst_null = np.max(proj / np.linalg.norm(R, axis=1)[:, :, None])
        assert worst_norm <= 1e-12
        assert worst_null <= 1e-10

    def test_resample_leaves_input_alone(self):
        R = _factor(8, 6, 4, 2)
        R[3, :, 1] = 2.0 * R[3, :, 0]  # rank-1 Gram in row 3
        before = R.copy()
        F, resampled, R_used = _weights_for_scheme(RngStream(8, 1).generator(), R,
                                                   "ZF", _sampler(4, 2))
        assert resampled == 1
        assert np.array_equal(R, before)
        assert not np.array_equal(R_used[3], before[3])
        others = [0, 1, 2, 4, 5]
        assert np.array_equal(R_used[others], before[others])
        cross = np.abs(np.einsum("nru,nrv->nuv", R_used.conj(), F))
        assert np.max(cross[:, [0, 1], [1, 0]]) < 1e-12


    def test_resample_leaves_generator_alone(self):
        # The redraw comes from a child of the generator, so the caller's
        # stream is where it was before the precoder ran.
        R = _factor(9, 6, 4, 2)
        R[4, :, 1] = 2.0 * R[4, :, 0]  # rank-1 Gram in row 4
        gen = RngStream(9, 1).generator()
        # The SFC64 state holds an array, so it is compared as its repr.
        before = repr(gen.bit_generator.state)
        _, resampled, _ = _weights_for_scheme(gen, R, "ZF", _sampler(4, 2))
        assert resampled == 1
        assert repr(gen.bit_generator.state) == before


class TestGainLaws:
    def _gains(self, seed, n, scheme):
        """|h_0^H w_0|^2 = |R[:, 0]^H F[:, 0]|^2 at M = 8, U = 4."""
        R = _factor(seed, n, 8, 4)
        F, _, R = _weights_for_scheme(RngStream(seed, 1).generator(), R, scheme,
                                      _sampler(8, 4))
        return np.abs(np.einsum("nr,nr->n", R[:, :, 0].conj(), F[:, :, 0])) ** 2

    def test_zf_desired_gain_mean(self):
        n = 100_000
        # Gamma(M-U+1, 1): mean 5, variance 5
        gains = self._gains(4, n, "ZF")
        assert gains.mean() == pytest.approx(5.0, abs=3 * math.sqrt(5.0 / n))

    def test_mrt_reference_gain_mean(self):
        n = 100_000
        gains = self._gains(5, n, "MRT")
        assert gains.mean() == pytest.approx(8.0, abs=3 * math.sqrt(8.0 / n))

    def test_batched_zf_matches_contract_op(self):
        R = _factor(6, 64, 8, 4)
        F, resampled, R = _weights_for_scheme(RngStream(6, 1).generator(), R, "ZF",
                                              _sampler(8, 4))
        assert resampled == 0
        # Oracle: the pseudo-inverse's conjugate transpose is R (R^H R)^{-1}.
        assert np.allclose(F, beams(R, "ZF"), rtol=0.0, atol=1e-10)
