"""Port geometry, spatial correlation coefficients, and the batched channel
draw."""

import math

import mpmath as mp
import numpy as np
import pytest

from fama_lab.channel_geom import (
    SystemConfig,
    correlation_matrix,
    geometry_for_config,
    mu_vector,
    port_displacements,
    selectable_port_indices,
)
from fama_lab.randlin import RngStream
from fama_lab.specialfn import BESSEL_J0_MAX_ARG
from physical_oracle import draw_physical, port_channels

mp.mp.dps = 30


class TestSystemConfig:
    def test_defaults(self):
        cfg = SystemConfig()
        assert (cfg.M, cfg.U, cfg.N, cfg.W, cfg.scheme) == (8, 4, 8, 0.25, "MRT")
        assert cfg.beta == (1.0,) * 4
        assert cfg.powers == (1.0,) * 4
        assert cfg.L == 3

    def test_zf_dimension_check(self):
        SystemConfig(M=4, U=4, scheme="ZF")  # boundary accepted
        with pytest.raises(ValueError):
            SystemConfig(M=3, U=4, scheme="ZF")

    def test_reference_mode_resolution(self):
        assert SystemConfig(scheme="MRT").resolved_reference_mode() == "member"
        assert SystemConfig(scheme="ZF").resolved_reference_mode() == "external"
        assert SystemConfig(scheme="ZF", reference_mode="member"
                            ).resolved_reference_mode() == "member"

    def test_bad_values(self):
        nan, inf = math.nan, math.inf
        cases = [
            (dict(W=-1.0), "W"),
            (dict(W=nan), "W"),
            (dict(W=inf), "W"),
            (dict(W=1e300), "BESSEL_J0_MAX_ARG"),
            (dict(W=BESSEL_J0_MAX_ARG), "BESSEL_J0_MAX_ARG"),
            (dict(scheme="MMSE"), "scheme"),
            (dict(beta=(1.0, 1.0)), "beta"),
            (dict(beta=(nan, 1.0, 1.0, 1.0)), "beta"),
            (dict(beta=(1.0, inf, 1.0, 1.0)), "beta"),
            (dict(powers=(1.0, -1.0, 1.0, 1.0)), "powers"),
            (dict(powers=(inf, 1.0, 1.0, 1.0)), "powers"),
            (dict(powers=(1.0, 1.0, nan, 1.0)), "powers"),
            (dict(N=2.5), r"must be integers.*N=2\.5"),
            (dict(M=8.5), r"must be integers.*M=8\.5"),
            (dict(U=4.5), r"must be integers.*U=4\.5"),
            (dict(realizations=2500.5), "realizations"),
            (dict(realizations=True), "realizations"),
            (dict(seed=1.5), "seed"),
            (dict(include_reference_in_selection="no"),
             "include_reference_in_selection"),
        ]
        for kwargs, name in cases:
            with pytest.raises(ValueError, match=name):
                SystemConfig(**kwargs)
        # An integral float is an integer.
        assert type(SystemConfig(M=8.0).M) is int
        assert type(SystemConfig(realizations=2500.0).realizations) is int

    @pytest.mark.parametrize("mode, N", [("member", 2), ("member", 7),
                                         ("member", 8), ("external", 1),
                                         ("external", 7)])
    def test_largest_accepted_aperture_builds_its_geometry(self, mode, N):
        # The bound is on the geometry's last displacement, (n-1) (W/(n-1)),
        # which may round above W.
        def accepted(W):
            try:
                SystemConfig(N=N, W=W, reference_mode=mode)
            except ValueError:
                return False
            return True

        W = BESSEL_J0_MAX_ARG / (2.0 * math.pi)
        while not accepted(W):
            W = float(np.nextafter(W, 0.0))
        while accepted(float(np.nextafter(W, math.inf))):
            W = float(np.nextafter(W, math.inf))
        geometry = geometry_for_config(SystemConfig(N=N, W=W, reference_mode=mode))
        assert np.all(np.abs(geometry.mu) <= 1.0)
        assert geometry.displacements[-1] == pytest.approx(W, rel=1e-15)


class TestDisplacements:
    def test_two_ports(self):
        assert np.allclose(port_displacements(2, 0.5), [0.0, 0.5])

    def test_eight_ports(self):
        d = port_displacements(8, 0.25)
        assert d[0] == 0.0
        assert d[1] == pytest.approx(0.25 / 7.0)
        assert d[-1] == pytest.approx(0.25)

    def test_single_port(self):
        assert np.array_equal(port_displacements(1, 3.7), [0.0])


class TestMuVector:
    def test_reference_is_one(self):
        mu = mu_vector(port_displacements(8, 0.25))
        assert mu[0] == 1.0

    def test_adjacent_port_value(self):
        mu = mu_vector(port_displacements(8, 0.25))
        ref = float(mp.besselj(0, 2 * mp.pi * mp.mpf(0.25) / 7))
        assert mu[1] == pytest.approx(ref, abs=1e-10)
        assert mu[1] == pytest.approx(0.98745, abs=5e-6)

    def test_half_wavelength(self):
        mu = mu_vector(np.array([0.0, 0.5]))
        assert mu[1] == pytest.approx(-0.304242, abs=1e-6)


class TestCorrelationMatrix:
    def test_single_port(self):
        assert np.array_equal(correlation_matrix(np.zeros(1)), [[1.0]])

    def test_unit_diagonal_symmetry(self):
        k = correlation_matrix(port_displacements(6, 1.3))
        assert np.allclose(np.diag(k), 1.0)
        assert np.allclose(k, k.T)

    def test_two_port_half_wavelength(self):
        k = correlation_matrix(np.array([0.0, 0.5]))
        assert k[0, 1] == pytest.approx(-0.304242, abs=1e-6)


class TestSelectablePorts:
    def test_member_mode(self):
        cfg = SystemConfig(N=8)
        assert np.array_equal(selectable_port_indices(cfg), np.arange(8))

    def test_member_mode_excluding_reference(self):
        cfg = SystemConfig(N=8, include_reference_in_selection=False)
        assert np.array_equal(selectable_port_indices(cfg), np.arange(1, 8))

    def test_external_mode(self):
        cfg = SystemConfig(N=8, M=8, U=4, scheme="ZF")
        geo = geometry_for_config(cfg)
        assert geo.num_ports == 9
        assert np.array_equal(selectable_port_indices(cfg), np.arange(1, 9))


class TestGenerateChannelSet:
    """The physical channel draw of the test oracle: the reference matrix
    H (n, M, U), then user 0's ports."""

    def test_fully_correlated_limit(self):
        geo = geometry_for_config(SystemConfig(N=4, W=0.0))
        H, e = draw_physical(RngStream(3, 0).generator(), 16, 8, 4, 4, (1.0,) * 4)
        ports = port_channels(H[:, :, 0], e, 1.0, geo.mu)
        for k in range(1, 4):
            assert np.allclose(ports[:, k, :], ports[:, 0, :])

    def test_beta_scaling(self):
        beta = (4.0, 1.0, 1.0, 1.0)
        H, e = draw_physical(RngStream(4, 0).generator(), 16, 8, 4, 3, beta)
        unit, unit_e = draw_physical(RngStream(4, 0).generator(), 16, 8, 4, 3,
                                     (1.0,) * 4)
        assert np.allclose(H[:, :, 0], 2.0 * unit[:, :, 0])
        assert np.array_equal(H[:, :, 1:], unit[:, :, 1:])
        assert np.array_equal(e, unit_e)

    def test_reference_consistency(self):
        cfg = SystemConfig()
        P = geometry_for_config(cfg).num_ports
        H, e = draw_physical(RngStream(5, 0).generator(), 16, cfg.M, cfg.U, P,
                             cfg.beta)
        assert H.shape == (16, cfg.M, cfg.U) and e.shape == (16, P - 1, cfg.M)
        # Replay: the (n, M, U) real parts, then their imaginary parts.
        z = RngStream(5, 0).generator().standard_normal((2, 16, cfg.M, cfg.U))
        assert np.array_equal(H[:, :, 2], (z[0] + 1j * z[1])[:, :, 2] / math.sqrt(2.0))
        ports = port_channels(H[:, :, 0], e, 1.0, geometry_for_config(cfg).mu)
        assert np.array_equal(ports[:, 0, :], H[:, :, 0])

    def test_exact_mixing_identity(self):
        cfg = SystemConfig(N=6, W=0.8)
        geo = geometry_for_config(cfg)
        H, innov = draw_physical(RngStream(6, 0).generator(), 16, cfg.M, cfg.U,
                                 6, cfg.beta)
        ports = port_channels(H[:, :, 0], innov, 1.0, geo.mu)
        for k in range(1, 6):
            sigma = math.sqrt(max(0.0, 1.0 - geo.mu[k] ** 2))
            expect = geo.mu[k] * H[:, :, 0] + sigma * innov[:, k - 1, :]
            assert np.allclose(ports[:, k, :], expect)

    def test_empirical_port_correlation(self):
        cfg = SystemConfig(N=8, W=0.25)
        geo = geometry_for_config(cfg)
        n = 100_000
        stream = RngStream(7, 0)
        gen = stream.generator()
        x0 = np.sqrt(0.5) * (gen.standard_normal(n) + 1j * gen.standard_normal(n))
        xk = np.sqrt(0.5) * (gen.standard_normal(n) + 1j * gen.standard_normal(n))
        mu2 = geo.mu[1]
        h1 = x0
        h2 = mu2 * x0 + math.sqrt(1 - mu2**2) * xk
        corr = np.corrcoef(h1.real, h2.real)[0, 1]
        assert corr == pytest.approx(mu2, abs=0.01)

    def test_marginal_variance_and_cross_port_product(self):
        # Entries stay CN(0, beta); ports k,l >= 2 correlate as mu_k mu_l.
        cfg = SystemConfig(M=2, U=1, N=3, W=0.4, beta=(2.0,), powers=(1.0,))
        geo = geometry_for_config(cfg)
        n = 60_000
        H, e = draw_physical(RngStream(8, 0).generator(), n, cfg.M, cfg.U, 3,
                             cfg.beta)
        ent = port_channels(H[:, :, 0], e, 2.0, geo.mu)[:, :, 0]
        var = np.mean(np.abs(ent[:, 0]) ** 2)
        assert var == pytest.approx(2.0, abs=3 * 2.0 * math.sqrt(2.0 / n))
        got = np.corrcoef(ent[:, 1].real, ent[:, 2].real)[0, 1]
        assert got == pytest.approx(geo.mu[1] * geo.mu[2], abs=3.0 / math.sqrt(n))
