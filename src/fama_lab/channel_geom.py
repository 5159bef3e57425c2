"""Fluid-antenna port geometry, spatial correlation, and the scenario config.

Distances are stored in wavelengths (the carrier wavelength only ever enters
through d/lambda ratios).  Port 1 is the CSI reference; every other port is a
correlated version of it:

    h_{u,1} = sqrt(beta_u) x_{u,0}
    h_{u,k} = sqrt(beta_u) (mu_k x_{u,0} + sqrt(1 - mu_k^2) x_{u,k})

with mu_k = J0(2 pi d_k).  The per-port kernel of mc_engine draws these
channels' projections onto the frame of the reference channels, which is
all the SIRs depend on.  Note the constructive model gives inter-port
correlation mu_k mu_l for k, l >= 2, which differs from the J0(2 pi |d_k -
d_l|) kernel for non-adjacent ports; the model is applied verbatim and the
kernel is exposed separately via correlation_matrix.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .specialfn import BESSEL_J0_MAX_ARG, bessel_j0

__all__ = [
    "SystemConfig",
    "PortGeometry",
    "port_displacements",
    "mu_vector",
    "correlation_matrix",
    "geometry_for_config",
]

_SCHEMES = ("MRT", "ZF")
_REFERENCE_MODES = ("member", "external")


def _is_integer(value) -> bool:
    """An int, or a float with an integral value (so 8.0 passes, 8.5, nan
    and inf do not).  A bool is not an integer here: True is no count."""
    if isinstance(value, bool):
        return False
    return isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer())


@dataclass
class SystemConfig:
    """Scenario parameters for one experiment family.

    reference_mode=None resolves to 'member' under MRT and 'external' under
    ZF (the member-mode ZF reference port has exactly nulled interference and
    hence unbounded SIR, which would make every selection outage zero).
    realizations=None lets each experiment pick its own default sample count.
    """

    M: int = 8
    U: int = 4
    N: int = 8
    W: float = 0.25
    scheme: str = "MRT"
    beta: tuple[float, ...] | None = None
    powers: tuple[float, ...] | None = None
    reference_mode: str | None = None
    include_reference_in_selection: bool = True
    seed: int = 12345
    realizations: int | None = None

    def __post_init__(self) -> None:
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")
        if not all(_is_integer(v) for v in (self.M, self.U, self.N)):
            raise ValueError(
                f"M, U and N must be integers, got M={self.M}, U={self.U}, N={self.N}")
        self.M, self.U, self.N = int(self.M), int(self.U), int(self.N)
        if self.M < 1 or self.U < 1 or self.N < 1:
            raise ValueError("M, U, N must all be >= 1")
        if self.scheme == "ZF" and self.M < self.U:
            raise ValueError(f"ZF requires M >= U, got M={self.M}, U={self.U}")
        if not (math.isfinite(self.W) and self.W >= 0.0):
            raise ValueError(f"W must be finite and >= 0, got {self.W}")
        # W = 0 is allowed: every port collapses onto the reference (mu_k = 1).
        if self.beta is None:
            self.beta = (1.0,) * self.U
        else:
            self.beta = tuple(float(b) for b in self.beta)
        if self.powers is None:
            self.powers = (1.0,) * self.U
        else:
            self.powers = tuple(float(p) for p in self.powers)
        if len(self.beta) != self.U:
            raise ValueError(f"beta must have U={self.U} entries, got {len(self.beta)}")
        if len(self.powers) != self.U:
            raise ValueError(
                f"powers must have U={self.U} entries, got {len(self.powers)}"
            )
        for name, values in (("beta", self.beta), ("powers", self.powers)):
            if not all(math.isfinite(v) and v > 0.0 for v in values):
                raise ValueError(
                    f"every {name} entry must be finite and > 0, got {values}")
        if self.reference_mode is not None and self.reference_mode not in _REFERENCE_MODES:
            raise ValueError(
                f"reference_mode must be one of {_REFERENCE_MODES}, got "
                f"{self.reference_mode!r}"
            )
        # The far port's displacement as geometry_for_config computes it
        # (it may round above W): 2 pi times it is the largest J0 argument.
        far = port_displacements(_location_count(self), self.W)[-1]
        if 2.0 * math.pi * far > BESSEL_J0_MAX_ARG:
            raise ValueError(
                f"W must be at most BESSEL_J0_MAX_ARG / (2 pi) = "
                f"{BESSEL_J0_MAX_ARG / (2.0 * math.pi):g} wavelengths, where the "
                f"port correlation J0(2 pi W) leaves bessel_j0's domain; got {self.W}")
        if not _is_integer(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        self.seed = int(self.seed)
        if self.realizations is not None:
            if not _is_integer(self.realizations):
                raise ValueError(
                    f"realizations must be an integer, got {self.realizations!r}")
            self.realizations = int(self.realizations)
            if self.realizations < 1:
                raise ValueError("realizations must be >= 1")
        if not isinstance(self.include_reference_in_selection, (bool, np.bool_)):
            raise ValueError("include_reference_in_selection must be True or "
                             f"False, got {self.include_reference_in_selection!r}")
        self.include_reference_in_selection = bool(self.include_reference_in_selection)

    @property
    def L(self) -> int:
        """Number of interfering streams."""
        return self.U - 1

    def resolved_reference_mode(self) -> str:
        if self.reference_mode is not None:
            return self.reference_mode
        return "member" if self.scheme == "MRT" else "external"


@dataclass
class PortGeometry:
    """Port displacements (wavelengths) and reference-correlation coefficients."""

    displacements: np.ndarray
    mu: np.ndarray

    def __post_init__(self) -> None:
        self.displacements = np.asarray(self.displacements, dtype=float)
        self.mu = np.asarray(self.mu, dtype=float)
        d = self.displacements
        if d[0] != 0.0 or np.any(np.diff(d) < 0.0):
            raise ValueError("displacements must start at 0 and be nondecreasing")
        if self.mu[0] != 1.0 or np.any(np.abs(self.mu) > 1.0 + 1e-12):
            raise ValueError("mu must start at 1 with |mu_k| <= 1")

    @property
    def num_ports(self) -> int:
        return len(self.displacements)


def port_displacements(N: int, W: float) -> np.ndarray:
    """Uniform port displacements d_k = (k-1)/(N-1) * W over the aperture."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if W < 0.0:
        raise ValueError(f"W must be >= 0, got {W}")
    if N == 1:
        return np.zeros(1)
    return np.arange(N) * (W / (N - 1))


def mu_vector(displacements: np.ndarray) -> np.ndarray:
    """Reference-correlation coefficients mu_k = J0(2 pi |d_k - d_1|)."""
    d = np.asarray(displacements, dtype=float)
    mu = np.array([bessel_j0(2.0 * math.pi * abs(dk - d[0])) for dk in d])
    mu[0] = 1.0
    return mu


def correlation_matrix(displacements: np.ndarray) -> np.ndarray:
    """Spatial correlation kernel J0(2 pi |d_k - d_l|) with unit diagonal."""
    d = np.asarray(displacements, dtype=float)
    n = len(d)
    out = np.eye(n)
    for k in range(n):
        for l in range(k + 1, n):
            out[k, l] = out[l, k] = bessel_j0(2.0 * math.pi * abs(d[k] - d[l]))
    return out


def geometry_for_config(config: SystemConfig) -> PortGeometry:
    """Build the port geometry, including the reference location.

    member mode: N ports over [0, W], port 1 both reference and selectable.
    external mode: N+1 uniform locations over [0, W]; location 1 (d=0) is the
    CSI reference and ports 2..N+1 are selectable.
    """
    d = port_displacements(_location_count(config), config.W)
    return PortGeometry(displacements=d, mu=mu_vector(d))


def _location_count(config: SystemConfig) -> int:
    """Port locations of the geometry: N, plus the reference in external mode."""
    return config.N if config.resolved_reference_mode() == "member" else config.N + 1


def selectable_port_indices(config: SystemConfig) -> np.ndarray:
    """0-based indices (into the geometry) of the ports FAMA may select."""
    mode = config.resolved_reference_mode()
    if mode == "external":
        return np.arange(1, config.N + 1)
    if config.include_reference_in_selection:
        return np.arange(config.N)
    if config.N < 2:
        raise ValueError(
            "member mode with the reference excluded needs N >= 2 selectable ports"
        )
    return np.arange(1, config.N)
