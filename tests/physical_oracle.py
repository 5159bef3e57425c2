"""Physical oracle of the frame kernels, for tests.

It builds user 0's M-dimensional channel at every port, and the fig2
reference-port SIR, from the full reference channels H (n, M, U), as the
simulator did before it moved into the frame of the reference channels.
Beams come from numpy directly (column-normalized H for MRT, the
pseudo-inverse for ZF), not from the package.
"""

import math

import numpy as np

from fama_lab.mc_engine import INTERFERENCE_FLOOR


def cgauss(gen, shape):
    """CN(0, 1) entries from any numpy generator."""
    return (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) / math.sqrt(2.0)


def draw_physical(gen, n, M, U, P, beta):
    """Reference channels H (n, M, U), columns CN(0, beta_u I), and the
    innovations e (n, P-1, M) of ports 2..P."""
    H = np.sqrt(np.asarray(beta)) * cgauss(gen, (n, M, U))
    return H, cgauss(gen, (n, P - 1, M))


def beams(H, scheme):
    """Unit-norm MRT or ZF beams (n, M, U) of the reference channels."""
    W = H if scheme == "MRT" else np.conj(np.swapaxes(np.linalg.pinv(H), 1, 2))
    return W / np.linalg.norm(W, axis=1, keepdims=True)


def port_channels(h0, e, beta0, mu):
    """User 0's channel at every port, (n, P, M): port 1 is h0 (n, M) and
    port k is sqrt(beta0) (mu_k x0 + sqrt(1 - mu_k^2) e_k), x0 = h0 / sqrt(beta0)."""
    root_b0 = math.sqrt(beta0)
    ports = np.empty((h0.shape[0], len(mu), h0.shape[1]), dtype=complex)
    ports[:, 0] = h0
    for k in range(1, len(mu)):
        sigma = math.sqrt(max(0.0, 1.0 - mu[k] ** 2))
        ports[:, k] = root_b0 * (mu[k] * (h0 / root_b0) + sigma * e[:, k - 1])
    return ports


def port_sirs(ports, W, powers):
    """SIR P_0 |h_k^H w_0|^2 / sum_{i>=1} P_i |h_k^H w_i|^2 at every port,
    (n, P), with np.inf where the interference is at the nulling floor."""
    weighted = np.abs(np.einsum("npm,nmu->npu", ports.conj(), W)) ** 2 * np.asarray(powers)
    num, den = weighted[:, :, 0], weighted[:, :, 1:].sum(axis=2)
    with np.errstate(divide="ignore"):
        return np.where(den > INTERFERENCE_FLOOR, num / den, np.inf)


def physical_sirs(H, e, scheme, beta0, powers, mu):
    """Per-port SIRs of user 0 from the physical draw (H, e)."""
    return port_sirs(port_channels(H[:, :, 0], e, beta0, mu), beams(H, scheme), powers)


def physical_reference_sirs(gen, n, M, U, scheme, beta, powers):
    """User 0's reference-port SIR, (n,), with interference drawn
    independent of the desired gain |h_0^H w_0|^2, in M dimensions: under
    MRT the co-user beams projected onto an independent channel
    CN(0, beta_0 I_M); under ZF, per interferer, a fresh CN(0, beta_0 I_M)
    channel projected onto a fresh isotropic unit direction."""
    H, _ = draw_physical(gen, n, M, U, 1, beta)
    W = beams(H, scheme)
    desired = np.abs(np.einsum("nm,nm->n", H[:, :, 0].conj(), W[:, :, 0])) ** 2
    root_b0 = math.sqrt(beta[0])
    if scheme == "MRT":
        fresh = root_b0 * cgauss(gen, (n, M))
        terms = np.abs(np.einsum("nm,nmu->nu", fresh.conj(), W[:, :, 1:])) ** 2
    else:
        dirs = cgauss(gen, (n, U - 1, M))
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        fresh = root_b0 * cgauss(gen, (n, U - 1, M))
        terms = np.abs(np.einsum("nlm,nlm->nl", fresh.conj(), dirs)) ** 2
    powers = np.asarray(powers, dtype=float)
    return powers[0] * desired / (terms @ powers[1:])
