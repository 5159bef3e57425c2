"""Acceptance suite: one check per criterion, at its stated sample size and
tolerance, and one runner that turns a check into a pass/fail record.

Each check is check(seed) -> (verdict, detail), the detail holding the
measured margins.  _CRITERIA lists every criterion as (index, name, check,
budget in seconds or None), and run_criterion is the one place that builds
a CriterionResult: it times the check, fails it if it overruns its budget
(appending "; runtime 1.2s (< 5s)" to the detail) and makes the verdict a
plain bool.  The `validate` CLI command prints one line per criterion and
exits nonzero if any fail.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .analytic_stats import (
    BetaPrimeParams,
    asymptote_small_gamma,
    betaprime_cdf,
    betaprime_cdf_finite_sum,
    betaprime_sf,
    ln_betaprime_cdf,
)
from .channel_geom import SystemConfig
from .mc_engine import (
    _chunk_ports_sir,
    _draw_frame,
    estimate_marginal_tail,
    pearson_correlation,
    run_cdf_experiment,
    run_correlation_experiment,
    run_outage_group,
    surrogate_gain_sample,
    wilson_half_width,
)
from .randlin import RngStream
from .specialfn import beta_fn

SUITE_SEED = 12345

__all__ = ["CriterionResult", "SUITE_SEED", "run_all_criteria", "run_criterion"]


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float


def criterion_01_cross_form_identity(seed: int = SUITE_SEED) -> tuple[bool, str]:
    """Finite-sum CDF == incomplete-beta CDF to 1e-10 over the shape box."""
    grid = np.logspace(-3.0, 3.0, 200)
    worst = 0.0
    for a in range(1, 17):
        for b in range(1, 9):
            params = BetaPrimeParams(a, b)
            for g in grid:
                diff = abs(
                    betaprime_cdf(g, params)
                    - betaprime_cdf_finite_sum(g, params)
                )
                worst = max(worst, diff)
    return worst <= 1e-10, f"max |cf - finite_sum| = {worst:.3e} (tol 1e-10)"


def criterion_02_marginal_goodness_of_fit(seed: int = SUITE_SEED) -> tuple[bool, str]:
    """Gamma-ratio sampler KS <= 0.003 at n=1e6 for (8,3) and (5,3)."""
    spots_ok = (
        abs(betaprime_cdf(1.0, BetaPrimeParams(8, 3)) - 0.0546875) < 1e-12
        and abs(betaprime_cdf(1.0, BetaPrimeParams(5, 3)) - 29.0 / 128.0) < 1e-12
    )
    ks = {}
    for scheme in ("MRT", "ZF"):
        cfg = SystemConfig(M=8, U=4, scheme=scheme, seed=seed)
        res = run_cdf_experiment(cfg, mode="marginal", realizations=1_000_000)
        ks[scheme] = res.ks
    ok = spots_ok and all(v <= 0.003 for v in ks.values())
    return ok, (f"KS MRT(8,3)={ks['MRT']:.5f} ZF(5,3)={ks['ZF']:.5f} "
                f"(tol 0.003), spot values exact={spots_ok}")


def criterion_03_physical_model_fidelity(seed: int = SUITE_SEED) -> tuple[bool, str]:
    """Physical reference-port experiments: MRT KS <= 0.03, ZF KS <= 0.01."""
    mrt = run_cdf_experiment(
        SystemConfig(M=8, U=4, scheme="MRT", seed=seed),
        mode="physical_reference", realizations=100_000,
    )
    zf = run_cdf_experiment(
        SystemConfig(M=8, U=4, scheme="ZF", seed=seed),
        mode="physical_reference", realizations=100_000,
    )
    ok = mrt.ks <= 0.03 and zf.ks <= 0.01
    return ok, f"KS MRT={mrt.ks:.5f} (tol 0.03), ZF={zf.ks:.5f} (tol 0.01)"


def criterion_04_zf_nulling_and_gains(seed: int = SUITE_SEED) -> tuple[bool, str]:
    """Nulling residual <= 1e-10 over 1e4 draws; gain means within 3 sigma.

    Both run in the frame of the reference channels H = QR: the nulling
    h_u^H w_v = R_u^H F_v is the off-diagonal of R^H F, relative to R's
    column norms ||h_u||, and user 0's gains are the ZF |R_00 F_00|^2 and
    the MRT ||h_0||^2 = ||R[:, 0]||^2.
    """
    M, U = 8, 4
    beta = (1.0,) * U
    R, F, _, _ = _draw_frame(RngStream(seed, 77).generator(), 10_000, M, U,
                             "ZF", beta, 1)
    proj = np.abs(np.einsum("nru,nrv->nuv", R.conj(), F))
    proj[:, np.arange(U), np.arange(U)] = 0.0
    worst = float(np.max(proj / np.linalg.norm(R, axis=1)[:, :, None]))
    n = 100_000
    R, F, _, _ = _draw_frame(RngStream(seed, 78).generator(), n, M, U,
                             "ZF", beta, 1)
    zf_gains = np.abs(R[:, 0, 0] * F[:, 0, 0]) ** 2
    mrt_gains = np.sum(np.abs(R[:, :, 0]) ** 2, axis=1)
    zf_tol = 3.0 * math.sqrt(5.0 / n)
    mrt_tol = 3.0 * math.sqrt(8.0 / n)
    zf_dev = abs(zf_gains.mean() - 5.0)
    mrt_dev = abs(mrt_gains.mean() - 8.0)
    ok = worst <= 1e-10 and zf_dev <= zf_tol and mrt_dev <= mrt_tol
    return ok, (f"nulling residual {worst:.2e} (tol 1e-10); "
                f"ZF gain mean dev {zf_dev:.4f} (3sig {zf_tol:.4f}); "
                f"MRT gain mean dev {mrt_dev:.4f} (3sig {mrt_tol:.4f})")


def criterion_05_correlation_model(seed: int = SUITE_SEED) -> tuple[bool, str]:
    """Surrogate sampler reproduces the exact shared-component correlation
    M_eff/(M_eff+L) at full overlap; the physical experiment matches the
    cross-port analytic overlay within 0.1 per pair."""
    stream = RngStream(seed, 99)
    u = surrogate_gain_sample(stream, [1.0, 1.0], 8, 3, size=1_000_000)
    r = pearson_correlation(u[:, 0], u[:, 1])
    sur_dev = abs(r - 8.0 / 11.0)
    cfg = SystemConfig(M=8, U=4, N=8, W=4.0, scheme="MRT", seed=seed)
    res = run_correlation_experiment(cfg, realizations=1_000_000)
    ok = sur_dev <= 0.01 and res.max_abs_deviation <= 0.1
    return ok, (f"surrogate corr dev {sur_dev:.5f} (tol 0.01); "
                f"physical max pair dev {res.max_abs_deviation:.4f} (tol 0.1)")


def criterion_06_outage_sandwich(seed: int = SUITE_SEED) -> tuple[bool, str]:
    """Outage bounds where their premise holds, plus aperture-regime targets.

    The analytic envelope single-port F >= P >= max(0, 1 - N eps) and its
    independent limit F^N assume N ports with one Beta-prime(M_eff, L)
    law.  That premise holds for the i.i.d. selection curve, which is held
    to the sandwich at 2 CI and to |iid - F^N| <= 0.05 in the band
    0.05 <= F^N <= 0.95.

    The physical selection does not meet it.  The beams are fixed to the
    reference-port CSI, so port k's law depends on mu_k: a far port sees
    the desired projection collapse from Gamma(M_eff, 1) to Exp(1).  Even
    the reference port is the self-consistent MRT SIR, KS 0.166 (M=4) and
    0.088 (M=8) from Beta-prime; off-reference ports are KS 0.08-0.83 away,
    more as mu_k falls (n = 1e5, seed 1).
    So the physical curve P is held to the same bounds in their per-port
    form, built from each selectable port's CDF F_k estimated on an
    independent stream.  The F_k come from the outage run itself: with
    per_port, each M's group run bins, on the independent stream base
    _BASE_PER_PORT, a singleton curve per selectable port (port_<k>)
    beside each selection curve P_own (port_selection), so the F_k and
    P_own share realizations:
      - Frechet sandwich max(0, 1 - sum_k (1 - F_k)) <= P <= min_k F_k;
      - independent limit P >= prod_k F_k;
      - W > 0 (ports differ): selection gain, min_k F_k - P_own above 2x
        its Wilson half-width at some gamma.  The F_k and the gain's P_own
        come from one independent run, so F_k - P_own is the share of
        realizations in which port k is in outage and the selection is
        not, and a fixed-port rule reads exactly 0;
      - W = 4: |P - prod_k F_k| <= 0.05 in the band;
      - W = 0 (all ports are the reference, the fully correlated limit):
        |P - min_k F_k| within the tolerance.
    W = 0.25 is not the fully correlated limit (mu at the far port is
    J0(pi/2) = 0.47; at N = 8, |P - min_k F_k| reaches 0.18), so it is held
    to the sandwich, the prod_k F_k bound and the selection gain only.
    Tolerances are 2x the combined 95% Wilson half-widths: first-order
    propagation through each bound, summed over ports (the F_k share
    realizations), then combined in quadrature with P's.  The detail
    line also reports the analytic margins of the physical curve, which
    are not checked: max excess over F, and |P - F| (W <= 0.25) or
    |P - F^N| (W = 4) in the band.
    """
    details = []
    all_ok = True
    n = 100_000
    # Each M's two port counts and three apertures run as one frame
    # group, one frame draw per chunk, in one pool with their per-port CDFs.
    runs = {}
    for M in (4, 8):
        group = [SystemConfig(M=M, U=4, N=N, W=W, scheme="MRT", seed=seed)
                 for N in (2, 8) for W in (0.25, 4.0, 0.0)]
        for cfg, res in zip(group, run_outage_group(group, realizations=n,
                                                     per_port=True)):
            runs[M, cfg.N, cfg.W] = res
    for (M, N, W) in [(4, 2, 0.25), (4, 2, 4.0), (4, 8, 0.25), (4, 8, 4.0),
                      (8, 2, 0.25), (8, 2, 4.0), (8, 8, 0.25), (8, 8, 4.0),
                      (4, 2, 0.0), (4, 8, 0.0), (8, 2, 0.0), (8, 8, 0.0)]:
        res = runs[M, N, W]
        curve = {name: values for name, (values, _) in res.curves.items()}
        iid, iid_ci = res.curves["empirical_iid"]
        f_n = curve["iid_benchmark"]
        band = (f_n >= 0.05) & (f_n <= 0.95)
        tol = 2.0 * iid_ci
        iid_sandwich = bool(np.all(iid >= curve["lower_bound"] - tol)
                            and np.all(iid <= curve["upper_bound"] + tol))
        iid_prox = float(np.max(np.abs(iid - f_n)[band]))

        p, h_p = res.curves["empirical_correlated"]
        f_k = np.array([curve[f"port_{k}"] for k in res.selection_ports])
        p_own = curve["port_selection"]
        h_k = wilson_half_width(f_k, n)
        frechet = np.maximum(0.0, 1.0 - np.sum(1.0 - f_k, axis=0))
        h_frechet = np.where(frechet > 0.0, h_k.sum(axis=0), 0.0)
        cols = np.arange(f_k.shape[1])
        arg = np.argmin(f_k, axis=0)
        f_min, h_min = f_k[arg, cols], h_k[arg, cols]
        prod = np.prod(f_k, axis=0)
        # d prod / d F_k = prod_{j != k} F_j, without dividing by F_k.
        h_prod = sum(np.prod(np.delete(f_k, j, axis=0), axis=0) * h_k[j]
                     for j in range(len(f_k)))

        # Each check: excess <= 2 * hypot(h_p, h_bound) at every gamma.
        checks = [("frechet-P", frechet - p, h_frechet),
                  ("P-min_k F_k", p - f_min, h_min),
                  ("prod_k F_k-P", prod - p, h_prod)]
        if W == 0.0:
            checks.append(("|P-min_k F_k|", np.abs(p - f_min), h_min))
        ok = iid_sandwich and iid_prox <= 0.05
        parts = [f"M{M}N{N}W{W:g}:",
                 f"iid sandwich={'ok' if iid_sandwich else 'VIOLATED'}",
                 f"|iid-F^N|={iid_prox:.3f}"]
        for name, excess, h_bound in checks:
            used = float(np.max(excess / (2.0 * np.hypot(h_p, h_bound))))
            ok = ok and used <= 1.0
            parts.append(f"{name}<={float(np.max(excess)):.4f} "
                         f"({used:.2f} of 2CI)")
        if W > 0.0:
            # Selecting the strongest port gains over every single port,
            # read on the realizations the F_k were binned from: F_k -
            # P_own is then the share in which port k is in outage and
            # the selection is not, a proportion of n, and it exceeds
            # 2 CI somewhere.
            gain = np.min(f_k, axis=0) - p_own
            half = wilson_half_width(np.clip(gain, 0.0, 1.0), n)
            used = float(np.max(gain / (2.0 * half)))
            ok = ok and used > 1.0
            parts.append(f"paired min_k F_k-P>={float(np.max(gain)):.4f} "
                         f"({used:.2f} of 2CI, needs > 1)")
        if W == 4.0:
            prox = float(np.max(np.abs(p - prod)[band]))
            ok = ok and prox <= 0.05
            parts.append(f"|P-prod_k F_k|={prox:.3f}")
        analytic = f_n if W == 4.0 else curve["single_port"]
        over_f = float(np.max(p - curve["upper_bound"]))
        parts.append(
            f"[analytic, unchecked: max P-F={over_f:.3f}"
            f" |P-{'F^N' if W == 4.0 else 'F'}|="
            f"{float(np.max(np.abs(p - analytic)[band])):.3f}]")
        all_ok = all_ok and ok
        details.append(" ".join(parts))
    return all_ok, "; ".join(details)


def criterion_07_small_gamma_asymptote(seed: int = SUITE_SEED) -> tuple[bool, str]:
    """F(gamma) / (C gamma^M_eff) in [0.95, 1] at 0.0025, monotone toward 1."""
    checks = []
    ok = True
    for scheme, c_expected in (("MRT", 45.0), ("ZF", 21.0)):
        ratios = []
        for g in (0.02, 0.01, 0.005, 0.0025):
            ln_f = ln_betaprime_cdf(
                g, BetaPrimeParams(8 if scheme == "MRT" else 5, 3)
            )
            asym = asymptote_small_gamma(g, scheme, 8, 4)
            ratios.append(math.exp(ln_f - math.log(asym)))
        # prefactor sanity against the hand-derived constants
        c_val = asymptote_small_gamma(1.0, scheme, 8, 4)
        monotone = all(ratios[i] < ratios[i + 1] for i in range(len(ratios) - 1))
        in_range = 0.95 <= ratios[-1] <= 1.0
        ok = ok and monotone and in_range and abs(c_val - c_expected) < 1e-9
        checks.append(f"{scheme}: ratio@0.0025={ratios[-1]:.4f} "
                      f"monotone={monotone} C={c_val:.6g}")
    return ok, "; ".join(checks)


def criterion_08_large_sir_tail(seed: int = SUITE_SEED) -> tuple[bool, str]:
    """Tail product -> 1 (10% at 100, 3% at 1000); MC cross-check at 30."""
    ok = True
    parts = []
    for (a, b) in ((8, 3), (5, 3)):
        params = BetaPrimeParams(a, b)
        prods = {}
        for g in (100.0, 1000.0):
            prods[g] = (betaprime_sf(g, params) * g**b * b * beta_fn(a, b))
        ok = ok and abs(prods[100.0] - 1.0) <= 0.10
        ok = ok and abs(prods[1000.0] - 1.0) <= 0.03
        parts.append(f"({a},{b}): prod@100={prods[100.0]:.4f} "
                     f"prod@1000={prods[1000.0]:.4f}")
    cfg = SystemConfig(M=8, U=4, scheme="MRT", seed=seed)
    mc_tail = estimate_marginal_tail(cfg, gamma=30.0, realizations=10_000_000)
    exact = betaprime_sf(30.0, BetaPrimeParams(8, 3))
    rel = abs(mc_tail - exact) / exact
    ok = ok and rel <= 0.05
    parts.append(f"MC tail@30 rel err {rel:.4f} (tol 0.05, n=1e7)")
    return ok, "; ".join(parts)


def criterion_09_large_n_regime(seed: int = SUITE_SEED) -> tuple[bool, str]:
    """|exp(-N eps) - (1-eps)^N| <= N eps^2 / 2 + 1e-12 for N=8."""
    n = 8
    worst_margin = -math.inf
    for eps in (1e-1, 1e-2, 1e-3):
        diff = abs(math.exp(-n * eps) - (1.0 - eps) ** n)
        bound = n * eps * eps / 2.0 + 1e-12
        worst_margin = max(worst_margin, diff - bound)
    return worst_margin <= 0.0, f"max (diff - bound) = {worst_margin:.3e}"


def criterion_10_reproducibility(seed: int = SUITE_SEED) -> tuple[bool, str]:
    """Byte-identical CSVs for 1/2/8 workers; beta and power invariance."""
    from .cli import RunManifest, run_fig2

    cap = os.environ.pop("FAMA_LAB_WORKERS", None)
    try:
        digests = []
        for workers in (1, 2, 8):
            cfg = SystemConfig(M=8, U=4, scheme="MRT", seed=seed,
                               realizations=50_000)
            manifest = RunManifest(command="fig2", config=cfg, workers=workers)
            # fig2's progress lines would land in validate's table.
            with (tempfile.TemporaryDirectory(prefix=f"fama_w{workers}_") as out,
                  contextlib.redirect_stdout(io.StringIO())):
                run_fig2(cfg, out, workers, manifest)
                blobs = []
                for name in sorted(manifest.outputs):
                    with open(os.path.join(out, name), "rb") as fh:
                        blobs.append(fh.read())
            digests.append(b"".join(blobs))
        identical = digests[0] == digests[1] == digests[2]
    finally:
        if cap is not None:
            os.environ["FAMA_LAB_WORKERS"] = cap

    from .channel_geom import mu_vector, port_displacements

    mu = tuple(mu_vector(port_displacements(4, 0.5)))
    base = _chunk_ports_sir(RngStream(seed, 31), 4096, 8, 4, "MRT",
                            (1.0,) * 4, (1.0,) * 4, mu)[0]
    scaled_beta = _chunk_ports_sir(RngStream(seed, 31), 4096, 8, 4, "MRT",
                                   (7.5,) * 4, (1.0,) * 4, mu)[0]
    scaled_power = _chunk_ports_sir(RngStream(seed, 31), 4096, 8, 4, "MRT",
                                    (1.0,) * 4, (3.25,) * 4, mu)[0]
    finite = np.isfinite(base)
    rel_beta = float(np.max(np.abs(scaled_beta[finite] / base[finite] - 1.0)))
    rel_power = float(np.max(np.abs(scaled_power[finite] / base[finite] - 1.0)))
    ok = identical and rel_beta <= 1e-12 and rel_power <= 1e-12
    return ok, (f"CSV bytes identical across 1/2/8 workers: {identical}; "
                f"beta-scaling rel dev {rel_beta:.2e}; "
                f"power-scaling rel dev {rel_power:.2e} (tol 1e-12)")


# (index, name, check, runtime budget in seconds or None), in index order.
_CRITERIA = [
    (1, "analytic cross-form identity", criterion_01_cross_form_identity, 5.0),
    (2, "exact-law goodness of fit", criterion_02_marginal_goodness_of_fit, 30.0),
    (3, "physical-model fidelity", criterion_03_physical_model_fidelity, None),
    (4, "ZF nulling and gain laws", criterion_04_zf_nulling_and_gains, None),
    (5, "correlation model", criterion_05_correlation_model, None),
    (6, "outage sandwich and aperture regimes", criterion_06_outage_sandwich,
     600.0),
    (7, "small-threshold asymptote", criterion_07_small_gamma_asymptote, None),
    (8, "large-SIR tail", criterion_08_large_sir_tail, None),
    (9, "large-N exponential regime", criterion_09_large_n_regime, None),
    (10, "reproducibility and invariances", criterion_10_reproducibility, None),
]


def run_criterion(index: int, seed: int = SUITE_SEED) -> CriterionResult:
    """Criterion `index` of _CRITERIA, timed.  A check that overruns its
    budget fails, and a budgeted detail ends in its runtime phrase.  The
    verdict is a plain bool, so the result serialises as JSON."""
    _, name, check, budget = _CRITERIA[index - 1]
    start = time.monotonic()
    passed, detail = check(seed)
    secs = time.monotonic() - start
    if budget is not None:
        passed = passed and secs < budget
        detail += f"; runtime {secs:.1f}s (< {budget:g}s)"
    return CriterionResult(index, name, bool(passed), detail, secs)


def run_all_criteria(seed: int = SUITE_SEED) -> list[CriterionResult]:
    return [run_criterion(index, seed) for index, *_ in _CRITERIA]
