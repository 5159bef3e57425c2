"""fama-lab: statistics and Monte-Carlo validation of fluid-antenna multiple
access in a multiuser MISO downlink under MRT/ZF precoding."""

from .analytic_stats import (
    BetaPrimeParams,
    OutageEnvelope,
    asymptote_large_m,
    asymptote_small_gamma,
    asymptote_tail,
    betaprime_cdf,
    betaprime_cdf_finite_sum,
    betaprime_params,
    betaprime_pdf,
    betaprime_sf,
    diversity_orders,
    m_eff,
    outage_envelope,
    rho_u_approx,
    rho_x_approx,
)
from .channel_geom import (
    PortGeometry,
    SystemConfig,
    correlation_matrix,
    geometry_for_config,
    mu_vector,
    port_displacements,
    selectable_port_indices,
)
from .mc_engine import (
    DEFAULT_GAMMA_GRID,
    CorrEstimate,
    EmpiricalCdf,
    SirBatch,
    ks_distance,
    marginal_model_sample,
    pearson_correlation,
    run_cdf_experiment,
    run_correlation_experiment,
    run_outage_experiment,
    run_outage_group,
    simulate_sir_batch,
    surrogate_gain_sample,
)
from .randlin import RngStream
from .specialfn import (
    RealInterval,
    bessel_j0,
    beta_fn,
    ln_binomial,
    ln_gamma,
    ln_reg_inc_beta_tail,
    reg_inc_beta,
)

__version__ = "0.1.0"
