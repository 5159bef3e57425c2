"""Acceptance gate: every criterion at its stated sample size and tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or in captured
output) and asserts the criterion outcome.  Criterion 6 holds the i.i.d.
selection curve to the analytic envelope (F, 1 - N eps, F^N), whose
identical-Beta-prime-marginal premise it meets.  The physical selection
does not meet that premise: with beams fixed to reference-port CSI, the
reference port is KS 0.166 (M=4) and 0.088 (M=8) from the Beta-prime law
and off-reference ports lose the array gain (KS 0.08-0.83).  So it is held
to the same bounds in per-port form, from each port's measured CDF F_k:
the Frechet sandwich, P >= prod_k F_k, proximity to prod_k F_k at W = 4,
and to min_k F_k at W = 0, the fully correlated limit.  At W > 0 it also
needs a selection gain, min_k F_k - P above twice its Wilson half-width,
with the F_k read on the outage run's own realizations.  The analytic
margins of the physical curve are still reported.
"""

import json

from fama_lab.acceptance import (
    SUITE_SEED,
    criterion_01_cross_form_identity,
    criterion_02_marginal_goodness_of_fit,
    criterion_03_physical_model_fidelity,
    criterion_04_zf_nulling_and_gains,
    criterion_05_correlation_model,
    criterion_06_outage_sandwich,
    criterion_07_small_gamma_asymptote,
    criterion_08_large_sir_tail,
    criterion_09_large_n_regime,
    criterion_10_reproducibility,
)


def _report(result):
    # The verdict is a plain bool, which a JSON report can hold.
    assert json.loads(json.dumps(result.passed)) is result.passed
    status = "PASS" if result.passed else "FAIL"
    print(f"[acceptance {result.index:2d}] {status} {result.name}: "
          f"{result.detail}")
    assert result.passed, f"criterion {result.index} failed: {result.detail}"


def test_criterion_01_cross_form_identity():
    _report(criterion_01_cross_form_identity(SUITE_SEED))


def test_criterion_02_marginal_goodness_of_fit():
    _report(criterion_02_marginal_goodness_of_fit(SUITE_SEED))


def test_criterion_03_physical_model_fidelity():
    _report(criterion_03_physical_model_fidelity(SUITE_SEED))


def test_criterion_04_zf_nulling_and_gains():
    _report(criterion_04_zf_nulling_and_gains(SUITE_SEED))


def test_criterion_05_correlation_model():
    _report(criterion_05_correlation_model(SUITE_SEED))


def test_criterion_06_outage_sandwich():
    _report(criterion_06_outage_sandwich(SUITE_SEED))


def test_criterion_07_small_gamma_asymptote():
    _report(criterion_07_small_gamma_asymptote(SUITE_SEED))


def test_criterion_08_large_sir_tail():
    _report(criterion_08_large_sir_tail(SUITE_SEED))


def test_criterion_09_large_n_regime():
    _report(criterion_09_large_n_regime(SUITE_SEED))


def test_criterion_10_reproducibility():
    _report(criterion_10_reproducibility(SUITE_SEED))
