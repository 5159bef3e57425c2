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
with the F_k and that P from one independent run.  The analytic margins
of the physical curve are still reported.
"""

import json
import re
import tempfile

import numpy as np

from fama_lab import acceptance, mc_engine
from fama_lab.acceptance import SUITE_SEED, run_criterion
from fama_lab.channel_geom import SystemConfig
from fama_lab.mc_engine import (
    DEFAULT_GAMMA_GRID,
    _BASE_PER_PORT,
    _chunk_outage_physical,
    run_outage_group,
)


def _criterion_test(index):
    def test():
        result = run_criterion(index, SUITE_SEED)
        # The verdict is a plain bool, which a JSON report can hold.
        assert json.loads(json.dumps(result.passed)) is result.passed
        status = "PASS" if result.passed else "FAIL"
        print(f"[acceptance {result.index:2d}] {status} {result.name}: "
              f"{result.detail}")
        assert result.passed, f"criterion {index} failed: {result.detail}"
    return test


# One test per criterion, named after its check (test_criterion_01_...), so
# `pytest -k` selects one criterion.
for _index, _, _check, _ in acceptance._CRITERIA:
    globals()[f"test_{_check.__name__}"] = _criterion_test(_index)


def test_overrun_budget_fails(monkeypatch):
    # Criterion 9 passes in well under a millisecond; with a budget of 0 s
    # the runner fails it and reports the runtime against that budget.
    table = list(acceptance._CRITERIA)
    index, name, check, _ = table[8]
    table[8] = (index, name, check, 0.0)
    monkeypatch.setattr(acceptance, "_CRITERIA", table)
    assert check(SUITE_SEED)[0]
    result = run_criterion(9, SUITE_SEED)
    assert result.passed is False
    assert re.search(r"; runtime [0-9.]+s \(< 0s\)$", result.detail)


def test_reproducibility_leaves_nothing_behind(monkeypatch, tmp_path, capsys):
    # Criterion 10's fig2 runs write into temporary directories that it
    # removes, and their progress lines stay out of validate's table.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert run_criterion(10, SUITE_SEED).passed
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr().out == ""


def test_group_port_cdfs_share_one_run(monkeypatch):
    # Criterion 6's call: with per_port, the group's one _run_chunked call
    # gets one more kernel job, on the independent base, which gives each
    # config's F_k and its own selection curve.  Their integer counts then
    # obey the Frechet sandwich exactly, which counts from different
    # realizations need not.
    calls = []
    run_chunked = mc_engine._run_chunked

    def spy(job_list, *args, **kwargs):
        calls.append([(fn, base) for fn, _, base in job_list])
        return run_chunked(job_list, *args, **kwargs)

    monkeypatch.setattr(mc_engine, "_run_chunked", spy)
    n = 4096
    group = [SystemConfig(M=4, U=4, N=N, W=W, scheme="MRT", seed=SUITE_SEED)
             for N in (2, 5) for W in (0.0, 0.25, 4.0)]
    results = run_outage_group(group, realizations=n, per_port=True)
    assert len(calls) == 1
    assert calls[0].count((_chunk_outage_physical, _BASE_PER_PORT)) == 1
    for cfg, res in zip(group, results):
        # The per-port curves follow the seven outage curves, by 1-based
        # geometry port.
        ports = [f"port_{k}" for k in res.selection_ports]
        assert list(res.curves)[7:] == ports + ["port_selection"]
        f_k = np.array([res.curves[name][0] for name in ports])
        p_own = res.curves["port_selection"][0]
        assert f_k.shape == (cfg.N, len(DEFAULT_GAMMA_GRID))
        # n is a power of two, so the CDFs times n are the exact counts.
        ports, own = f_k * n, p_own * n
        assert np.array_equal(ports, np.round(ports))
        assert np.all(own <= ports.min(axis=0))
        assert np.all(own >= n - np.sum(n - ports, axis=0))
