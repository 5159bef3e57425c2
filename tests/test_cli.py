"""Config parsing, command orchestration, CSV schemas, and manifests."""

import math
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from fama_lab import SystemConfig, cli, mc_engine
from fama_lab.cli import (
    ConfigError,
    build_parser,
    main,
    parse_config,
    write_curve_csv,
)

CURVE_HEADER = "gamma,gamma_db,value,ci_low,ci_high,curve_id"
PAIR_HEADER = "port_k,port_l,value,ci_low,ci_high,curve_id"


def _read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


class TestParseConfig:
    def test_empty_is_defaults(self, tmp_path):
        p = tmp_path / "empty.cfg"
        p.write_text("")
        cfg = parse_config(str(p))
        assert (cfg.M, cfg.U, cfg.N) == (8, 4, 8)
        assert cfg.scheme == "MRT"
        assert cfg.W == 0.25

    def test_file_values_and_comments(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# scenario\nM = 4\nU = 2\nscheme = ZF\nW = 1.5  # wavelengths\n"
            "beta = 2.0,1.0\ninclude_reference_in_selection = false\n"
        )
        cfg = parse_config(str(p))
        assert (cfg.M, cfg.U, cfg.scheme, cfg.W) == (4, 2, "ZF", 1.5)
        assert cfg.beta == (2.0, 1.0)
        assert cfg.include_reference_in_selection is False

    def test_overrides_beat_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("M = 4\n")
        cfg = parse_config(str(p), {"M": 16, "seed": 9})
        assert cfg.M == 16 and cfg.seed == 9

    def test_unknown_key_named(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("antennas = 8\n")
        with pytest.raises(ConfigError, match="antennas"):
            parse_config(str(p))

    def test_invariant_violation(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("scheme = ZF\nM = 3\nU = 4\n")
        with pytest.raises(ConfigError, match="ZF requires M >= U"):
            parse_config(str(p))

    def test_aperture_beyond_j0_domain_refused_by_name(self):
        with pytest.raises(ConfigError, match="W must be at most"):
            parse_config(None, {"W": 1e300})

    def test_zf_boundary_accepted(self):
        cfg = parse_config(None, {"scheme": "ZF", "M": 4, "U": 4})
        assert cfg.M == cfg.U == 4


class TestFig2:
    def test_outputs_and_determinism(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        args = ["fig2", "--realizations", "4000", "--seed", "3"]
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2]) == 0
        for name in ("fig2_mrt.csv", "fig2_zf.csv", "manifest.txt"):
            assert os.path.exists(os.path.join(out1, name))
        for name in ("fig2_mrt.csv", "fig2_zf.csv"):
            with open(os.path.join(out1, name), "rb") as fh:
                blob1 = fh.read()
            with open(os.path.join(out2, name), "rb") as fh:
                blob2 = fh.read()
            assert blob1 == blob2
        header, rows = _read_csv(os.path.join(out1, "fig2_mrt.csv"))
        assert header == CURVE_HEADER
        curves = {r[-1] for r in rows}
        assert curves == {"analytic_cdf", "empirical_marginal",
                          "empirical_physical_reference"}

    def test_manifests_differ_only_in_seed_and_timing(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["fig2", "--realizations", "3000", "--seed", "3", "--out", out1])
        main(["fig2", "--realizations", "3000", "--seed", "4", "--out", out2])

        def stable_lines(path):
            with open(path, "r", encoding="utf-8") as fh:
                return [ln for ln in fh.read().splitlines()
                        if not ln.startswith(("seed:", "wall_seconds:"))]

        assert stable_lines(os.path.join(out1, "manifest.txt")) == (
            stable_lines(os.path.join(out2, "manifest.txt"))
        )


class TestFig3:
    def test_infinite_variance_refused(self, tmp_path, capsys):
        # U = 3 leaves L = 2 interferers: the SIR variance is infinite.
        out = tmp_path / "f3u"
        assert main(["fig3", "--U", "3", "--realizations", "1000",
                     "--out", str(out)]) == 2
        assert "infinite variance" in capsys.readouterr().err
        assert not any(n.endswith(".csv") for n in os.listdir(out))

    def test_too_few_ports_refused(self, tmp_path, capsys):
        # Pairs off the reference need N >= 3: a config error, not a run one.
        out = tmp_path / "f3n"
        assert main(["fig3", "--N", "2", "--realizations", "1000",
                     "--out", str(out)]) == 2
        assert "N >= 3" in capsys.readouterr().err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("W", ["0", "1e-300"])
    def test_zf_at_zero_aperture_refused_before_any_run(self, tmp_path,
                                                        capsys, monkeypatch, W):
        # At W = 0, or where every mu_k rounds to 1, every ZF SIR is
        # infinite: fig3 refuses by name before its MRT run, and writes
        # nothing.
        monkeypatch.setattr(cli, "run_correlation_experiment",
                            lambda *a, **k: pytest.fail("a run started"))
        out = tmp_path / "f3w"
        assert main(["fig3", "--W", W, "--realizations", "1000",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: correlation experiment under ZF needs "
                              "every port off the reference location")
        assert os.listdir(out) == []

    @pytest.mark.parametrize("W", ["0", "1e-300"])
    def test_mrt_at_zero_aperture_refused_before_any_run(self, tmp_path,
                                                         capsys, monkeypatch, W):
        # With M < U only MRT runs; its ports sit on the reference (mu_k = 1),
        # outside the premise of the overlay rho_x_approx.
        monkeypatch.setattr(cli, "run_correlation_experiment",
                            lambda *a, **k: pytest.fail("a run started"))
        out = tmp_path / "f3m"
        assert main(["fig3", "--M", "3", "--W", W, "--realizations", "1000",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: fig3 MRT needs every estimated port off the reference location")
        assert os.listdir(out) == []

    def test_pair_schema(self, tmp_path):
        out = str(tmp_path / "f3")
        assert main(["fig3", "--realizations", "4000", "--N", "4",
                     "--W", "2.0", "--out", out]) == 0
        header, rows = _read_csv(os.path.join(out, "fig3_mrt.csv"))
        assert header == PAIR_HEADER
        pairs = {(r[0], r[1]) for r in rows}
        assert pairs == {("2", "3"), ("2", "4"), ("3", "4")}
        # The estimate has no interval, so its ci columns are empty; the
        # overlay repeats its value, as every analytic curve does.
        for _, _, value, ci_low, ci_high, curve_id in rows:
            if curve_id == "empirical_rho_x":
                assert (ci_low, ci_high) == ("", "")
            else:
                assert curve_id == "analytic_rho_x"
                assert ci_low == ci_high == value


class TestFig4:
    def test_single_port_envelope_collapses(self, tmp_path):
        out = str(tmp_path / "f4")
        assert main(["fig4", "--realizations", "2000", "--N", "1",
                     "--W", "0.0", "--out", out]) == 0
        header, rows = _read_csv(os.path.join(out, "fig4_mrt.csv"))
        assert header == CURVE_HEADER
        by_curve = {}
        for r in rows:
            by_curve.setdefault(r[-1], []).append(float(r[2]))
        for curve in ("upper_bound", "lower_bound", "iid_benchmark"):
            assert np.allclose(by_curve[curve], by_curve["single_port"])

    def test_curve_ids(self, tmp_path):
        out = str(tmp_path / "f4b")
        main(["fig4", "--realizations", "2000", "--N", "2", "--out", out])
        _, rows = _read_csv(os.path.join(out, "fig4_zf.csv"))
        assert {r[-1] for r in rows} == {
            "empirical_correlated", "empirical_iid", "upper_bound",
            "lower_bound", "iid_benchmark", "large_n_approx", "single_port",
        }

    def test_empirical_ci_nonzero_at_zero_and_one(self, tmp_path):
        out = str(tmp_path / "f4c")
        assert main(["fig4", "--realizations", "2000", "--N", "2",
                     "--out", out]) == 0
        for name in ("fig4_mrt.csv", "fig4_zf.csv"):
            _, rows = _read_csv(os.path.join(out, name))
            empirical = [[float(x) for x in r[2:5]] for r in rows
                         if r[-1].startswith("empirical")]
            ones = [r for r in empirical if r[0] == 1.0]
            zeros = [r for r in empirical if r[0] == 0.0]
            assert ones and zeros
            assert all(ci_low < 1.0 for _, ci_low, _ in ones)
            assert all(ci_high > 0.0 for _, _, ci_high in zeros)

    def test_scheme_flag_refused(self, tmp_path, capsys):
        # fig4 always runs both schemes, so --scheme is not one of its flags.
        with pytest.raises(SystemExit) as exc:
            main(["fig4", "--scheme", "MRT", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--scheme" in capsys.readouterr().err


class TestFig5:
    def test_tail_asymptote_row_at_hundred(self, tmp_path):
        out = str(tmp_path / "f5")
        assert main(["fig5", "--realizations", "4000", "--out", out]) == 0
        _, rows = _read_csv(os.path.join(out, "fig5_mrt.csv"))
        hits = [float(r[2]) for r in rows
                if r[-1] == "tail_asymptote" and abs(float(r[0]) - 100.0) < 1e-9]
        assert len(hits) == 1
        assert hits[0] == pytest.approx(1.2e-4, rel=1e-9)


class TestSweep:
    def test_grid_files(self, tmp_path):
        out = str(tmp_path / "sw")
        assert main(["sweep", "--realizations", "1000", "--sweep-M", "4,8",
                     "--sweep-N", "2", "--sweep-W", "0.25",
                     "--sweep-scheme", "MRT", "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "sweep_mrt_M4_U4_N2_W0.25.csv"))
        assert os.path.exists(os.path.join(out, "sweep_mrt_M8_U4_N2_W0.25.csv"))

    def test_matches_fig4_under_unequal_powers(self, tmp_path):
        # Unequal powers are refused (TestErrors), so the per-user tuple
        # carried into the frame group here is an unequal beta.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta = 2,1,1,1\n")
        common = ["--config", str(cfg), "--realizations", "4000", "--seed", "5"]
        assert main(["fig4"] + common + ["--out", str(tmp_path / "f4")]) == 0
        # MRT and ZF run as one frame group; each keeps its own i.i.d. curve
        # and envelope.
        assert main(["sweep", "--sweep-scheme", "MRT,ZF"] + common
                    + ["--out", str(tmp_path / "sw")]) == 0
        for scheme in ("mrt", "zf"):
            blobs = [(tmp_path / sub / name).read_bytes() for sub, name in
                     (("f4", f"fig4_{scheme}.csv"),
                      ("sw", f"sweep_{scheme}_M8_U4_N8_W0.25.csv"))]
            assert blobs[0] == blobs[1], scheme

    def test_manifest_rows_match_fig4(self, tmp_path):
        # A sweep point's manifest rows are fig4's for the same config: its
        # own reference mode (external for the ZF point, whatever the base
        # config resolves to) and its selection ports.
        common = ["--realizations", "1000", "--seed", "5"]
        assert main(["fig4"] + common + ["--out", str(tmp_path / "f4")]) == 0
        assert main(["sweep", "--sweep-scheme", "MRT,ZF"] + common
                    + ["--out", str(tmp_path / "sw")]) == 0
        rows = {sub: [line for line in (tmp_path / sub / "manifest.txt")
                      .read_text().splitlines() if line.startswith("experiment.")]
                for sub in ("f4", "sw")}
        point = "experiment.sweep_{}_M8_U4_N8_W0.25."
        assert rows["sw"] == [
            line.replace("experiment.fig4_mrt.", point.format("mrt"))
                .replace("experiment.fig4_zf.", point.format("zf"))
            for line in rows["f4"]]
        assert point.format("zf") + "reference_mode: external" in rows["sw"]
        assert (point.format("zf") + "selection_ports: [2, 3, 4, 5, 6, 7, 8, 9]"
                in rows["sw"])
        assert (point.format("mrt") + "selection_ports: [1, 2, 3, 4, 5, 6, 7, 8]"
                in rows["sw"])

    @pytest.mark.parametrize("W", ["0.25,0.25", "0.25,0.250000001"])
    def test_colliding_file_names_refused(self, tmp_path, capsys, W):
        # Two points whose file names agree would write one file, the
        # later point's; the grid is refused by that name before any runs.
        out = tmp_path / "sw"
        assert main(["sweep", "--realizations", "1000", "--sweep-N", "2",
                     "--sweep-scheme", "MRT", "--sweep-W", W,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "sweep_mrt_M8_U4_N2_W0.25.csv" in err
        assert os.listdir(out) == []

    def test_swept_u_resizes_only_equal_per_user_tuples(self, tmp_path, capsys):
        def sweep(text, name):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(text)
            return main(["sweep", "--config", str(cfg), "--realizations", "1000",
                         "--sweep-U", "4,2", "--out", str(tmp_path / name)])

        # Equal powers of any value run: they cancel from the SIRs.
        assert sweep("beta = 2,2,2,2\npowers = 3,3,3,3\n", "equal") == 0
        assert (tmp_path / "equal" / "sweep_mrt_M8_U2_N8_W0.25.csv").exists()
        capsys.readouterr()
        # Refused by name before the U=4 point, which it could run, is written.
        assert sweep("beta = 4,1,1,1\n", "unequal") == 2
        assert "cannot resize unequal beta" in capsys.readouterr().err
        assert not any(n.endswith(".csv") for n in os.listdir(tmp_path / "unequal"))

    def test_bad_grid_point_refused_before_any_csv(self, tmp_path, capsys):
        out = tmp_path / "bad"
        assert main(["sweep", "--realizations", "1000", "--sweep-scheme",
                     "MRT,mrt", "--out", str(out)]) == 2
        assert "'mrt'" in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_infeasible_zf_skipped(self, tmp_path):
        out = str(tmp_path / "sw2")
        assert main(["sweep", "--realizations", "1000", "--sweep-M", "2",
                     "--sweep-scheme", "ZF", "--out", out]) == 0
        assert not any(n.startswith("sweep_zf") for n in os.listdir(out))

    def test_non_utf8_manifest_lists_nothing(self, tmp_path):
        # A manifest.txt that is not UTF-8 text was not written by
        # fama-lab: none of the files it lists is deleted, and the run
        # goes on and replaces it.
        out = tmp_path / "foreign"
        out.mkdir()
        (out / "keep.csv").write_text("not an output\n")
        (out / "manifest.txt").write_bytes(
            b"\xff\xfefama-lab run manifest\noutputs: keep.csv\n")
        assert main(["fig5", "--realizations", "1000", "--out", str(out)]) == 0
        assert (out / "keep.csv").read_text() == "not an output\n"
        manifest = (out / "manifest.txt").read_text(encoding="utf-8")
        assert manifest.startswith("fama-lab run manifest\n")
        assert "outputs: fig5_mrt.csv, fig5_zf.csv\n" in manifest

    def test_rerun_removes_earlier_outputs(self, tmp_path):
        out = tmp_path / "rerun"
        out.mkdir()
        (out / "notes.txt").write_text("not an output\n")
        common = ["sweep", "--realizations", "1000", "--sweep-scheme", "MRT",
                  "--sweep-N", "2", "--out", str(out)]
        assert main(common + ["--sweep-M", "4,8"]) == 0
        assert main(common + ["--sweep-M", "8"]) == 0
        assert sorted(os.listdir(out)) == [
            "manifest.txt", "notes.txt", "sweep_mrt_M8_U4_N2_W0.25.csv"]
        assert ("outputs: sweep_mrt_M8_U4_N2_W0.25.csv\n"
                in (out / "manifest.txt").read_text())


# A grid of 4 points: M in {4, 8} under MRT and ZF at U=4, N=2.
_SMALL_GRID = ["sweep", "--sweep-M", "4,8", "--sweep-N", "2",
               "--sweep-scheme", "MRT,ZF"]
# The benchmark's grid: 32 points in 4 frame groups of 8, one per (M, U).
_BENCH_GRID = ["sweep", "--sweep-M", "4,8", "--sweep-U", "2,4", "--sweep-N",
               "2,8", "--sweep-W", "0.25,4", "--sweep-scheme", "MRT,ZF"]


def _spy_on_submit(monkeypatch, submitted: list) -> None:
    """Record the (M, U) of each frame group the sweep pool gets, in
    order."""

    class SpyPool(ProcessPoolExecutor):
        def submit(self, fn, group):
            submitted.append((group[0].M, group[0].U))
            return super().submit(fn, group)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SpyPool)


class TestStartupImports:
    def test_cli_import_loads_no_pool_suite_or_parser(self):
        # A one-worker run starts no pool and only validate runs the
        # acceptance suite, so importing the CLI loads neither, nor
        # argparse.  numpy itself loads tempfile and threading.
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        code = ("import sys, fama_lab, fama_lab.cli\n"
                "print(*(m for m in ('multiprocessing', 'concurrent.futures', "
                "'fama_lab.acceptance', 'argparse') if m in sys.modules))")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=120,
                             env={**os.environ, "PYTHONPATH": src})
        assert run.stdout.split() == []
        # The sweep and _run_chunked start their pools through one
        # constructor, the name that tests and tracers rebind.
        assert (vars(cli)["ProcessPoolExecutor"]
                is vars(mc_engine)["ProcessPoolExecutor"])


class TestSweepPool:
    def test_csv_bytes_independent_of_workers(self, tmp_path, monkeypatch):
        blobs = {}
        for workers in (1, 2, 3):
            monkeypatch.setenv("FAMA_LAB_WORKERS", str(workers))
            out = tmp_path / f"w{workers}"
            assert main(_SMALL_GRID + ["--realizations", "17000", "--seed", "3",
                                       "--out", str(out)]) == 0
            blobs[workers] = {n: (out / n).read_bytes()
                              for n in sorted(os.listdir(out)) if n.endswith(".csv")}
        assert len(blobs[1]) == 4
        assert blobs[1] == blobs[2] == blobs[3]

    def test_groups_submitted_largest_first(self, tmp_path, monkeypatch):
        # The U = 4 groups of the benchmark grid go to the pool first; the
        # two groups of each U have equal estimates and keep grid order.
        submitted = []
        _spy_on_submit(monkeypatch, submitted)
        monkeypatch.setenv("FAMA_LAB_WORKERS", "2")
        assert main(_BENCH_GRID + ["--realizations", "1000",
                                   "--out", str(tmp_path / "sw")]) == 0
        assert submitted == [(4, 4), (8, 4), (4, 2), (8, 2)]

    def test_submission_order_changes_no_output(self, tmp_path, monkeypatch):
        # With the estimate replaced by one that reverses the submission
        # order, every CSV and the manifest (but its wall time) are the
        # same bytes.
        monkeypatch.setenv("FAMA_LAB_WORKERS", "2")
        runs = {}
        for name, work in (("estimate", cli._group_work),
                           ("reversed", lambda group: (-group[0].U, group[0].M))):
            submitted = []
            _spy_on_submit(monkeypatch, submitted)
            monkeypatch.setattr(cli, "_group_work", work)
            out = tmp_path / name
            assert main(_BENCH_GRID + ["--realizations", "3000", "--seed", "5",
                                       "--out", str(out)]) == 0
            files = {n: (out / n).read_bytes() for n in sorted(os.listdir(out))}
            files["manifest.txt"] = b"".join(
                line for line in files["manifest.txt"].splitlines(keepends=True)
                if not line.startswith(b"wall_seconds: "))
            runs[name] = submitted, files
        assert runs["reversed"][0] == runs["estimate"][0][::-1]
        assert len(runs["estimate"][1]) == 33
        assert runs["reversed"][1] == runs["estimate"][1]

    @pytest.mark.parametrize("argv, pools", [
        (["sweep", "--sweep-N", "2,8", "--sweep-W", "0.25,4"], 1),
        (["fig4"], 1),
        (_SMALL_GRID, 1)])
    def test_one_pool_per_outage_group(self, tmp_path, monkeypatch, argv,
                                       pools):
        # A lone frame group runs its physical chunks and the i.i.d. chunks
        # of every N in one pool; fig4 runs its MRT and ZF configs as one
        # group.  A sweep of several groups runs them all in one pool: each
        # pool, in the parent or in a forked worker, logs the pid that built
        # it, and points of several chunks each would give a pool per point
        # if every point ran its own chunks in a pool.
        log = tmp_path / "pools.log"

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                with open(log, "a", encoding="utf-8") as fh:
                    fh.write(f"{os.getpid()}\n")
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(mc_engine, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setenv("FAMA_LAB_WORKERS", "2")
        assert main(argv + ["--realizations", "5000",
                            "--out", str(tmp_path / "out")]) == 0
        assert log.read_text().split() == [str(os.getpid())] * pools

    def test_groups_written_as_they_complete(self, tmp_path, monkeypatch,
                                             capsys):
        # The first group (M = 4) waits in its worker until the second
        # (M = 8) is written, so the parent writes M = 8 first; the manifest
        # still lists the outputs and experiments in grid order.
        out = tmp_path / "sw"
        real_run = cli.run_outage_group

        def run(configs, workers=None):
            if configs[0].M == 4:
                last_of_second = out / "sweep_mrt_M8_U4_N3_W4.csv"
                deadline = time.monotonic() + 60.0
                while not last_of_second.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
            return real_run(configs, workers=workers)

        monkeypatch.setattr(cli, "run_outage_group", run)
        monkeypatch.setenv("FAMA_LAB_WORKERS", "2")
        assert main(["sweep", "--realizations", "1000", "--sweep-M", "4,8",
                     "--sweep-N", "2,3", "--sweep-W", "0.25,4",
                     "--sweep-scheme", "MRT", "--out", str(out)]) == 0
        points = [(f"sweep_mrt_M{M}_U4_N{N}_W{W}", N) for M in (4, 8)
                  for N in (2, 3) for W in ("0.25", "4")]
        grid = [name for name, _ in points]
        wrote = [line[len("sweep: wrote "):-len(".csv")]
                 for line in capsys.readouterr().out.splitlines()
                 if line.startswith("sweep: wrote ")]
        assert wrote == grid[4:] + grid[:4]
        assert sorted(os.listdir(out)) == sorted(
            [name + ".csv" for name in grid] + ["manifest.txt"])
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert f"outputs: {', '.join(name + '.csv' for name in grid)}" in manifest
        # fig4's five rows per point, in grid order.
        assert [line for line in manifest if line.startswith("experiment.")] == [
            f"experiment.{name}.{row}" for name, N in points for row in (
                "realizations: 1000", "reference_mode: member",
                f"selection_ports: {list(range(1, N + 1))}",
                "resampled: 0", "infinite: 0")]

    @pytest.mark.parametrize("failure", ["raise", "crash", "interrupt"])
    def test_failure_cancels_queued_points(self, tmp_path, monkeypatch, capsys,
                                           failure):
        # 64 points in 16 frame groups (one per M) of 4.  "raise" and
        # "crash" fail the second group (M = 5) in its worker, once the
        # parent has written the first group's CSVs, so the run must remove
        # outputs it has already written; "interrupt" stops the parent at
        # its first write.  The patches are made before the pool forks.  A
        # pool of 2 runs 2 groups and holds 3 more in its call queue, which
        # cancelling cannot reach, so the grid needs more groups than that
        # for a cancelled one to show.  The groups have one U, so their work
        # estimates are equal and the pool gets them in grid order: the
        # first two run together.
        log = tmp_path / "points.log"
        out = tmp_path / "sw"
        real_run, real_write = cli.run_outage_group, cli.write_curve_csv
        parent = os.getpid()

        def run(configs, workers=None):
            with open(log, "a", encoding="utf-8") as fh:
                fh.writelines(f"{cfg.scheme}_M{cfg.M}_N{cfg.N}_W{cfg.W:g}\n"
                              for cfg in configs)
            if failure != "interrupt" and configs[0].M == 5:
                last_of_first = out / f"sweep_mrt_M4_U{configs[0].U}_N3_W4.csv"
                deadline = time.monotonic() + 60.0
                while not last_of_first.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                if failure == "crash" and os.getpid() != parent:
                    os._exit(3)
                raise RuntimeError("injected group failure")
            time.sleep(0.2)
            return real_run(configs, workers=workers)

        def write(path, rows):
            if failure == "interrupt":
                raise KeyboardInterrupt
            real_write(path, rows)

        monkeypatch.setattr(cli, "run_outage_group", run)
        monkeypatch.setattr(cli, "write_curve_csv", write)
        monkeypatch.setenv("FAMA_LAB_WORKERS", "2")
        try:
            code = main(["sweep", "--realizations", "1000", "--sweep-M",
                         ",".join(str(M) for M in range(4, 20)),
                         "--sweep-N", "2,3", "--sweep-W", "0.25,4",
                         "--sweep-scheme", "MRT", "--out", str(out)])
        except KeyboardInterrupt:
            pytest.fail("the interrupt escaped cli.main")
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        if failure != "interrupt":
            assert ("sweep: wrote sweep_mrt_M4_U4_N3_W4.csv"
                    in captured.out.splitlines())
        assert os.listdir(out) == []
        assert len(log.read_text().split()) < 64


def _field_by_field(rows):
    """A curve CSV's text with every field formatted on its own."""
    return CURVE_HEADER + "\n" + "".join(
        f"{g:.12g},{10.0 * math.log10(g):.12g},{v:.12g},{lo:.12g},"
        f"{hi:.12g},{c}\n" for g, v, lo, hi, c in rows)


class TestCurveCsv:
    def test_bytes_equal_row_by_row_formatting(self, tmp_path):
        # Thresholds repeat across curves and analytic rows repeat their
        # value object; the file must read as if every field were formatted
        # on its own, signed zeros and equal-but-distinct CI values included.
        grid = np.array([1e-3, 0.31622776601683794, 1.0, 12.5])
        values = np.array([0.0, -0.0, 0.123456789012345, 1.0])
        rows = [(g, v, v, v, "analytic") for g, v in zip(grid, values)]
        rows += [(g, v, float(v), float(v), "equal_ci")
                 for g, v in zip(grid, values)]
        rows += [(g, v, max(0.0, v - 0.01), min(1.0, v + 0.01), "empirical")
                 for g, v in zip(grid, values)]
        path = tmp_path / "curve.csv"
        write_curve_csv(str(path), rows)
        assert path.read_text() == _field_by_field(rows)

    def test_curve_map_bytes_equal_field_by_field_formatting(self, tmp_path):
        # An analytic curve repeats its value; an empirical one is p +- its
        # half-width, clipped at 0 and at 1.
        grid = np.array([1e-3, 0.31622776601683794, 1.0, 12.5, 100.0])
        analytic = np.array([0.0, -0.0, 1.0, 0.123456789012345,
                             0.987654321098765])
        p = np.array([0.0, 0.005, 0.5, 0.998, 1.0])
        ci = np.array([0.01, 0.01, 0.123456789012345, 0.01, 0.01])
        manifest = cli.RunManifest(command="t", config=SystemConfig(), workers=1)
        cli._write_curve_csvs(
            [("curve.csv", grid, {"analytic": (analytic, None),
                                  "empirical": (p, ci)})],
            str(tmp_path), manifest)
        rows = [(g, v, v, v, "analytic") for g, v in zip(grid, analytic)]
        rows += [(g, v, max(0.0, v - c), min(1.0, v + c), "empirical")
                 for g, v, c in zip(grid, p, ci)]
        assert (tmp_path / "curve.csv").read_text() == _field_by_field(rows)
        assert manifest.outputs == ["curve.csv"]

    def test_shared_curve_formatted_once(self, tmp_path, monkeypatch):
        # A curve object in two files of one call is formatted once; an
        # equal but distinct object is formatted on its own.
        grid = np.array([0.5, 2.0])
        shared, equal = (np.array([0.1, 0.2]), None), (np.array([0.1, 0.2]), None)
        real, formatted = cli._curve_text, []

        def curve_text(heads, curve_id, curve):
            formatted.append(curve_id)
            return real(heads, curve_id, curve)

        monkeypatch.setattr(cli, "_curve_text", curve_text)
        manifest = cli.RunManifest(command="t", config=SystemConfig(), workers=1)
        cli._write_curve_csvs(
            [("a.csv", grid, {"shared": shared, "own": equal}),
             ("b.csv", grid, {"shared": shared})], str(tmp_path), manifest)
        assert formatted == ["shared", "own"]
        text = "0.5,-3.01029995664,0.1,0.1,0.1,shared\n2,3.01029995664,0.2,0.2,0.2,shared\n"
        assert (tmp_path / "b.csv").read_text() == CURVE_HEADER + "\n" + text
        assert (tmp_path / "a.csv").read_text() == (
            CURVE_HEADER + "\n" + text + text.replace("shared", "own"))
        assert manifest.outputs == ["a.csv", "b.csv"]

    @pytest.mark.parametrize("argv, order", [
        (["fig2"], ["analytic_cdf", "empirical_marginal",
                    "empirical_physical_reference"]),
        (["fig4"], None),
        (["fig5"], ["analytic_cdf", "analytic_sf", "small_gamma_asymptote",
                    "tail_asymptote", "empirical_sf"]),
        (["sweep", "--sweep-M", "4,8", "--sweep-W", "0.25,4"], None),
    ], ids=["fig2", "fig4", "fig5", "sweep"])
    def test_one_write_per_listed_csv(self, tmp_path, monkeypatch, argv, order):
        # Every gamma-indexed CSV goes through write_curve_csv once, the call
        # that the benchmark times and the failure tests patch; fig2's and
        # fig5's curves come in their map order.
        real, written = cli.write_curve_csv, []

        def write(path, rows):
            written.append(os.path.basename(path))
            real(path, rows)

        monkeypatch.setattr(cli, "write_curve_csv", write)
        out = tmp_path / "out"
        assert main(argv + ["--realizations", "1000", "--out", str(out)]) == 0
        outputs = [line for line in (out / "manifest.txt").read_text().splitlines()
                   if line.startswith("outputs: ")]
        listed = outputs[0][len("outputs: "):].split(", ")
        assert sorted(written) == sorted(listed)
        assert len(set(written)) == len(written) == (4 if argv[0] == "sweep" else 2)
        for name in written:
            _, rows = _read_csv(out / name)
            ids = list(dict.fromkeys(r[-1] for r in rows))
            assert ids == (order or ids)


class TestErrors:
    def test_config_error_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("bogus_key = 1\n")
        assert main(["fig2", "--config", str(p), "--out", str(tmp_path)]) == 2
        # A config file that cannot be read is refused by name before the
        # output directory is made.
        out = tmp_path / "out"
        for path in (tmp_path / "missing.cfg", tmp_path):
            capsys.readouterr()
            assert main(["fig2", "--config", str(path), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: --config {str(path)!r}")
            assert not out.exists()
        # So is one that is not UTF-8 text, here a UTF-16 byte-order mark.
        p.write_bytes(b"\xff\xfeM = 8\n")
        assert main(["fig2", "--config", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --config {str(p)!r}: not UTF-8")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fig5", "validate"])
    def test_bad_worker_variable_refused_by_name(self, tmp_path, capsys,
                                                 monkeypatch, command):
        monkeypatch.setenv("FAMA_LAB_WORKERS", "abc")
        out = tmp_path / command
        assert main([command, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: FAMA_LAB_WORKERS")
        assert "'abc'" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, under", [
        pytest.param("fig5", "", id="fig5"),
        pytest.param("validate", "", id="validate"),
        pytest.param("fig5", "sub", id="fig5-nested"),
        pytest.param("validate", "sub/deeper", id="validate-nested"),
    ])
    def test_out_naming_a_file_refused(self, tmp_path, capsys, monkeypatch,
                                       command, under):
        # An --out that is a file, or lies under one, is refused by name
        # before the command runs, and the file is left alone.
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        out = taken / under if under else taken
        monkeypatch.setattr(cli, f"run_{command}",
                            lambda *args: pytest.fail(f"{command} ran"))
        assert main([command, "--realizations", "1000", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --out {str(out)!r}")
        assert f"{str(taken)!r} exists and is not a directory" in err
        assert taken.read_text() == "not a directory\n"

    @pytest.mark.parametrize("command", ["fig2", "fig3", "fig4", "fig5", "sweep"])
    def test_unequal_powers_refused_by_name(self, tmp_path, capsys, command):
        # Every command that writes an analytic curve refuses unequal
        # powers before it makes its output directory.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("powers = 1,4,1,1\n")
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--realizations", "1000",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: powers")
        assert not out.exists()

    def test_non_finite_aperture_refused_by_name(self, tmp_path, capsys):
        out = tmp_path / "fig4"
        assert main(["fig4", "--W", "nan", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: W")

    def test_experiment_error_cleans_partial_outputs(self, tmp_path,
                                                     monkeypatch):
        # The ZF output fails after the MRT CSV is written; that CSV goes
        # too.
        real, written = cli.write_curve_csv, []

        def fail_zf(path, rows):
            if os.path.basename(path) == "fig4_zf.csv":
                raise RuntimeError("injected output failure")
            real(path, rows)
            written.append(os.path.basename(path))

        monkeypatch.setattr(cli, "write_curve_csv", fail_zf)
        out = str(tmp_path / "broken")
        assert main(["fig4", "--realizations", "1000", "--out", out]) == 1
        assert written == ["fig4_mrt.csv"]
        assert not os.path.exists(os.path.join(out, "manifest.txt"))
        assert not any(n.endswith(".csv") for n in os.listdir(out))

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_write_leaves_no_file(self, tmp_path, existing):
        # gamma = 0 has no dB value, so the write fails on its second row.
        path = tmp_path / "curve.csv"
        if existing:
            path.write_text("old\n")
        row = (1.0, 0.5, 0.4, 0.6, "a")
        with pytest.raises(ValueError):
            write_curve_csv(str(path), [row, (0.0,) + row[1:]])
        assert os.listdir(tmp_path) == (["curve.csv"] if existing else [])
        if existing:
            assert path.read_text() == "old\n"
        # A write that succeeds replaces the whole file and leaves only it.
        write_curve_csv(str(path), [row])
        assert path.read_text() == CURVE_HEADER + "\n1,0,0.5,0.4,0.6,a\n"
        assert os.listdir(tmp_path) == ["curve.csv"]

    @pytest.mark.parametrize("command", ["fig2", "fig3", "fig4", "fig5"])
    def test_config_scheme_refused_by_both_scheme_commands(self, tmp_path,
                                                           capsys, command):
        p = tmp_path / "zf.cfg"
        p.write_text("scheme = ZF\n")
        out = tmp_path / command
        assert main([command, "--config", str(p), "--realizations", "1000",
                     "--out", str(out)]) == 2
        assert "'scheme'" in capsys.readouterr().err
        assert not out.exists() or os.listdir(out) == []

    def test_parser_has_all_commands(self):
        parser = build_parser()
        for cmd in ("fig2", "fig3", "fig4", "fig5", "sweep", "validate"):
            args = parser.parse_args([cmd])
            assert args.command == cmd
