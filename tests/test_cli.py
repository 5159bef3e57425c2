"""Config parsing, command orchestration, CSV schemas, and manifests."""

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from fama_lab import cli, mc_engine
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

    def test_pair_schema(self, tmp_path):
        out = str(tmp_path / "f3")
        assert main(["fig3", "--realizations", "4000", "--N", "4",
                     "--W", "2.0", "--out", out]) == 0
        header, rows = _read_csv(os.path.join(out, "fig3_mrt.csv"))
        assert header == PAIR_HEADER
        pairs = {(r[0], r[1]) for r in rows}
        assert pairs == {("2", "3"), ("2", "4"), ("3", "4")}


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
        cfg = tmp_path / "run.cfg"
        cfg.write_text("powers = 4,1,1,1\nbeta = 2,1,1,1\n")
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

    def test_swept_u_resizes_only_equal_per_user_tuples(self, tmp_path, capsys):
        def sweep(powers, name):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(f"powers = {powers}\n")
            return main(["sweep", "--config", str(cfg), "--realizations", "1000",
                         "--sweep-U", "4,2", "--out", str(tmp_path / name)])

        assert sweep("2,2,2,2", "equal") == 0
        assert (tmp_path / "equal" / "sweep_mrt_M8_U2_N8_W0.25.csv").exists()
        capsys.readouterr()
        # Refused by name before the U=4 point, which it could run, is written.
        assert sweep("4,1,1,1", "unequal") == 2
        assert "powers" in capsys.readouterr().err
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

    def test_one_pool_per_sweep(self, tmp_path, monkeypatch):
        # Each pool, in the parent or in a forked worker, logs the pid that
        # built it.  Points of several chunks each would give a pool per
        # point if every point ran its own chunks in a pool.
        log = tmp_path / "pools.log"

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                with open(log, "a", encoding="utf-8") as fh:
                    fh.write(f"{os.getpid()}\n")
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", CountingPool, raising=False)
        monkeypatch.setattr(mc_engine, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setenv("FAMA_LAB_WORKERS", "2")
        assert main(_SMALL_GRID + ["--realizations", "16500",
                                   "--out", str(tmp_path / "sw")]) == 0
        assert log.read_text().split() == [str(os.getpid())]

    @pytest.mark.parametrize("argv, pools", [
        (["sweep", "--sweep-N", "2,8", "--sweep-W", "0.25,4"], 1),
        (["fig4"], 1)])
    def test_one_pool_per_outage_group(self, tmp_path, monkeypatch, argv,
                                       pools):
        # A lone frame group runs its physical chunks and the i.i.d. chunks
        # of every N in one pool; fig4 runs its MRT and ZF configs as one
        # group.
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
        grid = [f"sweep_mrt_M{M}_U4_N{N}_W{W}" for M in (4, 8) for N in (2, 3)
                for W in ("0.25", "4")]
        wrote = [line[len("sweep: wrote "):-len(".csv")]
                 for line in capsys.readouterr().out.splitlines()
                 if line.startswith("sweep: wrote ")]
        assert wrote == grid[4:] + grid[:4]
        assert sorted(os.listdir(out)) == sorted(
            [name + ".csv" for name in grid] + ["manifest.txt"])
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert f"outputs: {', '.join(name + '.csv' for name in grid)}" in manifest
        assert [line for line in manifest if line.startswith("experiment.")] == [
            f"experiment.{name}.realizations: 1000" for name in grid]

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
        # for a cancelled one to show.  The groups are submitted in grid
        # order, so the first two run together.
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
        expect = CURVE_HEADER + "\n" + "".join(
            f"{g:.12g},{10.0 * math.log10(g):.12g},{v:.12g},{lo:.12g},"
            f"{hi:.12g},{c}\n" for g, v, lo, hi, c in rows)
        assert path.read_text() == expect


class TestErrors:
    def test_config_error_exit_code(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("bogus_key = 1\n")
        assert main(["fig2", "--config", str(p), "--out", str(tmp_path)]) == 2

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
