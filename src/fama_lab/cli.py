"""Command-line entry point: experiment orchestration, CSV and manifest
emission, and the acceptance-suite runner.

Commands: fig2 (per-port SIR CDFs), fig3 (cross-port SIR correlation),
fig4 (selection outage with bounds), fig5 (asymptotic overlays),
sweep (outage over a parameter grid), validate (acceptance suite).

Every run writes one CSV per curve family plus a manifest that pins the
configuration, seed, sample counts, and counters needed to reproduce the
CSVs byte for byte.  fig2, fig4, fig5 and sweep hold each file's curves as
one ordered map, curve_id -> (values, half-width or None), and write it
through _write_curve_csvs.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .analytic_stats import (
    asymptote_small_gamma,
    asymptote_tail,
    betaprime_params,
    betaprime_sf,
)
from .channel_geom import SystemConfig, geometry_for_config
from .mc_engine import (
    ProcessPoolExecutor,
    _check_correlation_config,
    resolve_workers,
    run_cdf_experiment,
    run_correlation_experiment,
    run_outage_group,
    wilson_half_width,
)

if TYPE_CHECKING:
    import argparse

_CONFIG_KEYS = {
    "M": int,
    "U": int,
    "N": int,
    "W": float,
    "scheme": str,
    "seed": int,
    "realizations": int,
    "reference_mode": str,
    "include_reference_in_selection": bool,
    "beta": tuple,
    "powers": tuple,
}

_FIG5_GRID = np.logspace(-3.0, 3.0, 241)

# Commands that write one CSV per scheme; a config-file scheme is refused.
_BOTH_SCHEME_COMMANDS = ("fig2", "fig3", "fig4", "fig5")


class ConfigError(ValueError):
    pass


def _parse_value(key: str, raw: str):
    kind = _CONFIG_KEYS[key]
    try:
        if kind is bool:
            lowered = raw.strip().lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if kind is tuple:
            return tuple(float(v) for v in raw.split(","))
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: cannot parse value {raw!r}") from exc


def parse_config(path: str | None = None, overrides: dict | None = None,
                 both_schemes: bool = False) -> SystemConfig:
    """Read `key = value` lines (with # comments), then apply flag overrides.

    both_schemes: the command runs MRT and ZF both, so a `scheme` key in
    the file is refused by name rather than ignored.
    """
    values: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:  # missing, a directory, unreadable
            raise ConfigError(f"--config {path!r}: {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"--config {path!r}: not UTF-8 text: {exc}") from exc
        for lineno, line in enumerate(lines, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            if both_schemes and key == "scheme":
                raise ConfigError(
                    f"{path}:{lineno}: config key 'scheme' is not used here: "
                    "this command writes one CSV per scheme (MRT, and ZF "
                    "when M >= U)")
            values[key] = _parse_value(key, raw)
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = val
    try:
        return SystemConfig(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass
class RunManifest:
    """Everything needed to regenerate a run's CSVs byte for byte."""

    command: str
    config: SystemConfig
    workers: int
    experiments: list = field(default_factory=list)  # (name, key, value) rows
    outputs: list = field(default_factory=list)
    wall_seconds: float = 0.0

    def write(self, path: str) -> None:
        cfg = self.config
        lines = [
            "fama-lab run manifest",
            f"version: {__version__}",
            f"command: {self.command}",
            f"seed: {cfg.seed}",
        ]
        for f in fields(cfg):
            if f.name == "seed":
                continue
            lines.append(f"config.{f.name}: {getattr(cfg, f.name)}")
        lines.append(f"config.reference_mode_resolved: {cfg.resolved_reference_mode()}")
        lines.append(f"workers: {self.workers}")
        lines.extend(f"experiment.{name}.{key}: {value}"
                     for name, key, value in self.experiments)
        lines.append(f"outputs: {', '.join(self.outputs)}")
        lines.append(f"wall_seconds: {self.wall_seconds:.3f}")
        with _atomic_open(path) as fh:
            fh.write("\n".join(lines) + "\n")


def _remove_listed_outputs(out_dir: str) -> None:
    """Delete the files that an earlier run's manifest.txt in out_dir lists
    as its outputs, then that manifest, so a rerun into the directory
    leaves only its own files.  Other files are left alone, and so is
    every file a manifest.txt that fama-lab did not write lists."""
    path = os.path.join(out_dir, "manifest.txt")
    if not os.path.isfile(path):
        return
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError:  # fama-lab writes its manifests as UTF-8
        return
    if not lines or lines[0] != "fama-lab run manifest":
        return
    for line in lines:
        if line.startswith("outputs: "):
            for name in line[len("outputs: "):].split(", "):
                listed = os.path.join(out_dir, name)
                if name == os.path.basename(name) and os.path.isfile(listed):
                    os.remove(listed)
    os.remove(path)


@contextlib.contextmanager
def _atomic_open(path: str):
    """Text file opened under a temporary name beside `path`; it replaces
    `path` only once the block finishes, and is removed if the block fails,
    so a crash never leaves a truncated output."""
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _fmt(x: float) -> str:
    return f"{x:.12g}"


_CURVE_HEADER = "gamma,gamma_db,value,ci_low,ci_high,curve_id\n"
# A row after its `gamma,gamma_db,` head; %.12g formats as _fmt does.
_CURVE_ROW = "%s%.12g,%.12g,%.12g,%s\n"


def _head(gamma: float) -> str:
    """A threshold's `gamma,gamma_db,` text."""
    return "%.12g,%.12g," % (gamma, 10.0 * math.log10(gamma))


def write_curve_csv(path: str, rows: Iterable[tuple] | str) -> None:
    """Gamma-indexed curve family: one row per (gamma, curve) pair, given
    as (gamma, value, ci_low, ci_high, curve_id) tuples, each field
    formatted on its own, or as the text of those rows."""
    if not isinstance(rows, str):
        heads, lines = {}, []
        for gamma, value, ci_low, ci_high, curve_id in rows:
            head = heads.get(gamma)
            if head is None:
                head = heads[gamma] = _head(gamma)
            lines.append(_CURVE_ROW % (head, value, ci_low, ci_high, curve_id))
        rows = "".join(lines)
    with _atomic_open(path) as fh:
        fh.write(_CURVE_HEADER + rows)


def _curve_text(heads: list[str], curve_id: str, curve: tuple) -> str:
    """CSV rows of one (values, half-width) curve of a curve map, after the
    grid's heads: an empirical curve's value +- its half-width, clipped to
    [0, 1], or an analytic curve's (half-width None) value in all three
    columns, formatted once.  Rows hold Python floats, which format to the
    same text as numpy scalars, only faster."""
    p, ci = curve
    p = np.asarray(p)
    if ci is None:
        lo = hi = p = ["%.12g" % v for v in p.tolist()]
        row = "%s%s,%s,%s,"
    else:
        lo = np.maximum(0.0, p - ci).tolist()
        hi = np.minimum(1.0, p + ci).tolist()
        p, row = p.tolist(), "%s%.12g,%.12g,%.12g,"
    row += curve_id + "\n"
    return "".join([row % cols for cols in zip(heads, p, lo, hi)])


def _write_curve_csvs(files: list[tuple], out_dir: str,
                      manifest: RunManifest) -> None:
    """Write one gamma-indexed CSV per (name, grid, curves) triple of
    `files`, its curve map's curves in map order, each file listed in
    manifest.outputs once it exists.

    Each curve object is formatted once per call (the list keeps every
    grid and curve alive, so their ids stay unique): the outage results of
    one (shapes, selectable count) share their W-invariant curves' objects
    (run_outage_group), also after the pickling of a pool worker's
    results.  Each grid's heads are formatted once too.
    """
    heads: dict = {}
    texts: dict = {}
    for name, grid, curves in files:
        if id(grid) not in heads:
            heads[id(grid)] = [_head(g) for g in np.asarray(grid).tolist()]
        for curve_id, curve in curves.items():
            if id(curve) not in texts:
                texts[id(curve)] = _curve_text(heads[id(grid)], curve_id, curve)
        write_curve_csv(os.path.join(out_dir, name),
                        "".join(texts[id(curve)] for curve in curves.values()))
        manifest.outputs.append(name)


def write_pair_csv(path: str, rows: list[tuple]) -> None:
    """Port-pair-indexed curve family: one row per (pair, curve).  A
    ci_low or ci_high of None is written as an empty field."""
    with _atomic_open(path) as fh:
        fh.write("port_k,port_l,value,ci_low,ci_high,curve_id\n")
        for k, l, value, ci_low, ci_high, curve_id in rows:
            lo, hi = ("" if c is None else _fmt(c) for c in (ci_low, ci_high))
            fh.write(f"{k},{l},{_fmt(value)},{lo},{hi},{curve_id}\n")


def _scheme_configs(config: SystemConfig) -> Iterator[SystemConfig]:
    """The config under MRT, then under ZF; ZF is skipped when M < U."""
    for scheme in ("MRT", "ZF"):
        if scheme == "ZF" and config.M < config.U:
            continue
        yield replace(config, scheme=scheme)


def _per_user(values: tuple, U: int, name: str) -> tuple:
    """A per-user tuple resized to U users; only equal entries resize."""
    if len(values) == U:
        return values
    if len(set(values)) > 1:
        raise ConfigError(f"cannot resize unequal {name} {values} to U={U}")
    return values[:1] * U


def run_fig2(config: SystemConfig, out_dir: str, workers: int,
             manifest: RunManifest) -> None:
    """Per-port SIR CDFs on DEFAULT_GAMMA_GRID; the MRT CSV is written
    before ZF runs."""
    for cfg in _scheme_configs(config):
        marginal = run_cdf_experiment(cfg, mode="marginal", workers=workers)
        physical = run_cdf_experiment(cfg, mode="physical_reference", workers=workers)
        # Both maps hold the same analytic_cdf, so the merge keeps its place.
        curves = {**marginal.curves, **physical.curves}
        tag = f"fig2_{cfg.scheme.lower()}"
        _write_curve_csvs([(f"{tag}.csv", marginal.gamma_grid, curves)],
                          out_dir, manifest)
        manifest.experiments += [
            (tag, "marginal_realizations", marginal.realizations),
            (tag, "physical_realizations", physical.realizations),
            (tag, "resampled", physical.resampled_count),
            (tag, "infinite", physical.infinite_count),
        ]
        print(f"fig2 {cfg.scheme}: KS marginal={marginal.ks:.5f} "
              f"physical_reference={physical.ks:.5f}")


def run_fig3(config: SystemConfig, out_dir: str, workers: int,
             manifest: RunManifest) -> None:
    configs = list(_scheme_configs(config))
    for cfg in configs:  # every refusal comes before the first run
        try:
            _check_correlation_config(cfg)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    for cfg in configs:  # only MRT gets here with a port at mu_k = 1
        if np.any(geometry_for_config(cfg).mu[1:] == 1.0):
            raise ConfigError(
                f"fig3 {cfg.scheme} needs every estimated port off the reference "
                f"location, but at W={cfg.W:g} some have mu_k = 1, where the "
                "analytic overlay rho_x_approx does not hold")
    for cfg in configs:
        res = run_correlation_experiment(cfg, workers=workers)
        rows = []
        p = len(res.ports)
        for i in range(p):
            for j in range(i + 1, p):
                k, l = int(res.ports[i]), int(res.ports[j])
                # The estimate has no interval: its ci columns stay empty.
                rows.append((k, l, res.matrix[i, j], None, None,
                             "empirical_rho_x"))
                o = res.overlay[i, j]
                rows.append((k, l, o, o, o, "analytic_rho_x"))
        name = f"fig3_{cfg.scheme.lower()}.csv"
        write_pair_csv(os.path.join(out_dir, name), rows)
        manifest.outputs.append(name)
        tag = f"fig3_{cfg.scheme.lower()}"
        manifest.experiments += [
            (tag, "realizations", res.realizations),
            (tag, "reference_mode", res.reference_mode),
            (tag, "dropped_rows", res.n_dropped),
            (tag, "resampled", res.resampled_count),
        ]
        print(f"fig3 {cfg.scheme}: max |empirical - analytic| = "
              f"{res.max_abs_deviation:.4f} ({res.reference_mode} mode)")


def run_fig4(config: SystemConfig, out_dir: str, workers: int,
             manifest: RunManifest) -> None:
    """Outage under MRT and ZF, run as one frame group (one pool): each
    scheme's result equals its own run_outage_experiment."""
    configs = list(_scheme_configs(config))
    results = run_outage_group(configs, workers=workers)
    tags = [f"fig4_{cfg.scheme.lower()}" for cfg in configs]
    _write_curve_csvs([(f"{tag}.csv", res.gamma_grid, res.curves)
                       for tag, res in zip(tags, results)], out_dir, manifest)
    for tag, res in zip(tags, results):
        manifest.experiments += _outage_rows(tag, res)
    for cfg, res in zip(configs, results):
        print(f"fig4 {cfg.scheme}: {res.reference_mode} mode, selection ports "
              f"{res.selection_ports.tolist()}, infinite SIRs {res.infinite_count}")


def _outage_rows(tag: str, res) -> list[tuple]:
    """The five manifest rows of one outage result, fig4's and the
    sweep's."""
    return [(tag, "realizations", res.realizations),
            (tag, "reference_mode", res.reference_mode),
            (tag, "selection_ports", res.selection_ports.tolist()),
            (tag, "resampled", res.resampled_count),
            (tag, "infinite", res.infinite_count)]


def run_fig5(config: SystemConfig, out_dir: str, workers: int,
             manifest: RunManifest) -> None:
    grid = _FIG5_GRID
    for cfg in _scheme_configs(config):
        params = betaprime_params(cfg.scheme, cfg.M, cfg.U)
        emp = run_cdf_experiment(cfg, mode="marginal", gamma_grid=grid,
                                 workers=workers)
        sf = 1.0 - emp.curves["empirical_marginal"][0]
        curves = {
            "analytic_cdf": emp.curves["analytic_cdf"],
            "analytic_sf": (betaprime_sf(grid, params), None),
            "small_gamma_asymptote": (
                [asymptote_small_gamma(g, cfg.scheme, cfg.M, cfg.U) for g in grid],
                None),
            "tail_asymptote": ([asymptote_tail(g, params) for g in grid], None),
            "empirical_sf": (sf, wilson_half_width(sf, emp.realizations)),
        }
        tag = f"fig5_{cfg.scheme.lower()}"
        _write_curve_csvs([(f"{tag}.csv", grid, curves)], out_dir, manifest)
        manifest.experiments.append((tag, "realizations", emp.realizations))
        print(f"fig5 {cfg.scheme}: grid {len(grid)} points, "
              f"marginal n={emp.realizations}")


def run_sweep(config: SystemConfig, out_dir: str, workers: int,
              manifest: RunManifest, grids: dict) -> None:
    """Outage over the grid; every point is built and checked before the
    first one runs, so a bad point, or two points that would write one
    file, write no CSV.

    The points of one (M, U), which differ only in the scheme, N and W,
    form a frame group that run_outage_group serves from one frame draw per
    chunk.  ZF is skipped where M < U, so such a group holds MRT points
    only.
    """
    per_user = {U: {name: _per_user(getattr(config, name), U, name)
                    for name in ("beta", "powers")} for U in grids["U"]}
    # (grid index, config, file name) per (M, U); the grid order is
    # scheme-major.
    cells = {(M, U): [] for M in grids["M"] for U in grids["U"]}
    labels = {}  # file name -> the point that writes it
    for scheme in grids["scheme"]:
        for M in grids["M"]:
            for U in grids["U"]:
                if scheme == "ZF" and M < U:
                    print(f"sweep: skipping ZF M={M} < U={U}")
                    continue
                for N in grids["N"]:
                    for W in grids["W"]:
                        point = f"scheme={scheme} M={M} U={U} N={N} W={W}"
                        try:
                            cfg = replace(config, M=M, U=U, N=N, W=W,
                                          scheme=scheme, **per_user[U])
                        except ValueError as exc:
                            raise ConfigError(
                                f"sweep point {point}: {exc}") from exc
                        name = (f"sweep_{scheme.lower()}_M{M}_U{U}_N{N}_"
                                f"W{W:g}.csv")
                        if name in labels:
                            raise ConfigError(
                                f"sweep points {labels[name]} and {point} "
                                f"would both write {name}")
                        labels[name] = point
                        cells[M, U].append((len(labels) - 1, cfg, name))
    groups = [tuple(zip(*cell)) for cell in cells.values() if cell]
    # Several groups share one pool, each group whole in one worker; a
    # single group keeps chunk-level parallelism.  The pool gets the groups
    # largest work estimate first (_group_work), ties in grid order, so no
    # worker is left idle while the last heavy group runs.  Every chunk has
    # its own stream, so the CSVs do not depend on where or when a group
    # runs.  Each group's CSVs are written as soon as it completes, so the
    # parent formats while the workers still run; the manifest lists them
    # and their rows in grid order.  On any failure the queued groups are
    # cancelled, not run, and main removes every CSV already written
    # (manifest.outputs).
    pool = None
    start = len(manifest.outputs)
    written = {}
    try:
        if workers > 1 and len(groups) > 1:
            from concurrent.futures import as_completed

            pool = ProcessPoolExecutor(max_workers=min(workers, len(groups)))
            order = sorted(range(len(groups)), reverse=True,
                           key=lambda i: _group_work(groups[i][1]))
            futures = {pool.submit(_sweep_group, groups[i][1]): i
                       for i in order}
            done = ((futures[f], f.result()) for f in as_completed(futures))
        else:
            done = ((i, run_outage_group(group, workers=workers))
                    for i, (_, group, _) in enumerate(groups))
        for i, group_results in done:
            indices, _, names = groups[i]
            _write_curve_csvs([(name, res.gamma_grid, res.curves) for name, res
                               in zip(names, group_results)], out_dir, manifest)
            written.update(
                (j, (name, _outage_rows(name[:-len(".csv")], res)))
                for j, name, res in zip(indices, names, group_results))
            for name in names:
                print(f"sweep: wrote {name}")
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
    ordered = [written[i] for i in sorted(written)]
    manifest.outputs[start:] = [name for name, _ in ordered]
    manifest.experiments += [row for _, rows in ordered for row in rows]


def _group_work(group: tuple[SystemConfig, ...]) -> int:
    """Work estimate of a sweep frame group, for the order in which the
    pool gets the groups: U per config.  Each config's SIR pass projects
    its ports onto U beams, so a chunk's work grows with U and with the
    configs it serves; the frame draw does not grow with M, so M does not
    enter."""
    return sum(cfg.U for cfg in group)


def _sweep_group(group: list[SystemConfig]):
    """One frame group of the sweep in a pool worker; its chunks run in
    that worker."""
    return run_outage_group(group, workers=1)


def run_validate(config: SystemConfig, out_dir: str | None) -> int:
    from .acceptance import run_all_criteria

    results = run_all_criteria(seed=config.seed)
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{r.index:2d}] {r.name:<{width}} {status:4s} "
                     f"({r.seconds:6.1f}s)  {r.detail}")
    table = "\n".join(lines)
    print(table)
    failed = [r.index for r in results if not r.passed]
    summary = (f"{len(results) - len(failed)}/{len(results)} criteria passed"
               + (f"; FAILED: {failed}" if failed else ""))
    print(summary)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with _atomic_open(os.path.join(out_dir, "validate_report.txt")) as fh:
            fh.write(table + "\n" + summary + "\n")
    return 1 if failed else 0


def _split_list(raw: str | None, kind, fallback):
    if raw is None:
        return [fallback]
    try:
        return [kind(v) for v in str(raw).split(",")]
    except ValueError as exc:
        raise ConfigError(f"cannot parse {raw!r} as a list of {kind.__name__}") from exc


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="fama-lab",
        description="Fluid-antenna multiple access statistics laboratory",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in [
        ("fig2", "per-port SIR CDFs: simulated vs analytic"),
        ("fig3", "cross-port SIR correlation vs analytic overlay"),
        ("fig4", "FAMA selection outage with analytic bounds"),
        ("fig5", "small/large-SIR asymptotic overlays"),
        ("sweep", "outage experiments over a parameter grid"),
        ("validate", "run the acceptance suite"),
    ]:
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", help="plain-text key = value config file")
        p.add_argument("--seed", type=int)
        p.add_argument("--realizations", type=int)
        p.add_argument("--M", type=int)
        p.add_argument("--U", type=int)
        p.add_argument("--N", type=int)
        p.add_argument("--W", type=float)
        p.add_argument("--reference-mode", choices=["member", "external"],
                       dest="reference_mode")
        p.add_argument("--out", default="fama_lab_out", help="output directory")
        if name == "sweep":
            p.add_argument("--scheme", choices=["MRT", "ZF"],
                           help="default of --sweep-scheme")
            for flag in ("M", "U", "N", "W", "scheme"):
                p.add_argument(f"--sweep-{flag}", dest=f"sweep_{flag}",
                               help=f"comma list of {flag} values")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        key: getattr(args, key)
        for key in ("M", "U", "N", "W", "scheme", "seed", "realizations",
                    "reference_mode")
        if getattr(args, key, None) is not None
    }
    try:
        config = parse_config(args.config, overrides,
                              both_schemes=args.command in _BOTH_SCHEME_COMMANDS)
        workers = resolve_workers(None)
        # The nearest existing path at or above --out must be a directory.
        existing = os.path.abspath(args.out)
        while not os.path.lexists(existing):
            existing = os.path.dirname(existing)
        if not os.path.isdir(existing):
            raise ConfigError(f"--out {args.out!r}: {existing!r} exists and "
                              "is not a directory")
        if args.command != "validate" and len(set(config.powers)) > 1:
            # Equal powers cancel from every SIR; unequal ones change the
            # law that the analytic curves and the i.i.d. benchmark assume.
            raise ConfigError(
                f"powers must be equal for {args.command}, got {config.powers}: "
                "its analytic curves hold for equal powers only")
    except ValueError as exc:  # a ConfigError, or a bad FAMA_LAB_WORKERS
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        return run_validate(config, args.out)

    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    _remove_listed_outputs(out_dir)
    manifest = RunManifest(command=args.command, config=config, workers=workers)
    start = time.monotonic()
    try:
        if args.command == "fig2":
            run_fig2(config, out_dir, workers, manifest)
        elif args.command == "fig3":
            run_fig3(config, out_dir, workers, manifest)
        elif args.command == "fig4":
            run_fig4(config, out_dir, workers, manifest)
        elif args.command == "fig5":
            run_fig5(config, out_dir, workers, manifest)
        elif args.command == "sweep":
            grids = {
                "M": _split_list(args.sweep_M, int, config.M),
                "U": _split_list(args.sweep_U, int, config.U),
                "N": _split_list(args.sweep_N, int, config.N),
                "W": _split_list(args.sweep_W, float, config.W),
                "scheme": _split_list(args.sweep_scheme, str, config.scheme),
            }
            run_sweep(config, out_dir, workers, manifest, grids)
    except (Exception, KeyboardInterrupt) as exc:
        # Remove partial outputs so a failed or interrupted run leaves no
        # half-written files.
        for name in manifest.outputs:
            path = os.path.join(out_dir, name)
            if os.path.exists(path):
                os.remove(path)
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1
    manifest.wall_seconds = time.monotonic() - start
    manifest.write(os.path.join(out_dir, "manifest.txt"))
    print(f"wrote {len(manifest.outputs)} file(s) + manifest.txt to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
