"""Command-line entry point: experiment orchestration, CSV and manifest
emission, and the acceptance-suite runner.

Commands: fig2 (per-port SIR CDFs), fig3 (cross-port SIR correlation),
fig4 (selection outage with bounds), fig5 (asymptotic overlays),
sweep (outage over a parameter grid), validate (acceptance suite).

Every run writes one CSV per curve family plus a manifest that pins the
configuration, seed, sample counts, and counters needed to reproduce the
CSVs byte for byte.
"""

from __future__ import annotations

import contextlib
import itertools
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
from .channel_geom import SystemConfig
from .mc_engine import (
    _CORRELATION_U_REFUSAL,
    ProcessPoolExecutor,
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
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
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
    leaves only its own files.  Other files are left alone."""
    path = os.path.join(out_dir, "manifest.txt")
    if not os.path.isfile(path):
        return
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
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


def curve_text(rows: Iterable[tuple], gamma_text: dict | None = None) -> str:
    """CSV lines of gamma-indexed curve rows, (gamma, value, ci_low,
    ci_high, curve_id) each.

    A threshold's `gamma,gamma_db,` text is formatted once and kept in
    gamma_text (pass one dict to share it between the files of one grid).
    A row whose CI columns are its value object (an analytic curve's)
    formats that value once; any other row is one % template.
    """
    gamma_text = {} if gamma_text is None else gamma_text
    lines = []
    for gamma, value, ci_low, ci_high, curve_id in rows:
        head = gamma_text.get(gamma)
        if head is None:
            head = gamma_text[gamma] = "%.12g,%.12g," % (
                gamma, 10.0 * math.log10(gamma))
        if ci_low is value and ci_high is value:
            text = "%.12g" % value
            lines.append(f"{head}{text},{text},{text},{curve_id}\n")
        else:
            lines.append(_CURVE_ROW % (head, value, ci_low, ci_high, curve_id))
    return "".join(lines)


def write_curve_csv(path: str, rows: Iterable[tuple] | str) -> None:
    """Gamma-indexed curve family: one row per (gamma, curve) pair, given
    as row tuples or as their curve_text."""
    text = rows if isinstance(rows, str) else curve_text(rows)
    with _atomic_open(path) as fh:
        fh.write(_CURVE_HEADER + text)


def write_pair_csv(path: str, rows: list[tuple]) -> None:
    """Port-pair-indexed curve family: one row per (pair, curve)."""
    with _atomic_open(path) as fh:
        fh.write("port_k,port_l,value,ci_low,ci_high,curve_id\n")
        for k, l, value, ci_low, ci_high, curve_id in rows:
            fh.write(f"{k},{l},{_fmt(value)},{_fmt(ci_low)},{_fmt(ci_high)},{curve_id}\n")


def _analytic_rows(grid, values, curve_id) -> Iterator[tuple]:
    """Analytic curve rows: the value in all three columns.

    The row helpers yield rows as they are formatted, so a file's rows are
    never all alive at once, and rows hold Python floats, which format to
    the same text as numpy scalars, only faster.
    """
    return ((g, v, v, v, curve_id)
            for g, v in zip(np.asarray(grid).tolist(), np.asarray(values).tolist()))


def _curve_rows(grid, curve_id: str, curve: tuple) -> Iterator[tuple]:
    """Rows of one (values, half-width) curve of an outage result's map:
    an empirical curve's value +- its half-width, clipped to [0, 1], or an
    analytic curve's (half-width None) value in all three columns."""
    p, ci = curve
    if ci is None:
        return _analytic_rows(grid, p, curve_id)
    return zip(np.asarray(grid).tolist(), np.asarray(p).tolist(),
               np.maximum(0.0, p - ci).tolist(), np.minimum(1.0, p + ci).tolist(),
               itertools.repeat(curve_id))


def _empirical_rows(grid, p, n, curve_id) -> Iterator[tuple]:
    """Empirical curve rows: value +- the 95% Wilson half-length, clipped
    to [0, 1]."""
    return _curve_rows(grid, curve_id, (p, wilson_half_width(p, n)))


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
    for cfg in _scheme_configs(config):
        rows = []
        marginal = run_cdf_experiment(cfg, mode="marginal", workers=workers)
        physical = run_cdf_experiment(cfg, mode="physical_reference", workers=workers)
        rows += _analytic_rows(marginal.gamma_grid, marginal.analytic, "analytic_cdf")
        rows += _empirical_rows(marginal.gamma_grid, marginal.empirical.values(),
                                marginal.realizations, "empirical_marginal")
        rows += _empirical_rows(physical.gamma_grid, physical.empirical.values(),
                                physical.realizations, "empirical_physical_reference")
        name = f"fig2_{cfg.scheme.lower()}.csv"
        write_curve_csv(os.path.join(out_dir, name), rows)
        manifest.outputs.append(name)
        tag = f"fig2_{cfg.scheme.lower()}"
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
    if config.N < 3:
        raise ConfigError(f"fig3 needs N >= 3 ports, got N={config.N}: the "
                          "correlation is estimated over port pairs off the "
                          "reference")
    if config.U <= 3:
        raise ConfigError(_CORRELATION_U_REFUSAL.format(U=config.U, L=config.L))
    for cfg in _scheme_configs(config):
        res = run_correlation_experiment(cfg, workers=workers)
        rows = []
        p = len(res.ports)
        for i in range(p):
            for j in range(i + 1, p):
                k, l = int(res.ports[i]), int(res.ports[j])
                v = res.empirical.matrix[i, j]
                rows.append((k, l, v, v, v, "empirical_rho_x"))
                o = res.overlay[i, j]
                rows.append((k, l, o, o, o, "analytic_rho_x"))
        name = f"fig3_{cfg.scheme.lower()}.csv"
        write_pair_csv(os.path.join(out_dir, name), rows)
        manifest.outputs.append(name)
        tag = f"fig3_{cfg.scheme.lower()}"
        manifest.experiments += [
            (tag, "realizations", res.realizations),
            (tag, "reference_mode", res.reference_mode),
            (tag, "dropped_rows", res.empirical.n_dropped),
            (tag, "resampled", res.resampled_count),
        ]
        print(f"fig3 {cfg.scheme}: max |empirical - analytic| = "
              f"{res.max_abs_deviation:.4f} ({res.reference_mode} mode)")


def run_fig4(config: SystemConfig, out_dir: str, workers: int,
             manifest: RunManifest) -> None:
    """Outage under MRT and ZF, run as one frame group (one pool): each
    scheme's result equals its own run_outage_experiment."""
    configs = list(_scheme_configs(config))
    for cfg, res in zip(configs, run_outage_group(configs, workers=workers)):
        name = f"fig4_{cfg.scheme.lower()}.csv"
        write_curve_csv(os.path.join(out_dir, name), itertools.chain.from_iterable(
            _curve_rows(res.gamma_grid, *item) for item in res.curves.items()))
        manifest.outputs.append(name)
        tag = f"fig4_{cfg.scheme.lower()}"
        ports = [int(p) for p in res.selection_ports]
        manifest.experiments += [
            (tag, "realizations", res.realizations),
            (tag, "reference_mode", res.reference_mode),
            (tag, "selection_ports", ports),
            (tag, "resampled", res.resampled_count),
            (tag, "infinite", res.infinite_count),
        ]
        print(f"fig4 {cfg.scheme}: {res.reference_mode} mode, "
              f"selection ports {ports}, infinite SIRs {res.infinite_count}")


def run_fig5(config: SystemConfig, out_dir: str, workers: int,
             manifest: RunManifest) -> None:
    grid = _FIG5_GRID
    for cfg in _scheme_configs(config):
        params = betaprime_params(cfg.scheme, cfg.M, cfg.U)
        emp = run_cdf_experiment(cfg, mode="marginal", gamma_grid=grid,
                                 workers=workers)
        rows = []
        sf = np.array([betaprime_sf(g, params) for g in grid])
        small = np.array(
            [asymptote_small_gamma(g, cfg.scheme, cfg.M, cfg.U) for g in grid]
        )
        tail = np.array([asymptote_tail(g, params) for g in grid])
        rows += _analytic_rows(grid, emp.analytic, "analytic_cdf")
        rows += _analytic_rows(grid, sf, "analytic_sf")
        rows += _analytic_rows(grid, small, "small_gamma_asymptote")
        rows += _analytic_rows(grid, tail, "tail_asymptote")
        rows += _empirical_rows(grid, 1.0 - emp.empirical.values(),
                                emp.realizations, "empirical_sf")
        name = f"fig5_{cfg.scheme.lower()}.csv"
        write_curve_csv(os.path.join(out_dir, name), rows)
        manifest.outputs.append(name)
        manifest.experiments.append(
            (f"fig5_{cfg.scheme.lower()}", "realizations", emp.realizations)
        )
        print(f"fig5 {cfg.scheme}: grid {len(grid)} points, "
              f"marginal n={emp.realizations}")


def run_sweep(config: SystemConfig, out_dir: str, workers: int,
              manifest: RunManifest, grids: dict) -> None:
    """Outage over the grid; every point is built and checked before the
    first one runs, so a bad point writes no CSV.

    The points of one (M, U), which differ only in the scheme, N and W,
    form a frame group that run_outage_group serves from one frame draw per
    chunk.  ZF is skipped where M < U, so such a group holds MRT points
    only.
    """
    per_user = {U: {name: _per_user(getattr(config, name), U, name)
                    for name in ("beta", "powers")} for U in grids["U"]}
    # (grid index, config) pairs per (M, U); the grid order is scheme-major.
    cells = {(M, U): [] for M in grids["M"] for U in grids["U"]}
    index = 0
    for scheme in grids["scheme"]:
        for M in grids["M"]:
            for U in grids["U"]:
                if scheme == "ZF" and M < U:
                    print(f"sweep: skipping ZF M={M} < U={U}")
                    continue
                for N in grids["N"]:
                    for W in grids["W"]:
                        try:
                            cfg = replace(config, M=M, U=U, N=N, W=W,
                                          scheme=scheme, **per_user[U])
                        except ValueError as exc:
                            raise ConfigError(
                                f"sweep point scheme={scheme} M={M} U={U} "
                                f"N={N} W={W:g}: {exc}") from exc
                        cells[M, U].append((index, cfg))
                        index += 1
    groups = [tuple(zip(*cell)) for cell in cells.values() if cell]
    # Several groups share one pool, each group whole in one worker; a
    # single group keeps chunk-level parallelism.  The pool gets the groups
    # largest work estimate first (_group_work), ties in grid order, so no
    # worker is left idle while the last heavy group runs.  Every chunk has
    # its own stream, so the CSVs do not depend on where or when a group
    # runs.  Each group's CSVs are written as soon as it completes, so the
    # parent formats while the workers still run; the manifest lists them
    # in grid order.  On any failure the queued groups are cancelled, not
    # run, and main removes every CSV already written (manifest.outputs).
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
                    for i, (_, group) in enumerate(groups))
        for i, group_results in done:
            indices, group = groups[i]
            written.update(zip(indices, _write_sweep_group(
                group, group_results, out_dir, manifest)))
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
    rows = [written[i] for i in sorted(written)]
    manifest.outputs[start:] = [name for name, _ in rows]
    manifest.experiments += [(name[:-4], "realizations", n) for name, n in rows]


def _write_sweep_group(group: list[SystemConfig], results, out_dir: str,
                       manifest: RunManifest) -> list[tuple[str, int]]:
    """Write one frame group's CSVs, each listed in manifest.outputs once
    it exists; returns (file name, realizations) per point.

    Each curve object of the results' maps is formatted once: the points
    of one (shapes, selectable count) share their W-invariant curves'
    objects (run_outage_group), also after the pickling of a pool worker's
    results.  One gamma,gamma_db cache serves the group.
    """
    gamma_text: dict = {}
    texts: dict = {}
    rows = []
    for cfg, res in zip(group, results):
        for curve_id, curve in res.curves.items():
            if id(curve) not in texts:
                texts[id(curve)] = curve_text(
                    _curve_rows(res.gamma_grid, curve_id, curve), gamma_text)
        name = (f"sweep_{cfg.scheme.lower()}_M{cfg.M}_U{cfg.U}_"
                f"N{cfg.N}_W{cfg.W:g}.csv")
        write_curve_csv(os.path.join(out_dir, name),
                        "".join(texts[id(curve)] for curve in res.curves.values()))
        manifest.outputs.append(name)
        rows.append((name, res.realizations))
        print(f"sweep: wrote {name}")
    return rows


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
