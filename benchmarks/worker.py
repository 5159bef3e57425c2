"""One benchmark run of one fama-lab workload, in a fresh process.

run.py starts this file with BLAS/OpenMP threads pinned to 1 and PYTHONPATH
set to the checkout's src/.  The process imports numpy and fama_lab and
builds the workload's configs and geometry (the set-up), then calls the
program back to back from one caller (a closed loop: the next call is issued
when the previous one returns) until the run's seconds are spent.  Each call
writes its curves through the CLI's own CSV and manifest writers into a fresh
directory; the benchmark reads them back and checks them outside the timed
region.

--trace 0 reports the end-to-end metrics, with times in units of a fixed
reference computation timed around each call.  --trace 1 alternates an untraced
and a traced call on the same seed, counts a call as failed when the two
wrote different bytes, and reports the per-layer metrics.

Prints JSON detail lines, then {"result": ...} as the last line of stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import fama_lab
from fama_lab import channel_geom, cli
from fama_lab.channel_geom import SystemConfig, selectable_port_indices
from fama_lab.mc_engine import DEFAULT_GAMMA_GRID, run_outage_experiment

from layers import PACKAGE, TARGETS, layer_metrics, self_time_table
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
Z95 = 1.959963984540054
# Outage level at which CI half-width per CPU-second is read off.
OUTAGE_TARGET = 1e-2
CSV_HEADER = "gamma,gamma_db,value,ci_low,ci_high,curve_id"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


# ---------------------------------------------------------------------------
# Workloads


@dataclasses.dataclass(frozen=True)
class Expected:
    """What one CSV of a call must hold."""

    a: int              # Beta-prime shapes of the per-port SIR
    b: int
    ports: int          # selectable ports, so the i.i.d. curve is F^ports
    realizations: int
    rows: int


def expected_csv(config: SystemConfig, realizations: int, curves: int) -> Expected:
    a = config.M if config.scheme == "MRT" else config.M - config.U + 1
    return Expected(a=a, b=config.U - 1, ports=len(selectable_port_indices(config)),
                    realizations=realizations, rows=curves * len(DEFAULT_GAMMA_GRID))


class OutageWorkload:
    """`run_outage_experiment` on one config, written out as `fig4` would:
    the empirical curves with their CIs as a CSV, plus a manifest."""

    workers = 1

    def __init__(self, realizations: int, **config):
        self.realizations = realizations
        self.config_args = config

    def setup(self) -> None:
        self.config = SystemConfig(**self.config_args)
        # Built as a user's script would before its first call, so it is
        # timed as set-up; the program builds its own copy in each call.
        channel_geom.geometry_for_config(self.config)
        self.expected = {"outage.csv": expected_csv(self.config, self.realizations, 2)}
        self.realizations_per_call = self.realizations

    def call(self, seed: int, out_dir: Path) -> list[str]:
        cfg = dataclasses.replace(self.config, seed=seed)
        res = run_outage_experiment(cfg, realizations=self.realizations,
                                    workers=self.workers)
        rows = []
        for p, half, curve in ((res.correlated, res.correlated_ci, "empirical_correlated"),
                               (res.iid, res.iid_ci, "empirical_iid")):
            rows += [(g, v, max(0.0, v - c), min(1.0, v + c), curve)
                     for g, v, c in zip(res.gamma_grid, p, half)]
        cli.write_curve_csv(str(out_dir / "outage.csv"), rows)
        cli.RunManifest(
            command="outage", config=cfg, workers=self.workers,
            experiments=[("outage", "realizations", res.realizations),
                         ("outage", "resampled", res.resampled_count),
                         ("outage", "infinite", res.infinite_count)],
            outputs=["outage.csv"],
        ).write(str(out_dir / "manifest.txt"))
        problems = []
        if res.realizations != self.realizations:
            problems.append(f"ran {res.realizations} realizations, asked {self.realizations}")
        selected = self.realizations * self.expected["outage.csv"].ports
        for label, value, limit in (("resampled", res.resampled_count, math.inf),
                                    ("infinite", res.infinite_count, selected)):
            if not (math.isfinite(float(value)) and 0 <= value <= limit):
                problems.append(f"{label} counter {value!r} out of range")
        return problems


class SweepWorkload:
    """`fama-lab sweep` through `cli.main` over a full grid."""

    def __init__(self, realizations: int, workers: int, axes: dict):
        self.realizations = realizations
        self.workers = workers
        self.axes = axes

    def setup(self) -> None:
        self.expected = {}
        for scheme, M, U, N, W in itertools.product(*(self.axes[k] for k in
                                                      ("scheme", "M", "U", "N", "W"))):
            if scheme == "ZF" and M < U:
                continue
            cfg = SystemConfig(M=M, U=U, N=N, W=W, scheme=scheme,
                               realizations=self.realizations)
            channel_geom.geometry_for_config(cfg)
            name = f"sweep_{scheme.lower()}_M{M}_U{U}_N{N}_W{W:g}.csv"
            self.expected[name] = expected_csv(cfg, self.realizations, 7)
        self.argv = ["sweep", "--realizations", str(self.realizations)] + [
            arg for key, values in self.axes.items()
            for arg in (f"--sweep-{key}", ",".join(f"{v:g}" if isinstance(v, float)
                                                   else str(v) for v in values))
        ]
        self.realizations_per_call = self.realizations * len(self.expected)

    def call(self, seed: int, out_dir: Path) -> list[str]:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(self.argv + ["--seed", str(seed), "--out", str(out_dir)])
        return [] if rc == 0 else [f"fama-lab sweep exited with code {rc}"]


WORKLOADS = {
    "outage_mrt_wide": lambda: OutageWorkload(
        98_304, M=8, U=4, N=8, W=4.0, scheme="MRT", reference_mode="member"),
    "outage_zf_gram": lambda: OutageWorkload(
        32_768, M=16, U=8, N=2, W=0.25, scheme="ZF", reference_mode="external"),
    "sweep_cli_pool": lambda: SweepWorkload(
        20_000, workers=min(2, os.cpu_count() or 1),
        axes={"M": (4, 8), "U": (2, 4), "N": (2, 8), "W": (0.25, 4.0),
              "scheme": ("MRT", "ZF")}),
}


# ---------------------------------------------------------------------------
# Output checks


def betaprime_cdf_oracle(gamma: np.ndarray, a: int, b: int) -> np.ndarray:
    """Beta-prime(a, b) CDF for integer shapes as a binomial tail sum in
    y = gamma / (1 + gamma), independent of the program's special functions."""
    y = gamma / (1.0 + gamma)
    n = a + b - 1
    return sum(math.comb(n, j) * y**j * (1.0 - y) ** (n - j) for j in range(a, n + 1))


def parse_curves(text: str) -> tuple[dict, list[str]]:
    """Curve id -> (gamma, value, ci_low, ci_high) arrays of a curve CSV."""
    lines = text.split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        return {}, ["header or trailing newline malformed"]
    rows = {}
    for line in lines[1:-1]:
        *numbers, curve = line.split(",")
        rows.setdefault(curve, []).append([float(x) for x in numbers])
    curves = {}
    for curve, values in rows.items():
        arr = np.array(values)
        curves[curve] = (arr[:, 0], arr[:, 2], arr[:, 3], arr[:, 4])
    return curves, []


def check_curves(curves: dict, exp: Expected) -> list[str]:
    problems = []
    rows = sum(len(c[0]) for c in curves.values())
    if rows != exp.rows:
        problems.append(f"{rows} rows, expected {exp.rows}")
    for curve, (gamma, value, low, high) in curves.items():
        if not all(np.all(np.isfinite(x)) for x in (gamma, value, low, high)):
            problems.append(f"{curve}: non-finite values")
            continue
        if curve.startswith("empirical"):
            if np.any(value < 0.0) or np.any(value > 1.0):
                problems.append(f"{curve}: outside [0, 1]")
            if np.any(np.diff(value) < 0.0):
                problems.append(f"{curve}: decreasing")
            if np.any(low > value) or np.any(high < value):
                problems.append(f"{curve}: CI does not contain the estimate")
    f_n = None
    if "empirical_iid" in curves:
        gamma, value = curves["empirical_iid"][:2]
        f_n = betaprime_cdf_oracle(gamma, exp.a, exp.b) ** exp.ports
        n = exp.realizations
        tol = 7.0 * np.sqrt(f_n * (1.0 - f_n) / n) + 10.0 / n
        worst = float(np.max(np.abs(value - f_n) - tol))
        if worst > 0.0:
            problems.append(f"empirical_iid off analytic F^N by {worst:.3g} beyond 7 binomial sd")
    if "iid_benchmark" in curves and f_n is not None:
        gap = float(np.max(np.abs(curves["iid_benchmark"][1] - f_n)))
        if gap > 1e-9:
            problems.append(f"iid_benchmark differs from F^N by {gap:.3g}")
    return problems


def precision_at(curve, target: float = OUTAGE_TARGET) -> float:
    """(z / CI half-width)^2 of a curve where it crosses `target`, log-log
    interpolated between the bracketing thresholds; 0 if it never crosses."""
    _, value, _, high = curve
    half = high - value
    ok = (value > 0.0) & (value < 1.0) & (half > 0.0)
    value, half = value[ok], half[ok]
    above = np.nonzero(value >= target)[0]
    if len(above) == 0 or above[0] == 0:
        return 0.0
    i = above[0]
    lq = np.log((Z95 / half[i - 1:i + 1]) ** 2)
    lv = np.log(value[i - 1:i + 1])
    if lv[1] == lv[0]:
        return float(math.exp(lq[1]))
    t = (math.log(target) - lv[0]) / (lv[1] - lv[0])
    return float(math.exp(lq[0] + t * (lq[1] - lq[0])))


def check_outputs(expected: dict, out_dir: Path) -> tuple[list[str], float, str]:
    """Problems in a call's output directory, the summed precision of its
    correlated curves, and a digest of its CSV bytes."""
    problems = []
    names = sorted(p.name for p in out_dir.iterdir())
    want = sorted([*expected, "manifest.txt"])
    if names != want:
        problems.append(f"wrote {len(names)} files {names[:3]}..., expected {len(want)}")
    digest = hashlib.sha256()
    precision = 0.0
    for name, exp in sorted(expected.items()):
        path = out_dir / name
        if not path.is_file():
            continue
        data = path.read_bytes()
        digest.update(name.encode() + b"\0" + data)
        curves, bad = parse_curves(data.decode())
        problems += [f"{name}: {m}" for m in bad + check_curves(curves, exp)]
        if "empirical_correlated" in curves:
            precision += precision_at(curves["empirical_correlated"])
    manifest = out_dir / "manifest.txt"
    if manifest.is_file():
        listed = [line for line in manifest.read_text().splitlines()
                  if line.startswith("outputs: ")]
        if listed != ["outputs: " + ", ".join(expected)]:
            problems.append("manifest does not list the written CSVs")
    return problems, precision, digest.hexdigest()


# ---------------------------------------------------------------------------
# Timed calls


@dataclasses.dataclass
class CallRecord:
    wall_s: float
    cpu_s: float
    realizations: int
    precision: float
    digest: str
    problems: list


def cpu_seconds() -> float:
    """CPU seconds of this process and of its children that have ended."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def call_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def timed_call(workload, seed: int, out_dir: Path, tracer: Tracer | None = None) -> CallRecord:
    out_dir.mkdir()
    with tracer or contextlib.nullcontext():
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            with tracer.span("call") if tracer else contextlib.nullcontext():
                problems = workload.call(seed, out_dir)
        except Exception as exc:  # a failed call is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            problems = [f"raised {exc!r}"]
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
    precision, digest = 0.0, ""
    if not problems:
        problems, precision, digest = check_outputs(workload.expected, out_dir)
    shutil.rmtree(out_dir)
    for p in problems[:5]:
        print(f"call seed {seed}: {p}", file=sys.stderr)
    return CallRecord(wall, cpu, workload.realizations_per_call, precision, digest, problems)


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest child (KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


# On a shared virtual machine, speed can drift by 40% over minutes (every
# kind of work slows together), which no run shorter than that averages out.  So the
# benchmark times a fixed reference computation next to every call and
# reports times in units of it.  Set-up, which must be reported in seconds,
# is scaled to a machine on which the reference takes REFERENCE_NOMINAL_S.
REFERENCE_NOMINAL_S = 0.1


def reference_work() -> None:
    """A fixed computation of the kinds the program does (Philox normals, a
    batched complex Gram einsum, a batched Hermitian eigensolve) on fixed
    inputs, independent of fama_lab."""
    gen = np.random.Generator(np.random.Philox(key=0))
    z = gen.standard_normal((8192, 8, 16)).view(np.complex128)
    np.linalg.eigvalsh(np.einsum("nmu,nmv->nuv", z.conj(), z))


def timed_reference() -> tuple[float, float]:
    """Wall and CPU seconds of one `reference_work`."""
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0, time.process_time() - cpu0


def run_untraced(workload, seed: int, seconds: float, tmp: Path) -> tuple[list, dict, dict]:
    """Calls back to back with a timed reference computation after each.

    A call's times are divided by the mean of the references just before
    and just after it, which tracks the machine's speed at that moment.
    """
    records, refs = [], [timed_reference()]
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        i = len(records)
        records.append(timed_call(workload, call_seed(seed, i), tmp / f"call-{i}"))
        refs.append(timed_reference())
    wall_ref = [(a[0] + b[0]) / 2 for a, b in zip(refs, refs[1:])]
    cpu_ref = [(a[1] + b[1]) / 2 for a, b in zip(refs, refs[1:])]
    metrics = {
        "realizations_per_ref": statistics.median(
            r.realizations / r.wall_s * w for r, w in zip(records, wall_ref)),
        "cpu_ref_per_mreal": statistics.median(
            r.cpu_s / c / r.realizations * 1e6 for r, c in zip(records, cpu_ref)),
        "outage_precision_per_cpu_ref": statistics.median(
            r.precision / r.cpu_s * c for r, c in zip(records, cpu_ref)),
        "peak_rss_mib": peak_rss_mib(),
    }
    raw = {
        "realizations_per_s": statistics.median(r.realizations / r.wall_s for r in records),
        "cpu_s_per_mreal": statistics.median(r.cpu_s / r.realizations * 1e6 for r in records),
        "outage_precision_per_cpu_s": statistics.median(r.precision / r.cpu_s for r in records),
        "reference_wall_s": statistics.median(w for w, _ in refs),
        "reference_cpu_s": statistics.median(c for _, c in refs),
    }
    return records, metrics, raw


def run_traced(workload, seed: int, seconds: float, tmp: Path, tracer: Tracer,
               setup_spans: list) -> tuple[list, dict, dict]:
    """Pairs of untraced and traced calls on one seed, alternating which
    goes first so that warm-up favours neither."""
    records, plain, traced, spans = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        k = len(traced)
        seed_k = call_seed(seed, k)
        pair = {}
        for use in ((False, True) if k % 2 == 0 else (True, False)):
            pair[use] = timed_call(workload, seed_k, tmp / f"call-{k}-{int(use)}",
                                   tracer if use else None)
        spans += tracer.collect()
        if pair[True].digest != pair[False].digest and not (pair[True].problems
                                                            or pair[False].problems):
            pair[True].problems.append("traced call wrote other bytes than untraced")
        plain.append(pair[False])
        traced.append(pair[True])
        records += [pair[False], pair[True]]
    calls = len(traced)
    metrics, absent = layer_metrics(spans, calls, setup_spans, tracer.absent,
                                    tracer.broken_counters)
    rate = [r.realizations / r.wall_s for r in plain], [r.realizations / r.wall_s for r in traced]
    metrics["trace.untraced_realizations_per_s"] = statistics.median(rate[0])
    metrics["trace.traced_realizations_per_s"] = statistics.median(rate[1])
    metrics["trace.overhead_pct"] = statistics.median(
        100.0 * (u / t - 1.0) for u, t in zip(*rate))
    metrics["trace.absent_targets"] = float(len(tracer.absent) + len(tracer.broken_counters))
    table = self_time_table(spans, calls)
    wall = statistics.median(r.wall_s for r in traced)
    detail = {
        "self_time_per_call_s": table,
        "absent_metrics": absent,
        "absent_targets": tracer.absent + sorted(tracer.broken_counters),
        "shape": {
            "largest_self_time": next((n for n in table if n != "call"), None),
            "precoding_share_of_call": metrics["precoding.busy_s"] / wall,
            "pools_started_equals_chunked_calls":
                metrics["mc_engine.pools_started"] == metrics["mc_engine.chunked_calls"],
        },
    }
    return records, metrics, detail


def environment(workers: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "workers": workers,
        "fama_lab": fama_lab.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", type=Path, required=True, help="scratch directory")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the launcher started this process")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report only its time")
    args = parser.parse_args(argv)
    if not Path(fama_lab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"fama_lab imported from {fama_lab.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    os.environ["FAMA_LAB_WORKERS"] = str(workload.workers)
    tracer = Tracer(PACKAGE, TARGETS, args.tmp / "spool") if args.trace else None
    with tracer or contextlib.nullcontext():
        workload.setup()
    setup_raw_s = time.monotonic() - args.spawned_at
    reference_work()  # the first one pays numpy's one-time costs
    reference_s = statistics.median(timed_reference()[0] for _ in range(3))
    setup = {"setup_raw_s": setup_raw_s, "reference_s": reference_s,
             "setup_s": setup_raw_s / reference_s * REFERENCE_NOMINAL_S}
    if args.setup_only:
        print(json.dumps({"result": setup}))
        return 0

    print(json.dumps({"environment": environment(workload.workers)}))
    if tracer:
        records, metrics, detail = run_traced(workload, args.seed, args.seconds, args.tmp,
                                              tracer, tracer.collect())
        print(json.dumps({"trace": detail}))
    else:
        records, metrics, raw = run_untraced(workload, args.seed, args.seconds, args.tmp)
        print(json.dumps({"raw": raw}))
    print(json.dumps({"calls": {
        "count": len(records),
        "wall_s": [round(r.wall_s, 4) for r in records],
        "problems": [p for r in records for p in r.problems][:20],
    }}))
    result = {
        **setup,
        "attempted": len(records),
        "failed": sum(1 for r in records if r.problems),
        "metrics": metrics,
    }
    print(json.dumps({"result": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
