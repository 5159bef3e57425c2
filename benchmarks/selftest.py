"""Self-test of the benchmark at tiny sizes.

    python3 benchmarks/selftest.py

Run it from the root of a checkout; it imports fama_lab from ./src.  It checks
that:

1. traced and untraced calls on the same seed write bit-identical CSVs on each
   kind of workload, a sweep whose chunks run in forked pool workers included,
   so tracing does not perturb the Philox streams; and that the traced call
   yields every per-layer metric of BENCHMARK.json with no target absent;
2. an untraced run yields every end-to-end metric;
3. a missing target or a counter that no longer fits is reported as absent,
   and uninstalling restores the original functions;
4. run.py prints a result whose metrics match BENCHMARK.json by name and
   unit, and fails without a result where only BENCHMARK.json and the
   benchmark's files exist.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(ROOT / "src"))

from fama_lab import mc_engine  # noqa: E402

import layers  # noqa: E402
import worker  # noqa: E402
from tracer import Target, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "outage_mrt_wide": lambda: worker.OutageWorkload(
        3000, M=8, U=4, N=8, W=4.0, scheme="MRT", reference_mode="member"),
    "outage_zf_gram": lambda: worker.OutageWorkload(
        3000, M=16, U=8, N=2, W=0.25, scheme="ZF", reference_mode="external"),
    # Just over one 16 384-realization chunk, so each point runs two chunks
    # in a 2-worker pool.
    "sweep_cli_pool": lambda: worker.SweepWorkload(
        16_500, workers=2,
        axes={"M": (4,), "U": (2,), "N": (2,), "W": (0.25,), "scheme": ("MRT", "ZF")}),
}


class SelfTestFailure(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)


def names(kind: str) -> list[str]:
    return [m["name"] for m in SPEC[kind]]


def test_traced_matches_untraced(tmp: Path) -> None:
    for name, make in TINY.items():
        workload = make()
        os.environ["FAMA_LAB_WORKERS"] = str(workload.workers)
        tracer = Tracer(layers.PACKAGE, layers.TARGETS, tmp / f"spool-{name}")
        with tracer:
            workload.setup()
        records, metrics, detail = worker.run_traced(
            workload, 7, 0.0, tmp, tracer, tracer.collect())
        problems = [p for r in records for p in r.problems]
        expect(not problems, f"{name}: {problems}")
        expect(records[0].digest == records[1].digest, f"{name}: digests differ")
        missing = sorted(set(names("per_layer")) - set(metrics))
        expect(not missing, f"{name}: per-layer metrics missing: {missing}")
        expect(not detail["absent_targets"], f"{name}: absent {detail['absent_targets']}")
        if name == "sweep_cli_pool":
            expect(metrics["mc_engine.pools_started"] == metrics["mc_engine.chunked_calls"] == 4,
                   f"sweep: pools {metrics['mc_engine.pools_started']}")
            expect(metrics["mc_engine.select_bin_s"] > 0.0, "sweep: no spans from pool workers")


def test_untraced_metrics(tmp: Path) -> None:
    workload = TINY["outage_mrt_wide"]()
    os.environ["FAMA_LAB_WORKERS"] = "1"
    workload.setup()
    records, metrics, _ = worker.run_untraced(workload, 7, 0.0, tmp)
    expect(not records[0].problems, f"{records[0].problems}")
    missing = sorted(set(names("end_to_end")) - set(metrics) - {"setup_s"})
    expect(not missing, f"end-to-end metrics missing: {missing}")


def test_absent_targets(tmp: Path) -> None:
    original = mc_engine._cgauss
    tracer = Tracer(layers.PACKAGE, [
        Target("fama_lab.mc_engine:_no_such_kernel"),
        Target("fama_lab.mc_engine:_cgauss", lambda a, r: {"normals": a["no_such_arg"]}),
    ], tmp / "spool-absent")
    workload = TINY["outage_mrt_wide"]()
    workload.setup()
    with tracer:
        expect(mc_engine._cgauss is not original, "target not wrapped")
        workload.call(7, tmp)
    expect(mc_engine._cgauss is original, "uninstall did not restore the target")
    expect(tracer.absent == ["mc_engine._no_such_kernel"], f"absent: {tracer.absent}")
    expect(tracer.broken_counters == {"mc_engine._cgauss"}, f"{tracer.broken_counters}")
    _, absent = layers.layer_metrics(tracer.collect(), 1, [], tracer.absent,
                                     tracer.broken_counters)
    expect("randlin.normals" in absent, f"absent metrics: {absent}")


def run_launcher(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "outage_mrt_wide",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def test_launcher(tmp: Path) -> None:
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_launcher(ROOT, trace)
        expect(proc.returncode == 0, f"run.py --trace {trace} failed: {proc.stderr[-500:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{sorted(result)}")
        expect(result["correct"] and result["failed"] == 0, f"{result}")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        want = {m["name"]: m["unit"] for m in SPEC[kind]}
        expect(got == want, f"--trace {trace}: metrics {got} != {want}")


def test_launcher_without_program(tmp: Path) -> None:
    bare = tmp / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_launcher(bare, 0)
    expect(proc.returncode != 0, "run.py succeeded without a program")
    expect('"correct"' not in proc.stdout, "run.py printed a result without a program")


def main() -> int:
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    failed = 0
    for test in (test_traced_matches_untraced, test_untraced_metrics, test_absent_targets,
                 test_launcher, test_launcher_without_program):
        tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".bench_tmp"))
        try:
            test(tmp)
            print(f"PASS {test.__name__}")
        except SelfTestFailure as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    try:
        (ROOT / ".bench_tmp").rmdir()
    except OSError:
        pass
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
