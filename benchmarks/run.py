"""fama-lab benchmark: run one workload and print its metrics.

    python3 benchmarks/run.py --workload outage_mrt_wide --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it measures the fama_lab in ./src and
reads the workloads and metric units from ./BENCHMARK.json.  See
benchmarks/README.md for the workloads, metrics and the layer map.

This launcher imports only the standard library.  It times the set-up of
fresh worker processes (worker.py --setup-only), then starts one worker for
the measured run, each with BLAS/OpenMP threads pinned to 1.  The last line
of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
With --workload all, each workload's result line also names the workload
and its failed fraction, and the exit code is 1 if any call failed.
Exits non-zero without a result if the checkout has no fama_lab or a worker
does not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP_PARENT = ROOT / ".bench_tmp"
# Set-up is timed in this many fresh processes (the measured run's own
# set-up is one more sample), after one untimed process that warms the
# file cache and writes bytecode.
SETUP_PROBES = 6
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEADLINE_S = 175.0


class WorkerError(RuntimeError):
    pass


def run_worker(args: argparse.Namespace, tmp: Path, deadline: float,
               setup_only: bool = False) -> tuple[dict, list[str]]:
    """Start worker.py, wait for it, and return its result and detail lines."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINNED_THREADS)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp", str(tmp)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise WorkerError("worker did not finish in time") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith('{"result"'):
        raise WorkerError(f"worker exited with code {proc.returncode} and no result")
    return json.loads(lines[-1])["result"], lines[:-1]


def measure(args: argparse.Namespace, spec: dict, tmp: Path, deadline: float) -> dict:
    setup = []
    if args.trace == 0:
        run_worker(args, tmp, deadline, setup_only=True)
        setup = [run_worker(args, tmp, deadline, setup_only=True)[0]
                 for _ in range(SETUP_PROBES)]
    result, details = run_worker(args, tmp, deadline)
    for line in details:
        print(line)
    values = dict(result["metrics"])
    if args.trace == 0:
        setup.append(result)
        values["setup_s"] = statistics.median(s["setup_s"] for s in setup)
        print(json.dumps({"setup_samples": [
            {k: s[k] for k in ("setup_s", "setup_raw_s", "reference_s")} for s in setup]}))
    metric_list = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in metric_list if m["name"] not in values]
    if missing:
        raise WorkerError(f"worker reported no value for {missing}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metric_list},
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="fama-lab benchmark")
    parser.add_argument("--workload", required=True, choices=workloads + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "fama_lab" / "__init__.py").is_file():
        print(f"no fama_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(json.dumps({"load_average_at_start": os.getloadavg()}))
    TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_PARENT))
    status = 0
    try:
        for name in workloads if args.workload == "all" else [args.workload]:
            one = argparse.Namespace(**{**vars(args), "workload": name})
            outcome = measure(one, spec, tmp, time.monotonic() + DEADLINE_S)
            if args.workload == "all":
                status |= 0 if outcome["correct"] else 1
                fraction = outcome["failed"] / outcome["attempted"]
                outcome = {"workload": name, "failed_fraction": fraction, **outcome}
            print(json.dumps(outcome))
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass  # another run still uses it
    return status


if __name__ == "__main__":
    sys.exit(main())
