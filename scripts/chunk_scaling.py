"""Chunk throughput of the outage kernel against M, U and chunk rows.

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 PYTHONPATH=src \
        python3 scripts/chunk_scaling.py --repeats 15 --baseline OTHER/src

Times one call of mc_engine._chunk_outage_physical, the chunk kernel of
every outage run (fig4, sweep and the benchmark workloads), per (scheme, M,
U, rows).  Each call serves one config at --N ports over an aperture of
--W wavelengths (defaults N=8, W=4: MRT in member mode, 8 ports; ZF in
external mode, 9 ports; ZF points with M < U are skipped) and bins its
selection curve over its selectable ports on DEFAULT_GAMMA_GRID, with the
arguments mc_engine._outage_physical_args builds.  Prints one JSON object
with the median realizations per second of each point.  --rows is the
realizations per call (default CHUNK_SIZE), so several values compare
chunk sizes.  With one --U value (the default is 4) the points are named
SCHEME_M<M> and "U" is that value; with several they are named
SCHEME_M<M>_U<U> and "U" is the list.  With several --rows values each
name gains _R<rows> and "rows" is the list.  With --baseline, the fama_lab
package under that src/ directory is imported under another name and its
kernel is timed call by call in alternation with this one, on the same
arguments, so a drift in machine speed hits both alike; the ratio reported
is the median over the pairs of calls.  The baseline's kernel must take
the same arguments.  The outage_zf_gram benchmark's chunk (M=16, U=8, N=2,
W=0.25) and its smaller-U neighbours are

    PYTHONPATH=src python3 scripts/chunk_scaling.py --M 16 --U 2,4,8 \
        --N 2 --W 0.25 --baseline OTHER/src
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

from fama_lab.channel_geom import SystemConfig, selectable_port_indices
from fama_lab.mc_engine import (
    CHUNK_SIZE,
    DEFAULT_GAMMA_GRID,
    _chunk_outage_physical,
    _outage_physical_args,
)
from fama_lab.randlin import RngStream


def load_baseline(src: Path):
    """The fama_lab package under src/, imported as baseline_fama_lab."""
    spec = importlib.util.spec_from_file_location(
        "baseline_fama_lab", src / "fama_lab" / "__init__.py",
        submodule_search_locations=[str(src / "fama_lab")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    return package


def call_seconds(kernel, stream_type, index: int, args: tuple) -> float:
    start = time.perf_counter()
    kernel(stream_type(1, index), *args)
    return time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--M", default="4,8,16,32,64", help="comma list of M values")
    parser.add_argument("--U", default="4", help="comma list of U values")
    parser.add_argument("--N", type=int, default=8, help="ports per user")
    parser.add_argument("--W", type=float, default=4.0,
                        help="aperture in wavelengths")
    parser.add_argument("--rows", default=str(CHUNK_SIZE),
                        help="comma list of realizations per call")
    parser.add_argument("--baseline", type=Path, help="src/ directory of a version to compare")
    args = parser.parse_args()
    kernels = {"change": (_chunk_outage_physical, RngStream)}
    if args.baseline:
        base = load_baseline(args.baseline)
        kernels["baseline"] = (base.mc_engine._chunk_outage_physical,
                               base.randlin.RngStream)
    users = [int(u) for u in args.U.split(",")]
    rows = [int(n) for n in args.rows.split(",")]
    grid = [(scheme, M, U, n) for U in users for scheme in ("MRT", "ZF")
            for M in (int(m) for m in args.M.split(","))
            if scheme == "MRT" or M >= U for n in rows]
    points = {}
    for scheme, M, U, n in grid:
        cfg = SystemConfig(M=M, U=U, N=args.N, W=args.W, scheme=scheme)
        curves = [(0, tuple(selectable_port_indices(cfg)))]
        call = (n, *_outage_physical_args([cfg], curves, DEFAULT_GAMMA_GRID))
        times = {name: [] for name in kernels}
        for name, (kernel, stream) in kernels.items():
            call_seconds(kernel, stream, 0, call)  # warm-up
        for i in range(args.repeats):
            # Alternate which version runs first in each pair of calls.
            order = list(kernels) if i % 2 == 0 else list(reversed(kernels))
            for name in order:
                kernel, stream = kernels[name]
                times[name].append(call_seconds(kernel, stream, i + 1, call))
        point = {name: round(n / statistics.median(t))
                 for name, t in times.items()}
        if "baseline" in times:
            point["speedup"] = round(statistics.median(
                b / c for b, c in zip(times["baseline"], times["change"])), 3)
        key = f"{scheme}_M{M}" if len(users) == 1 else f"{scheme}_M{M}_U{U}"
        points[key if len(rows) == 1 else f"{key}_R{n}"] = point
    print(json.dumps({"chunk_size": CHUNK_SIZE,
                      "rows": rows[0] if len(rows) == 1 else rows,
                      "U": users[0] if len(users) == 1 else users,
                      "N": args.N, "W": args.W,
                      "realizations_per_s": points}))


if __name__ == "__main__":
    main()
