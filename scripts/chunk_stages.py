"""Where one outage chunk's time goes, stage by stage.

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 PYTHONPATH=src \
        python3 scripts/chunk_stages.py --chunks 100

Runs mc_engine._chunk_outage_physical, the chunk kernel of every outage run,
on --chunks chunks of --rows realizations (default CHUNK_SIZE) of one config,
one stream per chunk, and prints the median milliseconds per chunk of each
stage, one line each:

    R               _reference_factor (and any ZF redraw of it)
    innovations     _draw_frame less R and the beams: the port innovations
    beams           _weights_for_scheme and _column_sq_norms, less the
                    redraws counted under R
    SIRs            _frame_sirs
    select and bin  the rest of the kernel: selection, binning, counting
    chunk           the whole kernel call
    iid chunk       one _chunk_outage_iid call of the config's shapes and
                    selectable port count, timed on its own

Each stage's time is its own: a wrapper around the module-level function
records its duration less that of the wrapped functions it calls, so the
first five lines add up to the chunk.

--inner K runs the chunk nested, K rows per channel draw (default: the
config's own K, mc_engine._inner_draws).  Three more lines then give the
costs that the nesting rule's constants (_FRAME_MS, _ROWS_MS) are fitted
to, in ms per CHUNK_SIZE of each, and their ratio beside the cost model's:

    c_R             R and beams per frame drawn
    c_in            innovations, SIRs, select and bin per row

At K = 1 they split the chunk itself; at K = 4 a chunk of --rows rows
draws --rows / 4 frames.  A function the package on PYTHONPATH
lacks is not wrapped, so another tree's src/ can be timed the same way.
The defaults are the outage_mrt_wide benchmark workload's config (MRT, M=8,
U=4, N=8, W=4, member mode); outage_zf_gram's is

    PYTHONPATH=src python3 scripts/chunk_stages.py --scheme ZF --M 16 \
        --U 8 --N 2 --W 0.25

Before timing, one 8 MB array is freed, which raises glibc's dynamic mmap
threshold as the benchmark's reference computation does, and --warmup
chunks run untimed, so every chunk runs on a warm heap.
"""

from __future__ import annotations

import argparse
import statistics
import time
from collections import defaultdict

import numpy as np

from fama_lab import mc_engine
from fama_lab.analytic_stats import betaprime_params
from fama_lab.channel_geom import SystemConfig, selectable_port_indices
from fama_lab.randlin import RngStream

# Stage -> the mc_engine functions whose own time it sums.
STAGES = {
    "R": ("_reference_factor",),
    "innovations": ("_draw_frame",),
    "beams": ("_weights_for_scheme", "_column_sq_norms"),
    "SIRs": ("_frame_sirs",),
    "select and bin": ("_chunk_outage_physical",),
}


class StageClock:
    """Own seconds per stage: a call's duration less its wrapped callees'."""

    def __init__(self) -> None:
        self.own = defaultdict(float)
        self._children = []

    def wrap(self, stage: str, fn):
        def timed(*args, **kwargs):
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                total = time.perf_counter() - start
                self.own[stage] += total - self._children.pop()
                if self._children:
                    self._children[-1] += total
        return timed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scheme", default="MRT", choices=("MRT", "ZF"))
    parser.add_argument("--M", type=int, default=8)
    parser.add_argument("--U", type=int, default=4)
    parser.add_argument("--N", type=int, default=8, help="ports per user")
    parser.add_argument("--W", type=float, default=4.0, help="aperture in wavelengths")
    parser.add_argument("--rows", type=int, default=mc_engine.CHUNK_SIZE,
                        help="realizations per chunk")
    parser.add_argument("--chunks", type=int, default=100, help="timed chunks")
    parser.add_argument("--warmup", type=int, default=5, help="untimed chunks first")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--inner", type=int,
                        help="rows per channel draw (default: the config's own)")
    args = parser.parse_args()

    cfg = SystemConfig(M=args.M, U=args.U, N=args.N, W=args.W, scheme=args.scheme)
    selectable = tuple(selectable_port_indices(cfg))
    grid = mc_engine.DEFAULT_GAMMA_GRID
    call = (args.rows, *mc_engine._outage_physical_args([cfg], [(0, selectable)], grid))
    # A tree without nested draws runs every chunk at K = 1.
    nested = hasattr(mc_engine, "_inner_draws")
    inner = args.inner or (mc_engine._inner_draws(cfg) if nested else 1)
    if nested:
        call = call[:-1] + (inner,)
    elif inner != 1:
        parser.error("--inner: this tree's mc_engine has no nested draws")
    params = betaprime_params(cfg.scheme, cfg.M, cfg.U)
    iid_call = (args.rows, params.a, params.b, len(selectable), grid)

    clock = StageClock()
    for stage, names in STAGES.items():
        for name in names:
            if hasattr(mc_engine, name):
                setattr(mc_engine, name, clock.wrap(stage, getattr(mc_engine, name)))
    kernel = mc_engine._chunk_outage_physical

    np.ones(1 << 20)  # 8 MB, freed at once: the mmap threshold rises above it
    per_stage = defaultdict(list)
    for i in range(-args.warmup, args.chunks):
        clock.own.clear()
        start = time.perf_counter()
        kernel(RngStream(args.seed, i + args.warmup), *call)
        chunk_s = time.perf_counter() - start
        start = time.perf_counter()
        mc_engine._chunk_outage_iid(RngStream(args.seed, i + args.warmup), *iid_call)
        iid_s = time.perf_counter() - start
        if i >= 0:
            for stage in STAGES:
                per_stage[stage].append(clock.own[stage])
            per_stage["chunk"].append(chunk_s)
            per_stage["iid chunk"].append(iid_s)

    print(f"{cfg.scheme} M={cfg.M} U={cfg.U} N={cfg.N} W={cfg.W:g} "
          f"rows={args.rows} inner={inner}: median ms per chunk over "
          f"{args.chunks} chunks")
    ms = {stage: 1e3 * statistics.median(seconds)
          for stage, seconds in per_stage.items()}
    for stage, value in ms.items():
        print(f"  {stage:<15} {value:7.3f}")
    if not nested:
        return
    # Both per CHUNK_SIZE: of frames for c_R, of rows for c_in.
    frames = -(-args.rows // inner)
    c_r = (ms["R"] + ms["beams"]) * mc_engine.CHUNK_SIZE / frames
    c_in = ((ms["innovations"] + ms["SIRs"] + ms["select and bin"])
            * mc_engine.CHUNK_SIZE / args.rows)
    ratio = mc_engine._nest_ratio(cfg.U, mc_engine.geometry_for_config(cfg).num_ports)
    print(f"  {'c_R':<15} {c_r:7.3f}")
    print(f"  {'c_in':<15} {c_in:7.3f}")
    print(f"  c_R / c_in {c_r / c_in:.2f}, model {ratio:.2f}; nested at "
          f">= {mc_engine._NEST_MIN_RATIO:g} under ZF in external mode")


if __name__ == "__main__":
    main()
