"""Pointwise coverage of the nested outage interval at outage_zf_gram's config.

    OMP_NUM_THREADS=1 PYTHONPATH=src python3 scripts/nested_coverage.py \
        --runs 200 --reference-chunks 1000

Runs --runs outage runs (run_outage_experiment) of --rows rows each
(default 32 768, the benchmark workload's) of the outage_zf_gram config,
ZF, M=16, U=8, N=2, W=0.25, external mode, which the nesting rule runs at
K = 4 rows per channel draw.  Run i has seed --seed + i.  The reference
curve is one long K = 1 run of the same config: --reference-chunks chunks
of mc_engine._chunk_outage_physical at inner = 1, on seed --seed - 1.

For each grid point whose reference outage lies in [0.005, 0.995] it
counts the runs whose 95% interval covers the reference.  It prints the
mean and the least of that pointwise coverage, per band of reference
outage too, for the nested interval (_outage_curve at the clusters' Kish
effective size) and for the rows' own Wilson interval, which ignores the
shared channel draws.  It also prints the design effect, the mean of
(nested half-width / row Wilson half-width)^2, near outage 1e-2 and 0.5.
It exits 1 if the nested interval's mean coverage falls below --level
(default 0.93, the level stated before the first run).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from fama_lab import mc_engine
from fama_lab.channel_geom import SystemConfig, selectable_port_indices
from fama_lab.randlin import RngStream

BANDS = ((0.005, 0.02), (0.02, 0.2), (0.2, 0.8), (0.8, 0.995))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=200)
    parser.add_argument("--rows", type=int, default=32_768)
    parser.add_argument("--reference-chunks", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=1_000)
    parser.add_argument("--level", type=float, default=0.93)
    args = parser.parse_args()

    cfg = SystemConfig(M=16, U=8, N=2, W=0.25, scheme="ZF",
                       reference_mode="external")
    grid = mc_engine.DEFAULT_GAMMA_GRID
    plain = mc_engine._outage_physical_args(
        [cfg], [(0, tuple(selectable_port_indices(cfg)))], grid, 1)
    reference = sum(
        mc_engine._chunk_outage_physical(RngStream(args.seed - 1, i),
                                         mc_engine.CHUNK_SIZE, *plain)[0][0]
        for i in range(args.reference_chunks))
    reference = reference / (args.reference_chunks * mc_engine.CHUNK_SIZE)

    covered = np.zeros(len(grid))
    naive = np.zeros(len(grid))
    deff = np.zeros(len(grid))
    inner = None
    for i in range(args.runs):
        res = mc_engine.run_outage_experiment(
            dataclasses.replace(cfg, seed=args.seed + i),
            realizations=args.rows)
        inner = res.inner_draws
        p, half = res.curves["empirical_correlated"]
        wilson = mc_engine.wilson_half_width(p, args.rows)
        covered += np.abs(p - reference) <= half
        naive += np.abs(p - reference) <= wilson
        deff += (half / wilson) ** 2
    covered, naive, deff = covered / args.runs, naive / args.runs, deff / args.runs

    points = (reference >= BANDS[0][0]) & (reference <= BANDS[-1][1])
    print(f"ZF M=16 U=8 N=2 W=0.25 external, K = {inner}: {args.runs} runs of "
          f"{args.rows} rows against a K = 1 reference of "
          f"{args.reference_chunks * mc_engine.CHUNK_SIZE} rows; "
          f"{int(points.sum())} grid points")
    print(f"  nested interval: mean coverage {covered[points].mean():.4f}, "
          f"least {covered[points].min():.4f} (level {args.level})")
    print(f"  row Wilson:      mean coverage {naive[points].mean():.4f}, "
          f"least {naive[points].min():.4f}")
    for low, high in BANDS:
        band = (reference >= low) & (reference < high)
        print(f"  reference in [{low}, {high}): {int(band.sum()):3d} points, "
              f"nested {covered[band].mean():.4f}, row Wilson {naive[band].mean():.4f}")
    for target in (1e-2, 0.5):
        j = int(np.argmin(np.abs(np.log(reference[points] / target))))
        print(f"  design effect near outage {target:g} "
              f"(reference {reference[points][j]:.4f}): {deff[points][j]:.3f}")
    return 0 if covered[points].mean() >= args.level else 1


if __name__ == "__main__":
    sys.exit(main())
