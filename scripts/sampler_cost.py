"""Cost per draw of the two exact Beta-prime samplers against min(a, b).

    OMP_NUM_THREADS=1 PYTHONPATH=src python3 scripts/sampler_cost.py --repeats 15

mc_engine.marginal_model_sample draws Beta-prime(a, b) as a sum of
k = min(a, b) exponentials (Renyi's representation) when k is at most
mc_engine._RENYI_MAX_TERMS, and as a ratio of two Gammas above it.  This
script times both representations through that function, with the
constant set to cover every k (Renyi) or none (Gamma ratio), for
k = 1..--max-k at shapes a = k + 2, b = k (a > b, the orientation of the
MRT laws, which pays the reciprocal).  Each repeat times --calls calls of
8 * CHUNK_SIZE draws (the i.i.d. chunk of an 8-port outage run) per
representation, the two alternating so that a drift in machine speed hits
both alike.  An 8 MiB array is freed first, as the benchmark's reference
computation does, so glibc serves the draws from a warm heap rather than
faulting in fresh pages on every call.  Prints one line per k with the
median ns per draw of each and their ratio, then the largest k up to
which the exponential sum is never the dearer: the value for
_RENYI_MAX_TERMS on this machine.

The exponentials are inverted uniforms, -log(1 - U), scaled by a
multiply.  On a 2-core Xeon VM (Python 3.11, numpy 2.4) two runs read the
sum at 6.8-6.9 ns against 24.4-25.7 ns at k = 1 (0.27-0.28x), 36 ns
against 37 ns at k = 8 (0.97-0.98x) and 1.08-1.11x at k = 9, so 8.  With
numpy's ziggurat standard_exponential and a divide per term the parity
sat at k = 6.
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from fama_lab import mc_engine
from fama_lab.analytic_stats import BetaPrimeParams
from fama_lab.mc_engine import CHUNK_SIZE, marginal_model_sample
from fama_lab.randlin import RngStream


def ns_per_draw(params: BetaPrimeParams, max_terms: int, size: int,
                calls: int) -> float:
    """Mean ns per draw over `calls` calls of marginal_model_sample with
    _RENYI_MAX_TERMS set to `max_terms`."""
    saved = mc_engine._RENYI_MAX_TERMS
    mc_engine._RENYI_MAX_TERMS = max_terms
    try:
        streams = [RngStream(1, i) for i in range(calls)]
        for stream in streams:  # build the generators outside the timing
            stream.generator()
        start = time.perf_counter()
        for stream in streams:
            marginal_model_sample(stream, params, size)
        return (time.perf_counter() - start) / (calls * size) * 1e9
    finally:
        mc_engine._RENYI_MAX_TERMS = saved


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-k", type=int, default=12)
    parser.add_argument("--calls", type=int, default=20)
    parser.add_argument("--repeats", type=int, default=9)
    args = parser.parse_args()
    np.empty(1 << 20)  # freed at once: glibc's mmap threshold rises to 8 MiB
    size = 8 * CHUNK_SIZE
    print(f"_RENYI_MAX_TERMS = {mc_engine._RENYI_MAX_TERMS}; size {size}, "
          f"{args.calls} calls x {args.repeats} repeats, a = k + 2")
    print(" k  renyi_ns  gamma_ns  renyi/gamma")
    parity = 0
    for k in range(1, args.max_k + 1):
        params = BetaPrimeParams(k + 2, k)
        renyi, gamma = [], []
        for _ in range(args.repeats):
            renyi.append(ns_per_draw(params, k, size, args.calls))
            gamma.append(ns_per_draw(params, 0, size, args.calls))
        r, g = statistics.median(renyi), statistics.median(gamma)
        if r <= g and parity == k - 1:
            parity = k
        print(f"{k:2d}  {r:8.1f}  {g:8.1f}  {r / g:11.3f}")
    print(f"exponential sum no dearer up to k = {parity}")


if __name__ == "__main__":
    main()
