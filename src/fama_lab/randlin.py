"""Reproducible random streams and the integer-shape Gamma sampler.

Streams are counter-based: a (seed, stream_id) pair keys a Philox generator,
so chunked Monte-Carlo runs produce identical numbers regardless of how many
workers consume the chunks.  Channels, beams and SIRs are drawn in batches
by the chunk kernels of mc_engine; the per-port kernel draws, per
realization, the triangular factor of the reference channels (r = min(M, U)
Gammas and the CN(0, 1) entries above the diagonal) and then r-dimensional
CN(0, I) innovations for ports 2..P.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["RngStream", "gamma_variates"]

_GAMMA_SUM_LIMIT = 32
_MASK64 = (1 << 64) - 1


@dataclass
class RngStream:
    """One independent, reproducible random stream.

    Identical (seed, stream_id) pairs replay bit-identical sequences;
    distinct stream_ids give statistically independent streams.  A stream is
    single-owner: share the ids, not the live generator.
    """

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator | None = field(default=None, repr=False, compare=False)

    def generator(self) -> np.random.Generator:
        if self._gen is None:
            key = np.array(
                [self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64
            )
            self._gen = np.random.Generator(np.random.Philox(key=key))
        return self._gen


def gamma_variates(gen: np.random.Generator, shape: int, size: int) -> np.ndarray:
    """Gamma(shape, 1) batch: summed unit exponentials for small integer shape."""
    if shape != int(shape) or shape < 1:
        raise ValueError(f"shape must be an integer >= 1, got {shape}")
    shape = int(shape)
    if shape <= _GAMMA_SUM_LIMIT:
        return gen.standard_exponential((size, shape)).sum(axis=1)
    return gen.gamma(shape, 1.0, size=size)
