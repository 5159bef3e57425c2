"""Reproducible random streams.

A (seed, stream_id) pair keys its own SFC64 generator through numpy's
SeedSequence, so chunked Monte-Carlo runs produce identical numbers
regardless of how many workers consume the chunks: each chunk's stream is
rebuilt from its pair wherever it runs.  Channels, beams and SIRs are drawn
in batches by the chunk kernels of mc_engine.  A frame chunk draws, n each,
batch-last: the r = min(M, U) diagonal Gammas of the reference channels'
triangular factor row by row, the normals of its entries above the
diagonal entry by entry, then the innovations of ports 2..P port by port.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["RngStream"]

_MASK64 = (1 << 64) - 1


@dataclass
class RngStream:
    """One independent, reproducible random stream.

    Identical (seed, stream_id) pairs replay bit-identical sequences;
    distinct stream_ids give statistically independent streams.  The
    generator is the stream_id-th child of SeedSequence(seed), built
    directly from its spawn key; both numbers are taken modulo 2^64.  A
    stream is single-owner: share the ids, not the live generator.
    """

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator | None = field(default=None, repr=False, compare=False)

    def generator(self) -> np.random.Generator:
        if self._gen is None:
            seq = np.random.SeedSequence(self.seed & _MASK64,
                                         spawn_key=(self.stream_id & _MASK64,))
            self._gen = np.random.Generator(np.random.SFC64(seq))
        return self._gen
