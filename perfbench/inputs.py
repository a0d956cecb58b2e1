"""Seeded input generators.

The workloads' inputs are defined here, in the benchmark's own code,
so a change to the program's generators cannot change what the
benchmark feeds it.  Only NumPy is used; the set-up probe generates
its warm-up input before it starts timing the program.
"""

from __future__ import annotations

import numpy as np


def rng(seed: int, *stream: int) -> np.random.Generator:
    """An independent generator per (seed, stream...) tuple."""
    return np.random.default_rng([seed, *stream])


def uniform_keys(n: int, gen: np.random.Generator) -> np.ndarray:
    return gen.integers(0, 1 << 32, size=n, dtype=np.uint32)


def uniform_payloads(n: int, gen: np.random.Generator) -> np.ndarray:
    """Payloads below ``0xFFFFFFFF``, the value the partitioner reserves
    for dummy padding (it rejects inputs that use it)."""
    return gen.integers(0, 0xFFFFFFFF, size=n, dtype=np.uint32)


def zipf_keys(n: int, exponent: float, key_space: int,
              gen: np.random.Generator) -> np.ndarray:
    """Rank ``k`` (1-based) drawn with probability ~ ``k**-exponent``
    and used as the key itself, so small keys are the heavy hitters."""
    cdf = np.cumsum(np.arange(1, key_space + 1, dtype=np.float64)
                    ** -exponent)
    cdf /= cdf[-1]
    ranks = np.searchsorted(cdf, gen.random(n), side="left") + 1
    return ranks.astype(np.uint32)


def log_uniform_sizes(count: int, low: int, high: int,
                      gen: np.random.Generator) -> np.ndarray:
    """``count`` request sizes log-uniform on ``[low, high]``,
    stratified: the same multiset for every seed (one size per
    quantile), in a seeded order.  A run's mix of small and large
    requests then does not drift with the seed."""
    u = (np.arange(count) + 0.5) / count
    logs = np.log(low) + u * (np.log(high) - np.log(low))
    return gen.permutation(np.exp(logs).astype(np.int64))


def warm_keys(seed: int) -> np.ndarray:
    """The 8,192-tuple input every workload's first (warm) call uses."""
    return uniform_keys(8192, rng(seed, 99))
