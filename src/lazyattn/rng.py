"""Deterministic splitmix64 random source.

All randomness in the package (synthetic weights, random plans, synthetic
prompts) flows through this module so that identical seeds reproduce
bit-identical artifacts on any platform. The generator is the counter-based
form of splitmix64: output i of stream `seed` is mix(seed + (i+1)*GAMMA)
with 64-bit wrapping arithmetic.
"""

from __future__ import annotations

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64's output mix of `z`, in place, with one scratch array."""
    t = np.empty_like(z)
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=t)
        z ^= t
        z *= mult
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def splitmix64(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs [start, start+count) of the splitmix64 stream for `seed`."""
    if count < 0:
        raise ValueError("count must be non-negative")
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z *= _GAMMA
        z += np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        return _mix(z)


def uniform(seed: int, start: int, count: int, low: float, high: float) -> np.ndarray:
    """float64 uniforms in [low, high) from stream positions [start, start+count)."""
    bits = splitmix64(seed, start, count)
    bits >>= np.uint64(11)
    u = bits.astype(np.float64)
    u *= 2.0**-53
    u *= high - low
    u += low
    return u


class Splitmix:
    """Stateful convenience wrapper over the counter-based stream."""

    def __init__(self, seed: int):
        self.seed = seed
        self._pos = 0

    def next_u64(self) -> int:
        out = int(splitmix64(self.seed, self._pos, 1)[0])
        self._pos += 1
        return out

    def randint(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection sampling (unbiased)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound

    def sample_without_replacement(self, population: int, k: int) -> list[int]:
        """k distinct integers from [0, population), sorted ascending."""
        if k > population:
            raise ValueError("sample larger than population")
        chosen: set[int] = set()
        while len(chosen) < k:
            chosen.add(self.randint(population))
        return sorted(chosen)
