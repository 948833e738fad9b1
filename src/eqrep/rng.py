"""SplitMix64 deterministic generator.

Used for model weight initialization only, so initial weights are the same for
a seed on every platform and numpy version. Dataset subsampling, train/test
splits, MLP shuffles and forest bootstraps and feature draws use
`np.random.default_rng`, whose streams are stable only within one numpy version
(NEP 19); trained artifacts are therefore reproducible within one.
"""

import numpy as np

_MASK = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        """Uniform floats in [low, high) using the top 53 bits per draw."""
        n = int(np.prod(size))
        unit = np.array(
            [(self.next_u64() >> 11) * (1.0 / (1 << 53)) for _ in range(n)]
        )
        return (low + (high - low) * unit).reshape(size)
