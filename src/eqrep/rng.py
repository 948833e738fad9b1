"""SplitMix64 deterministic generator.

Used for model weight initialization only, so initial weights are the same for
a seed on every platform and numpy version. Dataset subsampling, train/test
splits, MLP shuffles and forest bootstraps and feature draws use
`np.random.default_rng`, whose streams are stable only within one numpy version
(NEP 19); trained artifacts are therefore reproducible within one.
"""

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        """Uniform floats in [low, high) using the top 53 bits per draw.

        Draw k after state s mixes s + k*gamma mod 2^64, so a block of n
        draws is one uint64 expression; uint64 arithmetic wraps mod 2^64."""
        n = int(np.prod(size))
        steps = np.arange(1, n + 1, dtype=np.uint64)
        z = np.uint64(self.state) + steps * np.uint64(_GAMMA)
        self.state = (self.state + n * _GAMMA) & _MASK
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        unit = (z >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))
        return (low + (high - low) * unit).reshape(size)
