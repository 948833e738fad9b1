"""SplitMix64 keyed streams.

SplitMix64 is counter-based: output k of the stream keyed by s mixes
s + k*gamma mod 2^64, so any block of outputs of any stream is one uint64
expression, and the same on every platform and numpy version. It draws the
MLP's initial weights (one stream keyed by the seed) and the forest's split
candidates (one stream per tree node, keyed by the tree's seed and the node's
path from the root). Dataset subsampling, train/test splits, MLP shuffles and
forest bootstraps use `np.random.default_rng`, whose streams are stable only
within one numpy version (NEP 19); trained artifacts are therefore
reproducible within one.
"""

import numpy as np

_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(keys, count: int) -> np.ndarray:
    """The first `count` outputs of the stream keyed by each key, as a
    (len(keys), count) uint64 array; uint64 arithmetic wraps mod 2^64."""
    steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    z = np.asarray(keys, dtype=np.uint64)[:, None] + steps
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))
