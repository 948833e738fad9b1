"""SplitMix64 keyed streams, eqrep's one source of randomness.

Output k of the stream keyed by s mixes s + k*gamma mod 2^64, so a block of
outputs is one uint64 expression, the same on every platform and numpy
version. Each kind of draw has its own stream, keyed by `key(seed, purpose)`,
and a per-epoch draw is keyed by that stream's outputs. The mixer is a
bijection and s + k*gamma does not repeat for k < 2^64, so a stream's outputs
are distinct, and a permutation (their argsort) or a subset (the indices of
the smallest) does not depend on the sort algorithm. A bootstrap is mod n.
"""

import numpy as np

_GAMMA = 0x9E3779B97F4A7C15
PURPOSES = ("subsample", "split", "mlp_init", "mlp_validation", "mlp_epoch",
            "tree_bootstrap", "tree_root")


def splitmix64(keys, count: int) -> np.ndarray:
    """The first `count` outputs of the stream keyed by each key, as a
    (len(keys), count) uint64 array; uint64 arithmetic wraps mod 2^64."""
    steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    z = np.asarray(keys, dtype=np.uint64)[:, None] + steps
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(factor)
    z ^= z >> np.uint64(31)
    return z


def key(seed: int, purpose: str) -> int:
    """The key of `purpose`'s draws (in PURPOSES) under `seed`: from k = 0,
    k = splitmix64([k ^ part], 1) for seed mod 2^64, then the purpose's position."""
    k = 0
    for part in (seed % 2 ** 64, PURPOSES.index(purpose)):
        k = int(splitmix64([k ^ part], 1)[0, 0])
    return k


def permutation(k: int, n: int) -> np.ndarray:
    """range(n) in the argsort order of stream k's first n outputs."""
    return np.argsort(splitmix64([k], n)[0])
