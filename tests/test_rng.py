import hashlib
import warnings

import numpy as np
import pytest

import oracles
from eqrep.models import _node_draws
from eqrep.rng import SplitMix64, splitmix64

SHAPES = [(17, 64), (64,), (64, 64), (64, 5)]


class TestSplitMix64:
    @pytest.mark.parametrize("seed", [0, 42, 2 ** 63, 2 ** 64 - 1, -5])
    def test_blocks_match_the_per_draw_loop(self, seed):
        bound = np.sqrt(6.0 / 17)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no uint64 overflow warning either
            gen = SplitMix64(seed)
            fast = [gen.uniform(-bound, bound, shape) for shape in SHAPES]
        slow = oracles.splitmix64_uniform(seed, -bound, bound, SHAPES)
        for a, b in zip(fast, slow):
            assert a.shape == b.shape and a.dtype == b.dtype == np.float64
            assert a.tobytes() == b.tobytes()

    def test_published_first_output(self):
        # the first SplitMix64 output for seed 0 is 0xE220A8397B1DCDAF
        expect = (0xE220A8397B1DCDAF >> 11) / 2.0 ** 53
        assert SplitMix64(0).uniform(0.0, 1.0, 1)[0] == expect
        assert oracles.splitmix64_uniform(0, 0.0, 1.0, [1])[0][0] == expect
        assert splitmix64([0], 1)[0, 0] == 0xE220A8397B1DCDAF


# Forest node keys: the first thousand, and the top of the uint64 range.
NODE_KEYS = list(range(1000)) + [2 ** 63, 2 ** 64 - 1]
# sha256 of the (1002, 5) little-endian int64 candidate array for NODE_KEYS
# over 17 features; it pins the draws across platforms and numpy versions.
CANDIDATES_SHA256 = "620d305fa16e23027e386b0994bc870f61564545e7d56a2ed33290201943794f"


class TestNodeDraws:
    def test_match_the_per_key_loop(self):
        candidates, kids = _node_draws(np.array(NODE_KEYS, dtype=np.uint64), 17)
        for key, drawn, (left, right) in zip(NODE_KEYS, candidates, kids):
            assert (drawn.tolist(), int(left), int(right)) == oracles.node_draws(key, 17)

    def test_golden_candidates(self):
        candidates, _ = _node_draws(np.array(NODE_KEYS, dtype=np.uint64), 17)
        digest = hashlib.sha256(candidates.astype("<i8").tobytes()).hexdigest()
        assert digest == CANDIDATES_SHA256
