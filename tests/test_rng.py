import warnings

import numpy as np
import pytest

import oracles
from eqrep.rng import SplitMix64

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
