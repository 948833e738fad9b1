import hashlib
import warnings

import numpy as np
import pytest

import oracles
from eqrep.models import _node_draws, init_mlp_params
from eqrep.rng import splitmix64

DIMS = (17, 64, 5)  # the MLP's input, hidden and output widths
SHAPES = [(17, 64), (64, 64), (64, 5)]


class TestSplitMix64:
    @pytest.mark.parametrize("seed", [0, 42, 2 ** 63, 2 ** 64 - 1, -5])
    def test_blocks_match_the_per_draw_loop(self, seed):
        """W1, W2 and W3 are the first draws of the stream keyed by the seed,
        in turn, each scaled to its layer's bound."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no uint64 overflow warning either
            params = init_mlp_params(*DIMS, seed)
        for i, shape in enumerate(SHAPES):
            bound = np.sqrt(6.0 / shape[0])
            slow = oracles.splitmix64_uniform(seed, -bound, bound, SHAPES)[i]
            fast = params[f"W{i + 1}"]
            assert fast.shape == slow.shape and fast.dtype == slow.dtype == np.float64
            assert fast.tobytes() == slow.tobytes()

    def test_published_first_output(self):
        # the first SplitMix64 output for seed 0 is 0xE220A8397B1DCDAF
        unit = (0xE220A8397B1DCDAF >> 11) / 2.0 ** 53
        bound = np.sqrt(6.0)
        assert init_mlp_params(1, 1, 1, 0)["W1"][0, 0] == -bound + 2 * bound * unit
        assert oracles.splitmix64_uniform(0, 0.0, 1.0, [1])[0][0] == unit
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
