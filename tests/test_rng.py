import hashlib
import warnings

import numpy as np
import pytest

import oracles
from eqrep import dataset as ds
from eqrep import rng
from eqrep.audio import NoteSpec, synthesize_note
from eqrep.features import FEATURE_DIM, FeatureContract
from eqrep.models import VALIDATION_FRACTION, TrainConfig, _node_draws, init_mlp_params
from eqrep.rng import splitmix64

DIMS = (17, 64, 5)  # the MLP's input, hidden and output widths
SHAPES = [(17, 64), (64, 64), (64, 5)]


class TestSplitMix64:
    @pytest.mark.parametrize("seed", [0, 42, 2 ** 63, 2 ** 64 - 1, -5])
    def test_blocks_match_the_per_draw_loop(self, seed):
        """W1, W2 and W3 are the first draws of the seed's "mlp_init" stream,
        in turn, each scaled to its layer's bound."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no uint64 overflow warning either
            params = init_mlp_params(*DIMS, seed)
        key = oracles.stream_key(seed, "mlp_init")
        for i, shape in enumerate(SHAPES):
            bound = np.sqrt(6.0 / shape[0])
            slow = oracles.splitmix64_uniform(key, -bound, bound, SHAPES)[i]
            fast = params[f"W{i + 1}"]
            assert fast.shape == slow.shape and fast.dtype == slow.dtype == np.float64
            assert fast.tobytes() == slow.tobytes()

    def test_published_first_output(self):
        # the first SplitMix64 output for seed 0 is 0xE220A8397B1DCDAF
        assert splitmix64([0], 1)[0, 0] == 0xE220A8397B1DCDAF
        unit = (0xE220A8397B1DCDAF >> 11) / 2.0 ** 53
        assert oracles.splitmix64_uniform(0, 0.0, 1.0, [1])[0][0] == unit


class TestKeys:
    @pytest.mark.parametrize("seed", [0, 42, 2 ** 64 - 1, -5])
    def test_match_the_per_step_loop(self, seed):
        for purpose in rng.PURPOSES:
            assert rng.key(seed, purpose) == oracles.stream_key(seed, purpose)

    def test_each_seed_and_purpose_has_its_own_key(self):
        keys = {rng.key(seed, purpose) for seed in range(300) for purpose in rng.PURPOSES}
        assert len(keys) == 300 * len(rng.PURPOSES)
        with pytest.raises(ValueError):
            rng.key(0, "no such purpose")

    def test_stream_outputs_are_distinct(self):
        assert len(np.unique(splitmix64([rng.key(1, "split")], 100_000))) == 100_000

    @pytest.mark.parametrize("n", [1, 2, 35, 1000])
    def test_permutation_sorts_the_stream(self, n):
        key = rng.key(7, "split")
        outputs = oracles.splitmix64_outputs(key, n)
        assert rng.permutation(key, n).tolist() == sorted(range(n), key=outputs.__getitem__)


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


def _sha256(*arrays, dtype="<i8"):
    return hashlib.sha256(b"".join(np.asarray(a).astype(dtype).tobytes()
                                   for a in arrays)).hexdigest()


def _split_of(n, seed):
    samples = ds.sample_table([f"s{i}" for i in range(n)], ["x"] * n,
                              np.zeros((n, 5)), np.zeros((n, FEATURE_DIM)))
    return ds.split(ds.DatasetManifest(FeatureContract(), samples, 0), seed)


# Rows of the multi-band set at --limit 2000: 1 600 train, of which the MLP
# holds out 160 and shuffles 1 440 in each of its 500 epochs.
ROWS = 1600
VAL_ROWS = int(ROWS * VALIDATION_FRACTION)
EPOCHS = TrainConfig.epochs

# sha256 of the little-endian int64 indices (float64 for the weights) of each
# keyed draw at seed 42. They pin the draws, and so every split, subsample,
# bootstrap, shuffle and trained artifact, across platforms and numpy versions.
GOLDEN = {
    "split_125":
        "8ae5190bc74c0536c29516fbb80c76bdf5ca2168f98857147d2ace9f87f0f182",
    "split_35":
        "b71a2306808a60639192062802f28dd653b270709e5bab802b76f6a9f75b6df2",
    "subsample_2000_of_16807":
        "e35296021abdf180d9c0e3611c3d1aea4732ced17c091f5cd68beefab28f1db1",
    "bootstrap_trees_0_2":
        "3c1547ea996d1ac6595380bd962f2c7ebfc3f2ad7076d55f3f3cc0e2d993eb05",
    "mlp_validation":
        "974396924091a5a499f968c67f352c19580f0633810f9105a385b723de63d150",
    "mlp_epoch_first":
        "56237a027df0a9e57eae94e4eae1d3e4a9dd14f60d3d566667a848f650ac21e5",
    "mlp_epoch_last":
        "0ca27f7cbc0eb1bb7fa271a11357dbb1efd9fb7b9c3f2bb001be50a0b85e05fb",
    "mlp_init":
        "8b6a732fcf9e0848d12f53cbf3252e30654f93ba4fcbb6ecd0c9f3cee0a87940",
}


class TestGoldenDraws:
    @pytest.mark.parametrize("n", [125, 35])
    def test_split(self, n):
        assert _sha256(*_split_of(n, 42)) == GOLDEN[f"split_{n}"]

    def test_build_dataset_subsample(self):
        # one short note, so that a pair's index is its setting's
        note = synthesize_note(NoteSpec("C3", 130.8127826502993, 0.05, 40), 44100)
        settings = ds.multi_band_settings(ds.COARSE_GRID)
        manifest = ds.build_dataset([("C3", note)], settings, limit=2000, seed=42)
        pairs = [int(sid.rpartition("-")[2]) for sid in manifest.samples.sample_id]
        assert len(settings) == 16807 and len(pairs) == 2000
        assert _sha256(pairs) == GOLDEN["subsample_2000_of_16807"]

    def test_forest_bootstraps(self):
        rows = [rng.splitmix64([rng.key(42 + t, "tree_bootstrap")], ROWS)[0] % np.uint64(ROWS)
                for t in range(3)]
        assert _sha256(*rows) == GOLDEN["bootstrap_trees_0_2"]

    def test_mlp_orders(self):
        val = rng.permutation(rng.key(42, "mlp_validation"), ROWS)
        epoch_keys = splitmix64([rng.key(42, "mlp_epoch")], EPOCHS)[0]
        first, last = (rng.permutation(k, ROWS - VAL_ROWS) for k in epoch_keys[[0, -1]])
        assert _sha256(val) == GOLDEN["mlp_validation"]
        assert _sha256(first) == GOLDEN["mlp_epoch_first"]
        assert _sha256(last) == GOLDEN["mlp_epoch_last"]

    def test_mlp_init(self):
        params = init_mlp_params(17, 64, 5, 42)
        weights = [params[k] for k in ("W1", "W2", "W3")]
        assert _sha256(*weights, dtype="<f8") == GOLDEN["mlp_init"]
