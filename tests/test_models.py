import gc
import json
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from eqrep import models
from eqrep.models import (MODEL_KINDS, ForestModel, LinearModel, MlpModel, Normalization,
                          TrainConfig, fit_normalization, init_mlp_params,
                          load_model, mlp_forward, mlp_loss_and_grads,
                          model_from_dict, model_to_dict, predict, save_model,
                          target_count, train_forest, train_linear, train_mlp, RIDGE_DAMPING,
                          _grow_trees)


def _random_instance(n, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 17))
    w = rng.standard_normal((17, 5))
    b = rng.standard_normal(5)
    y = x @ w + b + noise * rng.standard_normal((n, 5))
    return x, y


def _fitted(kind):
    """A small model of `kind`, fitted through its table entry."""
    x, y = _random_instance(60, seed=18, noise=0.5)
    return MODEL_KINDS[kind].fit(x, y, TrainConfig(epochs=2, hidden_dim=4, seed=2, trees=2))


class TestNormalization:
    def test_hand_case(self):
        norm = fit_normalization(np.array([[0.0], [2.0]]))
        assert norm.mean[0] == 1.0 and norm.std[0] == 1.0

    def test_constant_column_guard(self):
        norm = fit_normalization(np.array([[3.0, 1.0], [3.0, 2.0]]))
        assert norm.std[0] == 1.0

    def test_normalized_columns_centered(self):
        x = np.random.default_rng(1).standard_normal((50, 17))
        norm = fit_normalization(x)
        z = norm.apply(x)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-9)

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            fit_normalization(np.ones((1, 3)))


class TestLinear:
    def test_realizable_fit(self):
        x, y = _random_instance(60)
        model = train_linear(x, y)
        mse = ((predict(model, x) - y) ** 2).mean()
        assert mse <= 1e-10

    def test_constant_targets(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((40, 17))
        y = np.tile([1.0, 2.0, 3.0, 4.0, 5.0], (40, 1))
        model = train_linear(x, y)
        np.testing.assert_allclose(model.weights, 0.0, atol=1e-6)
        np.testing.assert_allclose(model.bias, [1, 2, 3, 4, 5], atol=1e-6)

    def test_matches_gradient_descent_oracle(self):
        # independent iterative solution of the same damped least-squares problem
        x, y = _random_instance(40, seed=3, noise=0.5)
        model = train_linear(x, y)
        z = np.hstack([model.norm.apply(x), np.ones((40, 1))])
        coef = np.zeros((18, 5))
        lr = 1e-3
        for _ in range(200000):
            grad = 2 * (z.T @ (z @ coef - y) + RIDGE_DAMPING * coef)
            coef -= lr * grad
        oracle_mse = ((z @ coef - y) ** 2).mean()
        closed_mse = ((predict(model, x) - y) ** 2).mean()
        assert abs(closed_mse - oracle_mse) < 1e-6

    def test_stationary_point(self):
        x, y = _random_instance(50, seed=4, noise=1.0)
        model = train_linear(x, y)
        z = np.hstack([model.norm.apply(x), np.ones((50, 1))])
        coef = np.vstack([model.weights.T, model.bias])
        grad = 2 * (z.T @ (z @ coef - y) + RIDGE_DAMPING * coef)
        assert np.linalg.norm(grad) <= 1e-6

    def test_needs_more_rows_than_features(self):
        x, y = _random_instance(10)
        with pytest.raises(ValueError):
            train_linear(x, y)


def _grad_check(hidden_dim, seed):
    # draw configurations until every pre-activation clears the ReLU kink by
    # a margin; central differences are invalid when a kink lies inside +/-eps
    eps = 1e-4
    for attempt in range(100):
        rng = np.random.default_rng(seed + attempt)
        x = rng.standard_normal((5, 17))
        y = rng.standard_normal((5, 5))
        params = init_mlp_params(17, hidden_dim, 5, seed + attempt)
        params["b1"] = 0.1 * rng.standard_normal(hidden_dim)
        params["b2"] = 0.1 * rng.standard_normal(hidden_dim)
        _, (_, z1, _, z2, _) = mlp_forward(params, x)
        if min(np.abs(z1).min(), np.abs(z2).min()) > 50 * eps:
            break
    grads = {k: np.empty_like(v) for k, v in params.items()}
    mlp_loss_and_grads(params, x, y, grads)
    spent = {k: np.empty_like(v) for k, v in params.items()}
    worst = 0.0
    for key in params:
        flat = params[key].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = mlp_loss_and_grads(params, x, y, spent)
            flat[i] = orig - eps
            down = mlp_loss_and_grads(params, x, y, spent)
            flat[i] = orig
            numeric = (up - down) / (2 * eps)
            analytic = grads[key].reshape(-1)[i]
            denom = max(abs(numeric) + abs(analytic), 1e-8)
            worst = max(worst, abs(numeric - analytic) / denom)
    return worst


class TestMlp:
    def test_gradient_check(self):
        assert _grad_check(4, seed=11) <= 1e-4

    def test_subsumes_linear(self, monkeypatch):
        monkeypatch.setattr(models, "VALIDATION_FRACTION", 0.0)
        x, y = _random_instance(80, seed=5)
        linear_mse = ((predict(train_linear(x, y), x) - y) ** 2).mean()
        cfg = TrainConfig(hidden_dim=8, epochs=5000, learning_rate=3e-3, seed=0)
        mlp = train_mlp(x, y, cfg)
        mlp_mse = ((predict(mlp, x) - y) ** 2).mean()
        assert mlp_mse <= linear_mse + 1e-3

    def test_deterministic(self):
        x, y = _random_instance(50, seed=6, noise=0.3)
        cfg = TrainConfig(epochs=20, seed=9)
        a = train_mlp(x, y, cfg)
        b = train_mlp(x, y, cfg)
        for key in a.params:
            np.testing.assert_array_equal(a.params[key], b.params[key])

    def test_divergence_raises(self):
        x, y = _random_instance(50, seed=7, noise=0.3)
        cfg = TrainConfig(learning_rate=1e100, epochs=50)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match="diverged"):
                train_mlp(x, y, cfg)

    def test_init_is_platform_stable(self):
        # the SplitMix64-based init must not depend on numpy's RNG
        params = init_mlp_params(3, 2, 1, seed=1)
        again = init_mlp_params(3, 2, 1, seed=1)
        np.testing.assert_array_equal(params["W1"], again["W1"])
        bound = np.sqrt(6.0 / 3)
        assert np.all(np.abs(params["W1"]) < bound)

    @pytest.mark.parametrize("validation_fraction", [0.0, 0.2])
    def test_flat_update_matches_per_parameter_loop(self, monkeypatch, validation_fraction):
        monkeypatch.setattr(models, "VALIDATION_FRACTION", validation_fraction)
        x, y = _random_instance(45, seed=22, noise=0.5)
        cfg = TrainConfig(epochs=12, batch_size=16, hidden_dim=6, seed=3, learning_rate=1e-2)
        model = train_mlp(x, y, cfg)
        reference = oracles.train_mlp_params(x, y, cfg)
        assert list(model.params) == list(reference)
        for key, value in reference.items():
            np.testing.assert_array_equal(model.params[key], value)
            assert model.params[key].flags.owndata

    @pytest.mark.parametrize("n, batch_size", [(45, 16), (40, 9), (20, 64)])
    def test_one_gradient_call_per_step(self, monkeypatch, n, batch_size):
        calls = []
        inner = models.mlp_loss_and_grads

        def counted(*args):
            calls.append(len(args[1]))
            return inner(*args)

        monkeypatch.setattr(models, "mlp_loss_and_grads", counted)
        x, y = _random_instance(n, seed=24, noise=0.5)
        cfg = TrainConfig(epochs=7, batch_size=batch_size, hidden_dim=5, seed=2)
        train_mlp(x, y, cfg)
        n_train = n - int(n * models.VALIDATION_FRACTION)
        assert len(calls) == cfg.epochs * math.ceil(n_train / batch_size)
        assert sum(calls) == cfg.epochs * n_train

    def test_bad_config(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(trees=0)
        for rate in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="learning_rate must be finite"):
                TrainConfig(learning_rate=rate)


class TestForest:
    def test_single_tree_memorizes(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((10, 17))
        y = rng.standard_normal((10, 5))
        # one tree on every row, split down to single rows
        norm = fit_normalization(x)
        model = ForestModel([_grow_one(norm.apply(x), y, 0, max_unsplit=1)], norm)
        mse = ((predict(model, x) - y) ** 2).mean()
        assert mse == 0.0

    def test_predictions_within_target_hull(self):
        x, y = _random_instance(100, seed=9, noise=1.0)
        model = train_forest(x, y, tree_count=10, seed=1)
        query = np.random.default_rng(10).standard_normal((20, 17)) * 5
        preds = predict(model, query)
        assert np.all(preds >= y.min(axis=0) - 1e-12)
        assert np.all(preds <= y.max(axis=0) + 1e-12)

    def test_bagging_reduces_test_error(self):
        x, y = _random_instance(300, seed=12, noise=2.0)
        x_test, y_test = x[200:], y[200:]
        one = train_forest(x[:200], y[:200], tree_count=1, seed=3)
        many = train_forest(x[:200], y[:200], tree_count=100, seed=3)
        mse_one = ((predict(one, x_test) - y_test) ** 2).mean()
        mse_many = ((predict(many, x_test) - y_test) ** 2).mean()
        assert mse_many <= mse_one

    def test_prediction_is_tree_mean(self):
        x, y = _random_instance(50, seed=13, noise=1.0)
        model = train_forest(x, y, tree_count=7, seed=2)
        query = x[:3]
        combined = predict(model, query)
        singles = [predict(ForestModel([t], model.norm), query) for t in model.trees]
        np.testing.assert_allclose(combined, np.mean(singles, axis=0), atol=1e-12)

    def test_deterministic(self):
        x, y = _random_instance(60, seed=14, noise=0.5)
        a = train_forest(x, y, tree_count=5, seed=4)
        b = train_forest(x, y, tree_count=5, seed=4)
        np.testing.assert_array_equal(predict(a, x), predict(b, x))


def _tie_heavy_instance(n, seed):
    """Features on a coarse lattice with one constant column, and targets with
    repeated rows, so equal values and equal split scores are common."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-2, 3, size=(n, 17)).astype(float)
    x[:, 4] = 0.5
    y = rng.integers(-1, 2, size=(n, 5)).astype(float)
    return x, y


def _assert_same_tree(a, b):
    assert sorted(a) == sorted(b) == ["feature", "left", "right", "threshold", "value"]
    for key in b:
        assert a[key].shape == b[key].shape, key
        np.testing.assert_array_equal(a[key], b[key], err_msg=key)


def _grow_one(x, y, key, max_unsplit, rows=None):
    rows = np.arange(len(x)) if rows is None else rows
    return _grow_trees(x, y, [rows], [key], max_unsplit)[0]


class TestTreeGrowthOracle:
    @pytest.mark.parametrize("case", ["random", "ties", "bootstrap"])
    @pytest.mark.parametrize("max_unsplit", [0, 1, 2, 5, 40])
    def test_arrays_match_reference_grower(self, case, max_unsplit):
        if case == "ties":
            x, y = _tie_heavy_instance(120, seed=23)
        else:
            x, y = _random_instance(120, seed=24, noise=1.0)
        if case == "bootstrap":
            # the grower takes the bootstrap as row indices; the oracle, as copies
            idx = np.random.default_rng(25).integers(0, len(x), size=len(x))
            tree = _grow_one(x, y, 26, max_unsplit, idx)
            reference = oracles.grow_tree(x[idx], y[idx], 26, max_unsplit)
        else:
            tree = _grow_one(x, y, 26, max_unsplit)
            reference = oracles.grow_tree(x, y, 26, max_unsplit)
        _assert_same_tree(tree, reference)

    def test_max_unsplit_edges(self):
        # a node splits only when it holds more than max_unsplit rows
        x, y = _random_instance(12, seed=27, noise=1.0)
        for max_unsplit in (10, 11, 12):
            tree = _grow_one(x, y, 28, max_unsplit)
            _assert_same_tree(tree, oracles.grow_tree(x, y, 28, max_unsplit))
        assert len(_grow_one(x, y, 28, 12)["feature"]) == 1

    def test_no_usable_cut_makes_a_leaf(self):
        # every feature constant: no candidate has a cut, however y varies
        x = np.ones((20, 17))
        y = np.random.default_rng(29).standard_normal((20, 5))
        tree = _grow_one(x, y, 30, 1)
        _assert_same_tree(tree, oracles.grow_tree(x, y, 30, 1))
        assert tree["feature"].tolist() == [-1]

    def test_forest_matches_reference_trees(self):
        x, y = _tie_heavy_instance(150, seed=31)
        model = train_forest(x, y, tree_count=4, seed=7)
        z = model.norm.apply(x)
        for t, tree in enumerate(model.trees):
            # tree t: its bootstrap is its stream's outputs mod n; its root, a keyed node
            boot = oracles.splitmix64_outputs(oracles.stream_key(7 + t, "tree_bootstrap"), len(z))
            idx = np.array([v % len(z) for v in boot])
            root = oracles.stream_key(7 + t, "tree_root")
            _assert_same_tree(tree, oracles.grow_tree(z[idx], y[idx], root, 5))

    def test_tree_does_not_depend_on_its_neighbours(self):
        # tree t of a forest is the one tree grown from seed + t, whatever grows beside it
        x, y = _random_instance(300, seed=37, noise=1.0)
        forest = train_forest(x, y, tree_count=6, seed=11)
        for t in (0, 3, 5):
            _assert_same_tree(forest.trees[t], train_forest(x, y, 1, 11 + t).trees[0])

    def test_batch_cap_bounds_memory_not_tree_count(self):
        # Peak allocation may grow with tree_count only by the forest's own
        # node arrays (trees and packed copy) and the grower's row indices:
        # two int64 index arrays over every (tree, row) pair. The search and
        # partition batches hold at most BATCH_BYTES whatever the tree count.
        x, y = _random_instance(4000, seed=38, noise=1.0)
        peaks, node_bytes = {}, {}
        for trees in (10, 40):
            tracemalloc.start()
            try:
                model = train_forest(x, y, tree_count=trees, seed=1)
                peaks[trees] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            node_bytes[trees] = (sum(a.nbytes for t in model.trees for a in t.values())
                                 + sum(a.nbytes for a in model.packed.values()))
            del model
        index_bytes = 30 * len(x) * 2 * 8
        assert peaks[40] - peaks[10] <= node_bytes[40] - node_bytes[10] + index_bytes + (1 << 20)

    def test_training_leaves_no_garbage_cycles(self):
        x, y = _random_instance(200, seed=32, noise=1.0)
        gc.collect()
        gc.disable()
        try:
            train_forest(x, y, tree_count=3, seed=0)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestForestPredictOracle:
    @pytest.fixture(scope="class")
    def forest(self):
        x, y = _tie_heavy_instance(160, seed=33)
        return train_forest(x, y, tree_count=9, seed=5)

    def test_batch_matches_tree_walk(self, forest):
        rng = np.random.default_rng(34)
        queries = np.vstack([rng.integers(-3, 4, size=(40, 17)).astype(float),
                             3 * rng.standard_normal((40, 17))])
        np.testing.assert_array_equal(predict(forest, queries),
                                      oracles.forest_predict(forest, queries))

    def test_single_rows_match_tree_walk(self, forest):
        rng = np.random.default_rng(35)
        for query in rng.integers(-3, 4, size=(10, 17)).astype(float):
            np.testing.assert_array_equal(predict(forest, query),
                                          oracles.forest_predict(forest, query)[0])

    def test_single_node_trees(self):
        x, y = _random_instance(30, seed=36)
        # three bootstrap trees whose 30-row roots may not split
        norm = fit_normalization(x)
        roots = [np.random.default_rng(t).integers(0, 30, size=30) for t in range(3)]
        model = ForestModel(_grow_trees(norm.apply(x), y, roots, [0, 1, 2], 30), norm)
        assert all(len(t["feature"]) == 1 for t in model.trees)
        np.testing.assert_array_equal(predict(model, x), oracles.forest_predict(model, x))

    def test_empty_forest_rejected(self):
        with pytest.raises(ValueError, match="at least one tree"):
            ForestModel([], fit_normalization(np.eye(2)))


class TestTrainingProgress:
    def test_all_trainers_improve_or_hold(self):
        x, y = _random_instance(100, seed=15, noise=1.0)
        init_loss = (y ** 2).mean()  # vs predicting zeros, a weak reference

        linear = train_linear(x, y)
        assert ((predict(linear, x) - y) ** 2).mean() <= init_loss

        cfg = TrainConfig(epochs=30, seed=1)
        mlp = train_mlp(x, y, cfg)
        init_params = init_mlp_params(17, cfg.hidden_dim, 5, cfg.seed)
        init_pred, _ = mlp_forward(init_params, mlp.norm.apply(x))
        assert ((predict(mlp, x) - y) ** 2).mean() <= ((init_pred - y) ** 2).mean()

        forest = train_forest(x, y, tree_count=10, seed=1)
        assert ((predict(forest, x) - y) ** 2).mean() <= init_loss


class TestNonFiniteTrainingData:
    TRAINERS = {
        "linear": train_linear,
        "forest": lambda x, y: train_forest(x, y, tree_count=2),
        "mlp": lambda x, y: train_mlp(x, y, TrainConfig(epochs=2, hidden_dim=4)),
    }

    @pytest.mark.parametrize("kind", TRAINERS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_feature_rejected(self, kind, bad):
        x, y = _random_instance(40, seed=19)
        x[0, 3] = bad
        with pytest.raises(ValueError, match="non-finite feature"):
            self.TRAINERS[kind](x, y)

    @pytest.mark.parametrize("kind", TRAINERS)
    def test_target_rejected(self, kind):
        x, y = _random_instance(40, seed=19)
        y[7, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite target"):
            self.TRAINERS[kind](x, y)

    @pytest.mark.parametrize("kind", TRAINERS)
    @pytest.mark.parametrize("rows", [0, 1])
    def test_too_few_rows_rejected(self, kind, rows):
        x, y = _random_instance(40, seed=19)
        with pytest.raises(ValueError):
            self.TRAINERS[kind](x[:rows], y[:rows])


class TestPredict:
    def test_zero_weight_linear_returns_bias(self):
        norm = Normalization(np.zeros(17), np.ones(17))
        model = LinearModel(np.zeros((5, 17)), np.array([1.0, 2, 3, 4, 5]), norm)
        out = predict(model, np.random.default_rng(0).standard_normal(17))
        np.testing.assert_array_equal(out, [1, 2, 3, 4, 5])

    def test_zero_mlp_returns_zeros(self):
        norm = Normalization(np.zeros(17), np.ones(17))
        params = {k: np.zeros_like(v) for k, v in init_mlp_params(17, 4, 5, 0).items()}
        model = MlpModel(params, norm)
        np.testing.assert_array_equal(predict(model, np.ones(17)), np.zeros(5))

    def test_trained_model_hits_realizable_targets(self):
        x, y = _random_instance(60, seed=16)
        model = train_linear(x, y)
        assert np.max(np.abs(predict(model, x[0]) - y[0])) < 0.01

    def test_non_finite_input_rejected(self):
        x, y = _random_instance(40, seed=17)
        model = train_linear(x, y)
        bad = np.full(17, np.nan)
        with pytest.raises(ValueError):
            predict(model, bad)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("shape", [(2, 3, 17), (16,), (), (3, 16), (17, 1)])
    def test_features_of_another_shape_are_refused(self, kind, shape):
        with pytest.raises(ValueError, match=fr"got shape \({', '.join(map(str, shape))}"):
            predict(_fitted(kind), np.ones(shape))


class TestSerialization:
    @pytest.mark.parametrize("kind", ["linear", "mlp", "forest"])
    def test_round_trip_prediction_identical(self, kind, tmp_path):
        x, y = _random_instance(60, seed=18, noise=0.5)
        if kind == "linear":
            model = train_linear(x, y)
        elif kind == "mlp":
            model = train_mlp(x, y, TrainConfig(epochs=10, hidden_dim=8, seed=2))
        else:
            model = train_forest(x, y, tree_count=3, seed=2)
        path = tmp_path / f"{kind}.json"
        save_model(model, path, {"model": kind}, {"test_mse": 0.1})
        back, train_config, metrics = load_model(path)
        queries = np.random.default_rng(19).standard_normal((100, 17))
        np.testing.assert_array_equal(predict(back, queries), predict(model, queries))
        assert train_config == {"model": kind}
        assert metrics == {"test_mse": 0.1}

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_model_of_another_width_round_trips(self, kind, tmp_path):
        """A model takes its input width from its normalization and its output
        width from its params: fitted on 40 features and 3 targets, it saves,
        loads, re-saves and predicts with the same bytes."""
        rng = np.random.default_rng(40)
        x, y = rng.standard_normal((80, 40)), rng.standard_normal((80, 3))
        model = MODEL_KINDS[kind].fit(x, y, TrainConfig(epochs=3, hidden_dim=8, trees=3))
        save_model(model, tmp_path / "a.json")
        back = load_model(tmp_path / "a.json")[0]
        save_model(back, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert back.norm.width == 40 and target_count(back) == target_count(model) == 3
        queries = rng.standard_normal((7, 40))
        assert predict(back, queries).shape == (7, 3)
        for rows in (queries, queries[0]):
            assert predict(back, rows).tobytes() == predict(model, rows).tobytes()
        with pytest.raises(ValueError, match=r"expected a \(40,\) or \(n, 40\) feature array"):
            predict(back, queries[:, :17])

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_loaded_artifact_serialises_back_to_its_dict(self, kind, tmp_path):
        model = _fitted(kind)
        assert type(model).kind == kind
        path = tmp_path / f"{kind}.json"
        save_model(model, path, {"model": kind, "seed": 2}, {"test_mse": 0.1})
        doc = json.loads(path.read_text())
        assert model_to_dict(*model_from_dict(doc)) == doc

    @pytest.mark.parametrize("hidden_dim", [0, -1])
    def test_nonpositive_hidden_dim_is_named(self, hidden_dim):
        doc = model_to_dict(_fitted("mlp"))
        doc["params"]["hidden_dim"] = hidden_dim
        with pytest.raises(ValueError, match=f"params.hidden_dim: expected an integer "
                                             f">= 1, got {hidden_dim}$"):
            model_from_dict(doc)

    def test_hidden_dim_shape_mismatch(self):
        x, y = _random_instance(40, seed=20)
        doc = model_to_dict(train_mlp(x, y, TrainConfig(epochs=2, hidden_dim=8, seed=0)))
        doc["params"]["hidden_dim"] = 16
        with pytest.raises(ValueError, match="shape"):
            model_from_dict(doc)

    def test_unknown_schema_version(self):
        with pytest.raises(ValueError, match="schema_version"):
            model_from_dict({"schema_version": 99})

    def test_missing_key_is_named(self):
        doc = model_to_dict(train_linear(*_random_instance(40, seed=21)))
        del doc["params"]["bias"]
        with pytest.raises(ValueError, match="lacks key 'bias'"):
            model_from_dict(doc)
        with pytest.raises(ValueError, match="lacks key 'kind'"):
            model_from_dict({"schema_version": 1})

    @pytest.mark.parametrize("edit, message", [
        (lambda t, leaf: t.update(threshold=t["threshold"][:-1]), "differ in length"),
        (lambda t, leaf: t.update({k: [] for k in t}), "empty"),
        (lambda t, leaf: t["left"].__setitem__(0, 0), "left child"),      # a cycle
        (lambda t, leaf: t["right"].__setitem__(0, len(t["right"])), "right child"),
        (lambda t, leaf: t["left"].__setitem__(leaf, leaf + 1), "left child"),
        (lambda t, leaf: t.update(value=[v[:4] for v in t["value"]]), "values have shape"),
    ])
    def test_malformed_forest_tree_rejected(self, edit, message):
        x, y = _random_instance(60, seed=22)
        doc = model_to_dict(train_forest(x, y, tree_count=2, seed=0))
        tree = doc["params"]["trees"][1]
        assert tree["feature"][0] >= 0
        edit(tree, tree["feature"].index(-1))
        with pytest.raises(ValueError, match=message):
            model_from_dict(doc)

    @pytest.mark.parametrize("node, feature", [("root", 17), ("leaf", -2)])
    def test_forest_feature_outside_the_width_is_named(self, node, feature):
        """A node's feature is -1 (a leaf) or a column of the normalization."""
        x, y = _random_instance(60, seed=22)
        doc = model_to_dict(train_forest(x, y, tree_count=2, seed=0))
        tree = doc["params"]["trees"][1]
        assert tree["feature"][0] >= 0
        at = 0 if node == "root" else tree["feature"].index(-1)
        tree["feature"][at] = feature
        with pytest.raises(ValueError, match=rf"^model artifact params\.trees\[1\]\.feature"
                                             rf"\[{at}\]: expected an integer from -1 to 16, "
                                             rf"got {feature}$"):
            model_from_dict(doc)

    @pytest.mark.parametrize("kind, edit, message", [
        ("mlp", lambda p: p.update(W3=[[] for _ in p["W3"]], b3=[]),
         r"params.W3: expected at least one target column, got shape \(4, 0\)"),
        ("linear", lambda p: p.update(bias=p["bias"][:3]),
         r"params.bias: expected a \(5,\) array of numbers, got shape \(3,\)"),
        ("linear", lambda p: p.update(weights=[]),
         r"params.weights: expected a \(n, 17\) array of numbers, got shape \(0,\)"),
        ("forest", lambda p: p["trees"][0].update(value=[[] for _ in p["trees"][0]["value"]]),
         r"params.trees\[0\].value: expected at least one target column, got shape \(\d+, 0\)"),
        ("forest", lambda p: p["trees"][0].update(value=[v[:3] for v in p["trees"][0]["value"]]),
         r"params.trees\[1\].value: forest tree values have shape \(\d+, 5\), "
         r"expected \(\d+, 3\)"),
    ], ids=["mlp-no-target", "linear-short-bias", "linear-no-target", "forest-no-target",
            "forest-unequal-trees"])
    def test_target_width_is_checked_on_load(self, kind, edit, message):
        """A model's output width comes from its params: at least one target,
        the bias as long as the weights' rows, every tree as wide as the first.
        Each refusal is one line naming the key."""
        doc = model_to_dict(_fitted(kind))
        edit(doc["params"])
        with pytest.raises(ValueError, match=f"^model artifact {message}$"):
            model_from_dict(json.loads(json.dumps(doc)))

    def test_unknown_kind(self):
        doc = model_to_dict(train_linear(*_random_instance(40, seed=21)))
        doc["kind"] = "svm"
        with pytest.raises(ValueError, match="kind"):
            model_from_dict(doc)
