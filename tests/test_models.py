import gc

import numpy as np
import pytest

import oracles
from eqrep.models import (ForestModel, LinearModel, MlpModel, Normalization,
                          TrainConfig, fit_normalization, init_mlp_params,
                          load_model, mlp_forward, mlp_loss_and_grads,
                          model_from_dict, model_to_dict, predict, save_model,
                          train_forest, train_linear, train_mlp, RIDGE_DAMPING,
                          _grow_tree)


def _random_instance(n, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 17))
    w = rng.standard_normal((17, 5))
    b = rng.standard_normal(5)
    y = x @ w + b + noise * rng.standard_normal((n, 5))
    return x, y


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
    _, grads = mlp_loss_and_grads(params, x, y)
    worst = 0.0
    for key in params:
        flat = params[key].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up, _ = mlp_loss_and_grads(params, x, y)
            flat[i] = orig - eps
            down, _ = mlp_loss_and_grads(params, x, y)
            flat[i] = orig
            numeric = (up - down) / (2 * eps)
            analytic = grads[key].reshape(-1)[i]
            denom = max(abs(numeric) + abs(analytic), 1e-8)
            worst = max(worst, abs(numeric - analytic) / denom)
    return worst


class TestMlp:
    def test_gradient_check(self):
        assert _grad_check(4, seed=11) <= 1e-4

    def test_subsumes_linear(self):
        x, y = _random_instance(80, seed=5)
        linear_mse = ((predict(train_linear(x, y), x) - y) ** 2).mean()
        cfg = TrainConfig(hidden_dim=8, epochs=5000, learning_rate=3e-3, seed=0,
                          validation_fraction=0.0)
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
        cfg = TrainConfig(learning_rate=1e12, epochs=50, optimizer="sgd_momentum")
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

    @pytest.mark.parametrize("optimizer", ["adam", "sgd_momentum"])
    @pytest.mark.parametrize("validation_fraction", [0.0, 0.2])
    def test_flat_update_matches_per_parameter_loop(self, optimizer, validation_fraction):
        x, y = _random_instance(45, seed=22, noise=0.5)
        cfg = TrainConfig(epochs=12, batch_size=16, hidden_dim=6, seed=3,
                          learning_rate=1e-2, optimizer=optimizer,
                          validation_fraction=validation_fraction)
        model = train_mlp(x, y, cfg)
        reference = oracles.train_mlp_params(x, y, cfg)
        assert list(model.params) == list(reference)
        for key, value in reference.items():
            np.testing.assert_array_equal(model.params[key], value)
            assert model.params[key].flags.owndata

    def test_bad_config(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(validation_fraction=0.9)
        with pytest.raises(ValueError):
            TrainConfig(optimizer="lbfgs")


class TestForest:
    def test_single_tree_memorizes(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((10, 17))
        y = rng.standard_normal((10, 5))
        model = train_forest(x, y, tree_count=1, seed=0, max_unsplit=1, bootstrap=False)
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


class TestTreeGrowthOracle:
    @pytest.mark.parametrize("case", ["random", "ties", "bootstrap"])
    @pytest.mark.parametrize("max_unsplit", [0, 1, 2, 5, 40])
    def test_arrays_match_reference_grower(self, case, max_unsplit):
        if case == "ties":
            x, y = _tie_heavy_instance(120, seed=23)
        else:
            x, y = _random_instance(120, seed=24, noise=1.0)
        if case == "bootstrap":
            idx = np.random.default_rng(25).integers(0, len(x), size=len(x))
            x, y = x[idx], y[idx]
        tree = _grow_tree(x, y, np.random.default_rng(26), max_unsplit)
        reference = oracles.grow_tree(x, y, np.random.default_rng(26), max_unsplit)
        _assert_same_tree(tree, reference)

    def test_max_unsplit_edges(self):
        # a node splits only when it holds more than max_unsplit rows
        x, y = _random_instance(12, seed=27, noise=1.0)
        for max_unsplit in (10, 11, 12):
            tree = _grow_tree(x, y, np.random.default_rng(28), max_unsplit)
            reference = oracles.grow_tree(x, y, np.random.default_rng(28), max_unsplit)
            _assert_same_tree(tree, reference)
        assert len(_grow_tree(x, y, np.random.default_rng(28), 12)["feature"]) == 1

    def test_no_usable_cut_makes_a_leaf(self):
        # every feature constant: no candidate has a cut, however y varies
        x = np.ones((20, 17))
        y = np.random.default_rng(29).standard_normal((20, 5))
        tree = _grow_tree(x, y, np.random.default_rng(30), 1)
        _assert_same_tree(tree, oracles.grow_tree(x, y, np.random.default_rng(30), 1))
        assert tree["feature"].tolist() == [-1]

    def test_forest_matches_reference_trees(self):
        x, y = _tie_heavy_instance(150, seed=31)
        model = train_forest(x, y, tree_count=4, seed=7)
        z = model.norm.apply(x)
        for t, tree in enumerate(model.trees):
            rng = np.random.default_rng(7 + t)
            idx = rng.integers(0, len(z), size=len(z))
            _assert_same_tree(tree, oracles.grow_tree(z[idx], y[idx], rng, 5))

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
        model = train_forest(x, y, tree_count=3, seed=0, max_unsplit=30)
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


class TestPredict:
    def test_zero_weight_linear_returns_bias(self):
        norm = Normalization(np.zeros(17), np.ones(17))
        model = LinearModel(np.zeros((5, 17)), np.array([1.0, 2, 3, 4, 5]), norm)
        out = predict(model, np.random.default_rng(0).standard_normal(17))
        np.testing.assert_array_equal(out, [1, 2, 3, 4, 5])

    def test_zero_mlp_returns_zeros(self):
        norm = Normalization(np.zeros(17), np.ones(17))
        params = {k: np.zeros_like(v) for k, v in init_mlp_params(17, 4, 5, 0).items()}
        model = MlpModel(params, 4, norm)
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

    def test_hidden_dim_shape_mismatch(self):
        x, y = _random_instance(40, seed=20)
        doc = model_to_dict(train_mlp(x, y, TrainConfig(epochs=2, hidden_dim=8, seed=0)))
        doc["params"]["hidden_dim"] = 16
        with pytest.raises(ValueError, match="shape"):
            model_from_dict(doc)

    def test_unknown_schema_version(self):
        with pytest.raises(ValueError, match="schema_version"):
            model_from_dict({"schema_version": 99})

    def test_unknown_kind(self):
        doc = model_to_dict(train_linear(*_random_instance(40, seed=21)))
        doc["kind"] = "svm"
        with pytest.raises(ValueError, match="kind"):
            model_from_dict(doc)
