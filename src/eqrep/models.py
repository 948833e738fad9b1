"""The three gain predictors: closed-form linear regression, a two-hidden-layer
MLP trained from scratch with backprop, and a bagged CART random forest.
All map 17 features to the 5 band gains in dB.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .features import FEATURE_DIM
from .rng import SplitMix64

MODEL_SCHEMA_VERSION = 1
OUTPUT_DIM = 5
RIDGE_DAMPING = 1e-8


@dataclass(frozen=True)
class Normalization:
    mean: np.ndarray
    std: np.ndarray

    def apply(self, features: np.ndarray) -> np.ndarray:
        return (features - self.mean) / self.std


def fit_normalization(features: np.ndarray) -> Normalization:
    """Column mean and population std; zero-variance columns get std 1."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or len(features) < 2:
        raise ValueError("need a matrix with at least 2 rows")
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return Normalization(mean, std)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 500
    batch_size: int = 64
    hidden_dim: int = 64
    seed: int = 42
    optimizer: str = "adam"  # adam | sgd_momentum
    validation_fraction: float = 0.1

    def __post_init__(self):
        if min(self.learning_rate, self.epochs, self.batch_size, self.hidden_dim) <= 0:
            raise ValueError("learning_rate, epochs, batch_size, hidden_dim must be positive")
        if not 0 <= self.validation_fraction <= 0.5:
            raise ValueError("validation_fraction must be in [0, 0.5]")
        if self.optimizer not in ("adam", "sgd_momentum"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


# ---------------------------------------------------------------- linear


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray  # (5, 17)
    bias: np.ndarray     # (5,)
    norm: Normalization


def train_linear(features: np.ndarray, targets: np.ndarray) -> LinearModel:
    """Least squares on normalized features, closed form with a small ridge
    damping on the normal equations for conditioning."""
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    n, d = features.shape
    if n <= d:
        raise ValueError(f"need more rows ({n}) than features ({d})")
    norm = fit_normalization(features)
    x = np.hstack([norm.apply(features), np.ones((n, 1))])
    gram = x.T @ x + RIDGE_DAMPING * np.eye(d + 1)
    coef = np.linalg.solve(gram, x.T @ targets)  # (18, 5)
    return LinearModel(weights=coef[:-1].T.copy(), bias=coef[-1].copy(), norm=norm)


# ------------------------------------------------------------------ MLP


@dataclass(frozen=True)
class MlpModel:
    params: dict  # W1,b1,W2,b2,W3,b3
    hidden_dim: int
    norm: Normalization


def init_mlp_params(input_dim: int, hidden_dim: int, output_dim: int, seed: int) -> dict:
    """Uniform +/- sqrt(6/fan_in) init from the SplitMix64 stream."""
    gen = SplitMix64(seed)
    params = {}
    dims = [(input_dim, hidden_dim), (hidden_dim, hidden_dim), (hidden_dim, output_dim)]
    for i, (fan_in, fan_out) in enumerate(dims, start=1):
        bound = np.sqrt(6.0 / fan_in)
        params[f"W{i}"] = gen.uniform(-bound, bound, (fan_in, fan_out))
        params[f"b{i}"] = np.zeros(fan_out)
    return params


def mlp_forward(params: dict, x: np.ndarray):
    z1 = x @ params["W1"] + params["b1"]
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ params["W2"] + params["b2"]
    a2 = np.maximum(z2, 0.0)
    y = a2 @ params["W3"] + params["b3"]
    return y, (x, z1, a1, z2, a2)


def mlp_loss_and_grads(params: dict, x: np.ndarray, targets: np.ndarray):
    """Mean squared error over all (sample, output) pairs, with backprop grads."""
    y, (x, z1, a1, z2, a2) = mlp_forward(params, x)
    n = x.shape[0]
    diff = y - targets
    loss = float((diff ** 2).mean())
    dy = 2.0 * diff / diff.size
    grads = {}
    grads["W3"] = a2.T @ dy
    grads["b3"] = dy.sum(axis=0)
    da2 = dy @ params["W3"].T
    dz2 = da2 * (z2 > 0)
    grads["W2"] = a1.T @ dz2
    grads["b2"] = dz2.sum(axis=0)
    da1 = dz2 @ params["W2"].T
    dz1 = da1 * (z1 > 0)
    grads["W1"] = x.T @ dz1
    grads["b1"] = dz1.sum(axis=0)
    return loss, grads


def _unflatten(flat: np.ndarray, like: dict) -> dict:
    """Views into `flat` shaped like the arrays of `like`, in its key order."""
    views, offset = {}, 0
    for k, v in like.items():
        views[k] = flat[offset:offset + v.size].reshape(v.shape)
        offset += v.size
    return views


def train_mlp(features: np.ndarray, targets: np.ndarray,
              config: TrainConfig = TrainConfig()) -> MlpModel:
    """Mini-batch training on normalized features; returns the parameters with
    the best validation MSE seen across epochs (initialization included)."""
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if len(features) == 0:
        raise ValueError("empty training set")
    norm = fit_normalization(features)
    x_all = norm.apply(features)

    rng = np.random.default_rng(config.seed)
    n = len(x_all)
    n_val = int(n * config.validation_fraction)
    order = rng.permutation(n)
    val_idx, train_idx = order[:n_val], order[n_val:]
    if len(train_idx) == 0:
        raise ValueError("validation fraction leaves no training rows")
    x_train, y_train = x_all[train_idx], targets[train_idx]
    # fall back to the training rows when no validation split is requested
    x_val = x_all[val_idx] if n_val else x_train
    y_val = targets[val_idx] if n_val else y_train

    # One flat vector holds every parameter; params[k] are reshaped views into
    # it, so the optimizer updates all of them in one elementwise pass.
    init = init_mlp_params(x_all.shape[1], config.hidden_dim, targets.shape[1], config.seed)
    theta = np.concatenate([v.ravel() for v in init.values()])
    params = _unflatten(theta, init)
    state = np.zeros_like(theta)
    state2 = np.zeros_like(theta)
    step = 0

    def val_mse(p):
        pred, _ = mlp_forward(p, x_val)
        return float(((pred - y_val) ** 2).mean())

    best_mse = val_mse(params)
    best = theta.copy()

    for _ in range(config.epochs):
        batch_order = rng.permutation(len(x_train))
        for start in range(0, len(x_train), config.batch_size):
            idx = batch_order[start:start + config.batch_size]
            loss, grads = mlp_loss_and_grads(params, x_train[idx], y_train[idx])
            if not np.isfinite(loss):
                raise RuntimeError(f"training diverged: non-finite loss at step {step}")
            step += 1
            grad = np.concatenate([grads[k].ravel() for k in params])
            if config.optimizer == "adam":
                state = 0.9 * state + 0.1 * grad
                state2 = 0.999 * state2 + 0.001 * grad ** 2
                m_hat = state / (1 - 0.9 ** step)
                v_hat = state2 / (1 - 0.999 ** step)
                theta -= config.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
            else:
                state = 0.9 * state - config.learning_rate * grad
                theta += state
        mse = val_mse(params)
        if mse < best_mse:
            best_mse = mse
            best = theta.copy()

    best = {k: v.copy() for k, v in _unflatten(best, params).items()}
    return MlpModel(params=best, hidden_dim=config.hidden_dim, norm=norm)


# --------------------------------------------------------------- forest


@dataclass(frozen=True)
class ForestModel:
    trees: list  # each tree: dict of parallel node arrays
    norm: Normalization
    # The trees' node arrays packed end to end, child indices made global;
    # derived from `trees`, so they are neither arguments nor saved.
    packed: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.trees:
            raise ValueError("a forest needs at least one tree")
        offsets = np.cumsum([0] + [len(t["feature"]) for t in self.trees])
        packed = {key: np.concatenate([t[key] for t in self.trees])
                  for key in ("feature", "threshold", "value")}
        for key in ("left", "right"):
            child = np.concatenate([t[key] + off for t, off in zip(self.trees, offsets)])
            packed[key] = np.where(packed["feature"] >= 0, child, -1)
        packed["roots"] = offsets[:-1]
        object.__setattr__(self, "packed", packed)

    @property
    def tree_count(self):
        return len(self.trees)


# A node with at most this many rows is not split. It bounds the size of the
# nodes that split, not of the leaves: a split child may hold a single row.
MAX_UNSPLIT_ROWS = 5
SPLIT_CANDIDATES = 5  # ceil(sqrt(17))


def _best_split(x: np.ndarray, yi: np.ndarray, idx: np.ndarray, candidates: np.ndarray):
    """(summed child SSE, feature, threshold) of the best cut over all
    `candidates` at once; `yi` is `y[idx]`. A cut after sorted position p puts
    the first k = p + 1 rows on the left; cuts between equal values score inf.
    Ties go to the lowest position, then to the earliest candidate."""
    n, cols = len(idx), np.arange(len(candidates))
    xv = x[idx[:, None], candidates]                       # (n, c)
    order = np.argsort(xv, axis=0, kind="stable")
    xs = xv[order, cols]
    ys = yi[order]                                         # (n, c, 5)
    csum = np.cumsum(ys, axis=0)
    csum2 = np.cumsum(np.square(ys, out=ys), axis=0)
    # Per target, left SSE = s2 - s**2 / k and right SSE =
    # (tot2 - s2) - (tot - s)**2 / (n - k), built in place.
    k = np.arange(1, n, dtype=np.int64)[:, None, None]
    left = np.square(csum[:-1])
    left /= k
    np.subtract(csum2[:-1], left, out=left)
    right = np.subtract(csum[-1], csum[:-1])
    np.square(right, out=right)
    right /= n - k
    rest2 = np.subtract(csum2[-1], csum2[:-1], out=csum2[:-1])
    np.subtract(rest2, right, out=right)
    total = left.sum(axis=2) + right.sum(axis=2)           # (n - 1, c)
    total[~(xs[1:] > xs[:-1])] = np.inf
    pos = np.argmin(total, axis=0)
    col = int(np.argmin(total[pos, cols]))
    p = pos[col]
    return (float(total[p, col]), int(candidates[col]),
            float((xs[p, col] + xs[p + 1, col]) / 2))


def _grow_tree(x: np.ndarray, y: np.ndarray, rng,
               max_unsplit: int = MAX_UNSPLIT_ROWS) -> dict:
    """CART regression tree: greedy splits minimizing summed per-target SSE,
    with SPLIT_CANDIDATES random candidate features per node. A node with at
    most `max_unsplit` rows, or with zero SSE, stays a leaf; a split child
    may hold a single row. Nodes are numbered depth-first, left subtree
    first, which is also the order the candidates are drawn from `rng`."""
    feature, threshold = [], []
    left, right, value = [], [], []
    stack = [(np.arange(len(x)), None, None)]  # (rows, parent's child list, parent)
    while stack:
        idx, link, parent = stack.pop()
        node = len(feature)
        if link is not None:
            link[parent] = node
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        yi = y[idx]
        mean = yi.sum(axis=0) / len(idx)  # yi.mean(axis=0)'s arithmetic, less overhead
        value.append(mean)

        parent_sse = float(((yi - mean) ** 2).sum())
        if len(idx) <= max_unsplit or parent_sse <= 0.0:
            continue
        candidates = rng.choice(x.shape[1], size=min(SPLIT_CANDIDATES, x.shape[1]),
                                replace=False)
        best_sse, f, thr = _best_split(x, yi, idx, candidates)
        if best_sse >= parent_sse:  # also when no candidate has a cut (inf)
            continue
        go_left = x[idx, f] <= thr
        feature[node] = f
        threshold[node] = thr
        stack.append((idx[~go_left], right, node))
        stack.append((idx[go_left], left, node))
    return {
        "feature": np.array(feature),
        "threshold": np.array(threshold),
        "left": np.array(left),
        "right": np.array(right),
        "value": np.array(value),
    }


def _forest_predict(forest: ForestModel, x: np.ndarray) -> np.ndarray:
    """Mean leaf value over trees: every (tree, row) pair descends one level
    per step until all of them sit on a leaf."""
    p = forest.packed
    rows = len(x)
    node = np.repeat(p["roots"], rows)                     # tree-major pairs
    row = np.tile(np.arange(rows), len(p["roots"]))
    active = np.flatnonzero(p["feature"][node] >= 0)
    while active.size:
        at = node[active]
        go_left = x[row[active], p["feature"][at]] <= p["threshold"][at]
        at = np.where(go_left, p["left"][at], p["right"][at])
        node[active] = at
        active = active[p["feature"][at] >= 0]
    return p["value"][node].reshape(len(p["roots"]), rows, p["value"].shape[1]).mean(axis=0)


def train_forest(features: np.ndarray, targets: np.ndarray,
                 tree_count: int = 50, seed: int = 42,
                 max_unsplit: int = MAX_UNSPLIT_ROWS,
                 bootstrap: bool = True) -> ForestModel:
    """Bagged CART trees; per-tree seeds derive from (seed + tree index)."""
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if len(features) == 0:
        raise ValueError("empty training set")
    norm = fit_normalization(features)
    x = norm.apply(features)
    trees = []
    for t in range(tree_count):
        rng = np.random.default_rng(seed + t)
        if bootstrap:
            idx = rng.integers(0, len(x), size=len(x))
        else:
            idx = np.arange(len(x))
        trees.append(_grow_tree(x[idx], targets[idx], rng, max_unsplit))
    return ForestModel(trees=trees, norm=norm)


# -------------------------------------------------------------- predict


def predict(model, features: np.ndarray) -> np.ndarray:
    """Predict 5 band gains (dB, unclamped) for one feature vector or a batch."""
    features = np.asarray(features, dtype=np.float64)
    if not np.all(np.isfinite(features)):
        raise ValueError("non-finite feature input")
    single = features.ndim == 1
    batch = np.atleast_2d(features)
    x = model.norm.apply(batch)
    if isinstance(model, LinearModel):
        out = x @ model.weights.T + model.bias
    elif isinstance(model, MlpModel):
        out, _ = mlp_forward(model.params, x)
    elif isinstance(model, ForestModel):
        out = _forest_predict(model, x)
    else:
        raise TypeError(f"unknown model type {type(model).__name__}")
    return out[0] if single else out


# -------------------------------------------------------- serialization


def _norm_to_dict(norm: Normalization) -> dict:
    return {"mean": list(norm.mean), "std": list(norm.std)}


def _norm_from_dict(doc: dict) -> Normalization:
    return Normalization(np.array(doc["mean"]), np.array(doc["std"]))


def model_to_dict(model, train_config: dict | None = None,
                  metrics: dict | None = None) -> dict:
    if isinstance(model, LinearModel):
        kind = "linear"
        params = {"weights": model.weights.tolist(), "bias": model.bias.tolist()}
    elif isinstance(model, MlpModel):
        kind = "mlp"
        params = {
            "hidden_dim": model.hidden_dim,
            **{k: v.tolist() for k, v in model.params.items()},
        }
    elif isinstance(model, ForestModel):
        kind = "forest"
        params = {
            "trees": [
                {
                    "feature": t["feature"].tolist(),
                    "threshold": t["threshold"].tolist(),
                    "left": t["left"].tolist(),
                    "right": t["right"].tolist(),
                    "value": t["value"].tolist(),
                }
                for t in model.trees
            ]
        }
    else:
        raise TypeError(f"unknown model type {type(model).__name__}")
    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        "kind": kind,
        "params": params,
        "normalization": _norm_to_dict(model.norm),
        "train_config": train_config or {},
        "metrics": metrics or {},
    }


def model_from_dict(doc: dict):
    if doc.get("schema_version") != MODEL_SCHEMA_VERSION:
        raise ValueError(f"unsupported model schema_version {doc.get('schema_version')}")
    kind = doc["kind"]
    norm = _norm_from_dict(doc["normalization"])
    params = doc["params"]
    if kind == "linear":
        model = LinearModel(np.array(params["weights"]), np.array(params["bias"]), norm)
        if model.weights.shape != (OUTPUT_DIM, FEATURE_DIM):
            raise ValueError(f"linear weights have shape {model.weights.shape}")
    elif kind == "mlp":
        hidden = params["hidden_dim"]
        weights = {k: np.array(params[k]) for k in ("W1", "b1", "W2", "b2", "W3", "b3")}
        expected = {
            "W1": (FEATURE_DIM, hidden), "b1": (hidden,),
            "W2": (hidden, hidden), "b2": (hidden,),
            "W3": (hidden, OUTPUT_DIM), "b3": (OUTPUT_DIM,),
        }
        for k, shape in expected.items():
            if weights[k].shape != shape:
                raise ValueError(f"mlp parameter {k} has shape {weights[k].shape}, "
                                 f"expected {shape}")
        model = MlpModel(weights, hidden, norm)
    elif kind == "forest":
        trees = [
            {
                "feature": np.array(t["feature"], dtype=int),
                "threshold": np.array(t["threshold"]),
                "left": np.array(t["left"], dtype=int),
                "right": np.array(t["right"], dtype=int),
                "value": np.array(t["value"]),
            }
            for t in params["trees"]
        ]
        model = ForestModel(trees, norm)
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    return model


def save_model(model, path, train_config: dict | None = None,
               metrics: dict | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model, train_config, metrics), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path):
    with open(path) as fh:
        doc = json.load(fh)
    return model_from_dict(doc), doc.get("train_config", {}), doc.get("metrics", {})
