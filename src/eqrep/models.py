"""The three gain predictors: closed-form linear regression, a two-hidden-layer
MLP trained from scratch with backprop, and a bagged CART random forest.
All map 17 features to the 5 band gains in dB.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .features import FEATURE_DIM
from .jsondoc import JsonValue
from .rng import SplitMix64, splitmix64

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
    if not np.all(np.isfinite(features)):
        raise ValueError("non-finite feature in the training set")
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return Normalization(mean, std)


def _training_targets(targets: np.ndarray) -> np.ndarray:
    targets = np.asarray(targets, dtype=np.float64)
    if not np.all(np.isfinite(targets)):
        raise ValueError("non-finite target in the training set")
    return targets


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
    targets = _training_targets(targets)
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
    params: dict  # W1,b1,W2,b2,W3,b3; W1 is (17, hidden width)
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
    z1 = x @ params["W1"]
    z1 += params["b1"]
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ params["W2"]
    z2 += params["b2"]
    a2 = np.maximum(z2, 0.0)
    y = a2 @ params["W3"]
    y += params["b3"]
    return y, (x, z1, a1, z2, a2)


def mlp_loss_and_grads(params: dict, x: np.ndarray, targets: np.ndarray,
                       grads: dict | None = None):
    """Mean squared error over all (sample, output) pairs, with backprop grads.
    The gradients are written into `grads`, arrays shaped like `params`, when
    it is given, and into new arrays otherwise; the bytes are the same. The
    backward pass takes the forward pass's activations as its buffers."""
    y, (x, z1, a1, z2, a2) = mlp_forward(params, x)
    if grads is None:
        grads = {k: np.empty_like(v) for k, v in params.items()}
    dy = np.subtract(y, targets, out=y)
    loss = float(np.square(dy).mean())
    dy *= 2.0
    dy /= dy.size
    np.matmul(a2.T, dy, out=grads["W3"])
    np.add.reduce(dy, axis=0, out=grads["b3"])
    # (dy @ W3.T) * (z2 > 0), with the mask as 1.0 / 0.0 in z2
    dz2 = np.matmul(dy, params["W3"].T, out=a2)
    dz2 *= np.greater(z2, 0.0, out=z2)
    np.matmul(a1.T, dz2, out=grads["W2"])
    np.add.reduce(dz2, axis=0, out=grads["b2"])
    dz1 = np.matmul(dz2, params["W2"].T, out=a1)
    dz1 *= np.greater(z1, 0.0, out=z1)
    np.matmul(x.T, dz1, out=grads["W1"])
    np.add.reduce(dz1, axis=0, out=grads["b1"])
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
    the best validation MSE seen across epochs (initialization included).

    One flat vector holds every parameter and another every gradient;
    params[k] and grads[k] are reshaped views into them. Each step has
    `mlp_loss_and_grads` write its gradients into the views, and the
    optimizer then updates every parameter in place, in one elementwise
    pass of the per-parameter update's operations, in its order. Each epoch
    gathers its shuffled training rows once, and its batches are slices of
    that copy. Past set-up, the forward activations are a step's only sizeable
    allocations."""
    features = np.asarray(features, dtype=np.float64)
    targets = _training_targets(targets)
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

    init = init_mlp_params(x_all.shape[1], config.hidden_dim, targets.shape[1], config.seed)
    theta = np.concatenate([v.ravel() for v in init.values()])
    params = _unflatten(theta, init)
    grad = np.empty_like(theta)
    grads = _unflatten(grad, init)
    state = np.zeros_like(theta)
    state2 = np.zeros_like(theta)
    scratch = np.empty_like(theta)
    step = 0

    def val_mse(p):
        pred, _ = mlp_forward(p, x_val)
        return float(((pred - y_val) ** 2).mean())

    best_mse = val_mse(params)
    best = theta.copy()

    for _ in range(config.epochs):
        batch_order = rng.permutation(len(x_train))
        x_epoch, y_epoch = x_train[batch_order], y_train[batch_order]
        for start in range(0, len(x_train), config.batch_size):
            batch = slice(start, start + config.batch_size)
            loss, _ = mlp_loss_and_grads(params, x_epoch[batch], y_epoch[batch], grads)
            if not np.isfinite(loss):
                raise RuntimeError(f"training diverged: non-finite loss at step {step}")
            step += 1
            if config.optimizer == "adam":
                # state = 0.9 * state + 0.1 * grad
                state *= 0.9
                state += np.multiply(grad, 0.1, out=scratch)
                # state2 = 0.999 * state2 + 0.001 * grad ** 2
                state2 *= 0.999
                np.square(grad, out=scratch)
                scratch *= 0.001
                state2 += scratch
                # theta -= learning_rate * m_hat / (sqrt(v_hat) + 1e-8); the
                # gradient is spent, so its vector holds v_hat
                m_hat = np.divide(state, 1 - 0.9 ** step, out=scratch)
                v_hat = np.divide(state2, 1 - 0.999 ** step, out=grad)
                np.sqrt(v_hat, out=v_hat)
                v_hat += 1e-8
                m_hat *= config.learning_rate
                m_hat /= v_hat
                theta -= m_hat
            else:
                # state = 0.9 * state - learning_rate * grad; theta += state
                state *= 0.9
                state -= np.multiply(grad, config.learning_rate, out=scratch)
                theta += state
        mse = val_mse(params)
        if mse < best_mse:
            best_mse = mse
            np.copyto(best, theta)

    best = {k: v.copy() for k, v in _unflatten(best, params).items()}
    return MlpModel(params=best, norm=norm)


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


# A node with at most this many rows is not split. It bounds the size of the
# nodes that split, not of the leaves: a split child may hold a single row.
MAX_UNSPLIT_ROWS = 5
SPLIT_CANDIDATES = 5  # ceil(sqrt(17))
# Bytes of temporaries one batch of the grower may hold, whatever the tree
# and row counts. A node whose search block alone is larger is searched by
# itself, as a per-node grower would.
BATCH_BYTES = 4 << 20
# Temporaries per row of the partition step: index, gather and sort arrays.
_PARTITION_ROW_BYTES = 96


def _target_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the leading (target) axis, left to right."""
    total = a[0].copy()
    for part in a[1:]:
        total += part
    return total


def _node_draws(keys: np.ndarray, features: int):
    """Split candidates and child keys of the nodes with these keys. A node's
    candidates are the SPLIT_CANDIDATES smallest of the first `features`
    outputs of its SplitMix64 stream, in increasing order (a stable argsort);
    the next two outputs are its left and right child's keys."""
    z = splitmix64(keys, features + 2)
    order = np.argsort(z[:, :features], axis=1, kind="stable")
    return order[:, :SPLIT_CANDIDATES], z[:, features:]


def _node_stats(yv: np.ndarray, count: np.ndarray):
    """Mean (nodes, targets) and SSE (nodes,) of padded target blocks
    `yv` (targets, nodes, width), whose first count[b] rows are node b's.
    Sums run over rows in row order, then over targets left to right."""
    last = (count - 1)[None, :, None]
    mean = np.take_along_axis(np.cumsum(yv, axis=2), last, axis=2)[..., 0] / count
    dev = np.subtract(yv, mean[..., None])
    np.square(dev, out=dev)
    sse = _target_sum(np.take_along_axis(np.cumsum(dev, axis=2), last, axis=2)[..., 0])
    return mean.T, sse


def _best_splits(x, yt, block, count, candidates):
    """(summed child SSE, feature, threshold) of each node's best cut over
    its candidates. `block` (nodes, width) holds each node's rows, padded
    past count[b] by repeating one; `yt` is the targets transposed. A cut
    after sorted position p puts the first k = p + 1 rows on the left; cuts
    between equal values, or past a node's rows, score inf. Ties go to the
    lowest position, then to the earliest candidate."""
    nodes, width = block.shape
    xv = x[block[:, None, :], candidates[:, :, None]]          # (nodes, c, width)
    np.copyto(xv, np.inf, where=(np.arange(width) >= count[:, None])[:, None, :])
    order = np.argsort(xv, axis=2, kind="stable")
    xs = np.take_along_axis(xv, order, axis=2)
    ys = yt[:, block[np.arange(nodes)[:, None, None], order]]  # (targets, nodes, c, width)
    csum = np.cumsum(ys, axis=3)
    csum2 = np.cumsum(np.square(ys, out=ys), axis=3)
    del ys
    last = (count - 1)[None, :, None, None]
    k = np.arange(1, width)
    # Per target, left SSE = s2 - s**2 / k and right SSE =
    # (tot2 - s2) - (tot - s)**2 / (n - k), built in place over the sums.
    s, s2 = csum[..., :-1], csum2[..., :-1]
    right = np.subtract(np.take_along_axis(csum, last, axis=3), s)
    np.square(right, out=right)
    right /= np.maximum(count[:, None, None] - k, 1)  # past the rows: masked below
    left = np.square(s, out=s)
    left /= k
    np.subtract(s2, left, out=left)
    rest2 = np.subtract(np.take_along_axis(csum2, last, axis=3), s2, out=s2)
    np.subtract(rest2, right, out=right)
    total = _target_sum(left) + _target_sum(right)             # (nodes, c, width - 1)
    usable = (xs[..., 1:] > xs[..., :-1]) & (k <= count[:, None] - 1)[:, None, :]
    total[~usable] = np.inf
    pos = np.argmin(total, axis=2)
    per_candidate = np.take_along_axis(total, pos[..., None], axis=2)[..., 0]
    col = np.argmin(per_candidate, axis=1)
    b = np.arange(nodes)
    p = pos[b, col]
    return (per_candidate[b, col], candidates[b, col],
            (xs[b, col, p] + xs[b, col, p + 1]) / 2)


def _partition(x, rows, start, count, feature, threshold):
    """The rows of each split node, stably partitioned into those at or below
    its threshold and those above, laid out node after node, left part
    first; returns (rows, left counts). Works in batches of whole nodes."""
    out = np.empty(int(count.sum()), dtype=rows.dtype)
    left_count = np.empty(len(count), dtype=np.int64)
    ends = np.cumsum(count)
    lo = 0
    while lo < len(count):
        hi = max(lo + 1, int(np.searchsorted(
            ends, ends[lo] - count[lo] + BATCH_BYTES // _PARTITION_ROW_BYTES, side="right")))
        n = count[lo:hi]
        node = np.repeat(np.arange(hi - lo), n)
        r = rows[np.arange(len(node)) + np.repeat(start[lo:hi] - (np.cumsum(n) - n), n)]
        go_left = x[r, feature[lo:hi][node]] <= threshold[lo:hi][node]
        first = ends[lo] - count[lo]
        out[first:first + len(r)] = r[np.argsort(2 * node + ~go_left, kind="stable")]
        left_count[lo:hi] = np.bincount(node[go_left], minlength=hi - lo)
        lo = hi
    return out, left_count


def _grow_trees(x: np.ndarray, y: np.ndarray, roots, keys,
                max_unsplit: int = MAX_UNSPLIT_ROWS) -> list:
    """CART regression trees, one per (root rows, root key) pair: greedy
    splits minimizing summed per-target SSE, with SPLIT_CANDIDATES candidate
    features per node drawn from the node's key (`_node_draws`). A node with
    at most `max_unsplit` rows, or with zero SSE, stays a leaf; a split child
    may hold a single row. Rows are indices into `x` and `y`.

    All trees grow together, one level per step. Each level's nodes are
    searched in batches of one size class, each node's rows padded to the
    class width; a batch holds at most BATCH_BYTES of temporaries. A node's draws and arithmetic depend
    only on its own rows and key, so its tree is the same whichever trees
    grow beside it. Each tree's nodes are numbered in level order, left
    child before right."""
    features = x.shape[1]
    yt = np.ascontiguousarray(y.T)
    # search temporaries per (node, row): a few arrays per target and candidate
    row_bytes = 8 * (6 + 5 * len(yt)) * min(SPLIT_CANDIDATES, features)
    rows = np.concatenate(roots)
    count = np.array([len(r) for r in roots])
    tree = np.arange(len(roots))
    key = np.asarray(keys, dtype=np.uint64)
    parts = {name: [] for name in ("tree", "feature", "threshold", "value", "left", "right")}
    next_id = 0
    while len(count):
        nodes = len(count)
        start = np.cumsum(count) - count
        value = np.empty((nodes, len(yt)))
        feature = np.full(nodes, -1)
        threshold = np.zeros(nodes)
        child_key = np.zeros((nodes, 2), dtype=np.uint64)
        # Size class: count rounded up to a multiple of 1/16 of the power of
        # two at or above it (of 1 below 16), so padding stays under 1/8.
        step = 1 << np.maximum(np.frexp(count - 1)[1] - 4, 0)
        width = -(-count // step) * step
        for w in np.unique(width).tolist():
            members = np.flatnonzero(width == w)
            per_batch = max(1, BATCH_BYTES // (w * row_bytes))
            for at in range(0, len(members), per_batch):
                batch = members[at:at + per_batch]
                block = rows[start[batch, None] + np.minimum(np.arange(w), count[batch, None] - 1)]
                value[batch], sse = _node_stats(yt[:, block], count[batch])
                grow = (count[batch] > max_unsplit) & (sse > 0.0)
                if not grow.any():
                    continue
                ids = batch[grow]
                drawn, kids = _node_draws(key[ids], features)
                best, f, thr = _best_splits(x, yt, block[grow], count[ids], drawn)
                split = best < sse[grow]  # also false when no candidate has a cut (inf)
                ids = ids[split]
                feature[ids], threshold[ids], child_key[ids] = f[split], thr[split], kids[split]
        split = np.flatnonzero(feature >= 0)
        left, right = np.full(nodes, -1), np.full(nodes, -1)
        left[split] = next_id + nodes + 2 * np.arange(len(split))
        right[split] = left[split] + 1
        for name, a in zip(parts, (tree, feature, threshold, value, left, right)):
            parts[name].append(a)
        next_id += nodes
        rows, left_count = _partition(x, rows, start[split], count[split],
                                      feature[split], threshold[split])
        count = np.column_stack([left_count, count[split] - left_count]).ravel()
        tree = np.repeat(tree[split], 2)
        key = child_key[split].ravel()

    # Renumber per tree: the global ids run level by level, each level tree
    # by tree, so a stable sort by tree leaves each tree in level order.
    # Each field is gathered as its level parts are released.
    tree = np.concatenate(parts.pop("tree"))
    order = np.argsort(tree, kind="stable")
    sizes = np.bincount(tree, minlength=len(roots))
    first = np.cumsum(sizes) - sizes
    local = np.empty_like(order)
    local[order] = np.arange(len(order)) - np.repeat(first, sizes)
    fields = {}
    for name in list(parts):
        a = np.concatenate(parts.pop(name))[order]
        fields[name] = np.where(a >= 0, local[a], -1) if name in ("left", "right") else a
    return [{name: a[lo:lo + size] for name, a in fields.items()}
            for lo, size in zip(first.tolist(), sizes.tolist())]


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
                 tree_count: int = 50, seed: int = 42) -> ForestModel:
    """Bagged CART trees grown together by `_grow_trees`. Tree t draws its
    bootstrap rows from `np.random.default_rng(seed + t)` and its split
    candidates from root key seed + t, so it is the single tree that
    `train_forest(..., tree_count=1, seed=seed + t)` grows."""
    features = np.asarray(features, dtype=np.float64)
    targets = _training_targets(targets)
    if len(features) == 0:
        raise ValueError("empty training set")
    if tree_count < 1:
        raise ValueError("a forest needs at least one tree")
    norm = fit_normalization(features)
    x = norm.apply(features)
    n = len(x)
    roots = [np.random.default_rng(seed + t).integers(0, n, size=n) for t in range(tree_count)]
    keys = [(seed + t) % 2 ** 64 for t in range(tree_count)]
    return ForestModel(trees=_grow_trees(x, targets, roots, keys), norm=norm)


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


def _norm_from_doc(doc: JsonValue) -> Normalization:
    return Normalization(doc["mean"].array((FEATURE_DIM,)), doc["std"].array((FEATURE_DIM,)))


def model_to_dict(model, train_config: dict | None = None,
                  metrics: dict | None = None) -> dict:
    if isinstance(model, LinearModel):
        kind = "linear"
        params = {"weights": model.weights.tolist(), "bias": model.bias.tolist()}
    elif isinstance(model, MlpModel):
        kind = "mlp"
        params = {
            "hidden_dim": model.params["W1"].shape[1],
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


def _tree_from_doc(doc: JsonValue) -> dict:
    """One tree's node arrays, checked so that a prediction can walk them:
    equal lengths, feature -1 (a leaf) or a feature index, children -1 on a
    leaf and otherwise after the node and within the tree, (nodes, 5) values."""
    tree = {
        "feature": doc["feature"].array((None,), int),
        "threshold": doc["threshold"].array((None,)),
        "left": doc["left"].array((None,), int),
        "right": doc["right"].array((None,), int),
    }
    nodes = len(tree["feature"])
    if nodes == 0 or any(a.shape != (nodes,) for a in tree.values()):
        raise ValueError("forest tree node arrays are empty or differ in length")
    tree["value"] = doc["value"].array((None, None))
    if tree["value"].shape != (nodes, OUTPUT_DIM):
        raise ValueError(f"forest tree values have shape {tree['value'].shape}, "
                         f"expected {(nodes, OUTPUT_DIM)}")
    leaf = tree["feature"] == -1
    if np.any(~leaf & ((tree["feature"] < 0) | (tree["feature"] >= FEATURE_DIM))):
        raise ValueError(f"forest tree feature index outside [0, {FEATURE_DIM})")
    ids = np.arange(nodes)
    for key in ("left", "right"):
        child = tree[key]
        if np.any(np.where(leaf, child != -1, (child <= ids) | (child >= nodes))):
            raise ValueError(f"forest tree {key} child out of range")
    return tree


def model_from_dict(doc: dict):
    """The model of an artifact dict. A missing key, a value of the wrong
    JSON type or shape, or malformed forest trees raise ValueError."""
    doc = JsonValue(doc, "model artifact")
    version = doc["schema_version"].int()
    if version != MODEL_SCHEMA_VERSION:
        raise ValueError(f"unsupported model schema_version {version}")
    kind = doc["kind"].str()
    norm = _norm_from_doc(doc["normalization"])
    params = doc["params"]
    if kind == "linear":
        return LinearModel(params["weights"].array((OUTPUT_DIM, FEATURE_DIM)),
                           params["bias"].array((OUTPUT_DIM,)), norm)
    if kind == "mlp":
        hidden = params["hidden_dim"].int()
        shapes = {"W1": (FEATURE_DIM, hidden), "b1": (hidden,),
                  "W2": (hidden, hidden), "b2": (hidden,),
                  "W3": (hidden, OUTPUT_DIM), "b3": (OUTPUT_DIM,)}
        return MlpModel({k: params[k].array(shape) for k, shape in shapes.items()}, norm)
    if kind == "forest":
        return ForestModel([_tree_from_doc(t) for t in params["trees"].elements()], norm)
    raise ValueError(f"unknown model kind {kind!r}")


def save_model(model, path, train_config: dict | None = None,
               metrics: dict | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model, train_config, metrics), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path):
    """(model, train_config, metrics) of an artifact file."""
    with open(path) as fh:
        doc = json.load(fh)
    model = model_from_dict(doc)
    doc = JsonValue(doc, "model artifact")
    return model, doc.get("train_config", {}).obj(), doc.get("metrics", {}).obj()
