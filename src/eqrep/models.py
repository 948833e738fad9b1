"""The three gain predictors: closed-form linear regression, a two-hidden-layer
MLP trained from scratch with backprop, and a bagged CART random forest.
All map a feature row, as wide as their normalization, to one value per target,
as many as their params hold: for eqrep's datasets, the band gains in dB.

`MODEL_KINDS` is the one list of model kinds. Each model class carries its
`kind`, its `fit`, its `forward` pass on normalized rows, and its artifact
`params` both ways (`params_doc`, `from_params`); `predict`, the artifact
functions, the experiments and `train --model` all go through the table.
"""

import json
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import jsondoc, rng
from .jsondoc import JsonValue

MODEL_SCHEMA_VERSION = 1
RIDGE_DAMPING = 1e-8
# Share of the rows `train_mlp` holds out to pick its best epoch.
VALIDATION_FRACTION = 0.1


@dataclass(frozen=True)
class Normalization:
    mean: np.ndarray
    std: np.ndarray

    @property
    def width(self) -> int:
        return len(self.mean)

    def apply(self, features: np.ndarray) -> np.ndarray:
        return (features - self.mean) / self.std


def fit_normalization(features: np.ndarray) -> Normalization:
    """Column mean and population std; zero-variance columns get std 1, and
    a column whose mean or std overflows a float is refused."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or len(features) < 2:
        raise ValueError("need a matrix with at least 2 rows")
    if not np.all(np.isfinite(features)):
        raise ValueError("non-finite feature in the training set")
    with np.errstate(over="ignore"):
        mean, std = features.mean(axis=0), features.std(axis=0)
    if not np.all(np.isfinite(mean) & np.isfinite(std)):
        raise ValueError("a feature column of the training set overflows its mean or std")
    std = np.where(std > 0, std, 1.0)
    return Normalization(mean, std)


def _training_set(features: np.ndarray, targets: np.ndarray):
    """(normalization, normalized features, targets) of a training set. A
    non-finite target, a non-finite feature or fewer than 2 rows is refused."""
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if not np.all(np.isfinite(targets)):
        raise ValueError("non-finite target in the training set")
    norm = fit_normalization(features)
    return norm, norm.apply(features), targets


@dataclass(frozen=True)
class TrainConfig:
    """Every training option of every model kind; `train` takes one option
    per field and records the fields in its artifact."""
    learning_rate: float = 1e-3
    epochs: int = 500
    batch_size: int = 64
    hidden_dim: int = 64
    seed: int = 42
    trees: int = 50

    def __post_init__(self):
        if not np.isfinite(self.learning_rate):
            raise ValueError(f"learning_rate must be finite, got {self.learning_rate}")
        if min(self.learning_rate, self.epochs, self.batch_size, self.hidden_dim,
               self.trees) <= 0:
            raise ValueError("learning_rate, epochs, batch_size, hidden_dim, trees "
                             "must be positive")


# ---------------------------------------------------------------- linear


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray  # (targets, width): one row per target
    bias: np.ndarray     # (targets,)
    norm: Normalization
    kind: ClassVar[str] = "linear"

    @staticmethod
    def fit(x, y, config: TrainConfig) -> "LinearModel":
        return train_linear(x, y)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x @ self.weights.T + self.bias

    def params_doc(self) -> dict:
        return {"weights": self.weights.tolist(), "bias": self.bias.tolist()}

    @classmethod
    def from_params(cls, params: JsonValue, norm: Normalization) -> "LinearModel":
        # `[]` parses as one axis, so a read matrix has at least one row
        weights = params["weights"].array((None, norm.width))
        return cls(weights, params["bias"].array((len(weights),)), norm)


def train_linear(features: np.ndarray, targets: np.ndarray) -> LinearModel:
    """Least squares on normalized features, closed form with a small ridge
    damping on the normal equations for conditioning."""
    norm, x, targets = _training_set(features, targets)
    n, d = x.shape
    if n <= d:
        raise ValueError(f"need more rows ({n}) than features ({d})")
    x = np.hstack([x, np.ones((n, 1))])
    gram = x.T @ x + RIDGE_DAMPING * np.eye(d + 1)
    coef = np.linalg.solve(gram, x.T @ targets)  # (width + 1, 5)
    return LinearModel(weights=coef[:-1].T.copy(), bias=coef[-1].copy(), norm=norm)


# ------------------------------------------------------------------ MLP


@dataclass(frozen=True)
class MlpModel:
    params: dict  # W1,b1,W2,b2,W3,b3; W1 is (width, hidden width)
    norm: Normalization
    kind: ClassVar[str] = "mlp"

    @staticmethod
    def fit(x, y, config: TrainConfig) -> "MlpModel":
        return train_mlp(x, y, config)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return mlp_forward(self.params, x)[0]

    def params_doc(self) -> dict:
        return {"hidden_dim": self.params["W1"].shape[1],
                **{k: v.tolist() for k, v in self.params.items()}}

    @classmethod
    def from_params(cls, params: JsonValue, norm: Normalization) -> "MlpModel":
        hidden = params["hidden_dim"].int(low=1)
        targets = _target_columns(params["W3"], hidden)
        shapes = {"W1": (norm.width, hidden), "b1": (hidden,),
                  "W2": (hidden, hidden), "b2": (hidden,),
                  "W3": (hidden, targets), "b3": (targets,)}
        return cls({k: params[k].array(shape) for k, shape in shapes.items()}, norm)


def init_mlp_params(input_dim: int, hidden_dim: int, output_dim: int, seed: int) -> dict:
    """Uniform +/- sqrt(6/fan_in) init. W1, W2 and W3 are, in turn, the first
    outputs of the stream keyed by `rng.key(seed, "mlp_init")`, each draw
    keeping its top 53 bits as a unit float in [0, 1)."""
    dims = [(input_dim, hidden_dim), (hidden_dim, hidden_dim), (hidden_dim, output_dim)]
    sizes = [fan_in * fan_out for fan_in, fan_out in dims]
    z = rng.splitmix64([rng.key(seed, "mlp_init")], sum(sizes))[0]
    units = np.split((z >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53)),
                     np.cumsum(sizes)[:-1])
    params = {}
    for i, ((fan_in, fan_out), unit) in enumerate(zip(dims, units), start=1):
        bound = np.sqrt(6.0 / fan_in)
        params[f"W{i}"] = (-bound + 2 * bound * unit).reshape(fan_in, fan_out)
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
                       grads: dict) -> float:
    """Mean squared error over all (sample, output) pairs. The backprop
    gradients are written into `grads`, arrays shaped like `params`. The
    backward pass takes the forward pass's activations as its buffers."""
    y, (x, z1, a1, z2, a2) = mlp_forward(params, x)
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
    return loss


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
    the best validation MSE seen across epochs (initialization included). The
    validation rows are VALIDATION_FRACTION of the set; a set too small to
    spare one is validated on its training rows.

    One flat vector holds every parameter and another every gradient;
    params[k] and grads[k] are reshaped views into them. Each step has
    `mlp_loss_and_grads` write its gradients into the views, and Adam
    (Kingma & Ba, 2015, Algorithm 1) then updates the whole parameter vector
    in place, in the per-parameter update's operations and order. Each epoch
    gathers its shuffled training rows once, and its batches are slices of
    that copy."""
    norm, x_all, targets = _training_set(features, targets)

    n = len(x_all)
    n_val = int(n * VALIDATION_FRACTION)
    order = rng.permutation(rng.key(config.seed, "mlp_validation"), n)
    val_idx, train_idx = order[:n_val], order[n_val:]
    x_train, y_train = x_all[train_idx], targets[train_idx]
    x_val = x_all[val_idx] if n_val else x_train
    y_val = targets[val_idx] if n_val else y_train

    init = init_mlp_params(x_all.shape[1], config.hidden_dim, targets.shape[1], config.seed)
    theta = np.concatenate([v.ravel() for v in init.values()])
    params = _unflatten(theta, init)
    grad = np.empty_like(theta)
    grads = _unflatten(grad, init)
    state = np.zeros_like(theta)
    state2 = np.zeros_like(theta)
    step = 0

    def val_mse(p):
        pred, _ = mlp_forward(p, x_val)
        return float(((pred - y_val) ** 2).mean())

    best_mse = val_mse(params)
    best = theta.copy()

    for epoch_key in rng.splitmix64([rng.key(config.seed, "mlp_epoch")], config.epochs)[0]:
        batch_order = rng.permutation(epoch_key, len(x_train))
        x_epoch, y_epoch = x_train[batch_order], y_train[batch_order]
        for start in range(0, len(x_train), config.batch_size):
            batch = slice(start, start + config.batch_size)
            loss = mlp_loss_and_grads(params, x_epoch[batch], y_epoch[batch], grads)
            if not np.isfinite(loss):
                raise RuntimeError(f"training diverged: non-finite loss at step {step}")
            step += 1
            state = 0.9 * state + 0.1 * grad
            state2 = 0.999 * state2 + 0.001 * np.square(grad)
            theta -= config.learning_rate * (state / (1 - 0.9 ** step)) / (
                np.sqrt(state2 / (1 - 0.999 ** step)) + 1e-8)
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
    kind: ClassVar[str] = "forest"

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

    @staticmethod
    def fit(x, y, config: TrainConfig) -> "ForestModel":
        return train_forest(x, y, config.trees, config.seed)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Mean leaf value over trees: every (tree, row) pair descends one
        level per step until all of them sit on a leaf."""
        p = self.packed
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

    def params_doc(self) -> dict:
        keys = ("feature", "threshold", "left", "right", "value")
        return {"trees": [{key: t[key].tolist() for key in keys} for t in self.trees]}

    @classmethod
    def from_params(cls, params: JsonValue, norm: Normalization) -> "ForestModel":
        docs = params["trees"].elements()  # every tree has the first one's targets
        targets = _target_columns(docs[0]["value"], None) if docs else 0
        return cls([_tree_from_doc(doc, norm.width, targets) for doc in docs], norm)


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
    z = rng.splitmix64(keys, features + 2)
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


def train_forest(features: np.ndarray, targets: np.ndarray,
                 tree_count: int = TrainConfig.trees, seed: int = 42) -> ForestModel:
    """Bagged CART trees grown together by `_grow_trees`. Tree t's bootstrap
    rows and root node key are keyed by seed + t, so it is the single tree
    that `train_forest(..., tree_count=1, seed=seed + t)` grows."""
    if tree_count < 1:
        raise ValueError("a forest needs at least one tree")
    norm, x, targets = _training_set(features, targets)
    n = len(x)
    roots = [(rng.splitmix64([rng.key(seed + t, "tree_bootstrap")], n)[0] % np.uint64(n))
             .astype(np.int64) for t in range(tree_count)]
    keys = [rng.key(seed + t, "tree_root") for t in range(tree_count)]
    return ForestModel(trees=_grow_trees(x, targets, roots, keys), norm=norm)


# -------------------------------------------------------------- predict


# The kinds in the order of `train --model`'s choices and of the multi-band
# experiment's results.
MODEL_KINDS = {cls.kind: cls for cls in (LinearModel, ForestModel, MlpModel)}


def predict(model, features: np.ndarray) -> np.ndarray:
    """Predict one value per target (unclamped) for one (width,) feature
    vector or an (n, width) batch, at the model's width."""
    features = np.asarray(features, dtype=np.float64)
    width = model.norm.width
    if features.ndim not in (1, 2) or features.shape[-1] != width:
        raise ValueError(f"expected a ({width},) or (n, {width}) feature "
                         f"array, got shape {features.shape}")
    if not np.all(np.isfinite(features)):
        raise ValueError("non-finite feature input")
    with np.errstate(over="ignore", invalid="ignore"):
        out = model.forward(model.norm.apply(np.atleast_2d(features)))
    if not np.all(np.isfinite(out)):
        raise ValueError("prediction overflows a float: the features lie far outside "
                         "the model's training range")
    return out[0] if features.ndim == 1 else out


def target_count(model) -> int:
    """The number of values the model predicts per row, set by its params."""
    return model.forward(np.empty((0, model.norm.width))).shape[1]


# -------------------------------------------------------- serialization


def model_to_dict(model, train_config: dict | None = None,
                  metrics: dict | None = None) -> dict:
    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        "kind": model.kind,
        "params": model.params_doc(),
        "normalization": {"mean": list(model.norm.mean), "std": list(model.norm.std)},
        "train_config": train_config or {},
        "metrics": metrics or {},
    }


def _target_columns(value: JsonValue, rows) -> int:
    """The columns of the (rows, targets) array `value`: a model has at least one target."""
    shape = value.array((rows, None)).shape
    if shape[1] < 1:
        raise ValueError(f"{value.what} {value.path}: expected at least one target column, "
                         f"got shape {shape}")
    return shape[1]


def _tree_from_doc(doc: JsonValue, width: int, targets: int) -> dict:
    """One tree's node arrays, checked so that a prediction can walk them: equal
    lengths, children -1 on a leaf, else after the node within the tree, (nodes, targets) values."""
    tree = {"feature": doc["feature"].array((None,), int, low=-1, high=width - 1),
            "threshold": doc["threshold"].array((None,)),
            **{key: doc[key].array((None,), int) for key in ("left", "right")}}
    nodes = len(tree["feature"])
    if nodes == 0 or any(a.shape != (nodes,) for a in tree.values()):
        raise ValueError("forest tree node arrays are empty or differ in length")
    tree["value"] = doc["value"].array((None, None))
    if tree["value"].shape != (nodes, targets):
        raise ValueError(f"{doc.what} {doc.path}.value: forest tree values have shape "
                         f"{tree['value'].shape}, expected {(nodes, targets)}")
    leaf, ids = tree["feature"] == -1, np.arange(nodes)
    for key in ("left", "right"):
        if np.any(np.where(leaf, tree[key] != -1, (tree[key] <= ids) | (tree[key] >= nodes))):
            raise ValueError(f"forest tree {key} child out of range")
    return tree


def model_from_dict(doc: dict):
    """(model, train_config, metrics) of an artifact dict, or a ValueError."""
    doc = JsonValue(doc, "model artifact")
    doc["schema_version"].int(MODEL_SCHEMA_VERSION, MODEL_SCHEMA_VERSION)
    kind = doc["kind"].str()
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    mean = doc["normalization"]["mean"].array((None,))
    # a positive std: 5e-324 is the smallest float above 0
    std = doc["normalization"]["std"].array(mean.shape, low=5e-324)
    model = MODEL_KINDS[kind].from_params(doc["params"], Normalization(mean, std))
    return model, doc.get("train_config", {}).obj(), doc.get("metrics", {}).obj()


def save_model(model, path, train_config: dict | None = None,
               metrics: dict | None = None) -> None:
    jsondoc.write(model_to_dict(model, train_config, metrics), path)


def load_model(path):
    """(model, train_config, metrics) of an artifact file."""
    with open(path) as fh:
        return model_from_dict(json.load(fh))
