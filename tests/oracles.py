"""Independent brute-force oracles for the synthesis, EQ, feature and model code.

Everything here deliberately avoids the fast paths under test: a note is
summed one freshly allocated partial at a time, the EQ is a
sample-by-sample difference-equation loop and its response is H(z) evaluated
term by term, the DFT is the O(n^2) definition, the DCT is the direct cosine
sum, the per-frame stats are plain Python loops over the definitions, and
SplitMix64 steps one Python-int draw at a time.

The model references at the end are the loop forms of the vectorized model
code: a CART grower that takes one node at a time from a FIFO queue and
searches one candidate feature at a time, a per-row tree walk, and an MLP
trainer that updates one parameter array at a time. They do the same
arithmetic in the same order, so the fast paths must match them exactly.
"""

import collections
import math

import numpy as np

from eqrep import models, rng
from eqrep.audio import DECAY_RATE
from eqrep.models import (SPLIT_CANDIDATES, fit_normalization, init_mlp_params,
                          mlp_forward, mlp_loss_and_grads)


def note_samples(spec, sample_rate):
    """The samples `synthesize_note` renders, one new array per partial:
    sum_k (1/k) sin(2*pi*k*f0*t), times exp(-DECAY_RATE*t), scaled to a 0.9 peak."""
    t = np.arange(int(round(spec.duration_s * sample_rate))) / sample_rate
    out = np.zeros(len(t))
    envelope = np.exp(-DECAY_RATE * t)
    for k in range(1, spec.partial_count + 1):
        out += (1.0 / k) * np.sin(2.0 * np.pi * k * spec.fundamental_hz * t)
    out *= envelope
    out *= 0.9 / np.max(np.abs(out))
    return out


def biquad_cascade(samples, sections):
    """Serial direct-form I biquads, zero initial state. Each section is an
    SOS row (b0, b1, b2, 1, a1, a2), a0 normalized to 1."""
    out = [float(v) for v in samples]
    for b0, b1, b2, _, a1, a2 in sections:
        x1 = x2 = y1 = y2 = 0.0
        for i, x in enumerate(out):
            y = b0 * x + b1 * x1 + b2 * x2 - a1 * y1 - a2 * y2
            x2, x1, y2, y1 = x1, x, y1, y
            out[i] = y
    return np.array(out)


def biquad_response_db(row, freqs_hz, sample_rate):
    """Magnitude response 20*log10|H(e^jw)| of one SOS row, with H(z) =
    (b0 + b1 z^-1 + b2 z^-2) / (a0 + a1 z^-1 + a2 z^-2) written out."""
    b0, b1, b2, a0, a1, a2 = row
    z1 = np.exp(-1j * 2.0 * np.pi * np.asarray(freqs_hz, dtype=np.float64) / sample_rate)
    z2 = z1 * z1
    h = (b0 + b1 * z1 + b2 * z2) / (a0 + a1 * z1 + a2 * z2)
    return 20.0 * np.log10(np.abs(h))


def splitmix64_outputs(key, count):
    """The first `count` outputs of the SplitMix64 stream started at `key`,
    as Python ints, one draw at a time: the state steps by gamma per draw."""
    mask = (1 << 64) - 1
    state, out = key & mask, []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def stream_key(seed, purpose):
    """`rng.key` one Python-int step at a time: from 0, the key is XORed with
    seed mod 2^64, then with the purpose's position in `rng.PURPOSES`, and
    each time replaced by its stream's first output."""
    key = 0
    for part in (seed % (1 << 64), rng.PURPOSES.index(purpose)):
        key = splitmix64_outputs(key ^ part, 1)[0]
    return key


def splitmix64_uniform(seed, low, high, sizes):
    """Arrays of uniform floats in [low, high), one per size, drawn in turn
    from one SplitMix64 stream; each draw keeps the top 53 bits."""
    counts = [int(np.prod(size)) for size in sizes]
    draws = iter(splitmix64_outputs(seed, sum(counts)))
    return [(low + (high - low) * np.array([(next(draws) >> 11) * (1.0 / (1 << 53))
                                            for _ in range(count)])).reshape(size)
            for count, size in zip(counts, sizes)]


def hann(n):
    return np.array([0.5 - 0.5 * math.cos(2 * math.pi * k / n) for k in range(n)])


def frames_of(samples, frame_size, hop_size):
    count = 1 + (len(samples) - frame_size) // hop_size
    return [samples[i * hop_size:i * hop_size + frame_size] for i in range(count)]


_dft_basis_cache = {}


def dft_magnitudes(frame):
    """O(n^2) DFT, first n/2 + 1 bins."""
    n = len(frame)
    if n not in _dft_basis_cache:
        k = np.arange(n // 2 + 1)
        _dft_basis_cache[n] = np.exp(-2j * math.pi * np.outer(k, np.arange(n)) / n)
    return np.abs(_dft_basis_cache[n] @ frame)


def stft_magnitudes(samples, frame_size, hop_size):
    window = hann(frame_size)
    return np.array([dft_magnitudes(f * window) for f in frames_of(samples, frame_size, hop_size)])


def centroid(mags, freqs):
    total = sum(mags)
    if total == 0:
        return 0.0
    return sum(m * f for m, f in zip(mags, freqs)) / total


def bandwidth(mags, freqs, cent):
    total = sum(mags)
    if total == 0:
        return 0.0
    return math.sqrt(sum(m * (f - cent) ** 2 for m, f in zip(mags, freqs)) / total)


def rolloff(mags, freqs, fraction):
    energies = [m ** 2 for m in mags]
    total = sum(energies)
    if total == 0:
        return 0.0
    running = 0.0
    for e, f in zip(energies, freqs):
        running += e
        if running >= fraction * total:
            return f
    return freqs[-1]


def dct2_ortho(values):
    """Direct DCT-II with orthonormal scaling."""
    n = len(values)
    out = np.empty(n)
    for k in range(n):
        s = sum(values[j] * math.cos(math.pi * k * (2 * j + 1) / (2 * n)) for j in range(n))
        scale = math.sqrt(1.0 / n) if k == 0 else math.sqrt(2.0 / n)
        out[k] = scale * s
    return out


def mel_filterbank(n_mels, frame_size, sample_rate):
    def to_mel(f):
        return 2595.0 * math.log10(1.0 + f / 700.0)

    def to_hz(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    bin_freqs = [k * sample_rate / frame_size for k in range(frame_size // 2 + 1)]
    points = [to_hz(to_mel(sample_rate / 2) * i / (n_mels + 1)) for i in range(n_mels + 2)]
    bank = np.zeros((n_mels, len(bin_freqs)))
    for m in range(n_mels):
        lo, center, hi = points[m], points[m + 1], points[m + 2]
        for k, f in enumerate(bin_freqs):
            if lo < f < hi:
                bank[m, k] = min((f - lo) / (center - lo), (hi - f) / (hi - center))
    return bank


def feature_vector(samples, sample_rate, frame_size, hop_size,
                   n_mels=40, rolloff_fraction=0.85, log_floor=1e-10):
    """Full 17-dim feature vector computed the slow way."""
    mags = stft_magnitudes(samples, frame_size, hop_size)
    freqs = [k * sample_rate / frame_size for k in range(frame_size // 2 + 1)]
    cents, bands, rolls, mfccs, rmss = [], [], [], [], []
    bank = mel_filterbank(n_mels, frame_size, sample_rate)
    for frame_mags, frame in zip(mags, frames_of(samples, frame_size, hop_size)):
        c = centroid(frame_mags, freqs)
        cents.append(c)
        bands.append(bandwidth(frame_mags, freqs, c))
        rolls.append(rolloff(frame_mags, freqs, rolloff_fraction))
        logmel = np.log(bank @ (frame_mags ** 2) + log_floor)
        mfccs.append(dct2_ortho(logmel)[:13])
        rmss.append(math.sqrt(sum(s * s for s in frame) / frame_size))
    return np.concatenate([
        [np.mean(cents), np.mean(bands), np.mean(rolls)],
        np.mean(mfccs, axis=0),
        [np.mean(rmss)],
    ])


# ------------------------------------------------------------------ models


def node_draws(key, features):
    """(split candidates, left child key, right child key) of the tree node
    with this key: the candidates are the features whose stream outputs are
    the SPLIT_CANDIDATES smallest, smallest first, lower feature on a tie."""
    z = splitmix64_outputs(key, features + 2)
    candidates = sorted(range(features), key=lambda f: (z[f], f))[:SPLIT_CANDIDATES]
    return candidates, z[features], z[features + 1]


def target_sum(values):
    """Sum over targets (the last axis), left to right."""
    total = values[..., 0]
    for t in range(1, values.shape[-1]):
        total = total + values[..., t]
    return total


def grow_tree(x, y, key, max_unsplit):
    """CART regression tree grown one node at a time from a FIFO queue, one
    split candidate at a time, with the candidates and child keys drawn from
    each node's key as `models._grow_trees` does. Node sums run over rows in
    row order and then over targets, as there; nodes are numbered in level
    order, left child before right."""
    feature, threshold, left, right, value = [-1], [0.0], [-1], [-1], [None]
    queue = collections.deque([(0, np.arange(len(x)), key)])
    while queue:
        node, idx, key = queue.popleft()
        n = len(idx)
        total = y[idx[0]]
        for i in idx[1:]:
            total = total + y[i]
        mean = total / n
        value[node] = mean
        dev = (y[idx[0]] - mean) ** 2
        for i in idx[1:]:
            dev = dev + (y[i] - mean) ** 2
        parent_sse = target_sum(dev)
        if n <= max_unsplit or parent_sse <= 0.0:
            continue

        best = None  # (sse_total, feature, threshold)
        candidates, left_key, right_key = node_draws(key, x.shape[1])
        for f in candidates:
            xv = x[idx, f]
            order = np.argsort(xv, kind="stable")
            xs, ys = xv[order], y[idx][order]
            cuts = np.nonzero(np.diff(xs) > 0)[0]  # split after position i
            if len(cuts) == 0:
                continue
            csum = np.cumsum(ys, axis=0)
            csum2 = np.cumsum(ys ** 2, axis=0)
            tot, tot2 = csum[-1], csum2[-1]
            k = cuts + 1
            left_sse = target_sum(csum2[cuts] - csum[cuts] ** 2 / k[:, None])
            nr = n - k
            right_sse = target_sum((tot2 - csum2[cuts]) - (tot - csum[cuts]) ** 2 / nr[:, None])
            sse = left_sse + right_sse
            i = int(np.argmin(sse))
            if best is None or sse[i] < best[0]:
                best = (float(sse[i]), int(f), float((xs[cuts[i]] + xs[cuts[i] + 1]) / 2))

        if best is None or best[0] >= parent_sse:
            continue
        go_left = x[idx, best[1]] <= best[2]
        feature[node], threshold[node] = best[1], best[2]
        for link, rows, child_key in ((left, idx[go_left], left_key),
                                      (right, idx[~go_left], right_key)):
            link[node] = len(feature)
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            value.append(None)
            queue.append((link[node], rows, child_key))
    return {
        "feature": np.array(feature),
        "threshold": np.array(threshold),
        "left": np.array(left),
        "right": np.array(right),
        "value": np.array(value),
    }


def tree_predict(tree, x):
    """Walk one tree per row, from the root to a leaf."""
    out = np.empty((len(x), tree["value"].shape[1]))
    for i, row in enumerate(x):
        node = 0
        while tree["feature"][node] >= 0:
            if row[tree["feature"][node]] <= tree["threshold"][node]:
                node = tree["left"][node]
            else:
                node = tree["right"][node]
        out[i] = tree["value"][node]
    return out


def forest_predict(forest, features):
    """Mean over trees of the per-row walks, on normalized features."""
    x = forest.norm.apply(np.atleast_2d(np.asarray(features, dtype=np.float64)))
    return np.mean([tree_predict(tree, x) for tree in forest.trees], axis=0)


def train_mlp_params(features, targets, config):
    """`models.train_mlp` with the Adam state kept per parameter array
    and updated one array at a time; returns the best parameter dict. The
    validation split and each epoch's order are the library's keyed
    permutations: of the seed's "mlp_validation" stream, and of the stream
    keyed by output e of its "mlp_epoch" stream for epoch e."""
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    norm = fit_normalization(features)
    x_all = norm.apply(features)

    n = len(x_all)
    n_val = int(n * models.VALIDATION_FRACTION)
    order = rng.permutation(rng.key(config.seed, "mlp_validation"), n)
    val_idx, train_idx = order[:n_val], order[n_val:]
    x_train, y_train = x_all[train_idx], targets[train_idx]
    x_val = x_all[val_idx] if n_val else x_train
    y_val = targets[val_idx] if n_val else y_train

    params = init_mlp_params(x_all.shape[1], config.hidden_dim, targets.shape[1], config.seed)
    state = {k: np.zeros_like(v) for k, v in params.items()}
    state2 = {k: np.zeros_like(v) for k, v in params.items()}
    step = 0

    def val_mse(p):
        pred, _ = mlp_forward(p, x_val)
        return float(((pred - y_val) ** 2).mean())

    best_mse = val_mse(params)
    best = {k: v.copy() for k, v in params.items()}

    epoch_keys = splitmix64_outputs(rng.key(config.seed, "mlp_epoch"), config.epochs)
    for epoch_key in epoch_keys:
        batch_order = rng.permutation(epoch_key, len(x_train))
        for start in range(0, len(x_train), config.batch_size):
            idx = batch_order[start:start + config.batch_size]
            grads = {k: np.empty_like(v) for k, v in params.items()}
            mlp_loss_and_grads(params, x_train[idx], y_train[idx], grads)
            step += 1
            for k in params:
                state[k] = 0.9 * state[k] + 0.1 * grads[k]
                state2[k] = 0.999 * state2[k] + 0.001 * grads[k] ** 2
                m_hat = state[k] / (1 - 0.9 ** step)
                v_hat = state2[k] / (1 - 0.999 ** step)
                params[k] = params[k] - config.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
        mse = val_mse(params)
        if mse < best_mse:
            best_mse = mse
            best = {k: v.copy() for k, v in params.items()}
    return best
