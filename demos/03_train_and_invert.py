"""End-to-end inversion at small scale.

Builds a single-band sweep dataset from one synthetic note, fits the linear
baseline, and checks how closely held-out gains are recovered. Runs in a few
seconds; the full-scale version is `eqrep reproduce`.
"""

import numpy as np

from eqrep.dataset import FINE_GRID, build_dataset, single_band_settings, split
from eqrep.eq import BAND_NAMES, apply_eq
from eqrep.evaluate import mse, reproduction_corpus
from eqrep.features import extract_features
from eqrep.models import predict, train_linear

corpus = reproduction_corpus()
settings = single_band_settings(FINE_GRID)
print(f"corpus: {corpus[0][0]}; {len(settings)} single-band settings")

manifest = build_dataset(corpus, settings)
train_idx, test_idx = split(manifest, seed=42)
model = train_linear(manifest.feature_matrix()[train_idx],
                     manifest.target_matrix()[train_idx])

preds = predict(model, manifest.feature_matrix()[test_idx])
targets = manifest.target_matrix()[test_idx]
overall, per_band = mse(preds, targets)
print(f"\nheld-out MSE: {overall:.5f} dB^2")
for name, band_mse in zip(BAND_NAMES, per_band):
    print(f"  {name:<9s} {band_mse:.6f}")

print("\nsample predictions (true -> predicted, dB):")
for pred, true in list(zip(preds, targets))[:5]:
    active = int(np.argmax(np.abs(true)))
    print(f"  {BAND_NAMES[active]:<9s} {true[active]:+6.1f} -> {pred[active]:+7.3f}")

# And the punchline: invert a never-before-seen setting end to end.
label, note = corpus[0]
secret = np.array([7.0, -3.0, 5.0, -9.0, 2.0])
recovered = predict(model, extract_features(apply_eq(note, secret)).to_array())
print(f"\nsecret setting   {np.round(secret, 2)}")
print(f"recovered gains  {np.round(recovered, 2)}")
