"""eqrep: predict the five parametric-EQ band gains applied to a sound.

Pipeline: synthesize a note corpus, EQ it over systematic gain grids,
extract a 17-dim timbral feature vector, and train models (linear, random
forest, MLP) that invert the features back to the gains in dB.
"""

from .audio import NoteSpec, synthesize_note
from .eq import apply_eq
from .features import extract_features
from .dataset import FINE_GRID, build_dataset, single_band_settings, split
from .models import predict, train_linear

__version__ = "0.1.0"
