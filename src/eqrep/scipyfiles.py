"""Two private scipy modules, each loaded from its own file without running
the package `__init__` files above it, which would load `scipy.stats`,
`scipy.interpolate`, `scipy.sparse`, `numpy.f2py` and `scipy.io.matlab`.
So `import eqrep` runs only the top-level `scipy` package beside numpy:

- `signal/_sosfilt*.so`, the Cython kernel that `scipy.signal.sosfilt` runs
  after it validates and copies its arguments (`eq.apply_eq`);
- `io/wavfile.py`, the module `scipy.io.wavfile`, which imports only the
  standard library and numpy (`audio.read_wav` and `audio.write_wav`).

They are private to scipy and were checked only on scipy 1.17.1. The tests
in `tests/test_eq.py` and `tests/test_audio.py` hold each to its public
scipy function byte for byte; a scipy upgrade must rerun them.
"""

import importlib.machinery
import importlib.util
from pathlib import Path

import scipy

SCIPY_DIR = Path(scipy.__file__).parent

_LOADERS = ((importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
            (importlib.machinery.SourceFileLoader, importlib.machinery.SOURCE_SUFFIXES))


def load(name, directory=None):
    """The module `scipy.<name>`, e.g. `load("signal._sosfilt")`, from its
    compiled or `.py` file in `directory`, by default its place in the
    installed scipy."""
    package, _, stem = name.rpartition(".")
    directory = Path(directory) if directory is not None else SCIPY_DIR.joinpath(*package.split("."))
    fullname = f"scipy.{name}"
    spec = importlib.machinery.FileFinder(str(directory), *_LOADERS).find_spec(fullname)
    if spec is None:
        raise ImportError(f"no file for {fullname} ({stem}.py or a compiled {stem}) "
                          f"in {directory}", name=fullname)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
