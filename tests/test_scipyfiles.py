import re
from pathlib import Path

import pytest

import eqrep
from eqrep import scipyfiles
from fresh import run_fresh

# Every scipy module `import eqrep.cli` may load: the top-level package with
# what its `__init__` imports, and the SOS kernel, which registers itself
# under its name. A new scipy import anywhere in eqrep fails here by name.
ALLOWED_SCIPY_MODULES = {
    "scipy", "scipy.__config__", "scipy._cyutility", "scipy._distributor_init",
    "scipy._lib", "scipy._lib._ccallback", "scipy._lib._ccallback_c",
    "scipy._lib._pep440", "scipy._lib._testutils", "scipy.version",
    "scipy.signal._sosfilt",
}

FILES = ["signal._sosfilt", "io.wavfile"]
SRC = Path(eqrep.__file__).parent


def test_cli_import_loads_only_allowed_scipy_modules():
    code = ("import sys, eqrep.cli\n"
            "print(*(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    loaded = set(run_fresh(code).split())
    assert "scipy" in loaded
    assert sorted(loaded - ALLOWED_SCIPY_MODULES) == []


def test_one_source_of_randomness():
    """Every draw comes from `rng.splitmix64`: no eqrep module reaches for
    numpy's generators or Python's `random`."""
    banned = re.compile(r"\bnp\.random\b|\bnumpy\.random\b|^\s*(import|from) random\b", re.M)
    hits = [f"{path.name}: {m.group(0).strip()}" for path in sorted(SRC.glob("*.py"))
            for m in banned.finditer(path.read_text())]
    assert len(list(SRC.glob("*.py"))) > 10 and hits == []


@pytest.mark.parametrize("name", FILES)
def test_loader_refuses_a_directory_without_the_file(tmp_path, name):
    with pytest.raises(ImportError) as exc:
        scipyfiles.load(name, tmp_path)
    stem = name.rpartition(".")[2]
    message = str(exc.value)
    assert str(tmp_path) in message and stem in message and "\n" not in message
    assert exc.value.name == f"scipy.{name}"
    assert exc.value.__context__ is None and exc.value.__cause__ is None

