import ast
import re
from pathlib import Path

import pytest

import eqrep
from eqrep import eq
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

SRC = Path(eqrep.__file__).parent


def test_cli_import_loads_only_allowed_scipy_modules():
    code = ("import sys, eqrep.cli\n"
            "print(*(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    loaded = set(run_fresh(code).split())
    assert "scipy" in loaded
    assert sorted(loaded - ALLOWED_SCIPY_MODULES) == []


def test_pool_loads_no_executor():
    """A map forks its workers itself: neither the CLI's imports nor a map
    load `concurrent.futures`."""
    code = ("import sys, eqrep.cli\n"
            "from eqrep.pool import fork_map\n"
            "assert fork_map(abs, [-1, 2], 2) == [1, 2]\n"
            "print(*(m for m in sys.modules if m.partition('.')[0] == 'concurrent'))")
    assert run_fresh(code).split() == []


def test_one_source_of_randomness():
    """Every draw comes from `rng.splitmix64`: no eqrep module reaches for
    numpy's generators or Python's `random`."""
    banned = re.compile(r"\bnp\.random\b|\bnumpy\.random\b|^\s*(import|from) random\b", re.M)
    hits = [f"{path.name}: {m.group(0).strip()}" for path in sorted(SRC.glob("*.py"))
            for m in banned.finditer(path.read_text())]
    assert len(list(SRC.glob("*.py"))) > 10 and hits == []


def _scipy_reaches(source):
    """The line numbers of the code in `source` that names scipy: every
    import, name, attribute or string holding "scipy", docstrings aside."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            node.body[0].value.value = ""
    code = (ast.Import, ast.ImportFrom, ast.Name, ast.Attribute, ast.Constant)
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, code) and "scipy" in ast.unparse(node)})


# Ways a module could reach scipy, each a line added to a copy of audio.py.
SCIPY_REACHES = [
    "import scipy",
    "from scipy.io import wavfile",
    "import scipy.io.wavfile as wavfile",
    "wavfile = __import__('importlib').import_module('scipy.io.wavfile')",
    "SCIPY_DIR = __import__('importlib').util.find_spec('scipy').origin",
]


def test_only_eq_reaches_scipy():
    """No eqrep module but `eq.py` imports scipy or reaches for a file under
    it; comments and docstrings may still cite the public module. Each line
    of SCIPY_REACHES, added to a copy of `audio.py`, is caught."""
    hits = {path.name: _scipy_reaches(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert hits.pop("eq.py") and len(hits) >= 10
    assert {name: lines for name, lines in hits.items() if lines} == {}
    audio = (SRC / "audio.py").read_text()
    assert "scipy.io.wavfile" in audio  # cited in docstrings, so the check must skip them
    for line in SCIPY_REACHES:
        assert _scipy_reaches(f"{audio}\n{line}\n") == [audio.count("\n") + 2], line


def test_loader_refuses_a_directory_without_the_file(tmp_path):
    with pytest.raises(ImportError) as exc:
        eq.load_sosfilt(tmp_path)
    message = str(exc.value)
    assert str(tmp_path) in message and "_sosfilt" in message and "\n" not in message
    assert exc.value.name == "scipy.signal._sosfilt"
    assert exc.value.__context__ is None and exc.value.__cause__ is None


def _models_imports_from(module):
    """Whether `models.py` imports `module` or anything from it."""
    tree = ast.parse((SRC / "models.py").read_text())
    imported = {name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in [getattr(node, "module", None) or ""]
                + [alias.name for alias in node.names]}
    assert imported
    return any(name.split(".")[-1] == module for name in imported)


def _readers(name):
    return [path.name for path in sorted(SRC.glob("*.py")) if name in path.read_text()]


def test_feature_width_has_one_source():
    """`models.py` imports nothing from `features`: a model takes its input
    width from its normalization. `FEATURE_DIM` is read only in `features.py`."""
    assert not _models_imports_from("features")
    assert _readers("FEATURE_DIM") == ["features.py"]


def test_target_width_has_one_source():
    """`models.py` imports nothing from `eq`: a model takes its output width
    from its params. `BAND_COUNT` is read only where EQ settings are made or
    checked: in `eq.py`, `dataset.py` and `cli.py`."""
    assert not _models_imports_from("eq")
    assert _readers("BAND_COUNT") == ["cli.py", "dataset.py", "eq.py"]
