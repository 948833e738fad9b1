"""Run code in a fresh interpreter, for checks that depend on what is
imported, and in which order."""

import os
import subprocess
import sys
from pathlib import Path

import eqrep


def run_fresh(code, *argv, env=None):
    """stdout of `code` run in a fresh interpreter that imports eqrep from this
    tree, with the variables in `env` added to the environment."""
    src = str(Path(eqrep.__file__).resolve().parents[1])
    env = dict(os.environ, **(env or {}),
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=120, check=True).stdout
