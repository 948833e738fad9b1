"""The README's Quick start and the `demos/` scripts run as documented."""

import re
import runpy
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def _quick_start():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _exit_code(run):
    try:
        run()
    except SystemExit as exc:
        return exc.code or 0
    return 0


def test_quick_start_runs(capsys):
    block = _quick_start()
    code = compile(block, "README.md#quick-start", "exec")
    assert _exit_code(lambda: exec(code, {"__name__": "__main__"})) == 0
    printed = np.array(capsys.readouterr().out.strip(" []\n").split(), dtype=float)
    # the block's closing comment, "# ≈ [ 7.0 -3.0 ...]", within 1 dB per band
    expected = np.array(re.search(r"# ≈ \[(.*)\]", block).group(1).split(), dtype=float)
    np.testing.assert_allclose(printed, expected, rtol=0, atol=1.0)


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(script, capsys):
    path = str(ROOT / "demos" / script)
    assert _exit_code(lambda: runpy.run_path(path, run_name="__main__")) == 0
    assert capsys.readouterr().out.strip()
