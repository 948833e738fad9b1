"""The README's Quick start and the `demos/` scripts run as documented."""

import re
import runpy
import shlex
from pathlib import Path

import numpy as np
import pytest

from eqrep.cli import build_parser
from eqrep.evaluate import CHECKS

ROOT = Path(__file__).resolve().parents[1]


def _quick_start():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _cli_block_commands():
    """Each `eqrep ...` line of the README's CLI block as an argv, comments cut."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```sh\n(.*?)```", readme.split("## CLI", 1)[1], re.S).group(1)
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("eqrep ")]


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


@pytest.mark.parametrize("argv", _cli_block_commands(), ids=lambda argv: argv[0])
def test_cli_block_parses(argv):
    # parsed only, never run: an option the parser no longer takes fails here
    assert build_parser().parse_args(argv).command == argv[0]


def test_cli_block_covers_every_subcommand():
    usage = build_parser().format_usage()  # "usage: eqrep [-h] {synth,...} ..."
    commands = re.search(r"\{(.*?)\}", usage).group(1).split(",")
    assert {argv[0] for argv in _cli_block_commands()} == set(commands)


def _option_table():
    """{command: options} from the README's table of per-command options."""
    readme = (ROOT / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", readme.split("## CLI", 1)[1], re.M)
    return {command: set(re.findall(r"--[a-z-]+", cells)) for command, cells in rows}


def test_option_table_matches_the_parser(capsys):
    table = _option_table()
    assert set(table) == {argv[0] for argv in _cli_block_commands()}
    for command, documented in table.items():
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        accepted = set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) - {"--help"}
        assert documented == accepted, command


def test_readme_lists_the_built_in_checks():
    """The README's list of `reproduce`'s checks is `evaluate.CHECKS`, in order."""
    readme = (ROOT / "README.md").read_text()
    listed = re.search(r"`evaluate\.CHECKS`, in this order:\n\n((?:- .*\n)+)", readme).group(1)
    assert re.findall(r"^- `(.*)`$", listed, re.M) == [name for name, _ in CHECKS]
