"""Every command line shown in the README runs as written and exits 0."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from secgenus.cli import main

REPO = Path(__file__).resolve().parents[1]


def _section_lines(heading: str, prefix: str) -> list[str]:
    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return [line.strip() for line in section.splitlines() if line.startswith(prefix)]


CLI_LINES = _section_lines("Command line", "secgenus ")
DEMO_LINES = _section_lines("Demos", "python3 demos/")


def test_readme_lists_every_demo():
    assert CLI_LINES
    listed = sorted(Path(shlex.split(line)[1]).name for line in DEMO_LINES)
    assert listed == sorted(p.name for p in (REPO / "demos").glob("*.py"))


@pytest.mark.parametrize("line", CLI_LINES)
def test_readme_command_line(capsys, line):
    code = main(shlex.split(line)[1:])
    _, err = capsys.readouterr()
    assert code == 0, err


@pytest.mark.parametrize("line", DEMO_LINES)
def test_readme_demo(line):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run(
        [sys.executable, *shlex.split(line)[1:]],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
