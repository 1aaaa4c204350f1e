"""Every command line shown in the README runs as written and exits 0, and its oracle table
and draw counts agree with the tag parser and the suites."""

import inspect
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from secgenus import suites
from secgenus.cli import main
from secgenus.variety import _oracle, catalog_build, validate

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


def test_readme_draw_counts_match_the_suite_signatures():
    # the list after "keeps its own count": each suite that takes draws, with its default
    text = (REPO / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"keeps its own count\s+\(([^)]*)\)", text)[1].split(",")
    counts = [(name, int(count)) for name, count in (item.split() for item in listed)]
    signatures = [
        (name, inspect.signature(getattr(suites, f"suite_{name}")).parameters)
        for name in suites.SUITE_NAMES
    ]
    assert counts == [(name, ps["draws"].default) for name, ps in signatures if "draws" in ps]


def test_readme_oracle_table_matches_the_tag_parser():
    # the rows below the header | `oracle` | dimension | generators |
    rows = [line.split("|")[1:4] for line in _section_lines("Command line", "| `")[1:]]
    tags = [tag.strip(" `") for tag, _, _ in rows]
    assert tags == ["p4", "p1xp3", "p2xp2", "p1xp1xp2", "hypersurface:6", "abelian"]
    for tag, (_, dim, gens) in zip(tags, rows):
        dims = _oracle(tag)[0]
        assert (sum(dims), len(dims)) == (int(dim), int(gens)), tag


def test_readme_oracle_table_names_buildable_entries():
    for tag, _, _ in (line.split("|")[1:4] for line in _section_lines("Command line", "| `")[1:]):
        tag = tag.strip(" `")
        v = catalog_build(tag, 24 if tag == "abelian" else None)
        assert v.h0_oracle == tag and validate(v).passed, tag


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
