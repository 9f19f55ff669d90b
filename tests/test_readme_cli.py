"""The command-line examples in the README parse as written.

Run as a script, ``python tests/test_readme_cli.py price surface`` prints the
README's examples of those subcommands, one shell line each, so that they
can be run as written.
"""

import re
import shlex
import sys
from pathlib import Path

import pytest

from msheston.cli import _SETTINGS, build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list:
    """The argv of each ``msheston`` command in the README's CLI block."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("msheston ")]


def _subcommand(argv) -> str:
    return argv[2] if argv[0] == "--config" else argv[0]


def _example_ids(commands) -> list:
    """Each example's subcommand, with -2, -3, ... on its repeats."""
    ids, seen = [], {}
    for argv in commands:
        name = _subcommand(argv)
        seen[name] = seen.get(name, 0) + 1
        ids.append(name if seen[name] == 1 else f"{name}-{seen[name]}")
    return ids


@pytest.mark.parametrize("argv", readme_commands(),
                         ids=_example_ids(readme_commands()))
def test_readme_example_parses(argv):
    args = build_parser().parse_args(argv)
    assert args.command == _subcommand(argv)


def test_readme_shows_every_subcommand():
    shown = {_subcommand(argv) for argv in readme_commands()}
    assert shown == {"price", "surface", "sweep", "calibrate", "validate-mc",
                     "group-params"}


def test_readme_surface_example_reports_soft_failures(capsys):
    # at 3 subdivisions and tolerances of 1e-12 every price of the example
    # misses its tolerance: the CSV is still written, each point is named on
    # stderr, and the exit code is 4, as for calibrate
    (argv,) = [a for a in readme_commands() if _subcommand(a) == "surface"]
    tight = ["--abs-tol", "1e-12", "--rel-tol", "1e-12", "--max-subdivisions", "3"]
    assert main(argv + tight) == 4
    captured = capsys.readouterr()
    rows = captured.out.strip().splitlines()[1:]
    warnings = captured.err.strip().splitlines()
    assert len(rows) == len(warnings) == 60
    assert all("nonconvergence" in line for line in warnings)
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def readme_config_table() -> dict:
    """Each section of the README's config table and the top-level keys it lists."""
    section = README.read_text().split("\n### Config file\n", 1)[1].split("\n#", 1)[0]
    table = {}
    for row in section.splitlines():
        if row.startswith("| `"):
            name, keys = row.strip("|").split("|")
            # a nested table's keys are listed in parentheses after its name
            table[name.strip(" `")] = set(re.findall(r"`(\w+)`",
                                                     re.sub(r"\([^)]*\)", "", keys)))
    return table


def test_readme_config_table_lists_every_setting():
    assert readme_config_table() == {
        section: set(keys) for section, keys in _SETTINGS.items()
    }


if __name__ == "__main__":
    for argv in readme_commands():
        if _subcommand(argv) in sys.argv[1:]:
            print(shlex.join(["msheston", *argv]))
