"""Cross-references in the package's source and the README.

A backticked `module.name`, with module one of the package's modules,
must name an attribute that module has, so that a renamed or deleted
function leaves no docstring, comment or README sentence pointing at it.
README's table of each command's flags must list what the command's
parser takes.
"""

import importlib
import re
from pathlib import Path

from mixedgraph import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mixedgraph"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
REFERENCE = re.compile(rf"`({'|'.join(MODULES)})\.(\w+)`")


def test_every_module_reference_resolves():
    found, missing = 0, []
    for path in [*sorted(PACKAGE.glob("*.py")), ROOT / "README.md"]:
        for module, name in REFERENCE.findall(path.read_text(encoding="utf-8")):
            found += 1
            if not hasattr(importlib.import_module(f"mixedgraph.{module}"), name):
                missing.append(f"{path.name}: `{module}.{name}`")
    assert found >= 10, "the pattern no longer finds the references"
    assert missing == []


def test_readme_flag_table_matches_the_parsers():
    # README's per-command table: `command` (count) | groups and `--flags`,
    # each group's flags spelled once, in a "- group: `--flags`" bullet
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `([\w-]+)` \((\d+)\) \| (.+) \|$", text, re.M)
    groups = dict(re.findall(r"^- (\w+): `([^`]+)`", text, re.M))
    parsers = cli._parsers()[1]
    assert sorted(command for command, *_ in rows) == sorted(parsers)
    for command, count, cell in rows:
        listed = []
        for flags, group in re.findall(r"`([^`]+)`|(\w+)", cell):
            listed += (groups[group] if group else flags).split()
        takes = [
            flag
            for action in parsers[command]._actions
            for flag in action.option_strings
            if flag not in ("-h", "--help")
        ]
        assert int(count) == len(listed) == len(set(listed)), command
        assert sorted(listed) == sorted(takes), command
