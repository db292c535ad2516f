"""Cross-references in the package's source and the README.

A backticked `module.name`, with module one of the package's modules,
must name an attribute that module has, so that a renamed or deleted
function leaves no docstring, comment or README sentence pointing at it.
"""

import importlib
import re
from pathlib import Path

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
