"""The CI workflow's pytest lines name tests that exist.

Only a GitHub runner runs the workflow, so a renamed file, class or test
would otherwise break one of its steps unseen.
"""

import ast
import shlex
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def pytest_targets():
    """The paths and node IDs that the workflow's pytest commands name, in order."""
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]["steps"]
    targets = []
    for step in steps:
        for line in step.get("run", "").replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if "pytest" in words:
                after = words[words.index("pytest") + 1 :]
                targets += [word for word in after if not word.startswith("-")]
    return targets


def test_workflow_names_existing_tests():
    targets = pytest_targets()
    # the one-BLAS-thread rerun and the benchmark smoke test; tier-1 runs
    # the testpaths of pyproject.toml
    assert targets == [
        "tests/test_reference_outputs.py",
        "tests/test_patch_stack.py",
        "tests/test_denoisers.py::TestSinkhornScaleStack",
        "bench/test_smoke.py",
    ]
    for target in targets:
        path, *names = target.split("::")
        assert (ROOT / path).is_file(), target
        body = ast.parse((ROOT / path).read_text()).body
        for name in names:
            defined = {node.name: node for node in body if hasattr(node, "name")}
            assert name in defined, target
            body = defined[name].body
