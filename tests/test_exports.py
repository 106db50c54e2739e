import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "module",
    [
        "fixpairs",
        "fixpairs.space",
        "fixpairs.operators",
        "fixpairs.bvp",
        "fixpairs.solver",
        "fixpairs.hypotheses",
        "fixpairs.models",
        "fixpairs.problems",
    ],
)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_import_leaves_scipy_unloaded():
    # scipy is imported lazily by the few functions that need it
    code = "import sys, fixpairs, fixpairs.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def unused_imports(path):
    """Module-level imported names that the module neither reads nor exports."""
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and name not in exported:
                    unused.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    return unused


def test_no_unused_imports():
    # pyflakes' unused-import rule on the stdlib ast; the project has no linter
    paths = sorted(p for top in ("src", "tests", "scripts") for p in (ROOT / top).rglob("*.py"))
    assert paths
    assert [line for path in paths for line in unused_imports(path)] == []
