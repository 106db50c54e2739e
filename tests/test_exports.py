import ast
import importlib
import subprocess
import sys
from collections import Counter
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


def private_definitions(tree):
    """(name, node) of every module-level definition of a private name _x."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node


def name_reads(node):
    """Every name read under node: loaded names and attribute names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_no_unreferenced_private_names():
    # a private helper whose last caller is gone is dead code; a read inside
    # the definition itself (a recursive call) does not count
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for path in sorted((ROOT / "src").rglob("*.py"))
    }
    assert trees
    reads = Counter(name for tree in trees.values() for name in name_reads(tree))
    unreferenced = [
        f"{path.relative_to(ROOT)}:{node.lineno}: {name}"
        for path, tree in trees.items()
        for name, node in private_definitions(tree)
        if reads[name] == sum(1 for read in name_reads(node) if read == name)
    ]
    assert unreferenced == []
